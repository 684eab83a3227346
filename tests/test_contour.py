import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fctk import geometry
from fctk.asymptotics import pr_approx
from fctk.contour import QuadratureGrid, contour_eval, msp_value, verify_h_max
from fctk.errors import AsymmetryWarning, DomainError, GuardExceeded
from fctk.geometry import PhiCoordinate, rho_at
from fctk.poly import ModelParams, build_f, eval_exact, rescale_arg


def exact_rescaled(params, x):
    return eval_exact(rescale_arg(build_f(params), params), Fraction(x))


def brute_contour_sum(params, x, m):
    """The torus trapezoid sum node by node, one m^(r-1) slab at a time."""
    r, n = params.r, params.n
    phi = geometry.rho_inv(r, float(x)).phi
    a = geometry.saddle_modulus_at(r, phi)
    b = math.sin((r + 1) * phi) / math.sin(phi)
    t = QuadratureGrid(r, m).nodes
    mesh = np.meshgrid(*[t] * (r - 1), indexing="ij")
    inner_e = sum(np.exp(1j * s) for s in mesh)
    inner_t = sum(mesh)
    inner_q = sum(nu_j * s for nu_j, s in zip(params.nu[1:], mesh))
    total = 0.0 + 0.0j
    for t_i in t:
        slab = np.exp(n * a * (np.exp(1j * t_i) + inner_e))
        slab = slab * (1 - b * np.exp(-1j * (t_i + inner_t))) ** n
        total += (slab * np.exp(-1j * (params.nu[0] * t_i + inner_q))).sum()
    prefactor = (math.sin(r * phi) / (n * math.sin((r + 1) * phi))) ** params.nu_sum
    return float((total / m**r * prefactor).real)


def h_profile(c, points):
    """Modulus-squared profile h at an array of torus points (last axis = r)."""
    r, phi = c.r, c.phi
    a = geometry.saddle_modulus_at(r, phi)
    s1, sr1 = math.sin(phi), math.sin((r + 1) * phi)
    cos_sum = np.cos(points).sum(axis=-1)
    coord_sum = points.sum(axis=-1)
    return np.exp(2 * a * cos_sum) * (
        s1 * s1 + sr1 * sr1 - 2 * s1 * sr1 * np.cos(coord_sum)
    )


def test_grid_guards():
    QuadratureGrid(3, 96)
    with pytest.raises(GuardExceeded):
        QuadratureGrid(1, 4)
    # no m^r node guard: the sums cost (r-1) m^2, never m^r
    assert len(QuadratureGrid(3, 1000).nodes) == 1000
    g = QuadratureGrid(2, 16)
    assert len(g.nodes) == 16
    assert g.nodes[0] == -math.pi


def test_contour_matches_exact():
    cases = [
        (ModelParams(1, (0,), 3), 2, 256, 1e-10),
        (ModelParams(2, (1, 2), 2), 3, 128, 1e-8),
        (ModelParams(3, (2, 4, 5), 4), 4, 64, 1e-8),
        (ModelParams(2, (0, 0), 6), Fraction(27, 8), 256, 1e-10),
    ]
    for params, x, m, tol in cases:
        approx = contour_eval(params, float(x), QuadratureGrid(params.r, m))
        exact = float(exact_rescaled(params, x))
        assert abs(approx - exact) <= tol * abs(exact)


def test_contour_matches_brute_tensor_sum():
    cases = [
        (ModelParams(1, (0,), 3), Fraction(2)),
        (ModelParams(1, (2,), 5), Fraction(1, 3)),
        (ModelParams(2, (1, 2), 2), Fraction(3)),
        (ModelParams(2, (0, 0), 6), Fraction(27, 8)),
        (ModelParams(3, (2, 4, 5), 4), Fraction(4)),
        (ModelParams(3, (0, 1, 0), 7), Fraction(1, 2)),
    ]
    for (params, x), m in itertools.product(cases, (16, 32)):
        brute = brute_contour_sum(params, x, m)
        fast = contour_eval(params, float(x), QuadratureGrid(params.r, m))
        assert abs(fast - brute) <= 1e-12 * abs(brute), (params, x, m, fast, brute)


@st.composite
def contour_cases(draw):
    r = draw(st.integers(1, 5))
    nu = draw(st.tuples(*[st.integers(0, 3)] * r))
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, 64))
    xs = geometry.x_star(r)
    p = draw(st.integers(1, math.ceil(xs * q) - 1))
    return ModelParams(r, nu, n), Fraction(p, q)


@settings(max_examples=60, deadline=None)
@given(contour_cases())
def test_contour_matches_exact_property(case):
    params, x = case
    exact = exact_rescaled(params, x)
    assume(exact != 0)
    approx = contour_eval(params, float(x), QuadratureGrid(params.r, 256))
    assert abs(approx - float(exact)) <= 1e-8 * abs(float(exact))


def test_contour_spectral_convergence():
    params = ModelParams(2, (1, 0), 5)
    x = 2.5
    exact = float(exact_rescaled(params, Fraction(5, 2)))
    errors = []
    for m in (16, 32, 64):
        approx = contour_eval(params, x, QuadratureGrid(2, m))
        errors.append(abs(approx - exact) / abs(exact))
    # at least 10x shrink per doubling until the rounding floor
    for a, b in zip(errors, errors[1:]):
        if a < 1e-13:
            break
        assert b < a / 10


def test_contour_domain_checks():
    params = ModelParams(2, (0, 0), 3)
    with pytest.raises(DomainError):
        contour_eval(params, 7.0, QuadratureGrid(2, 64))  # above x_star = 27/4
    with pytest.raises(DomainError):
        contour_eval(params, 0.0, QuadratureGrid(2, 64))
    with pytest.raises(DomainError):
        contour_eval(params, 1.0, QuadratureGrid(1, 64))  # dimension mismatch


class _ShiftedGrid(QuadratureGrid):
    """Nodes moved by 0.3 of a cell: the t -> -t symmetry of the sum is lost."""

    @property
    def nodes(self):
        return super().nodes + 0.3 * 2.0 * math.pi / self.m


def test_asymmetry_warning():
    params = ModelParams(2, (1, 0), 5)
    contour_eval(params, 1.0, QuadratureGrid(2, 64))  # symmetric: no warning
    with pytest.warns(AsymmetryWarning):
        contour_eval(params, 1.0, _ShiftedGrid(2, 64))


def test_msp_matches_pr_assembly():
    for r, nu, n, frac in (
        (1, (0,), 50, 0.5),
        (2, (1, 2), 50, 0.35),
        (3, (2, 4, 5), 150, 0.525),
        (4, (1, 0, 2, 3), 30, 0.6),
        (3, (2, 4, 5), 1000, 0.525),
        (1, (0,), 5000, 0.5),
    ):
        params = ModelParams(r, nu, n)
        c = PhiCoordinate(r, frac * math.pi / (r + 1))
        ms = msp_value(params, c)
        pr = pr_approx(params, c).assembled
        assert abs(ms - pr) <= 1e-10 * abs(pr)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.tuples(*[st.integers(0, 5)] * r),
            st.integers(1, 5000),
            st.floats(0.05, 0.95),
        )
    )
)
def test_msp_matches_pr_assembly_property(case):
    # both assemblies run at 140 + bitlen(n) + bitlen(r + sum(nu)) bits
    r, nu, n, frac = case
    params = ModelParams(r, nu, n)
    c = PhiCoordinate(r, frac * math.pi / (r + 1))
    ms = msp_value(params, c)
    pr = pr_approx(params, c).assembled
    assert abs(ms - pr) <= 1e-10 * abs(pr)


def test_msp_close_to_contour():
    params = ModelParams(1, (0,), 50)
    c = PhiCoordinate(1, math.pi / 4)
    x = rho_at(1, c.phi)
    cv = contour_eval(params, x, QuadratureGrid(1, 512))
    ms = float(msp_value(params, c))
    from fctk.asymptotics import pr_prefactor_log

    pref = math.exp(pr_prefactor_log(params, c).log_magnitude)
    assert abs(cv - ms) / pref < 0.1


def test_conjugate_saddle_assembly_is_real():
    # assemble the -phi saddle contribution directly from its own data and
    # check it conjugates the +phi contribution, making the sum real
    r, n, nu = 2, 20, (1, 2)
    phi = 0.4
    with mp.workprec(300):
        p = mp.mpf(phi)
        s1, sr, sr1 = mp.sin(p), mp.sin(r * p), mp.sin((r + 1) * p)
        a = sr1 / sr

        def contribution(sign):
            ps = -a * r * mp.e ** (sign * 1j * p) - mp.log(
                1 - (sr1 / s1) * mp.e ** (-sign * 1j * r * p)
            )
            qs = mp.e ** (-sign * 1j * sum(nu) * p)
            d = 1 - (r * s1 / sr) * mp.e ** (sign * 1j * (r + 1) * p)
            sqrt_det = (mp.sqrt(a) * mp.e ** (sign * 1j * p / 2)) ** (r - 1) * mp.sqrt(
                a * mp.e ** (sign * 1j * p) * d
            )
            return (2 * mp.pi / n) ** (mp.mpf(r) / 2) * mp.e ** (-n * ps) * qs / sqrt_det

        i_plus = contribution(+1)
        i_minus = contribution(-1)
        assert abs(i_minus - mp.conj(i_plus)) <= 1e-40 * abs(i_plus)
        total = i_plus + i_minus
        assert abs(mp.im(total)) <= 1e-40 * abs(total)


def test_h_max_examples():
    argmax, dist = verify_h_max(PhiCoordinate(1, math.pi / 3), 1024)
    assert dist <= 2 * math.pi / 1024
    argmax, dist = verify_h_max(PhiCoordinate(2, 0.4), 256)
    assert dist <= 2 * math.pi * math.sqrt(2) / 256
    with pytest.raises(DomainError):
        verify_h_max(PhiCoordinate(1, 0.5), 32)


def test_h_max_matches_brute_grid_maximum():
    for r, m in ((1, 64), (2, 64), (3, 64)):
        t = QuadratureGrid(r, m).nodes
        pts = np.stack(np.meshgrid(*[t] * r, indexing="ij"), axis=-1).reshape(-1, r)
        for frac in (0.01, 0.3, 2 / 3, 0.99):
            c = PhiCoordinate(r, frac * math.pi / (r + 1))
            grid_max = h_profile(c, pts).max()
            argmax, _ = verify_h_max(c, m)
            # values, not indices: +phi and -phi tie up to rounding
            assert abs(h_profile(c, argmax) - grid_max) <= 1e-12 * grid_max


def test_h_symmetry_exact():
    c = PhiCoordinate(3, 0.3)
    plus = h_profile(c, np.array([0.3, 0.3, 0.3]))
    minus = h_profile(c, np.array([-0.3, -0.3, -0.3]))
    assert plus == minus


def test_h_peak_value_dominates_grid():
    c = PhiCoordinate(2, 0.7)
    t = QuadratureGrid(2, 128).nodes
    pts = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1)
    grid_max = h_profile(c, pts.reshape(-1, 2)).max()
    peak = h_profile(c, np.array([c.phi, c.phi]))
    assert peak >= grid_max

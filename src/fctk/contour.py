"""Independent oracles on the integral representation of F_n(n^r x).

On the torus [-pi, pi]^r with contour radius a(phi) the rescaled
polynomial equals

    (2 pi)^(-r) (sin r phi / (n sin (r+1) phi))^(nu_1+...+nu_r)
        * integral of exp(n a sum_j e^{i t_j})
                      (1 - b e^{-i sum_j t_j})^n e^{-i sum_j nu_j t_j} dt,

with a = sin((r+1)phi)/sin(r phi) and b = sin((r+1)phi)/sin(phi).  The
integrand is entire and 2 pi periodic, so the tensor-product trapezoid
sum on m equispaced points per axis converges spectrally in m.

That sum never visits its m^r nodes.  The integrand is a product of the
per-axis vectors u_j[k] = exp(n a e^{i t_k}) e^{-i nu_j t_k} and a
function of sum_j t_j.  On the nodes t_k = -pi + 2 pi k / m, a sum of r
nodes is congruent mod 2 pi to t_K - (r-1) pi with K = sum_j k_j mod m,
so the trapezoid sum equals the cyclic convolution u_1 * ... * u_r dotted
with (1 - b (-1)^(r-1) e^{-i t_K})^n: (r-1) direct convolutions of m^2
operations each.  The same identity turns the grid maximum of the
modulus-squared profile h into (r-1) max-plus convolutions of 2 a cos t_k.

The saddle-point value assembled from the Hessian data provides the
matching large-n approximation, and the grid maximum of h is checked to
lie within one cell of (+-phi, ..., +-phi).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import geometry
from .asymptotics import _working_prec
from .errors import AsymmetryWarning, DomainError, GuardExceeded
from .geometry import PhiCoordinate
from .poly import ModelParams

_IMAG_RESIDUAL_REL = 1e-10
_MAX_PLUS_ROWS = 32  # rows of the m x m max-plus sums held at once


@dataclass(frozen=True)
class QuadratureGrid:
    """Equispaced periodic nodes t_k = -pi + 2 pi k / m on each of r axes.

    The trapezoid sums over the m^r tensor nodes are evaluated as cyclic
    convolutions along the axes, (r-1) m^2 operations in all.
    """

    r: int
    m: int

    def __post_init__(self):
        if self.r < 1:
            raise DomainError(f"dimension r must be >= 1, got {self.r}")
        if not isinstance(self.m, int):
            raise DomainError(f"points per axis must be an integer, got {self.m!r}")
        if self.m < 8:
            raise GuardExceeded(f"need at least 8 points per axis, got {self.m}")

    @property
    def nodes(self) -> np.ndarray:
        return -math.pi + 2.0 * math.pi * np.arange(self.m) / self.m


def _rotations(vec: np.ndarray) -> np.ndarray:
    """Read-only m x m view with rows[K, j] = vec[(K + j) mod m]."""
    return sliding_window_view(np.concatenate((vec, vec)), vec.shape[0])[:-1]


def _reflected(vec: np.ndarray) -> np.ndarray:
    """vec[(-j) mod m] for j = 0..m-1."""
    return vec[-np.arange(vec.shape[0]) % vec.shape[0]]


def _cyclic_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[(K - k) mod m] b[k] for every K, by direct summation.

    Direct rather than FFT: the FFT's error floor is absolute, relative
    to the largest term, and the sums here cancel heavily.  matmul reads
    the strided view in place, so no m x m array is allocated.
    """
    return _rotations(a) @ _reflected(b)


def _max_plus_convolution(a: np.ndarray, b: np.ndarray):
    """max_k a[(K - k) mod m] + b[k] for every K, and the maximizing k."""
    m = a.shape[0]
    rows, b_neg = _rotations(a), _reflected(b)
    best = np.empty(m)
    arg = np.empty(m, dtype=np.intp)
    for lo in range(0, m, _MAX_PLUS_ROWS):
        block = rows[lo : lo + _MAX_PLUS_ROWS] + b_neg
        j = block.argmax(axis=1)
        best[lo : lo + _MAX_PLUS_ROWS] = block[np.arange(block.shape[0]), j]
        arg[lo : lo + _MAX_PLUS_ROWS] = -j % m
    return best, arg


def contour_eval(params: ModelParams, x: float, grid: QuadratureGrid) -> float:
    """Trapezoid value of the torus integral; matches eval_exact spectrally.

    The imaginary part must vanish by t -> -t symmetry and is checked
    against a relative bound; exceeding it emits AsymmetryWarning.
    """
    if grid.r != params.r:
        raise DomainError(f"grid dimension {grid.r} != params.r {params.r}")
    if params.n < 1:
        raise DomainError("contour representation requires degree n >= 1")
    r, n = params.r, params.n
    xs = float(geometry.x_star(r))
    if not (0.0 < float(x) < xs):
        raise DomainError(f"x must lie in (0, {xs}), got {x}")
    phi = geometry.rho_inv(r, float(x)).phi
    a = geometry.saddle_modulus_at(r, phi)
    b = math.sin((r + 1) * phi) / math.sin(phi)

    t = grid.nodes
    radial = np.exp(n * a * np.exp(1j * t))
    # sum_j t_j = t_K - (r-1) pi (mod 2 pi), K = sum_j k_j mod m
    tail = (1 - (-1) ** (r - 1) * b * np.exp(-1j * t)) ** n
    radial_abs = np.abs(radial)
    conv = radial * np.exp(-1j * params.nu[0] * t)
    conv_abs = radial_abs
    for nu_j in params.nu[1:]:
        conv = _cyclic_convolution(conv, radial * np.exp(-1j * nu_j * t))
        conv_abs = _cyclic_convolution(conv_abs, radial_abs)
    total = conv @ tail
    l1 = conv_abs @ np.abs(tail)  # sum of |integrand| over all m^r nodes
    prefactor = (math.sin(r * phi) / (n * math.sin((r + 1) * phi))) ** params.nu_sum
    value = total / grid.m**r * prefactor
    # imaginary part vanishes by t -> -t symmetry up to rounding; compare
    # against the larger of the value and the quadrature noise floor
    noise_scale = max(abs(value.real), 1e-3 * l1 / grid.m**r * prefactor)
    if noise_scale > 0 and abs(value.imag) > _IMAG_RESIDUAL_REL * noise_scale:
        warnings.warn(
            f"imaginary residual {value.imag} exceeds {_IMAG_RESIDUAL_REL} relative",
            AsymmetryWarning,
        )
    return float(value.real)


def msp_value(params: ModelParams, c: PhiCoordinate) -> mp.mpf:
    """Saddle-point approximation of F_n(n^r rho(phi)).

    Both conjugate saddle contributions are assembled from
    exp(-n p(saddle)), q(saddle) and det Hess p; the square root takes
    the principal branch of each Hessian eigenvalue, the choice fixed by
    the Gaussian integral normalization.  Equals the oscillatory
    approximation of fctk.asymptotics identically.
    """
    if params.r != c.r:
        raise DomainError(f"params.r={params.r} does not match coordinate r={c.r}")
    if params.n < 1:
        raise DomainError("saddle approximation requires degree n >= 1")
    r, n = params.r, params.n
    with mp.workprec(_working_prec(params)):
        phi = mp.mpf(c.phi)
        s1, sr, sr1 = mp.sin(phi), mp.sin(r * phi), mp.sin((r + 1) * phi)
        a = sr1 / sr
        p_saddle = -a * r * mp.e ** (1j * phi) - mp.log(1 - (sr1 / s1) * mp.e ** (-1j * r * phi))
        q_saddle = mp.e ** (-1j * sum(params.nu) * phi)
        d_factor = 1 - (r * s1 / sr) * mp.e ** (1j * (r + 1) * phi)
        # principal square roots of the eigenvalues a e^{i phi} (x r-1) and
        # a e^{i phi} d_factor
        sqrt_det = (mp.sqrt(a) * mp.e ** (1j * phi / 2)) ** (r - 1) * mp.sqrt(
            a * mp.e ** (1j * phi) * d_factor
        )
        i_plus = (2 * mp.pi / n) ** (mp.mpf(r) / 2) * mp.e ** (-n * p_saddle) * q_saddle / sqrt_det
        value = (
            (sr / (n * sr1)) ** params.nu_sum
            / (2 * mp.pi) ** r
            * 2
            * mp.re(i_plus)
        )
        return +value


def verify_h_max(c: PhiCoordinate, grid_m: int):
    """Grid argmax of h and its distance to the nearer of (+-phi, ..., +-phi).

    h = exp(2 a sum_j cos t_j) |sin phi - sin((r+1) phi) e^{-i sum_j t_j}|^2
    is maximized in the log domain: a max-plus convolution of 2 a cos t_k
    per axis plus the log of the second factor, backtracked to the nodes.
    The distance must stay within one grid cell diagonal, 2 pi sqrt(r)/m.
    """
    if grid_m < 64:
        raise DomainError(f"grid_m must be >= 64, got {grid_m}")
    t = QuadratureGrid(c.r, grid_m).nodes
    r, phi = c.r, c.phi
    s1, sr, sr1 = math.sin(phi), math.sin(r * phi), math.sin((r + 1) * phi)
    a = geometry._saddle_modulus(sr, sr1)

    axis = 2 * a * np.cos(t)
    best, choices = axis, []
    for _ in range(r - 1):
        best, k = _max_plus_convolution(best, axis)
        choices.append(k)
    # cos(sum_j t_j) = (-1)^(r-1) cos t_K; the factor is >= 0 and may be 0
    tail = s1 * s1 + sr1 * sr1 - 2 * s1 * sr1 * (-1) ** (r - 1) * np.cos(t)
    with np.errstate(divide="ignore"):
        log_tail = np.log(np.maximum(tail, 0.0))
    K = int(np.argmax(best + log_tail))
    idx = []
    for k in reversed(choices):
        idx.append(int(k[K]))
        K = (K - idx[-1]) % grid_m
    idx.append(K)
    argmax = t[idx[::-1]]
    d_plus = float(np.linalg.norm(argmax - phi))
    d_minus = float(np.linalg.norm(argmax + phi))
    return argmax, min(d_plus, d_minus)

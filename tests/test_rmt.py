import math

import numpy as np
import pytest

from fctk import rng
from fctk.fuss_catalan import FussCatalanDist
from fctk.poly import ModelParams
from fctk.rmt import aggregate_measure, mean_moment, sample_spectrum
from fctk.rng import complex_gaussians, generator, uniforms
from fctk.zeros import EmpiricalMeasure, ks_distance


def test_uniform_stream_determinism():
    a = uniforms(42, 1000)
    assert np.array_equal(a, uniforms(42, 1000))
    assert not np.array_equal(a, generator(42, 1).random(1000))
    # the top seeds are keys of their own, not rounded through a float
    assert not np.array_equal(uniforms(2**64 - 1, 10), uniforms(2**64 - 2, 10))
    assert ((a >= 0) & (a < 1)).all()


def test_complex_gaussian_moments():
    z = complex_gaussians(generator(7), (200_000,))
    assert z.shape == (200_000,)
    assert abs(z.mean()) < 0.01
    assert abs(np.mean(np.abs(z) ** 2) - 1) < 0.01
    assert abs(np.mean(z**2)) < 0.01


def test_spectrum_shape_and_determinism():
    params = ModelParams(2, (1, 2), 30)
    s = sample_spectrum(params, seed=5)
    assert len(s) == 30
    assert (s >= 0).all()
    assert np.array_equal(s, np.sort(s))
    assert np.array_equal(s, sample_spectrum(params, seed=5))
    assert not np.array_equal(s, sample_spectrum(params, seed=6))


def test_single_entry_is_exponential():
    # r=1, nu=(0), n=1: |complex gaussian|^2 is Exp(1)
    params = ModelParams(1, (0,), 1)
    draws = np.array([sample_spectrum(params, seed=s)[0] for s in range(30_000)])
    assert abs(draws.mean() - 1.0) < 0.02
    assert (draws >= 0).all()


def test_aggregate_and_moments():
    params = ModelParams(2, (0, 0), 100)
    m = aggregate_measure(params, trials=20, seed=7)
    assert m.n == 2000
    d = FussCatalanDist(2)
    pts = np.asarray(m.points)
    for k in (1, 2, 3):
        exact = float(d.moment_exact(k))
        se = pts**k
        stderr = se.std() / math.sqrt(len(se))
        assert abs(mean_moment(m, k) - exact) <= 3 * stderr
    assert mean_moment(m, 0) == 1.0


def test_empirical_measure_holds_one_sorted_read_only_array():
    for given in ((3.0, 1.0, 2.0), [3, 1, 2], np.array([3.0, 1.0, 2.0])):
        m = EmpiricalMeasure(given)
        assert isinstance(m.points, np.ndarray) and m.points.dtype == np.float64
        assert m.points.tolist() == [1.0, 2.0, 3.0]
        assert not m.points.flags.writeable
    params = ModelParams(2, (1, 0), 30)
    spectra = [sample_spectrum(params, seed=3, trial=t) for t in range(4)]
    pooled = aggregate_measure(params, trials=4, seed=3).points
    assert pooled.tobytes() == np.sort(np.concatenate(spectra)).tobytes()


def test_neighbouring_seeds_share_no_spectrum():
    params = ModelParams(1, (0,), 10)
    m7 = aggregate_measure(params, trials=50, seed=7)
    m8 = aggregate_measure(params, trials=50, seed=8)
    assert np.intersect1d(m7.points, m8.points).size == 0
    # trial 0 is the seed's single draw; later trials are distinct draws
    assert np.array_equal(sample_spectrum(params, seed=8),
                          sample_spectrum(params, seed=8, trial=0))
    assert not np.array_equal(sample_spectrum(params, seed=7, trial=1),
                              sample_spectrum(params, seed=8))


def test_draw_t_is_stream_1_plus_t():
    # r=1, nu=(0), n=1: the spectrum is d_0^2, the first gamma variate of the stream
    params = ModelParams(1, (0,), 1)
    for seed, trial in ((0, 0), (7, 0), (7, 3), (2**64 - 1, 41)):
        g = generator(seed, 1 + trial).standard_gamma(1.0)
        got = sample_spectrum(params, seed, trial=trial)[0]
        assert got == pytest.approx(g, rel=1e-15)


def test_streams_never_overlap(monkeypatch):
    # every (seed, stream) key that sampling and simulation open is distinct,
    # and each RMT draw opens exactly one
    keys = []
    real = rng.generator

    def spy(seed, stream=0):
        keys.append((seed, stream))
        return real(seed, stream)

    monkeypatch.setattr(rng, "generator", spy)
    trials = 4
    for seed in (7, 8):
        FussCatalanDist(2).sample(10, seed)
        opened = len(keys)
        aggregate_measure(ModelParams(2, (0, 0), 5), trials, seed)
        assert len(keys) - opened == trials
    assert len(keys) == 2 * (1 + trials)
    assert len(set(keys)) == len(keys)


def test_ks_improvement():
    d = FussCatalanDist(1)
    big = aggregate_measure(ModelParams(1, (0,), 200), trials=10, seed=3)
    small = aggregate_measure(ModelParams(1, (0,), 50), trials=40, seed=3)
    assert big.n == small.n == 2000
    assert ks_distance(big, d) < ks_distance(small, d)
    assert ks_distance(big, d) < 0.05


def test_moment_convergence_full_size():
    # n = 200, 50 trials: first three moments within 3 standard errors
    for r in (1, 2, 3):
        params = ModelParams(r, (0,) * r, 200)
        m = aggregate_measure(params, trials=50, seed=91)
        d = FussCatalanDist(r)
        pts = np.asarray(m.points)
        for k in (1, 2, 3):
            exact = float(d.moment_exact(k))
            stderr = (pts**k).std() / math.sqrt(pts.size)
            assert abs(mean_moment(m, k) - exact) <= 3 * stderr, (r, k)


def _exact_trace_moments(params):
    # E tr W and E tr W^2 of W = Y*Y before the division by n^r, from the
    # exact finite-n moments of Wishart products (Graczyk, Letac & Massam,
    # Ann. Statist. 2003) at order m <= 2; p11 is E (tr W)^2
    n = params.n
    p1, p2, p11 = n, n, n * n
    for v in params.nu:
        big = n + v
        p1, p2, p11 = big * p1, big**2 * p2 + big * p11, big**2 * p11 + big * p2
    return p1, p2


def _trace_moment_z(params, trials, seed):
    scale = float(params.n) ** params.r
    w = np.array([sample_spectrum(params, seed, trial=t) for t in range(trials)]) * scale
    z = []
    for k, exact in zip((1, 2), _exact_trace_moments(params)):
        per_trial = (w**k).sum(axis=1)
        z.append((per_trial.mean() - exact) / (per_trial.std(ddof=1) / math.sqrt(trials)))
    return z


@pytest.mark.parametrize("r, nu, n, trials", [
    (1, (0,), 3, 20_000),
    (1, (2,), 5, 20_000),
    (2, (0, 0), 4, 20_000),
    (2, (1, 3), 5, 20_000),
    (3, (0, 1, 2), 3, 20_000),
    (2, (0, 0), 200, 200),
])
def test_trace_moments_are_exact(r, nu, n, trials):
    z = _trace_moment_z(ModelParams(r, nu, n), trials, seed=24)
    assert max(abs(v) for v in z) <= 4, z


class _ExtraDegree:
    """A stream whose first gamma draw, the diagonal d, has one more degree of freedom."""

    def __init__(self, gen):
        self._gen, self._first = gen, True

    def standard_gamma(self, shape):
        shape, self._first = shape + self._first, False
        return self._gen.standard_gamma(shape)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def test_trace_moments_catch_a_wrong_diagonal(monkeypatch):
    real = rng.generator
    monkeypatch.setattr(rng, "generator", lambda seed, stream=0: _ExtraDegree(real(seed, stream)))
    for params in (ModelParams(1, (0,), 3), ModelParams(2, (1, 3), 5)):
        z = _trace_moment_z(params, 2_000, seed=24)
        assert max(abs(v) for v in z) > 4, (params, z)


def _dense_reference_spectrum(params, gen):
    # every factor drawn dense and multiplied out: the sampler before the
    # first factor was drawn in bidiagonal form, kept as a reference
    dims = [params.n] + [params.n + v for v in params.nu]
    y = complex_gaussians(gen, (dims[1], dims[0]))
    for j in range(2, params.r + 1):
        y = complex_gaussians(gen, (dims[j], dims[j - 1])) @ y
    singular = np.linalg.svd(y, compute_uv=False)
    return np.sort(singular * singular) / float(params.n) ** params.r


@pytest.mark.parametrize("r, nu", [(1, (0,)), (1, (3,)), (2, (1, 3)), (3, (0, 1, 2))])
def test_bidiagonal_sampler_matches_dense_reference(r, nu):
    from scipy.stats import ks_2samp

    params, trials = ModelParams(r, nu, 4), 4_000
    new = np.array([sample_spectrum(params, seed=31, trial=t) for t in range(trials)])
    ref = np.array([_dense_reference_spectrum(params, generator(32, 1 + t))
                    for t in range(trials)])
    for k in (1, 2, 3):
        a, b = (new**k).mean(axis=1), (ref**k).mean(axis=1)
        z = (a.mean() - b.mean()) / math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / trials)
        assert abs(z) <= 4, (k, z)
    # the hard edge, where the tails of the d_i decide
    assert ks_2samp(new[:, 0], ref[:, 0]).pvalue > 1e-4


def test_decomposition_failure_records_seed(monkeypatch):
    from fctk.errors import DecompositionFailure

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    with pytest.raises(DecompositionFailure, match="seed 123"):
        sample_spectrum(ModelParams(1, (0,), 4), seed=123)


def test_mean_moment_validation():
    assert mean_moment(EmpiricalMeasure((4.0,)), 0.5) == 2.0
    with pytest.raises(ValueError):
        mean_moment(EmpiricalMeasure(()), 1)
    with pytest.raises(ValueError):
        aggregate_measure(ModelParams(1, (0,), 5), trials=0, seed=1)

"""Monte Carlo spectra of products of rectangular complex Ginibre matrices.

Each factor X_j has shape (n + nu_j) x (n + nu_{j-1}) with nu_0 = 0 and
independent complex Gaussian entries of unit variance, so the squared
singular values of Y = X_r ... X_1 divided by n^r converge to the
Fuss-Catalan law of order r with no extra constant.  Singular values are
taken from an SVD of the full product; forming Y*Y would square the
condition number.  Draw t of a seed takes its factors X_1, ..., X_r, in
order, from the one stream 1 + t of that seed (see fctk.rng), so no two
draws share a stream and the same seed and numpy version give the same
spectra.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .errors import DecompositionFailure, DomainError, as_index
from .poly import ModelParams
from .zeros import EmpiricalMeasure


def sample_spectrum(params: ModelParams, seed: int, trial: int = 0) -> np.ndarray:
    """Draw `trial` (>= 0) of `seed`: the n squared singular values divided by n^r, sorted."""
    if params.n < 1:
        raise DomainError("need n >= 1 to draw a spectrum")
    trial = as_index(trial, "trial")
    if trial < 0:
        raise DomainError(f"trial must be >= 0, got {trial}")
    gen = rng.generator(seed, 1 + trial)
    dims = [params.n] + [params.n + v for v in params.nu]
    y = None
    for j in range(1, params.r + 1):
        x = rng.complex_gaussians(gen, (dims[j], dims[j - 1]))
        y = x if y is None else x @ y
    try:
        singular = np.linalg.svd(y, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailure(f"SVD failed for seed {seed} trial {trial}: {exc}") from exc
    return np.sort(singular * singular) / float(params.n) ** params.r


def aggregate_measure(params: ModelParams, trials: int, seed: int) -> EmpiricalMeasure:
    """Pool `trials` independent spectra: draws 0..trials-1 of `seed`."""
    trials = as_index(trials, "trials")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    return EmpiricalMeasure(
        np.concatenate([sample_spectrum(params, seed, trial=t) for t in range(trials)])
    )


def mean_moment(m: EmpiricalMeasure, k: float) -> float:
    """k-th raw moment of the empirical measure; k may be any finite order >= 0."""
    if not 0 <= k < np.inf:
        raise DomainError(f"moment order must be finite and >= 0, got {k}")
    if m.n == 0:
        raise DomainError("empty measure has no moments")
    return float(np.mean(m.points**k))

"""Monte Carlo spectra of products of rectangular complex Ginibre matrices.

Each factor X_j has shape (n + nu_j) x (n + nu_{j-1}) with nu_0 = 0 and
independent complex Gaussian entries of unit variance, so the squared
singular values of Y = X_r ... X_1 divided by n^r converge to the
Fuss-Catalan law of order r with no extra constant.

The first factor is drawn in bidiagonal form (Dumitriu & Edelman, "Matrix
models for beta ensembles", J. Math. Phys. 2002): X_1 = U_1 [B_1; 0] V_1^H
with U_1, V_1 unitary and B_1 the real upper-bidiagonal n x n matrix with
diagonal d_i = sqrt(Gamma(n + nu_1 - i)), i = 0..n-1, and superdiagonal
e_i = sqrt(Gamma(n - 1 - i)), i = 0..n-2, all independent.  V_1^H does not
change the singular values, and since the law of X_2 is unitarily
invariant, X_2 U_1 is again Ginibre and independent of B_1; only its first
n columns meet [B_1; 0].  So X_2 is drawn as an (n + nu_2) x n Ginibre
matrix, and its product with B_1 is a scaling of columns, O(n^2) work in
place of a dense product.  X_3, ..., X_r are drawn and multiplied densely;
for r = 1 the product is B_1 itself.  Singular values are taken from an
SVD of the product; forming Y*Y would square the condition number.  Draw
t of a seed takes d, e, then X_2, ..., X_r, in order, from the one stream
1 + t of that seed (see fctk.rng), so no two draws share a stream and the
same seed and numpy version give the same spectra.
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
    n, nu = params.n, params.nu
    # one call draws d then e: each call with array shapes costs microseconds
    k = np.arange(n, 0, -1.0)
    b = np.sqrt(gen.standard_gamma(np.concatenate((k + nu[0], k[1:]))))
    d, e = b[:n], b[n:]
    if params.r == 1:
        y = np.diag(d) + np.diag(e, 1)
    else:
        x = rng.complex_gaussians(gen, (n + nu[1], n))
        y = x * d
        y[:, 1:] += x[:, :-1] * e
        for j in range(2, params.r):
            y = rng.complex_gaussians(gen, (n + nu[j], n + nu[j - 1])) @ y
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

"""Reproducible random streams on a counter-based generator.

A stream is a 64-bit Philox generator keyed by the pair (seed, stream) of
integers in [0, 2^64); distinct pairs are distinct keys, so runs with
different seeds share no stream.  The package uses

    stream 0:      the uniforms of FussCatalanDist.sample,
    stream 1 + t:  draw t of rmt.aggregate_measure, in this order: the n
                   gamma variates of the bidiagonal diagonal d, the n - 1
                   of its superdiagonal e, then the Gaussians of X_2, ...,
                   X_r, factor by factor.

The same seed and the same numpy version give the same draws: uniforms
come from the generator's 53-bit mantissa path, Gaussians from its
standard_normal and gamma variates from its standard_gamma.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, as_index


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox generator keyed by (seed, stream), both integers in [0, 2^64)."""
    seed, stream = as_index(seed, "seed"), as_index(stream, "stream")
    if not (0 <= seed < 1 << 64 and 0 <= stream < 1 << 64):
        raise DomainError(f"seed and stream must lie in [0, 2^64), got {seed}, {stream}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def uniforms(seed: int, count: int) -> np.ndarray:
    """count uniforms in [0, 1) with 53-bit mantissas, from stream 0 of seed."""
    return generator(seed).random(count)


def complex_gaussians(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussians with unit variance from gen: Re, Im ~ N(0, 1/2) independent."""
    pairs = gen.standard_normal((*shape, 2))
    pairs *= np.sqrt(0.5)
    return pairs.view(np.complex128)[..., 0]

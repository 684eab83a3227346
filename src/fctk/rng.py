"""Reproducible random streams on a counter-based generator.

Streams are keyed by (seed, stream) pairs fed to a 64-bit Philox counter
generator, so parallel draws are deterministic across platforms.  The
two 64-bit key words are

    word 0: seed (its low 64 bits)
    word 1: stream = (trial << 32) | index,

where index (below 2^32) numbers the streams one draw consumes and
trial (below 2^32) numbers the independent draws made under one seed
(see stream_id).  Distinct (seed, trial, index) triples therefore never
share a stream, so runs with neighbouring seeds share no draw.
Uniforms come from the generator's 53-bit mantissa path; Gaussians are
produced by an explicit Box-Muller transform on those uniforms.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_INDEX_BITS = 32


def stream_id(trial: int, index: int) -> int:
    """Key word 1 for stream `index` of draw `trial`: (trial << 32) | index."""
    if not (0 <= trial < 1 << _INDEX_BITS and 0 <= index < 1 << _INDEX_BITS):
        raise DomainError(f"trial and index must lie in [0, 2^32), got {trial}, {index}")
    return (trial << _INDEX_BITS) | index


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    key = [np.uint64(seed & _MASK64), np.uint64(stream & _MASK64)]
    return np.random.Generator(np.random.Philox(key=key))


def uniforms(seed: int, count: int, stream: int = 0) -> np.ndarray:
    """count uniforms in [0, 1) with 53-bit mantissas."""
    return generator(seed, stream).random(count)


def normals(seed: int, count: int, stream: int = 0) -> np.ndarray:
    """count standard normals via Box-Muller."""
    half = (count + 1) // 2
    u = uniforms(seed, 2 * half, stream)
    u1 = 1.0 - u[:half]  # shift into (0, 1] so the log is finite
    u2 = u[half:]
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2 * np.pi * u2), radius * np.sin(2 * np.pi * u2)])
    return z[:count]


def complex_gaussians(seed: int, shape: tuple[int, ...], stream: int = 0) -> np.ndarray:
    """Complex Gaussians with unit variance: Re, Im ~ N(0, 1/2) independent."""
    count = int(np.prod(shape))
    re = normals(seed, count, stream)
    im = normals(seed, count, stream + 1)
    return ((re + 1j * im) / np.sqrt(2.0)).reshape(shape)

"""Deterministic seeding utilities.

Every Monte Carlo routine in the package takes an explicit 64-bit seed and
builds its generator through this module, so any reported number can be
reproduced from the (seed, sample-count) metadata alone.

Seed splitting rule (frozen): the sub-seed for chunk/trial ``i`` under master
seed ``m`` is the first 8 bytes (little-endian, top bit cleared) of
``blake2b(m || i)`` with both integers packed as little-endian signed 64-bit.
Parallel draws with distinct sub-seeds are the supported form of parallelism.
"""

from __future__ import annotations

import hashlib
import secrets
import struct

import numpy as np

_SEED_MASK = (1 << 63) - 1


def child_seed(master: int, index: int) -> int:
    """Sub-seed for chunk ``index`` of a stream with master seed ``master``."""
    payload = struct.pack("<qq", int(master) & _SEED_MASK, int(index))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") & _SEED_MASK


def rng_from(seed: int) -> np.random.Generator:
    """PCG64 generator for a 63-bit seed."""
    return np.random.default_rng(int(seed) & _SEED_MASK)


def generate_seed() -> int:
    """Fresh seed for runs that did not pass one explicitly."""
    return secrets.randbits(63)


# Rows in one block of sphere_direction_blocks: every default direction count
# of the CLI and the suites fits in one block.
DIRECTION_BLOCK = 1 << 16


def _check_sphere(dim: int, count: int) -> None:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` normalized standard Gaussian rows from rng, redrawing tiny norms."""
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1)
    bad = norms < 1e-12
    while np.any(bad):
        g[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms[bad] = np.linalg.norm(g[bad], axis=1)
        bad = norms < 1e-12
    g /= norms[:, None]
    return g


def sphere_directions(dim: int, count: int, seed: int) -> np.ndarray:
    """`count` directions uniform on S^{dim-1}, as a (count, dim) array.

    Normalized standard Gaussians; rows with pathologically small norm are
    redrawn (probability ~0, but keeps the normalization well defined).
    """
    _check_sphere(dim, count)
    return _unit_rows(rng_from(seed), count, dim)


def sphere_direction_blocks(dim: int, count: int, seed: int):
    """The rows of sphere_directions(dim, count, seed), DIRECTION_BLOCK at a time.

    A generator of (b, dim) arrays.  One Generator draws every block, and
    successive standard_normal draws continue one stream, so the rows are
    those of sphere_directions unless a row is redrawn (probability ~0).
    """
    _check_sphere(dim, count)
    rng = rng_from(seed)
    for start in range(0, count, DIRECTION_BLOCK):
        yield _unit_rows(rng, min(DIRECTION_BLOCK, count - start), dim)

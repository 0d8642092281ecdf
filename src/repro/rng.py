"""Deterministic random-number management.

Every stochastic component of the simulator (latency noise, workload
jitter, website signatures, classifier initialisation) draws from a
``numpy.random.Generator`` handed to it explicitly.  This module supplies
the single place where those generators are derived, so that one integer
experiment seed reproduces an entire experiment bit-for-bit.

Child generators are derived by *name* rather than by call order: adding
a new consumer does not perturb the streams of existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 0x5EED


def derive_seed(seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from a parent seed and a label."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def child_rng(parent_seed: int, name: str) -> np.random.Generator:
    """Create a named child generator, independent of sibling streams."""
    return np.random.default_rng(derive_seed(parent_seed, name))


class SeedSequenceNamer:
    """Hands out named child generators from one experiment seed.

    Asking twice for the same name returns generators with identical
    streams; distinct names give statistically independent streams.
    """

    def __init__(self, seed: int | None = None):
        self.seed = DEFAULT_SEED if seed is None else seed

    def rng(self, name: str) -> np.random.Generator:
        """Return the child generator registered under ``name``."""
        return child_rng(self.seed, name)

    def seed_for(self, name: str) -> int:
        """Return the derived integer seed for ``name``."""
        return derive_seed(self.seed, name)

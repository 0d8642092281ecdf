"""Deterministic RNG derivation."""

import numpy as np

from repro.rng import (
    DEFAULT_SEED,
    SeedSequenceNamer,
    child_rng,
    derive_seed,
)


def test_derive_seed_is_deterministic():
    assert derive_seed(42, "latency") == derive_seed(42, "latency")


def test_derive_seed_differs_by_name():
    assert derive_seed(42, "a") != derive_seed(42, "b")


def test_derive_seed_differs_by_parent():
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_child_rng_streams_are_independent():
    a = child_rng(7, "alpha").random(100)
    b = child_rng(7, "beta").random(100)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.3


def test_child_rng_same_name_same_stream():
    a = child_rng(7, "alpha").random(10)
    b = child_rng(7, "alpha").random(10)
    assert np.array_equal(a, b)


def test_namer_hands_out_stable_children():
    namer = SeedSequenceNamer(99)
    a = namer.rng("x").random(4)
    b = SeedSequenceNamer(99).rng("x").random(4)
    assert np.array_equal(a, b)


def test_namer_seed_for_matches_derive():
    namer = SeedSequenceNamer(5)
    assert namer.seed_for("q") == derive_seed(5, "q")


def test_namer_default_seed():
    assert SeedSequenceNamer().seed == DEFAULT_SEED

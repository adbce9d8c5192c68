"""Deterministic random-number plumbing.

Every stochastic component in the library (read simulator, spot-interruption
model, corpus generator, …) accepts an explicit ``numpy.random.Generator``.
This module provides the two conventions used throughout:

* ``ensure_rng`` — normalize ``None | int | Generator`` to a ``Generator``;
* ``derive_rng`` — derive an independent child stream from a parent and a
  string key, so that adding a new consumer never perturbs existing streams
  (the "named substream" pattern common in reproducible simulation codes).

``mean_one_lognormal`` is the one multiplicative run-to-run noise draw the
runtime models and the campaign simulators share.
"""

from __future__ import annotations

import hashlib

import numpy as np

RngStream = np.random.Generator


def ensure_rng(seed: RngStream | int | None) -> RngStream:
    """Return a ``numpy.random.Generator`` for any accepted seed spec.

    ``None`` yields a fresh nondeterministic generator; an ``int`` seeds a
    deterministic one; an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(parent: RngStream | int | None, key: str) -> RngStream:
    """Derive an independent, reproducible child stream named ``key``.

    The child is a function of the parent's *state* and the key, so two
    different keys give statistically independent streams and the same
    (seed, key) pair always gives the same stream.
    """
    parent_rng = ensure_rng(parent)
    # Draw a state-advancing word from the parent, then mix with the key.
    word = int(parent_rng.integers(0, 2**63 - 1))
    digest = hashlib.sha256(f"{word}:{key}".encode()).digest()
    child_seed = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(child_seed)


def mean_one_lognormal(rng: RngStream, sigma: float) -> float:
    """One multiplicative noise factor with mean one: ``exp(N(-sigma²/2, sigma))``.

    ``sigma <= 0`` returns exactly 1.0 without drawing, so switching the
    noise off leaves every later draw from ``rng`` where it was.
    """
    if sigma <= 0:
        return 1.0
    return float(rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma))


def spawn_streams(parent: RngStream | int | None, keys: list[str]) -> dict[str, RngStream]:
    """Derive one named stream per key (ordering of ``keys`` matters)."""
    parent_rng = ensure_rng(parent)
    return {key: derive_rng(parent_rng, key) for key in keys}

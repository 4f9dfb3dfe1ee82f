"""Seeded random generators shared by the tests and the verification suite."""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_SEED", "random_unit_vector", "random_unit_vectors", "random_density"]

DEFAULT_SEED = 20260819


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere."""
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm


def random_unit_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    v = rng.normal(size=(count, 3))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # Degenerate draws are measure zero; resample any that collapse.
    bad = norms[:, 0] < 1e-8
    while np.any(bad):
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-8
    return np.divide(v, norms, out=v)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density operator (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real

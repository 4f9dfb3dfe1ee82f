"""Seeded random operators for the tests."""

import numpy as np

from unsharp_bell.spin_povm import unit_vector


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere."""
    return unit_vector(rng.normal(size=3))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_effect(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random effect with eigenvalues drawn uniformly from [0, 1]."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    _, vecs = np.linalg.eigh(g + g.conj().T)
    vals = rng.uniform(0.0, 1.0, size=dim)
    return (vecs * vals) @ vecs.conj().T

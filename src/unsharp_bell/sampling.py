"""Seeded random generators shared by the tests and the verification suite."""

from __future__ import annotations

import copy

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "random_unit_vector",
    "random_unit_vectors",
    "draws_in_blocks",
    "random_density",
]

DEFAULT_SEED = 20260819
# A normal draw of three shorter than this has no direction and is drawn again.
_DEGENERATE = 1e-8


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere."""
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > _DEGENERATE:
            return v / norm


def _degenerate(rows: np.ndarray) -> np.ndarray:
    """Indices of the rows of three shorter than ``_DEGENERATE``.  Only rows whose first
    entry is that small can be, so only those are normed."""
    near = np.flatnonzero(np.abs(rows[:, 0]) < _DEGENERATE)
    return near[np.linalg.norm(rows[near], axis=1) < _DEGENERATE]


def _redraws(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` normal rows of three; while any is shorter than ``_DEGENERATE``, all
    such rows are drawn again as one draw, in row order."""
    rows = rng.normal(size=(count, 3))
    bad = _degenerate(rows)
    while bad.size:
        rows[bad] = rng.normal(size=(bad.size, 3))
        bad = bad[_degenerate(rows[bad])]
    return rows


def random_unit_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` directions uniform on the unit sphere, as rows of a ``(count, 3)`` array.

    One normal draw of shape ``(count, 3)``, each row divided by its norm.
    A row shorter than ``1e-8`` (a measure-zero event) is drawn again after
    the whole draw: all such rows at once, in row order, until none is.
    """
    v = _redraws(rng, count)
    return np.divide(v, np.linalg.norm(v, axis=1, keepdims=True), out=v)


def draws_in_blocks(rng: np.random.Generator, draws, blocks: list[slice]):
    """Consecutive whole draws from ``rng``, handed out one block of rows at a time.

    Each draw is ``(kind, row_shape)`` with as many rows as the consecutive
    ``blocks`` slices cover from 0: kind ``"normal"`` or ``"random"`` is that
    ``Generator`` method, and ``"unit"`` is ``random_unit_vectors`` (row shape
    ``(3,)``).  Returns an iterator over the blocks giving each draw's rows in
    the block, with the bits of the whole draws made one after another:
    numpy's normal and uniform values do not depend on how a draw is split.

    Each draw is read from its own cursor, a copy of ``rng`` taken where that
    draw begins; ``rng`` then passes over the draw in one skip pass, block by
    block, to where the next begins.  The skip pass sees every norm, so it
    also makes the redraws of ``random_unit_vectors`` where they fall in the
    stream.  ``rng`` ends where the whole draws leave it, however many blocks
    are read.
    """
    cursors, largest = [], max(b.stop - b.start for b in blocks)
    for kind, shape in draws:
        cursor, short, buffer = copy.deepcopy(rng), [], np.empty((largest,) + shape)
        # The standard forms consume the stream as normal() and random() do, into one buffer.
        skip = rng.random if kind == "random" else rng.standard_normal
        for b in blocks:
            rows = skip(out=buffer[:b.stop - b.start])
            if kind == "unit":
                short += (b.start + _degenerate(rows)).tolist()
        redrawn = dict(zip(short, _redraws(rng, len(short)))) if short else {}
        cursors.append((cursor, kind, shape, redrawn))
    return ([_block_rows(*cursor, b) for cursor in cursors] for b in blocks)


def _block_rows(cursor, kind: str, shape: tuple, redrawn: dict, block: slice) -> np.ndarray:
    """A block's rows of a ``draws_in_blocks`` draw, read from its cursor."""
    size = (block.stop - block.start,) + shape
    if kind == "random":
        return cursor.random(size=size)
    rows = cursor.normal(size=size)
    if kind == "normal":
        return rows
    for index, row in redrawn.items():
        if block.start <= index < block.stop:
            rows[index - block.start] = row
    return np.divide(rows, np.linalg.norm(rows, axis=1, keepdims=True), out=rows)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density operator (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real

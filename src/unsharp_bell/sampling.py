"""The verification battery's seed and random draws, shared with the tests.

A random direction is ``spin_povm.unit_vector(rng.normal(size=3))``: a
normal row divided by its norm, as a ``draws_in_blocks`` unit row is.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "draws_in_blocks",
    "random_density",
]

DEFAULT_SEED = 20260819
# A ``draws_in_blocks`` unit row shorter than this has no direction, and raises.
_DEGENERATE = 1e-8


def draws_in_blocks(rng: np.random.Generator, draws, blocks: list[slice]):
    """Whole draws, one per stream spawned from ``rng``, handed out one block of rows at a time.

    Each draw is ``(kind, row_shape)`` with as many rows as the consecutive
    ``blocks`` slices cover from 0: kind ``"normal"`` or ``"random"`` is that
    ``Generator`` method, and a ``"unit"`` row is a normal row divided by its
    norm.  Returns an iterator over the blocks giving each draw's rows in the
    block.  Draw ``k`` is read from child ``k`` of ``rng.spawn(len(draws))``,
    one block after another; numpy's normal and uniform values do not depend
    on how a draw is split, so the rows are those of one whole draw from that
    child, whatever the blocks.  ``rng``'s own stream is not read.  A unit row
    shorter than ``1e-8`` raises ``ArithmeticError``: for a row of three, a
    chance of about 3e-25.
    """
    streams = rng.spawn(len(draws))
    return ([_block_rows(k, *draw, streams[k], b) for k, draw in enumerate(draws)] for b in blocks)


def _block_rows(index: int, kind: str, shape: tuple, stream, block: slice) -> np.ndarray:
    """A block's rows of draw ``index`` of ``draws_in_blocks``, read from its stream."""
    size = (block.stop - block.start,) + shape
    if kind == "random":
        return stream.random(size=size)
    rows = stream.normal(size=size)
    if kind == "unit":
        flat = rows.reshape(size[0], -1)  # a view: dividing it divides the rows
        norms = np.linalg.norm(flat, axis=1, keepdims=True)
        short = np.flatnonzero(norms < _DEGENERATE)
        if short.size:
            raise ArithmeticError(
                f"unit draw {index} has row {block.start + short[0]} shorter than {_DEGENERATE:g}")
        flat /= norms
    return rows


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density operator (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real

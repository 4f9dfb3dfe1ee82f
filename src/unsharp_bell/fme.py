"""Fourier-Motzkin elimination with parametric constants.

A row ``(const, coeffs)`` encodes the inequality ``const + coeffs . x >= 0``.

:func:`eliminate_variable` and :func:`project` work on integer rows whose
constant is itself a vector: the integer coefficients of the constant on a
list of parameters.  A variable is eliminated by adding positive integer
multiples of rows with opposite signs on it, so rows stay integer, and
exact duplicates are dropped.  Rows are never rescaled or compared on
parameter values, so one projection serves every value of the
parameters: a derived constant evaluated on some values equals the
constant that eliminating with those values would give.

The systems produced along an elimination order support interval
back-substitution: assigning the variables in reverse order, each one
picked from the interval its recorded system allows, always lands inside
the feasible region when one exists.  Elimination runs once, when
:mod:`unsharp_bell.fine` compiles its system at import; back-substitution
lives in ``fine``, which evaluates the compiled rows on each table.
"""

from __future__ import annotations

__all__ = [
    "eliminate_variable",
    "project",
]


def eliminate_variable(rows, index: int):
    """Project the system onto the hyperplane without variable ``index``.

    Rows are integer, with vector constants.  Returns the reduced rows
    without exact duplicates; rows whose coefficients are all zero are
    kept (they constrain the parameters alone).
    """
    kept, lower, upper = [], [], []
    for const, coeffs in rows:
        c = coeffs[index]
        if c > 0:
            lower.append((const, coeffs))
        elif c < 0:
            upper.append((const, coeffs))
        else:
            kept.append((const, coeffs))
    for lc, lco in lower:
        for uc, uco in upper:
            a = lco[index]        # > 0
            b = -uco[index]       # > 0
            const = tuple(b * x + a * y for x, y in zip(lc, uc))
            coeffs = tuple(b * x + a * y for x, y in zip(lco, uco))
            kept.append((const, coeffs))
    return list(dict.fromkeys(kept))


def project(rows, order):
    """Eliminate variables in ``order``; return the system before each step.

    ``systems[i]`` is the system still containing ``order[i:]``;
    ``systems[len(order)]`` contains only constant rows.
    """
    systems = [list(rows)]
    for index in order:
        systems.append(eliminate_variable(systems[-1], index))
    return systems

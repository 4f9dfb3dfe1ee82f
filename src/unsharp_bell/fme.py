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

:func:`variable_interval` and :func:`back_substitute` work on evaluated
rows, whose constants are numbers (floats, or ``fractions.Fraction`` for
exact arithmetic).  The systems produced along an elimination order
support interval back-substitution: assigning the variables in reverse
order, each one picked from the interval its recorded system allows,
always lands inside the feasible region when one exists.
"""

from __future__ import annotations

__all__ = [
    "Row",
    "eliminate_variable",
    "project",
    "variable_interval",
    "back_substitute",
]

Row = tuple  # (const, tuple of coefficients)


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
    current = list(rows)
    for index in order:
        current = eliminate_variable(current, index)
        systems.append(current)
    return systems


def variable_interval(rows, index: int, values: dict):
    """Interval allowed for one variable given values for all others.

    Rows whose coefficient on ``index`` vanishes are ignored; ``values``
    must cover every other variable with a nonzero coefficient.
    """
    lower = None
    upper = None
    for const, coeffs in rows:
        c = coeffs[index]
        if c == 0:
            continue
        rest = const
        for j, cj in enumerate(coeffs):
            if j != index and cj != 0:
                rest = rest + cj * values[j]
        bound = -rest / c
        if c > 0:
            if lower is None or bound > lower:
                lower = bound
        else:
            if upper is None or bound < upper:
                upper = bound
    return lower, upper


def back_substitute(systems, order, slack_tol=0):
    """Assign midpoint values for the eliminated variables, in reverse order.

    ``systems`` are the evaluated systems of :func:`project` with the same
    ``order``.  Interval endpoints crossing by more than ``slack_tol``
    raise; smaller inversions (rounding noise at degenerate vertices, or
    violations the caller tolerates) collapse to the crossing point.
    """
    values: dict[int, object] = {}
    for step in range(len(order) - 1, -1, -1):
        index = order[step]
        lower, upper = variable_interval(systems[step], index, values)
        if lower is None and upper is None:
            values[index] = 0
            continue
        if lower is None:
            values[index] = upper
            continue
        if upper is None:
            values[index] = lower
            continue
        if lower > upper:
            if lower - upper > slack_tol:
                raise ArithmeticError(
                    f"empty interval for variable {index}: [{lower}, {upper}]"
                )
        values[index] = (lower + upper) / 2
    return values

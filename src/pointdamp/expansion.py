"""Continued fractions on integer pairs, standard library only: Euclid's
loop, and the rational form of a position, without fractions or decimal."""

from __future__ import annotations

import sys

# convergents of a double are meaningless once q_k*q_{k+1} ~ 1/eps
PRECISION_BUDGET = 0.25 / sys.float_info.epsilon


def expand(
    n: int, d: int, depth: int, quotient_overflow: float, budget: float
) -> tuple[list[int], list[tuple[int, int]], bool, bool]:
    """(quotients, convergents, terminated, truncated) of n/d by Euclid: at
    most depth quotients, kept while q_k*q_{k+1} <= budget.  A quotient above
    quotient_overflow after a convergent strictly inside (0, 1) terminates it
    too (the tail is noise), and an overflow after [..., a, 1] then ends as
    [..., a + 1]; after 0/1 or 1/1 it is a quotient like any other, so
    nothing settles on an endpoint."""
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    while len(quotients) < depth:
        a, r = divmod(n, d)
        if a > quotient_overflow and 0 < p_cur < q_cur:
            if len(quotients) >= 3 and quotients[-1] == 1:
                quotients[-2:] = [quotients[-2] + 1]
                del convergents[-2]
            return quotients, convergents, True, False
        if (a * q_cur + q_prev) * q_cur > budget:
            return quotients, convergents, False, True
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        quotients.append(a)
        convergents.append((p_cur, q_cur))
        if r == 0:
            return quotients, convergents, True, False
        n, d = d, r
    return quotients, convergents, False, False


def rational_form(x, quotient_overflow: float = 1e12) -> tuple[int, int] | None:
    """(p, q) in lowest terms of the rational a position settles on, or None.

    A float settles where its expansion ends, by exact Euclid or by a
    quotient above quotient_overflow, before q_k*q_{k+1} passes
    PRECISION_BUDGET; anything else with as_integer_ratio (a Fraction) is
    exact, and its own form.
    """
    if not isinstance(x, float):
        return x.as_integer_ratio()
    _, convergents, terminated, _ = expand(
        *x.as_integer_ratio(), sys.maxsize, quotient_overflow, PRECISION_BUDGET
    )
    return convergents[-1] if terminated else None

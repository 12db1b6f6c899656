"""Dense linear algebra over exact rationals.

Everything here works on lists of fractions.Fraction and is only meant
for the small systems that show up in exact-mode automata (a few dozen
states at most).
"""
from __future__ import annotations

from fractions import Fraction


def span_coefficients(basis: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """Coefficients expressing `target` over independent `basis` vectors.

    Returns None when the target lies outside the span.  The basis is
    assumed linearly independent (callers maintain that invariant).
    """
    k = len(basis)
    if k == 0:
        return None if any(v != 0 for v in target) else []
    m = [[basis[j][i] for j in range(k)] + [target[i]] for i in range(len(target))]
    pivots: list[int] = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            raise ValueError("basis vectors are not linearly independent")
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1, 1) / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(m)):
        if m[i][k] != 0:
            return None
    return [m[i][k] for i in range(k)]

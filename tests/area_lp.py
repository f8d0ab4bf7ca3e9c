"""The exact area linear program, kept as the oracle for the search's
dominance-cycle test: a symplectic form that gives h, every e_i and
every class positive area exists iff this phase-one simplex finds a
feasible point.
"""

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from cuspatlas.lattice import HClass


def _phase1_feasible(cons: Sequence[tuple[Sequence[int], int]], nvars: int) -> bool:
    """Exact phase-one simplex: does {y >= 0, row.y >= rhs per row} admit a point?

    All right-hand sides are positive.  Bland's rule keeps the pivoting
    finite; everything is a Fraction, so there is no tolerance anywhere.
    """
    m = len(cons)
    width = nvars + 2 * m
    tableau: list[list[Fraction]] = []
    for i, (row, rhs) in enumerate(cons):
        r = [Fraction(v) for v in row] + [Fraction(0)] * (2 * m) + [Fraction(rhs)]
        r[nvars + i] = Fraction(-1)
        r[nvars + m + i] = Fraction(1)
        tableau.append(r)
    basis = [nvars + m + i for i in range(m)]

    def is_artificial(j: int) -> bool:
        return j >= nvars + m

    while True:
        enter = -1
        for j in range(width):
            red = (1 if is_artificial(j) else 0) - sum(
                tableau[i][j] for i in range(m) if is_artificial(basis[i])
            )
            if red < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][-1] / tableau[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave < 0:
            raise RuntimeError("phase-one objective cannot be unbounded")
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter]:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leave])]
        basis[leave] = enter

    return not any(
        tableau[i][-1] for i in range(m) if is_artificial(basis[i])
    )


def area_feasible(classes: Iterable[HClass]) -> bool:
    """Can a symplectic form give h and every e_i and every class positive area?

    Area pairs with coefficients directly: class a0*h + sum(c_i e_i) gets
    a0*w(h) + sum(c_i * w(e_i)), and all of w(h), w(e_i) must be positive.
    """
    cl = list(classes)
    idx = sorted({i for c in cl for i, _ in c.coeffs})
    slot = {i: j + 1 for j, i in enumerate(idx)}
    # exists x with every x_j > 0 and row.x > 0?  Scale-invariant, so ask
    # for x_j >= 1 and row.x >= 1 instead and substitute x = y + 1.
    cons = []
    for c in cl:
        row = [0] * (1 + len(idx))
        row[0] = c.a0
        for i, v in c.coeffs:
            row[slot[i]] = v
        rhs = 1 - sum(row)
        if rhs > 0:
            cons.append((row, rhs))
    return not cons or _phase1_feasible(cons, 1 + len(idx))

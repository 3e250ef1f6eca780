"""Pascal matrix, exact minor determinants and the total-non-singularity oracle.

A lower-triangular matrix is totally-non-singular (TNS) when every
"staircase" minor -- row set I and column set J of equal size r, both
strictly increasing and with i_s >= j_s for every s -- is non-singular.
The staircase condition includes all 1x1 minors on or below the diagonal,
so a TNS matrix has no zero entries in its lower triangle.

All arithmetic is exact over Python ints, so minors of the Pascal matrix
(magnitudes up to roughly 2^(n^2)) lose no precision.  A single minor is
computed by fraction-free (Bareiss) elimination; the exhaustive scans get
every staircase minor from its parent's by Sylvester's determinant
identity, one exact multiply-subtract-divide per minor.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core import BudgetExceededError

DEFAULT_MINOR_BUDGET = 2_000_000
SEARCH_ATTEMPTS = 10_000  # random fillings tried by a seeded search_tns


@dataclass(frozen=True)
class LowerTriangularMatrix:
    """Exact-integer lower-triangular matrix; row i stores entries (i,0..i)."""

    rows: tuple

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row) != i + 1:
                raise ValueError("row %d must have %d entries" % (i, i + 1))

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError("entry (%d,%d) outside %dx%d matrix" % (i, j, self.n, self.n))
        return self.rows[i][j] if j <= i else 0

    @classmethod
    def identity(cls, n: int) -> "LowerTriangularMatrix":
        return cls(tuple(tuple(1 if j == i else 0 for j in range(i + 1)) for i in range(n)))


@dataclass(frozen=True)
class MinorIndexPair:
    """Row/column index sets of a minor; both strictly increasing, same size."""

    I: tuple
    J: tuple

    def __post_init__(self):
        if len(self.I) != len(self.J) or not self.I:
            raise ValueError("I and J must be non-empty and of equal size")
        for seq in (self.I, self.J):
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise ValueError("index sets must be strictly increasing")


@dataclass(frozen=True)
class TnsVerdict:
    ok: bool
    witness: Optional[MinorIndexPair]
    minors_checked: int

    def __bool__(self):
        return self.ok


def pascal_matrix(n: int) -> LowerTriangularMatrix:
    """The (n+1) x (n+1) Pascal matrix, entry(i, j) = C(i, j), 0-indexed."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return LowerTriangularMatrix(
        tuple(tuple(math.comb(i, j) for j in range(i + 1)) for i in range(n + 1))
    )


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free elimination with row pivoting."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_determinant(A: LowerTriangularMatrix, minor: MinorIndexPair) -> int:
    """Exact determinant of the submatrix A[I | J]."""
    if minor.I[-1] >= A.n or minor.J[-1] >= A.n:
        raise ValueError("minor indices outside matrix dimension")
    sub = [[A.entry(i, j) for j in minor.J] for i in minor.I]
    return bareiss_determinant(sub)


def staircase_pair_count(n: int) -> int:
    """Number of staircase (I, J) pairs of an n x n lower-triangular matrix.

    Pairs of equal-size index sets with J dominated entrywise by I, the
    empty pair included, are counted by the Catalan number C_(n+1); the
    empty pair is no minor.  Closed form, so the budget guard costs O(1)
    big-int operations.
    """
    return math.comb(2 * n + 2, n + 1) // (n + 2) - 1


def _staircase_index_pairs(n: int) -> Iterator[tuple]:
    for r in range(1, n + 1):
        for I in itertools.combinations(range(n), r):
            for J in itertools.combinations(range(n), r):
                if all(i >= j for i, j in zip(I, J)):
                    yield I, J


def iter_staircase_pairs(n: int) -> Iterator[MinorIndexPair]:
    """All staircase minors in canonical order: increasing r, then lex (I, J)."""
    for I, J in _staircase_index_pairs(n):
        yield MinorIndexPair(I, J)


def _first_bad_minor(
    T: Sequence, positive: bool, prev: int = 1, I: tuple = (), J: tuple = (), best=None
) -> Optional[tuple]:
    """The smallest staircase minor, by (r, I, J), that is zero (or, with
    positive, not > 0), as (r, I, J); None when there is none.  Called on
    the rows of A; the other arguments are the recursion's.

    A depth-first walk over staircase prefixes (I, J).  A node of size r
    with non-zero determinant prev keeps the table T[i][j] = det A[I+(i) |
    J+(j)] for i > last I and last J < j <= i (the entries with j > i are
    non-staircase minors of a lower-triangular matrix, hence zero).  Every
    table entry is a staircase minor and is tested.  A non-zero entry p =
    T[i0][j0] opens the child node, whose table follows from Sylvester's
    determinant identity,

        T'[i][j] = (p T[i][j] - T[i][j0] T[i0][j]) / prev,

    an exact division.  A failing entry is not expanded: every minor below
    it is larger in (r, I, J), and a minor whose proper prefixes all pass is
    always reached, so the smallest failing minor is found.  Each table is
    tested whole before any child opens, and no child opens once a failing
    minor no larger than the child's minors is known.
    """
    i_lo = I[-1] + 1 if I else 0
    j_lo = J[-1] + 1 if J else 0
    n = i_lo + len(T)
    r = len(I) + 1  # size of the minors in T
    pivots = []
    for i0 in range(i_lo, n):
        Ti0 = T[i0 - i_lo]
        for j0 in range(j_lo, i0 + 1):
            p = Ti0[j0 - j_lo]
            if p == 0 or (positive and p < 0):
                found = (r, I + (i0,), J + (j0,))
                if best is None or found < best:
                    best = found
            elif i0 + 1 < n:
                pivots.append((i0, j0, p))
    for i0, j0, p in pivots:
        if best is not None and best[0] <= r:
            break
        # Columns j0+1.. of the rows below i0; T[i0][j] = 0 past j = i0.
        Ti0 = T[i0 - i_lo]
        k = j0 + 1 - j_lo
        u = Ti0[k:]
        m = k + len(u)
        child = []
        for Ti in T[i0 + 1 - i_lo:]:
            c = Ti[k - 1]
            row = [(p * a - c * b) // prev for a, b in zip(Ti[k:m], u)]
            row += [p * a // prev for a in Ti[m:]]
            child.append(row)
        best = _first_bad_minor(child, positive, p, I + (i0,), J + (j0,), best)
    return best


def _staircase_rank(n: int, I: tuple, J: tuple) -> int:
    """1-based position of the staircase pair (I, J) in canonical order."""
    return next(k for k, pair in enumerate(_staircase_index_pairs(n), 1) if pair == (I, J))


def is_totally_nonsingular(
    A: LowerTriangularMatrix, budget: int = DEFAULT_MINOR_BUDGET
) -> TnsVerdict:
    """Exhaustively check every staircase minor of A for non-singularity.

    Returns the first failing minor (in canonical order) as a witness, with
    minors_checked its 1-based position in that order; on success
    minors_checked is the number of staircase minors.  Every minor is
    computed exactly (see _first_bad_minor), not one Bareiss elimination
    per minor.  Raises BudgetExceededError instead of returning a partial
    answer.
    """
    count = staircase_pair_count(A.n)
    if count > budget:
        raise BudgetExceededError(
            "TNS check needs %d minors, budget is %d" % (count, budget)
        )
    bad = _first_bad_minor(A.rows, positive=False)
    if bad is None:
        return TnsVerdict(True, None, count)
    _, I, J = bad
    return TnsVerdict(False, MinorIndexPair(I, J), _staircase_rank(A.n, I, J))


def all_staircase_minors_positive(A: LowerTriangularMatrix, budget: int = DEFAULT_MINOR_BUDGET) -> bool:
    """Strict positivity of every staircase minor (Gessel-Viennot property)."""
    count = staircase_pair_count(A.n)
    if count > budget:
        raise BudgetExceededError(
            "minor scan needs %d minors, budget is %d" % (count, budget)
        )
    return _first_bad_minor(A.rows, positive=True) is None


def search_tns(
    n: int,
    bound: int,
    seed: Optional[int] = None,
    budget: int = DEFAULT_MINOR_BUDGET,
) -> Optional[LowerTriangularMatrix]:
    """Find a TNS lower-triangular n x n matrix with |entries| <= bound.

    Exhaustive mode (seed None) scans all lower-triangle fillings with
    non-zero entries in [-bound, bound] in a fixed order (1, -1, 2, -2, ...)
    and either returns the first TNS matrix or proves none exists (None).
    Seeded mode samples SEARCH_ATTEMPTS fillings at random and returns None
    only when none of them is TNS, which proves nothing.

    Entries must be non-zero because every lower-triangle entry is itself a
    1x1 staircase minor.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if bound < 1:
        return None
    nfree = n * (n + 1) // 2
    values = [v for k in range(1, bound + 1) for v in (k, -k)]
    if seed is None:
        space = len(values) ** nfree
        if space > budget:
            raise BudgetExceededError(
                "exhaustive TNS search space %d exceeds budget %d" % (space, budget)
            )
        for fill in itertools.product(values, repeat=nfree):
            cand = _matrix_from_fill(n, fill)
            if is_totally_nonsingular(cand, budget=budget):
                return cand
        return None
    rng = random.Random(seed)
    for _ in range(SEARCH_ATTEMPTS):
        fill = tuple(rng.choice(values) for _ in range(nfree))
        cand = _matrix_from_fill(n, fill)
        if is_totally_nonsingular(cand, budget=budget):
            return cand
    return None


def _matrix_from_fill(n: int, fill: Sequence[int]) -> LowerTriangularMatrix:
    rows = []
    it = iter(fill)
    for i in range(n):
        rows.append(tuple(next(it) for _ in range(i + 1)))
    return LowerTriangularMatrix(tuple(rows))

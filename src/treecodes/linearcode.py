"""Linear tree codes generated by triangular matrices, over the integers.

The basic code sends x_1..x_k to the pairs (x_i, (Ax)_i), the (I, A) code.
Its boosted variant pads each s-entry input block with r zeros before
applying A, trading rate for distance r/(r+s).  Instantiating A with the
Pascal matrix gives the explicit tree code over the non-negative integers
whose check coordinate stays below 2^k * max|a_j|.

All encoders are online: the symbol at position i is emitted as soon as
input i is consumed, and depends only on inputs 1..i.  For a general A the
check coordinate is the dot product of row i with the retained prefix (the
reference).  For the Pascal matrix `pascal_step` computes it with i big-int
additions and no matrix rows, by Newton's forward differences; it is the
one Pascal sum used by every packed, lagged and pipeline encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import List, Optional, Sequence, Tuple

from .core import IntPair
from .pascal import LowerTriangularMatrix


@dataclass(frozen=True)
class BoostParams:
    """Zero-padding parameters: blocks of s inputs, r appended zeros each."""

    s: int
    r: int

    def __post_init__(self):
        if self.s < 1 or self.r < 1:
            raise ValueError("s and r must be at least 1")


@dataclass(frozen=True)
class CxRxReport:
    """The two index sets from the distance argument for TNS generators.

    C_x collects the (1-indexed) positions of non-zero inputs; R_x the
    positions i past the split against zero where (Ax)_i = 0.  For a TNS
    matrix |C_x| > |R_x| for every non-zero x.
    """

    C_x: frozenset
    R_x: frozenset
    ell: int


def pascal_step(diffs: Sequence[int], x: int) -> List[int]:
    """One step of the online Pascal kernel: consume x, return the new state.

    The state is Newton's forward-difference table of y = Px.  After inputs
    x_0..x_i it holds d_k = Delta^k y_(i-k) for k = 0..i.  The next input
    sets d_(i+1) = x and then d_k += d_(k+1) for k from i down to 0, which
    leaves y_(i+1) in d_0: additions only, and no matrix rows.  The state
    stores d newest entry first, (d_i, ..., d_0), so the update is one
    running sum and its last entry is the new check coordinate.  Start
    from an empty list.  A state is never changed in place, so clones share
    it.  (Lists, not tuples: freed tuples of every length would pile up in
    the interpreter's tuple free lists, about 3 MB on a 2^14-bit pipeline
    run with clones.)
    """
    return list(accumulate(chain((x,), diffs)))


def _row_dot(A: LowerTriangularMatrix, x: Sequence[int], i: int) -> int:
    """(Ax)_i from the entries x_0..x_i: the general-A reference sum."""
    row = A.rows[i]
    return sum(row[j] * x[j] for j in range(i + 1))


class StreamEncoderTcA:
    """Online encoder for the (I, A) code: push x_i, get (x_i, (Ax)_i).

    Over the integers: a signed matrix (or signed input) gives a signed
    check coordinate, which IntPair carries and serialize_symbol writes
    with a leading "-".
    """

    def __init__(self, A: LowerTriangularMatrix, k: Optional[int] = None):
        self.A = A
        self.limit = A.n if k is None else k
        if self.limit > A.n:
            raise ValueError("k exceeds matrix dimension")
        self.inputs: List[int] = []

    def push(self, x_i: int) -> IntPair:
        i = len(self.inputs)
        if i >= self.limit:
            raise ValueError("encoder already consumed %d symbols" % self.limit)
        self.inputs.append(x_i)
        return IntPair(x_i, _row_dot(self.A, self.inputs, i))


def encode_tc_a(A: LowerTriangularMatrix, x: Sequence[int]) -> Tuple[IntPair, ...]:
    """Encode x under the (I, A) code; position i carries (x_i, (Ax)_i)."""
    if len(x) > A.n:
        raise ValueError("input length %d exceeds matrix dimension %d" % (len(x), A.n))
    enc = StreamEncoderTcA(A, len(x))
    return tuple(enc.push(v) for v in x)


class StreamEncoderTcASr:
    """Online block encoder for the zero-padded code.

    Each pushed block of s integers is extended with r zeros, the matrix is
    applied to the concatenation of all extended blocks, and the r+s output
    coordinates belonging to the new block are emitted.  For a general A
    they can be negative, so they are plain ints, not IntPairs.
    """

    def __init__(self, A: LowerTriangularMatrix, params: BoostParams, k: Optional[int] = None):
        self.A = A
        self.params = params
        self.width = params.r + params.s
        self.limit = A.n // self.width if k is None else k
        if self.width * self.limit > A.n:
            raise ValueError("(r+s)*k exceeds matrix dimension")
        self.padded: List[int] = []
        self.blocks_done = 0

    def push(self, block: Sequence[int]) -> Tuple[int, ...]:
        if len(block) != self.params.s:
            raise ValueError("block must have exactly %d entries" % self.params.s)
        if self.blocks_done >= self.limit:
            raise ValueError("encoder already consumed %d blocks" % self.limit)
        self.padded.extend(block)
        self.padded.extend([0] * self.params.r)
        lo = self.blocks_done * self.width
        self.blocks_done += 1
        return tuple(_row_dot(self.A, self.padded, i) for i in range(lo, lo + self.width))

    def clone(self) -> "StreamEncoderTcASr":
        other = StreamEncoderTcASr.__new__(StreamEncoderTcASr)
        other.A = self.A
        other.params = self.params
        other.width = self.width
        other.limit = self.limit
        other.padded = list(self.padded)
        other.blocks_done = self.blocks_done
        return other


def encode_tc_a_sr(
    A: LowerTriangularMatrix, params: BoostParams, blocks: Sequence[Sequence[int]]
) -> Tuple[Tuple[int, ...], ...]:
    """Encode s-entry blocks under the zero-padded (s, r) code."""
    enc = StreamEncoderTcASr(A, params, len(blocks))
    return tuple(enc.push(b) for b in blocks)


class StreamEncoderIntTreeCode:
    """The integer tree code: the (I, A) code with A the Pascal matrix,
    computed by the online Pascal kernel; at most k symbols."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.limit = k
        self.diffs: List[int] = []

    def push(self, x_i: int) -> IntPair:
        if len(self.diffs) >= self.limit:
            raise ValueError("encoder already consumed %d symbols" % self.limit)
        if x_i < 0:
            raise ValueError("inputs must be non-negative")
        self.diffs = pascal_step(self.diffs, x_i)
        return IntPair(x_i, self.diffs[-1])


def encode_int_treecode(a: Sequence[int]) -> Tuple[IntPair, ...]:
    """Encode non-negative integers a_0..a_{k-1}; pairs (a_i, sum C(i,j) a_j).

    The check coordinate at position i is at most 2^i * max_j a_j because
    Pascal row i sums to 2^i.
    """
    if not a:
        return ()
    if any(v < 0 for v in a):
        raise ValueError("inputs must be non-negative")
    enc = StreamEncoderIntTreeCode(len(a))
    return tuple(enc.push(v) for v in a)


def cx_rx_report(A: LowerTriangularMatrix, x: Sequence[int]) -> CxRxReport:
    """Compute C_x, R_x and the split against zero, all 1-indexed."""
    k = len(x)
    if k > A.n:
        raise ValueError("input length exceeds matrix dimension")
    if all(v == 0 for v in x):
        raise ValueError("x must be non-zero")
    ell = 0
    for v in x:
        if v != 0:
            break
        ell += 1
    C_x = frozenset(j + 1 for j, v in enumerate(x) if v != 0)
    R_x = frozenset(i + 1 for i in range(ell, k) if _row_dot(A, x, i) == 0)
    return CxRxReport(C_x, R_x, ell)

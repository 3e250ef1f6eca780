"""Ground-truth oracles: exact tree distances, weight distances, lagged
distances, the Singleton/MDS predicates, and the random-Toeplitz baseline
over the small fields GF(q), q <= 16, whose tables SmallField builds from
the definition of a field.

Every verdict is an exact rational; witnesses re-evaluate to the reported
value.  The only real-valued function is the entropy used by the
probabilistic baseline's feasibility condition, compared with a 1e-12
tolerance.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

from .core import BudgetExceededError, LengthMismatchError, hamming_distance, hamming_weight, split
from .linearcode import encode_tc_a
from .pascal import LowerTriangularMatrix

ENTROPY_TOL = 1e-12


@dataclass(frozen=True)
class DistanceReport:
    """An exact minimum with the pair (or vector) achieving it."""

    value: Fraction
    witness: tuple  # (x, x_prime, split, distance) or (x, split, weight)
    space: str


def _min_pair_ratio(
    encode: Callable, alphabet: Sequence, lengths: range, lags: range, space: str, budget: int
) -> DistanceReport:
    """The first minimum, in enumeration order, of Hamming(enc(x), enc(x'))
    / (n - split) over n in lengths and pairs x < x' of alphabet^n (in
    itertools.product order) whose lag n - split lies in lags.  ValueError
    when no pair qualifies; BudgetExceededError when the pairs of the
    lengths scanned, sum q^n (q^n - 1) / 2, exceed budget.

    With x the i-th string, the partners j > i at lag b form the index
    range [(i // q^(b-1) + 1) q^(b-1), (i // q^b + 1) q^b), and these
    ranges rise with b, so only the lags in lags are walked and the pair
    order is the plain (i, j) order.  The alphabet symbols must be
    distinct (ValueError otherwise).  Each length's encoded symbols are
    interned into small ints, so they must be hashable (TypeError
    otherwise), and all encodings of one length, compared or not, must
    have one width (LengthMismatchError otherwise).

    The scan is bit-sliced.  cols[t][v] is the bitset of the strings j
    whose symbol at output position t is v.  For string i and lag b the
    masks (cols[t][enc_i[t]] >> lo) & mask, one per position, are added
    into an agreement counter of width.bit_length() bit planes with
    ripple carry; reading the planes from the top down leaves the set of
    partners of maximum agreement, whose lowest bit is the first partner
    at distance width - max.  The reported witness is re-evaluated once
    with hamming_distance (AssertionError if it disagrees).
    """
    alphabet = tuple(alphabet)
    q = len(alphabet)
    pairs = sum(q**n * (q**n - 1) // 2 for n in lengths)
    if pairs > budget:
        raise BudgetExceededError("%d pairs exceed budget %d" % (pairs, budget))
    if any(a == b for a, b in itertools.combinations(alphabet, 2)):
        raise ValueError("alphabet symbols must be distinct: %r" % (alphabet,))
    best_d, best_b, best = 1, 0, None  # 1/0: the first ratio always beats it
    for n in lengths:
        strings = list(itertools.product(alphabet, repeat=n))
        # Interning each encoding as it is made lets its symbols die young.
        ids, encs = {}, []
        for s in strings:
            e = tuple(encode(s))
            try:
                encs.append(tuple([ids.setdefault(sym, len(ids)) for sym in e]))
            except TypeError as exc:
                raise TypeError("encoded symbols must be hashable: %s" % exc) from None
        widths = set(map(len, encs))
        if len(widths) > 1:
            raise LengthMismatchError(
                "encodings of length-%d inputs have widths %s" % (n, sorted(widths)))
        width = widths.pop() if widths else 0
        cols = [{} for _ in range(width)]
        for j, enc in enumerate(encs):
            bit = 1 << j
            for col, v in zip(cols, enc):
                col[v] = col.get(v, 0) | bit
        planes_n = width.bit_length()
        steps = [(b, q ** (b - 1), q**b) for b in lags if 1 <= b <= n]
        for i, enc in enumerate(encs):
            for b, low, high in steps:
                lo, hi = (i // low + 1) * low, (i // high + 1) * high
                if lo >= hi:
                    continue
                mask = (1 << (hi - lo)) - 1
                planes = [0] * planes_n
                for col, v in zip(cols, enc):
                    x = (col[v] >> lo) & mask
                    for k in range(planes_n):
                        planes[k], x = planes[k] ^ x, planes[k] & x
                        if not x:
                            break
                top, agree = mask, 0
                for k in range(planes_n - 1, -1, -1):
                    y = top & planes[k]
                    if y:
                        top, agree = y, agree | 1 << k
                d = width - agree
                if d * best_b < best_d * b:
                    best_d, best_b = d, b
                    j = lo + (top & -top).bit_length() - 1
                    best = (strings[i], strings[j], enc, encs[j])
    if best is None:
        raise ValueError("no pair qualifies (%s)" % space)
    x, y, ex, ey = best
    d = hamming_distance(ex, ey)
    if d != best_d:
        raise AssertionError("witness %r, %r re-evaluates to %d, not %d" % (x, y, d, best_d))
    return DistanceReport(Fraction(best_d, best_b), (x, y, len(x) - best_b, best_d), space)


def tree_distance_exhaustive(
    encode: Callable, alphabet: Sequence, n_max: int, budget: int = 2_000_000
) -> DistanceReport:
    """Exact min over all n <= n_max and pairs x != x' in alphabet^n of
    Hamming(enc(x), enc(x')) / (n - split).

    The alphabet symbols must be distinct (ValueError) and the encoded
    symbols hashable (TypeError).  ValueError when no pair qualifies:
    n_max < 1 or fewer than two symbols."""
    lengths = range(1, n_max + 1)
    space = "n<=%d over %d symbols" % (n_max, len(alphabet))
    return _min_pair_ratio(encode, alphabet, lengths, lengths, space, budget)


def tree_distance_relaxed(
    encode: Callable, alphabet: Sequence, n: int, budget: int = 2_000_000
) -> DistanceReport:
    """The relaxed distance: the same minimum restricted to length exactly n,
    with the same requirements on the symbols and the same ValueError when
    no pair qualifies (n < 1 or fewer than two symbols)."""
    lengths = range(n, n + 1)
    return _min_pair_ratio(encode, alphabet, lengths, range(1, n + 1), "n=%d exactly" % n, budget)


def lagged_distance(
    encode: Callable, ell: int, L: int, alphabet: Sequence, n_max: int, budget: int = 2_000_000
) -> DistanceReport:
    """Exact min of Hamming/b over pairs of length ell..n_max whose lag
    b = n - split lies in [ell, L], with the same requirements on the
    symbols; the budget counts the pairs of those lengths."""
    if n_max < ell:
        raise ValueError("no pair can reach lag %d at n_max=%d" % (ell, n_max))
    lengths, space = range(ell, n_max + 1), "lag in [%d,%d]" % (ell, L)
    return _min_pair_ratio(encode, alphabet, lengths, range(ell, L + 1), space, budget)


def _min_weight_ratio(
    encode: Callable, entries: Sequence, n_max: int, width: int, space: str, budget: int,
    stop: Optional[Fraction] = None,
) -> DistanceReport:
    """The first minimum, in enumeration order, of wt(enc(x)) /
    (width * (k - split(x, 0))) over k <= n_max and non-zero x in entries^k
    (itertools.product order), as witness (x, split, weight).

    encode returns x's encoding as flat coordinates, width of them per
    position, and wt counts the non-zero ones.  Raises BudgetExceededError
    when the vectors, sum |entries|^k, exceed budget, and ValueError when
    there is no non-zero vector (n_max < 1, or no non-zero entry).  With
    stop given the scan ends at the first minimum <= stop.
    """
    total = sum(len(entries) ** k for k in range(1, n_max + 1))
    if total > budget:
        raise BudgetExceededError("%d vectors exceed budget %d" % (total, budget))
    best = None
    for k in range(1, n_max + 1):
        zero = (0,) * k
        for x in itertools.product(entries, repeat=k):
            if x == zero:
                continue
            wt = hamming_weight(encode(x), 0)
            ell = split(x, zero)
            val = Fraction(wt, width * (k - ell))
            if best is None or val < best.value:
                best = DistanceReport(val, (x, ell, wt), space)
                if stop is not None and val <= stop:
                    return best
    if best is None:
        raise ValueError("no non-zero vector (%s)" % space)
    return best


def weight_distance_linear(
    A: LowerTriangularMatrix, entries: Sequence[int], n_max: int, budget: int = 2_000_000
) -> DistanceReport:
    """Exact min over non-zero x of the coordinate-level weight of the
    (I, A) encoding divided by 2*(k - split(x, 0)); ValueError when there
    is none (n_max < 1 or no non-zero entry)."""
    entries = tuple(entries)
    return _min_weight_ratio(
        lambda x: [c for p in encode_tc_a(A, x) for c in (p.a, p.b)],
        entries, n_max, 2, "k<=%d entries %r" % (n_max, entries), budget,
    )


def singleton_bound(n: int, sigma_size: int, gamma_size: int) -> Fraction:
    """floor(n*(1 - log sigma/log gamma) + 1)/n, evaluated exactly via
    integer power comparison (no floating point)."""
    if sigma_size < 2 or gamma_size < 2 or n < 1:
        raise ValueError("need n >= 1 and alphabet sizes >= 2")
    target = sigma_size**n
    m_star, power = 0, 1
    while power < target:
        power *= gamma_size
        m_star += 1
    return Fraction(n + 1 - m_star, n)


def is_mds(measured_delta, sigma_size: int, gamma_size: int) -> bool:
    """True iff delta > 1 - log sigma/log gamma (exact rational test)."""
    d = Fraction(measured_delta)
    if sigma_size < 2 or gamma_size < 2:
        raise ValueError("alphabet sizes must be >= 2")
    p, q = d.numerator, d.denominator
    # delta > 1 - log s/log g  <=>  s^q > g^(q-p)
    return sigma_size**q > gamma_size ** (q - p)


def entropy_hr(r: int, x: float) -> float:
    """The r-ary entropy H_r(x) for x in [0, (r-1)/r]; H_r(0) = 0."""
    if r < 2:
        raise ValueError("r must be at least 2")
    if x < -ENTROPY_TOL or x > (r - 1) / r + ENTROPY_TOL:
        raise ValueError("x=%r outside [0, (r-1)/r]" % x)
    if x <= 0:
        return 0.0
    h = x * math.log(r - 1, r) - x * math.log(x, r)
    if x < 1:
        h -= (1 - x) * math.log(1 - x, r)
    return h


def toeplitz_condition(q: int, r: int, delta: float) -> bool:
    """The feasibility condition log_r(2q) + H_r(delta) <= 1."""
    return math.log(2 * q, r) + entropy_hr(r, delta) <= 1 + ENTROPY_TOL


def largest_feasible_delta(q: int, r: int) -> Fraction:
    """Largest delta = i/1000 passing toeplitz_condition; ValueError if
    none, or if r < 2, where H_r is undefined."""
    if r < 2:
        raise ValueError("r must be at least 2")
    for i in range(999, 0, -1):
        d = Fraction(i, 1000)
        if d <= Fraction(r - 1, r) and toeplitz_condition(q, r, float(d)):
            return d
    raise ValueError("no feasible delta for q=%d, r=%d" % (q, r))


SUPPORTED_FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


class SmallField:
    """GF(q) for q = p^m <= 16 with full add/mul tables.

    Elements are the integers 0..q-1, whose base-p digits are the
    coefficients of a polynomial of degree < m (low digit = constant term)
    multiplied modulo x^m + c(x).  The tables come from the definition of a
    field: the candidate moduli are tried with c's coefficients
    (c_0, ..., c_{m-1}) in itertools.product order, and the first whose
    multiplication table has no zero divisors is kept.  A finite
    commutative ring without zero divisors is a field, so that modulus is
    irreducible; for prime q the first candidate, x, gives the integers
    mod p.

    This order is lexicographic in the coefficient tuple, c_0 first, and
    picks x^3+x^2+1 and x^4+x^3+1 for GF(8) and GF(16).
    ecc.canonical_modulus orders polynomials as integers, c_{m-1} first,
    and picks x^3+x+1 and x^4+x+1; that is why the Toeplitz baseline does
    not reuse ecc's GF(2^m), which would change its GF(8) and GF(16) tables.
    """

    def __init__(self, q: int):
        if q not in SUPPORTED_FIELD_SIZES:
            raise ValueError("unsupported field size %d" % q)
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = next(k for k in range(1, q) if p**k == q)
        self.q, self.p, self.m = q, p, m
        digits = [tuple(v // p**i % p for i in range(m)) for v in range(q)]
        value = {d: v for v, d in enumerate(digits)}
        self.add_table = [
            [value[tuple((x + y) % p for x, y in zip(da, db))] for db in digits] for da in digits
        ]

        def times(da, db, c):
            # Horner in a, high digit first: acc <- acc*x + a_i*b, with
            # x^m replaced by -c(x).
            acc = (0,) * m
            for a in reversed(da):
                top = acc[-1]
                acc = tuple(
                    (lo - top * ci + a * bi) % p
                    for lo, ci, bi in zip((0,) + acc[:-1], c, db)
                )
            return value[acc]

        for c in itertools.product(range(p), repeat=m):
            mul = [[times(da, db, c) for db in digits] for da in digits]
            if all(all(row[1:]) for row in mul[1:]):
                self.mul_table = mul
                return
        raise AssertionError("no field of size %d" % q)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]


@lru_cache(maxsize=None)
def get_field(q: int) -> SmallField:
    return SmallField(q)


@dataclass(frozen=True)
class ToeplitzCode:
    """The systematic random-Toeplitz linear tree code over GF(q).

    Output symbol i is the d-tuple (x_i, (A_1 x)_i, ..., (A_{d-1} x)_i)
    where each A_t is lower-triangular Toeplitz with entry(i,j) =
    diagonals[t][i-j]."""

    q: int
    d: int
    n: int
    diagonals: tuple  # d-1 sequences of n field elements
    seed: Optional[int]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if len(self.diagonals) != self.d - 1 or any(len(t) != self.n for t in self.diagonals):
            raise ValueError("need d-1 diagonal sequences of length n")

    def entry(self, t: int, i: int, j: int) -> int:
        """Entry (i, j) of A_t (t >= 1), 0-indexed."""
        return self.diagonals[t - 1][i - j] if i >= j else 0

    def encode(self, x: Sequence[int]) -> Tuple[tuple, ...]:
        if len(x) > self.n:
            raise ValueError("input longer than n")
        F = get_field(self.q)
        out = []
        for i in range(len(x)):
            sym = [x[i]]
            for diag in self.diagonals:
                acc = 0
                for j in range(i + 1):
                    acc = F.add(acc, F.mul(diag[i - j], x[j]))
                sym.append(acc)
            out.append(tuple(sym))
        return tuple(out)


def sample_toeplitz_code(q: int, d: int, n: int, seed: int) -> ToeplitzCode:
    """Uniformly random diagonals from the seeded stream."""
    rng = random.Random(seed)
    diagonals = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(d - 1))
    return ToeplitzCode(q, d, n, diagonals, seed)


def toeplitz_weight_distance(
    code: ToeplitzCode, budget: int = 2_000_000, stop_at=None
) -> DistanceReport:
    """Exact field-level weight distance of the code over all non-zero
    inputs of length <= code.n; ValueError when there is none (n = 0).

    stop_at, when given, aborts the scan as soon as the running minimum is
    <= stop_at (fail-fast for the sampling experiment); the report is then
    an upper bound witnessing the failure.
    """
    return _min_weight_ratio(
        lambda x: [c for sym in code.encode(x) for c in sym],
        range(code.q), code.n, code.d, "k<=%d over F_%d" % (code.n, code.q), budget,
        None if stop_at is None else Fraction(stop_at),
    )


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of an exhaustive threshold certification."""

    ok: bool
    violator: Optional[tuple]  # (x_bits, y_bits, distance) when ok is False
    nodes: int


def verify_split0_lagged_bound(
    make_encoder: Callable, nbits: int, chunk_bits: int, threshold: Fraction
) -> BoundCheck:
    """Certify that every pair of length-nbits inputs diverging at position 1
    has encoding distance >= threshold * nbits.

    The search is exhaustive over all such pairs but explores them as a tree
    of chunk-aligned extensions: once a partial encoding distance already
    meets the required count, no extension can violate the bound (online
    encodings only accumulate further differences), so the subtree is
    skipped.  make_encoder must return a fresh online encoder supporting
    push(bit) -> symbol and clone().
    """
    need = Fraction(threshold) * nbits
    nodes = 0

    def extend(enc, val, length):
        out = []
        for t in range(length):
            out.append(enc.push((val >> (length - 1 - t)) & 1))
        return out

    def dfs(enc1, enc2, x1, x2, t, partial):
        nonlocal nodes
        if t == nbits:
            return None if partial >= need else (x1, x2, partial)
        length = min(chunk_bits, nbits - t)
        pairs = []
        for c1 in range(1 << length):
            for c2 in range(1 << length):
                if t == 0 and (c1 ^ c2) >> (length - 1) != 1:
                    continue  # pairs must diverge at the very first bit
                pairs.append((c1, c2))
        for c1, c2 in pairs:
            nodes += 1
            e1, e2 = enc1.clone(), enc2.clone()
            d = partial + sum(
                1 for a, b in zip(extend(e1, c1, length), extend(e2, c2, length)) if a != b
            )
            if d >= need:
                continue  # already safe; no extension can fall below the bound
            bad = dfs(e1, e2, (x1 << length) | c1, (x2 << length) | c2, t + length, d)
            if bad is not None:
                return bad
        return None

    bad = dfs(make_encoder(), make_encoder(), 0, 0, 0, Fraction(0))
    if bad is None:
        return BoundCheck(True, None, nodes)
    x1, x2, d = bad
    return BoundCheck(False, (x1, x2, d), nodes)

"""The block code C: {0,1}^(3s) -> ({0,1}^c)^s used by the lagged encoders.

Two recipes are provided:

* RS-only: one Reed-Solomon code over GF(2^m) with m chosen so that the
  provable distance 1 - (k-1)/s clears the target; the per-symbol width c
  grows like log s.
* Concatenated: an outer Reed-Solomon code whose symbols are re-encoded by
  a seeded random-linear binary inner code of exhaustively verified
  distance, then the bit stream is regrouped into exactly s symbols of a
  constant width c (at fixed target distance).

Every shipped code records a provable relative distance derived purely
from its components, so downstream distance guarantees are statements
about the concrete object, not about a random ensemble.

Field moduli are the lexicographically least irreducible polynomial of
each degree, computed on first use; Reed-Solomon evaluation points are
the field elements 0, 1, 2, ... in their integer representation.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import compress
from operator import getitem, xor
from typing import List, Optional, Sequence, Tuple

MAX_FIELD_DEGREE = 24
INNER_EXPANSION = 8  # inner codeword bits per message bit
INNER_DELTA = 0.3  # inner relative distance target of the concatenated recipe
INNER_ATTEMPTS = 10_000
MEMO_MAX_INPUT_BITS = 17  # widest input of a code whose codewords are memoized
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class InfeasibleCodeError(ValueError):
    """Requested code parameters are provably or practically unattainable."""


def _poly_mulmod(a: int, b: int, mod: int, deg: int) -> int:
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a >> deg & 1:
            a ^= mod
    return res


def _poly_gcd(a: int, b: int) -> int:
    while b:
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _is_irreducible(f: int, m: int) -> bool:
    # Rabin's test: x^(2^m) == x mod f, and gcd(x^(2^(m/p)) - x, f) = 1
    # for every prime p dividing m.
    if m == 1:
        return f in (0b10, 0b11)
    x = 0b10
    t = x
    for i in range(1, m + 1):
        t = _poly_mulmod(t, t, f, m)
        if m % i == 0 and i < m and _is_prime(m // i):
            if _poly_gcd(t ^ x, f) != 1:
                return False
    return t == x


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(math.isqrt(p)) + 1))


@lru_cache(maxsize=None)
def canonical_modulus(m: int) -> int:
    """Lexicographically least irreducible polynomial of degree m over GF(2)."""
    if not 1 <= m <= MAX_FIELD_DEGREE:
        raise ValueError("degree must be in [1, %d]" % MAX_FIELD_DEGREE)
    for f in range(1 << m, 1 << (m + 1)):
        if _is_irreducible(f, m):
            return f
    raise AssertionError("no irreducible polynomial of degree %d" % m)


@dataclass(frozen=True)
class RSParams:
    """Reed-Solomon over GF(2^m): degree < k_msg polynomials evaluated at
    the field elements 0 .. n_code-1 (integer representation order)."""

    m: int
    k_msg: int
    n_code: int

    def __post_init__(self):
        if not 1 <= self.k_msg <= self.n_code <= (1 << self.m):
            raise ValueError("need 1 <= k_msg <= n_code <= 2^m")

    @property
    def distance(self) -> int:
        return self.n_code - self.k_msg + 1


@dataclass(frozen=True)
class InnerCode:
    """A binary linear code with an exhaustively verified minimum distance."""

    m_in: int
    n_in: int
    delta_in: float
    seed: int
    generator: tuple  # m_in rows, each an n_in-bit int (MSB = first bit)
    verified_distance: int

    def encode(self, msg: int) -> int:
        out = 0
        for row_idx in range(self.m_in):
            if (msg >> (self.m_in - 1 - row_idx)) & 1:
                out ^= self.generator[row_idx]
        return out


def _exhaustive_min_weight(rows: Sequence[int], m_in: int) -> int:
    best = None
    # Gray-code walk: flip one generator row per step.
    word = 0
    prev_gray = 0
    for idx in range(1, 1 << m_in):
        gray = idx ^ (idx >> 1)
        word ^= rows[(gray ^ prev_gray).bit_length() - 1]
        prev_gray = gray
        w = word.bit_count()
        if best is None or w < best:
            best = w
    return best


def find_inner_code(m_in: int, n_in: int, delta_in: float, seed: int) -> InnerCode:
    """Sample up to INNER_ATTEMPTS seeded random generator matrices until
    one has verified minimum distance >= delta_in * n_in.

    Deterministic given the seed: the first success in the sampling stream
    is returned along with its exhaustively computed distance.
    """
    if m_in > 20:
        raise ValueError("m_in > 20 exceeds the exhaustive verification budget")
    required = math.ceil(delta_in * n_in - 1e-12)
    if required > n_in - m_in + 1:
        raise InfeasibleCodeError(
            "Singleton bound: distance <= n-k+1 = %d < required %d"
            % (n_in - m_in + 1, required)
        )
    rng = random.Random(seed)
    for _ in range(INNER_ATTEMPTS):
        rows = tuple(rng.getrandbits(n_in) for _ in range(m_in))
        d = _exhaustive_min_weight(rows, m_in)
        if d >= required:
            return InnerCode(m_in, n_in, delta_in, seed, rows, d)
    raise InfeasibleCodeError(
        "no generator found in %d attempts; the Gilbert-Varshamov rate bound "
        "1 - H2(%.3f) = %.4f likely excludes rate %d/%d = %.4f"
        % (INNER_ATTEMPTS, delta_in, 1 - _h2(delta_in), m_in, n_in, m_in / n_in)
    )


def _h2(x: float) -> float:
    if x <= 0 or x >= 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


@dataclass(frozen=True)
class CodeSpecC:
    """Descriptor of the block code: input_bits in, s symbols of c_delta bits out.

    For the standard pipeline input_bits = 3s.  provable_delta is the
    relative symbol distance derivable from the components alone.
    """

    s: int
    c_delta: int
    input_bits: int
    provable_delta: Fraction
    recipe: str  # "rs" | "concat"
    outer: RSParams
    inner: Optional[InnerCode]

    @cached_property
    def generator_rows(self) -> tuple:
        """input_bits rows of s*c_delta-bit ints, built on first use (the
        descriptor of a wide code is cheap; its rows may not be)."""
        try:
            return self._build_generator_rows()
        except MemoryError:
            raise MemoryError("the %d generator rows of the %s code at s=%d do not fit "
                              "in memory" % (self.input_bits, self.recipe, self.s)) from None

    def _build_generator_rows(self) -> tuple:
        outer, inner = self.outer, self.inner
        rows = _build_rows_rs(outer, self.input_bits)
        if inner is None:
            # The built rows lie among the build's freed temporaries; their
            # copies (r << 0 is a new int) are allocated one after another.
            # The wide encode_int pass reads about half the rows of each
            # block, and at s = 588 it took about 1.2x as long on the
            # scattered rows once the work between two blocks had evicted
            # them (stream benchmark).
            return tuple([r << 0 for r in rows])
        # Concatenate: split each outer row into its m_out-bit symbols, as a
        # codeword of the outer code on its own, and replace each symbol by
        # its inner codeword (n_in = 8 m_out bits, whole bytes); the
        # n_outer*n_in bits are left-aligned in the s*c-bit frame.
        split = CodeSpecC(outer.n_code, outer.m, self.input_bits,
                          Fraction(outer.distance, outer.n_code), "rs", outer, None).split_codeword
        inner_bytes = [inner.encode(v).to_bytes(inner.n_in // 8, "big")
                       for v in range(1 << outer.m)]
        pad = self.s * self.c_delta - outer.n_code * inner.n_in
        concatenated = []
        for row in rows:
            joined = b"".join([inner_bytes[v] for v in split(row)])
            concatenated.append(int.from_bytes(joined, "big") << pad)
        return tuple(concatenated)

    @cached_property
    def _memo(self) -> Optional[dict]:
        return {} if self.input_bits <= MEMO_MAX_INPUT_BITS else None

    def symbols_for(self, packed: int) -> Tuple[int, ...]:
        """Codeword of an input_bits-wide packed message, as s symbol ints.

        Memoized only when the whole input space fits in the memo
        (input_bits <= MEMO_MAX_INPUT_BITS): exhaustive enumerations over
        small codes re-encode the same block inputs many times, while the
        wide pipeline level codes would only grow it, since they rarely
        see an input twice.  A memo miss refuses an input out of range, so
        a hit pays for no check.

        Up to 1,024 input bits a miss XORs one lane-laid table entry per
        input byte (see _byte_tables), all in C, and unpacks the lanes
        directly; wider codes split their encode_int codeword.
        """
        memo = self._memo
        if memo is not None:
            got = memo.get(packed)
            if got is not None:
                return got
        if packed < 0 or packed >> self.input_bits:
            raise ValueError("input must be in [0, 2^%d)" % self.input_bits)
        tables = self._byte_tables
        if tables:
            _, nbytes, unpack = self._split_plan
            lanes = reduce(xor, map(getitem, tables, packed.to_bytes(len(tables), "little")), 0)
            got = unpack(lanes.to_bytes(nbytes, "big"))
        else:
            got = self.split_codeword(self.encode_int(packed))
        if memo is not None:
            memo[packed] = got
        return got

    def split_codeword(self, out: int) -> Tuple[int, ...]:
        """The s c_delta-bit symbols of an s*c_delta-bit codeword, first
        symbol from the most significant bits.

        O(log s) big-int steps: the fields are spread into byte-aligned
        lanes of 8, 16, 32 or 64 bits, read by one struct.unpack.  Symbols
        wider than 64 bits (the concatenated recipe's 63-154) get lanes of
        whole bytes, read by one int.from_bytes each.  The masks are built
        on the first call and kept with the code.
        """
        _, nbytes, unpack = self._split_plan
        return unpack(self._spread(out).to_bytes(nbytes, "big"))

    def _spread(self, out: int) -> int:
        # The lane layout of a packed codeword: a fixed bit permutation, so
        # it commutes with XOR.
        for mask, shift in self._split_plan[0]:
            moved = out & mask
            out = (out ^ moved) | (moved << shift)
        return out

    @cached_property
    def _split_plan(self):
        # Symbol t (counted from the least significant end) starts at bit
        # t*c and must move to lane t, at bit t*lane: a shift of t*gap for
        # gap = lane - c.  Bit b of t, from high to low, moves by 2^b*gap
        # the fields whose index has bit b set.  Before that step each group
        # of 2^(b+1) fields sharing the bits of t above b sits contiguous
        # from its lane, every 2^(b+1)*lane bits, and the fields to move are
        # the upper 2^b of each group (fewer in a last, partial group).
        s, c = self.s, self.c_delta
        lane = next((w for w in (8, 16, 32, 64) if c <= w), 8 * -(-c // 8))
        gap = lane - c
        steps = []
        for b in reversed(range((s - 1).bit_length()) if gap else ()):
            half = 1 << b
            period = 2 * half * lane
            groups, rest = divmod(s, 2 * half)
            upper = ((1 << (half * c)) - 1) << (half * c)
            mask = _repeat_bits(upper, period, groups)
            if rest > half:
                mask |= ((1 << ((rest - half) * c)) - 1) << (groups * period + half * c)
            steps.append((mask, half * gap))
        nbytes = s * lane // 8
        if lane <= 64:
            unpack = struct.Struct(">%d%s" % (s, {8: "B", 16: "H", 32: "I", 64: "Q"}[lane])).unpack
        else:
            width = lane // 8

            def unpack(raw):
                return tuple([int.from_bytes(raw[i:i + width], "big")
                              for i in range(0, nbytes, width)])

        return tuple(steps), nbytes, unpack

    def encode_int(self, x: int) -> int:
        """Encode input_bits packed into an int; returns s*c_delta packed
        bits.  Raises ValueError for x outside [0, 2^input_bits), whose
        extra bits the pass below would misread."""
        if x < 0 or x >> self.input_bits:
            raise ValueError("input must be in [0, 2^%d)" % self.input_bits)
        # The rows that x's bits select, most significant bit first (row i
        # is bit input_bits-1-i), XORed in one C-level pass.
        bits = format(x, "0%db" % self.input_bits).encode().translate(_BIT_BYTES)
        return reduce(xor, compress(self.generator_rows, bits), 0)

    @cached_property
    def _byte_tables(self) -> tuple:
        # The method of four Russians: table k holds, for each value of
        # input byte k (least significant first), the XOR of the rows that
        # byte selects, already spread into the split plan's lanes, so
        # symbols_for reads its symbols without a split.  Skipped for very
        # wide inputs, where the tables would be large, block completions
        # are rare and encode_int's row-selecting pass is faster.
        w = self.input_bits
        if w > 1024:
            return ()
        rows = [self._spread(r) for r in self.generator_rows]
        tables = []
        for k in range((w + 7) // 8):
            byte_rows = [rows[w - 1 - (8 * k + j)] if 8 * k + j < w else 0
                         for j in range(8)]
            table = [0] * 256
            for b in range(1, 256):
                lsb = b & -b
                table[b] = table[b ^ lsb] ^ byte_rows[lsb.bit_length() - 1]
            tables.append(table)
        return tuple(tables)

    def encode(self, bits: Sequence[int]) -> Tuple[int, ...]:
        """Encode a bit sequence; returns the s output symbols as ints."""
        if len(bits) != self.input_bits:
            raise ValueError("input must be exactly %d bits" % self.input_bits)
        x = 0
        for b in bits:
            if b != 0 and b != 1:
                raise ValueError("input bit must be 0 or 1, got %r" % (b,))
            x = (x << 1) | b
        return self.symbols_for(x)


def _repeat_bits(pattern: int, period: int, count: int) -> int:
    """count copies of pattern, every period bits, by doubling."""
    out = shift = 0
    while count:
        if count & 1:
            out |= pattern << shift
            shift += period
        pattern |= pattern << period
        period *= 2
        count >>= 1
    return out


def _rs_recipe_params(input_bits: int, s: int, delta: Fraction) -> RSParams:
    # The first term is ceil(3/(1-delta)) + 1 for the standard 3s-bit input;
    # wider inputs (boosted packing) scale the 3 to input_bits/s.
    ratio = Fraction(input_bits, s)
    m_low = max(1, math.ceil(math.log2(s + 1)))
    m = max(math.ceil(ratio / (1 - delta)) + 1, m_low)
    if m > MAX_FIELD_DEGREE:
        # The uniform-in-s formula overshoots the field-degree cap (wide
        # boosted inputs); fall back to the smallest degree that still
        # meets the distance target at this particular s.
        for m in range(m_low, MAX_FIELD_DEGREE + 1):
            k_msg = math.ceil(input_bits / m)
            if k_msg <= s and Fraction(s - k_msg + 1, s) >= delta:
                break
        else:
            raise InfeasibleCodeError(
                "RS recipe needs field degree > %d for %d input bits at s=%d"
                % (MAX_FIELD_DEGREE, input_bits, s)
            )
    k_msg = math.ceil(input_bits / m)
    if k_msg > s:
        raise InfeasibleCodeError(
            "RS recipe needs k_msg=%d <= s=%d message symbols" % (k_msg, s)
        )
    return RSParams(m, k_msg, s)


def _build_rows_rs(params: RSParams, input_bits: int) -> tuple:
    """Binary generator rows of the RS map (padded bits -> codeword bits).

    The input_bits message bits are zero-padded at the most-significant end
    to k_msg m-bit symbols; row t is the codeword of the basis message with
    a single set bit at message-bit t.  That bit is bit b of message symbol
    q (symbol 0 is the constant term), so the row holds j^q * x^b in the
    m-bit slot of each point j, point 0 in the most significant slot.

    Every row is computed whole, on the n slots packed into one int:
    multiplying all slots by x is a shift plus a reduction by the modulus,
    and the powers P_q (slot j = j^q) follow from P_{q+1} = XOR over b of
    (P_q * x^b restricted to the points j with bit b set).
    """
    m, k, n = params.m, params.k_msg, params.n_code
    ones = sum(1 << (j * m) for j in range(n))  # bit 0 of every slot
    high = ones << (m - 1)
    low = ones * ((1 << (m - 1)) - 1)
    reduce_by = canonical_modulus(m) ^ (1 << m)
    full = (1 << m) - 1
    planes = [0] * m  # planes[b]: full slots of the points j with bit b set
    for j in range(n):
        slot = full << ((n - 1 - j) * m)
        for b in range(j.bit_length()):
            if j >> b & 1:
                planes[b] |= slot
    power = ones  # P_0: j^0 = 1 at every point, including 0
    rows: List[int] = []
    for _ in range(k):
        times_x = [power]  # times_x[b] = P_q * x^b
        for _ in range(m - 1):
            r = times_x[-1]
            times_x.append(((r & low) << 1) ^ (((r & high) >> (m - 1)) * reduce_by))
        rows.extend(reversed(times_x))  # message bits run MSB first
        power = 0
        for b in range(m):
            power ^= times_x[b] & planes[b]
    return tuple(rows[k * m - input_bits:])


def build_code_c(
    s: int,
    delta,
    recipe: str = "concat",
    seed: int = 0,
    input_bits: Optional[int] = None,
) -> CodeSpecC:
    """Construct the block code for width-s symbols at target distance delta.

    The recipe picks the outer Reed-Solomon code and the symbol width
    c_delta by arithmetic (the concatenated recipe also searches its inner
    code, whose verified distance enters provable_delta); the generator
    rows are built on first use.

    Raises InfeasibleCodeError when no parameterization reaches the target
    (for the concatenated recipe the fixed inner distance 0.3 caps the
    product bound; any target needing inner distance >= 1/2 is impossible
    for positive-rate binary codes by the Plotkin bound), and ValueError
    for an unknown recipe.
    """
    delta = Fraction(delta)
    if not 0 <= delta < 1:
        raise ValueError("delta must be in [0, 1)")
    if s < 1:
        raise ValueError("s must be positive")
    if input_bits is None:
        input_bits = 3 * s
    if recipe == "rs":
        outer = _rs_recipe_params(input_bits, s, delta)
        provable = Fraction(outer.distance, s)
        if provable < delta:
            raise InfeasibleCodeError(
                "RS recipe reaches delta %s < target %s at s=%d" % (provable, delta, s)
            )
        return CodeSpecC(s, outer.m, input_bits, provable, "rs", outer, None)
    if recipe != "concat":
        raise ValueError("unknown recipe %r" % recipe)
    if delta >= Fraction(1, 2):
        raise InfeasibleCodeError(
            "concatenated recipe needs inner distance >= %s >= 1/2, impossible "
            "for positive-rate binary codes (Plotkin bound)" % delta
        )
    choice = _best_concat_params(input_bits, s, delta)
    if choice is None:
        raise InfeasibleCodeError(
            "concatenated recipe (inner distance %.2f) cannot reach delta %s at s=%d"
            % (INNER_DELTA, delta, s)
        )
    m_out, n_outer, c = choice
    outer = RSParams(m_out, math.ceil(input_bits / m_out), n_outer)
    inner = find_inner_code(m_out, INNER_EXPANSION * m_out, INNER_DELTA, seed)
    provable = Fraction(math.ceil(outer.distance * inner.verified_distance / c), s)
    if provable < delta:
        raise InfeasibleCodeError("provable delta %s below target %s" % (provable, delta))
    return CodeSpecC(s, c, input_bits, provable, "concat", outer, inner)


def _best_concat_params(input_bits: int, s: int, delta: Fraction):
    """Pick (m_out, outer length) minimizing c_delta under the provable bound.

    The provable bound uses the guaranteed inner distance ceil(0.3*n_in);
    the shipped code's verified distance can only be larger.
    """
    best = None
    for m_out in range(2, 17):
        n_in = INNER_EXPANSION * m_out
        d_in = math.ceil(INNER_DELTA * n_in - 1e-12)
        # c >= n_outer n_in / s bounds every numerator by ceil(d_in s / n_in).
        if -(-d_in * s // n_in) * delta.denominator < delta.numerator * s:
            continue
        k_out = math.ceil(input_bits / m_out)
        lo, hi = max(k_out, 1 << (m_out - 1)), (1 << m_out) - 1
        for n_outer in range(lo, hi + 1):
            c = math.ceil(n_outer * n_in / s)
            # provable = ceil(...)/s >= delta, compared in ints
            provable_num = math.ceil((n_outer - k_out + 1) * d_in / c)
            if provable_num * delta.denominator >= delta.numerator * s:
                # c never falls as n_outer grows: this is m_out's best.
                if best is None or c < best[2]:
                    best = (m_out, n_outer, c)
                break
    return best


def s_delta(delta, recipe: str = "concat", s_max: int = 4096) -> int:
    """Smallest s for which the recipe's provable distance reaches delta.

    Scans build_code_c upward in s (descriptors only, no rows); raises
    InfeasibleCodeError when no s <= s_max works, and ValueError where
    build_code_c does (delta outside [0, 1), an unknown recipe).
    """
    for s in range(1, s_max + 1):
        try:
            build_code_c(s, delta, recipe)
        except InfeasibleCodeError:
            continue
        return s
    raise InfeasibleCodeError("no s <= %d reaches delta %s" % (s_max, Fraction(delta)))

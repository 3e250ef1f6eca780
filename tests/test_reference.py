"""The pipeline against a reference written from the construction's
definitions.

The reference below shares nothing with the library except the config and
its lag schedule: the window, the instance starts, the Pascal sums, the
field, its modulus and the Reed-Solomon evaluation are each computed here
from their definitions, by the slowest obvious method.  So it checks that
the encoder is the construction, not only that it is unchanged.
"""

import math
import random

from treecodes.pipeline import PipelineConfig, PipelineEncoder


def poly_mod(a, b):
    """a mod b for GF(2) polynomials held as ints (bit i: x^i)."""
    width = b.bit_length()
    while a.bit_length() >= width:
        a ^= b << (a.bit_length() - width)
    return a


def least_irreducible(m):
    """The least degree-m polynomial that no polynomial of degree
    1 .. m/2 divides."""
    return next(f for f in range(1 << m, 1 << (m + 1))
                if all(poly_mod(f, g) for g in range(2, 1 << (m // 2 + 1))))


def gf_mul(a, b, modulus, m):
    """a*b in GF(2^m) = GF(2)[x]/(modulus), shift and add."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= modulus
    return out


class ReferenceLevel:
    """One schedule level of block width s, from the definitions.

    Instance j starts at position j*h + 1 (h = s^2/2) and at local
    position L emits symbol L mod s of the codeword of its block
    floor(L/s) - 1, or None before its first block.  Block t's packed
    symbol is a_t*2^(2s) + sum over j <= t of C(t, j)*a_j.  Its codeword is
    the polynomial whose coefficient q is m-bit symbol q of the packed
    value, zero-padded at the top to k symbols (symbol 0 the most
    significant), evaluated at the field elements 0 .. s-1.
    """

    def __init__(self, s, delta, bits):
        self.s = s
        self.h = s * s // 2
        # The rs recipe: field degree m with 1 - (k-1)/s >= delta for the
        # 3s-bit packed symbol, and at least s points in the field.
        self.m = max(math.ceil(3 / (1 - delta)) + 1, math.ceil(math.log2(s + 1)))
        self.k = math.ceil(3 * s / self.m)
        self.modulus = least_irreducible(self.m)
        self.bits = bits
        self.codewords = {}

    def block_value(self, start, t):
        block = self.bits[start + t * self.s:start + (t + 1) * self.s]
        return int("".join(map(str, block)), 2)

    def codeword(self, start, t):
        key = (start, t)
        if key not in self.codewords:
            s, m, k = self.s, self.m, self.k
            a = [self.block_value(start, j) for j in range(t + 1)]
            packed = a[t] * 2 ** (2 * s) + sum(math.comb(t, j) * a[j] for j in range(t + 1))
            coeffs = [(packed >> ((k - 1 - q) * m)) & ((1 << m) - 1) for q in range(k)]
            word = []
            for point in range(s):
                value = 0
                for c in reversed(coeffs):
                    value = gf_mul(value, point, self.modulus, m) ^ c
                word.append(value)
            self.codewords[key] = word
        return self.codewords[key]

    def emit(self, start, local):
        t = local // self.s - 1
        return None if t < 0 else self.codeword(start, t)[local % self.s]

    def pair(self, pos):
        """(older, newer) at position pos: newer is instance (pos-1)//h."""
        j = (pos - 1) // self.h
        newer = self.emit(j * self.h, pos - j * self.h)
        older = None if j == 0 else self.emit((j - 1) * self.h, pos - (j - 1) * self.h)
        return (older, newer)


def reference_symbols(config, bits):
    """push_raw's tuple at every position: the window length and value
    (the last min(pos, a*s_min + 1) bits), then the (older, newer) pair of
    each level whose s is at most pos."""
    assert config.recipe == "rs" and config.boost is None
    width = config.a * config.s_min + 1
    levels = [ReferenceLevel(lv.s, config.delta, bits) for lv in config._schedule.levels]
    out = []
    for pos in range(1, len(bits) + 1):
        window = bits[max(0, pos - width):pos]
        out.append((len(window), int("".join(map(str, window)), 2),
                    tuple(lv.pair(pos) for lv in levels if lv.s <= pos)))
    return out


def test_pipeline_matches_definitions_reference():
    # 3,000 bits reach every level of the default config (s = 16, 20, 32,
    # 84, 588), the rollovers of the first three and five blocks of s = 588.
    config = PipelineConfig(n=2**14)
    rng = random.Random(2020)
    bits = [rng.randrange(2) for _ in range(3000)]
    enc = PipelineEncoder(config)
    for pos, want in enumerate(reference_symbols(config, bits), 1):
        assert enc.push_raw(bits[pos - 1]) == want, pos

"""Tests for the truncated and untruncated lagged encoders."""

import dataclasses
import random
from fractions import Fraction

import pytest

from treecodes.core import BLANK, FixedBits
from treecodes.ecc import CodeSpecC, build_code_c
from treecodes.lagged import (
    INTERN_BITS,
    LaggedParams,
    LaggedSymbol,
    StreamEncoderTruncatedLagged,
    StreamEncoderUntruncatedLagged,
    UntruncatedCore,
    encode_truncated_lagged,
    encode_untruncated_lagged,
    lagged_symbol,
)
from treecodes.linearcode import BoostParams
from treecodes.packing import BoostedPackedParams
from treecodes.pipeline import PipelineConfig


def toy_params(s=4, a=2):
    spec = build_code_c(s, Fraction(1, 4), "rs")
    return LaggedParams(s, a * s, spec)


def test_params_validation():
    spec = build_code_c(4, Fraction(1, 4), "rs")
    with pytest.raises(ValueError):
        LaggedParams(3, 6, spec)  # odd s
    with pytest.raises(ValueError):
        LaggedParams(4, 6, spec)  # ell not a multiple of s
    with pytest.raises(ValueError):
        LaggedParams(4, 4, spec)  # a < 2
    spec8 = build_code_c(8, Fraction(1, 4), "rs")
    with pytest.raises(ValueError):
        LaggedParams(4, 8, spec8)  # block code width mismatch
    # A block code sized for the plain packing under a boosted level.
    with pytest.raises(ValueError, match="consumes 6 bits, packed symbols have 12"):
        LaggedParams(2, 4, build_code_c(2, 0, "rs"), boost=BoostParams(1, 1))


def test_distance_bound_formula():
    p = toy_params(4, 4)
    # delta * (1/2 - 3/8)
    assert p.distance_bound() == p.spec.provable_delta * Fraction(1, 8)
    assert p.a == 4


def test_truncated_blank_prefix_and_block_structure():
    p = toy_params()
    out = encode_truncated_lagged(p, [1, 0, 1, 1, 0, 0, 0, 1])
    # Positions 1..s-1 are blank; from s onward every symbol is c-bit.
    assert out[:3] == (BLANK,) * 3
    assert all(isinstance(sym, FixedBits) and sym.width == p.spec.c_delta
               for sym in out[3:])
    # The streaming encoder replays identically.
    enc = StreamEncoderTruncatedLagged(p)
    replay = [enc.push(b) for b in [1, 0, 1, 1, 0, 0, 0, 1]]
    assert tuple(replay) == out


def test_truncated_depends_only_on_completed_blocks():
    p = toy_params()
    # Two inputs equal in block 1 but different inside an incomplete block 2
    # agree on every emitted symbol until block 2 completes.
    x = [1, 0, 1, 1, 0, 0, 1]
    y = [1, 0, 1, 1, 1, 1, 0]
    ox = encode_truncated_lagged(p, x)
    oy = encode_truncated_lagged(p, y)
    assert ox == oy  # block 2 incomplete: symbols still spread block 1


def test_truncated_capacity_guard():
    p = toy_params()
    enc = StreamEncoderTruncatedLagged(p)
    for _ in range(16):
        enc.push(1)
    with pytest.raises(ValueError):
        enc.push(0)


def test_untruncated_overlap_structure():
    p = toy_params()  # s=4, h=8
    out = encode_untruncated_lagged(p, [1] * 24)
    # Before h: no older instance, left is blank.
    for i in range(7):
        assert out[i].left is BLANK
    # Instance 1 starts at position h+1 = 9; its first 3 symbols are blank.
    assert out[8].right is BLANK
    # From position h+s on, both components are concrete inside the overlap.
    assert isinstance(out[12].left, FixedBits)
    assert isinstance(out[12].right, FixedBits)


def test_untruncated_right_restarts_each_segment():
    p = toy_params()
    bits = [random.Random(6).randrange(2) for _ in range(32)]
    out = encode_untruncated_lagged(p, bits)
    # The right component at position h+s equals the truncated encoding of
    # the bits since the segment start, at local position s.
    h, s = 8, 4
    local = encode_truncated_lagged(p, bits[h : h + s])
    assert out[h + s - 1].right == local[s - 1]


def test_untruncated_matches_shifted_truncated():
    p = toy_params()
    rng = random.Random(7)
    bits = [rng.randrange(2) for _ in range(40)]
    out = encode_untruncated_lagged(p, bits)
    h = 8
    # Instance j encodes bits j*h+1 .. min(end, (j+2)*h); check instance 1's
    # full overlap window against a direct truncated encoding.
    direct = encode_truncated_lagged(p, bits[h : 3 * h])
    for t in range(2 * h):
        pos = h + t  # 0-indexed global position of local position t+1
        sym = out[pos]
        component = sym.right if t < h else sym.left
        assert component == direct[t]


def test_untruncated_clone():
    p = toy_params()
    enc = StreamEncoderUntruncatedLagged(p)
    rng = random.Random(8)
    for _ in range(13):
        enc.push(rng.randrange(2))
    other = enc.clone()
    tail = [rng.randrange(2) for _ in range(13)]
    assert [enc.push(b) for b in tail] == [other.push(b) for b in tail]


def _core_state(core):
    return tuple(getattr(core, f) for f in UntruncatedCore.__slots__)


@pytest.mark.parametrize("cls", [StreamEncoderTruncatedLagged, StreamEncoderUntruncatedLagged])
def test_push_rejects_non_bits_before_changing_state(cls):
    # Bad bits before a push that completes a block (position 4), one that
    # starts the untruncated encoder's second instance (9, h = 8) and one
    # that does neither (11).
    enc = cls(toy_params())
    rng = random.Random(9)
    for stop in (3, 8, 10):
        while enc.core.pos < stop:
            enc.push(rng.randrange(2))
        twin = enc.clone()
        before = _core_state(enc.core)
        for bad in (2, -1, "1", None, 1.0, 0.0):
            with pytest.raises(ValueError):
                enc.push(bad)
        assert _core_state(enc.core) == before
        bit = rng.randrange(2)
        assert enc.push(bit) == twin.push(bit)


@pytest.mark.parametrize("encode", [encode_truncated_lagged, encode_untruncated_lagged])
def test_encode_lagged_rejects_non_bits(encode):
    for bad in (2, -1, "1", None, 1.0, 0.0):
        with pytest.raises(ValueError):
            encode(toy_params(), [1, 0, bad, 1])


def test_untruncated_push_symbols_equal_constructor_built_ones():
    # push fills LaggedSymbol without its __init__; it must be the symbol
    # the constructors build from the core's ints, with interned components.
    p = toy_params()  # s=4, h=8
    rng = random.Random(27)
    enc, twin = StreamEncoderUntruncatedLagged(p), UntruncatedCore(p)
    for t in range(200):
        if t == 8:  # just before the second instance starts
            enc, twin = enc.clone(), twin.clone()
        bit = rng.randrange(2)
        sym = enc.push(bit)
        pair = twin.push(bit)
        ref = LaggedSymbol(*[BLANK if v is None else FixedBits(p.c_delta, v) for v in pair])
        assert sym == ref and hash(sym) == hash(ref) and repr(sym) == repr(ref), t
        for component, v in zip((sym.left, sym.right), pair):
            assert component is (BLANK if v is None else p.symbol(v))
    for name in ("left", "right"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sym, name, None)


def test_lagged_symbol_never_returns_a_stale_symbol():
    # v + 2^c_delta has v's table slot but no c_delta-bit symbol: the
    # table read must not return v's symbol for it.
    p = toy_params()
    assert p.c_delta <= INTERN_BITS
    v = 5
    sym = p.symbol(v)
    for bad in (v + (1 << p.c_delta), -1 - p.symbol_mask + v):
        assert bad & p.symbol_mask == v
        with pytest.raises(ValueError):
            lagged_symbol(p, bad, None)
        with pytest.raises(ValueError):
            lagged_symbol(p, None, bad)
    assert p.symbols[v] is sym
    assert lagged_symbol(p, v, None) == LaggedSymbol(sym, BLANK)


def test_boosted_lagged_roundtrip():
    boost = BoostParams(1, 1)
    s = 2
    width = BoostedPackedParams(s, boost).symbol_bits
    spec = build_code_c(s, Fraction(0), "rs", input_bits=width)
    p = LaggedParams(s, 2 * s, spec, boost=boost)
    out = encode_truncated_lagged(p, [1, 0, 1, 1])
    assert out[0] is BLANK
    assert all(sym.width == spec.c_delta for sym in out[1:])
    assert p.distance_bound() == spec.provable_delta * (
        Fraction(1, 2) - Fraction(3, 4)
    )


class RefTruncatedCore:
    """Reference: one truncated instance with its own block accumulator,
    as the lagged core kept it per instance before the two instances of a
    level shared one."""

    def __init__(self, level):
        self.level = level
        self.cur = 0
        self.cnt = 0
        self.diffs = []
        self.codeword = None

    def push(self, bit):
        cur = (self.cur << 1) | bit
        cnt = self.cnt + 1
        lv = self.level
        if cnt == lv.s:
            self.diffs, packed = lv.packer.pack(self.diffs, cur)
            self.codeword = lv.spec.symbols_for(packed)
            cur = cnt = 0
        self.cur = cur
        self.cnt = cnt
        return None if self.codeword is None else self.codeword[cnt]

    def clone(self):
        other = RefTruncatedCore(self.level)
        other.cur, other.cnt = self.cur, self.cnt
        other.diffs, other.codeword = self.diffs, self.codeword
        return other


class RefUntruncatedCore:
    """Reference: a fresh RefTruncatedCore every h positions."""

    def __init__(self, level):
        self.level = level
        self.pos = 0
        self.older = None
        self.newer = None

    def push(self, bit):
        self.pos += 1
        if self.pos % self.level.h == 1:
            self.older = self.newer
            self.newer = RefTruncatedCore(self.level)
        older = self.older
        return (None if older is None else older.push(bit), self.newer.push(bit))

    def clone(self):
        other = RefUntruncatedCore(self.level)
        other.pos = self.pos
        other.older = None if self.older is None else self.older.clone()
        other.newer = None if self.newer is None else self.newer.clone()
        return other


def assert_core_matches_reference(level, nbits, seed):
    """Drive the level core and the per-instance reference with the same
    random bits; at the middle, clone both and push a different tail to
    the clones than to the originals."""
    rng = random.Random(seed)
    core, ref = UntruncatedCore(level), RefUntruncatedCore(level)
    mid = nbits // 2
    for i, b in enumerate(random_bits(rng, mid)):
        assert core.push(b) == ref.push(b), i + 1
    core2, ref2 = core.clone(), ref.clone()
    tail = zip(random_bits(rng, nbits - mid), random_bits(rng, nbits - mid))
    for i, (b, c) in enumerate(tail, mid + 1):
        assert core.push(b) == ref.push(b), i
        assert core2.push(c) == ref2.push(c), i


def random_bits(rng, n):
    return [int(c) for c in format(rng.getrandbits(n), "0%db" % n)]


def pipeline_level(s):
    """The level of block width s of the default n = 2^14 pipeline."""
    return next(params for params in PipelineConfig(n=2**14)._levels if params.s == s)


@pytest.mark.parametrize("s", [4, 6])
def test_level_core_matches_per_instance_reference_toy(s):
    # Five instance periods: four rollovers, three of which retire an instance.
    level = toy_params(s)
    assert_core_matches_reference(level, 5 * level.h, seed=s)


@pytest.mark.parametrize("s", [16, 20, 32, 84])
def test_level_core_matches_per_instance_reference_pipeline(s):
    level = pipeline_level(s)
    assert_core_matches_reference(level, 5 * level.h, seed=s)


def test_level_core_matches_per_instance_reference_s588():
    # The default pipeline's top level never rolls over within n = 2^14, so
    # the golden digests cannot cover its rollover: drive the core directly
    # past both (positions h + 1 and s^2 + 1), two blocks beyond the second.
    s = 588
    level = pipeline_level(s)
    assert_core_matches_reference(level, s * s + 2 * s, seed=588)


@pytest.mark.parametrize("s", [4, 16])
def test_truncated_encoder_packs_one_instance(s, monkeypatch):
    # Over its s^2 bits the truncated encoder completes s blocks and encodes
    # each once: there is no second instance to feed.
    calls = []
    symbols_for = CodeSpecC.symbols_for

    def counted(self, value):
        calls.append(value)
        return symbols_for(self, value)

    monkeypatch.setattr(CodeSpecC, "symbols_for", counted)
    p = LaggedParams(s, 2 * s, build_code_c(s, Fraction(1, 4), "rs"))
    rng = random.Random(s)
    encode_truncated_lagged(p, [rng.randrange(2) for _ in range(s * s)])
    assert len(calls) == s

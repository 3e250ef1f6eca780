"""Tests for the packed block codes (3s-bit and boosted symbols)."""

import math
import random
from fractions import Fraction

import pytest

from treecodes.packing import (
    BoostedPackedParams,
    PackedCodeParams,
    StreamEncoderBlockTc,
    encode_block_tc,
    packing_for,
)
from treecodes.linearcode import BoostParams


def test_packed_symbol_layout():
    # s=4: symbol = a (4 bits) || b (8 bits).
    params = PackedCodeParams(4)
    out = encode_block_tc(params, [[1, 0, 1, 1], [0, 0, 0, 1]])
    assert out[0].width == 12
    assert out[0].value == (11 << 8) | 11
    # b_2 = C(1,0)*11 + C(1,1)*1 = 12.
    assert out[1].value == (1 << 8) | 12


def test_packed_b_fits_two_s_bits():
    rng = random.Random(2)
    s = 6
    params = PackedCodeParams(s)
    for _ in range(30):
        blocks = [[rng.randrange(2) for _ in range(s)] for _ in range(s)]
        for sym in encode_block_tc(params, blocks):
            assert sym.width == 3 * s
            b = sym.value & ((1 << (2 * s)) - 1)
            assert b < 1 << (2 * s)


def test_packed_block_guards():
    params = PackedCodeParams(3)
    enc = StreamEncoderBlockTc(params)
    with pytest.raises(ValueError):
        enc.push([1, 0])
    for _ in range(3):
        enc.push([1, 1, 1])
    with pytest.raises(ValueError):
        enc.push([0, 0, 0])
    with pytest.raises(ValueError):
        encode_block_tc(params, [[0, 0, 0]] * 4)


def test_packed_accepts_bitstring():
    params = PackedCodeParams(4)
    enc = StreamEncoderBlockTc(params)
    sym = enc.push((1, 1, 1, 1))
    assert sym.value >> 8 == 15


@pytest.mark.parametrize("params", [PackedCodeParams(2), BoostedPackedParams(2, BoostParams(1, 1))])
def test_block_push_rejects_non_bits(params):
    enc = StreamEncoderBlockTc(params)
    enc.push([1, 0])
    diffs = list(enc.diffs)
    for bad in ("1", 2, None):
        with pytest.raises(ValueError):
            enc.push([1, bad])
        assert enc.blocks == 1
        assert enc.diffs == diffs


def test_packed_clone():
    params = PackedCodeParams(4)
    enc = StreamEncoderBlockTc(params)
    enc.push([1, 0, 0, 1])
    other = enc.clone()
    assert enc.push([0, 1, 1, 0]) == other.push([0, 1, 1, 0])


def test_boosted_packed_widths_and_values():
    # s=2, boost (1,2): 3 coordinates per block, 4-bit fields each.
    params = BoostedPackedParams(2, BoostParams(1, 2))
    assert params.coord_bits == 8
    assert params.symbol_bits == 24
    out = encode_block_tc(params, [[1, 0], [1, 1]])
    # First block packs a=2; padded input (2,0,0) under Pascal rows.
    assert out[0].value == (2 << 16) | (2 << 8) | 2
    padded = [2, 0, 0, 3, 0, 0]
    coords = [sum(math.comb(i, j) * padded[j] for j in range(i + 1)) for i in range(3, 6)]
    expect = 0
    for c in coords:
        expect = (expect << 8) | c
    assert out[1].value == expect


def test_boosted_packed_requires_unit_boost_block():
    with pytest.raises(ValueError):
        BoostedPackedParams(4, BoostParams(2, 1))


@pytest.mark.parametrize("s", [1, 2, 5, 16])
def test_packing_for_picks_widths_and_base_distance(s):
    plain = packing_for(s, None)
    assert plain == PackedCodeParams(s)
    assert plain.symbol_bits == 3 * s
    assert plain.base_distance == Fraction(1, 2)
    for r in (1, 2, 3):
        boosted = packing_for(s, BoostParams(1, r))
        assert boosted == BoostedPackedParams(s, BoostParams(1, r))
        assert boosted.symbol_bits == (r + 1) * (r + 2) * s
        assert boosted.base_distance == Fraction(r, r + 1)
    with pytest.raises(ValueError):
        packing_for(s, BoostParams(2, 1))


def test_boosted_packed_clone():
    params = BoostedPackedParams(2, BoostParams(1, 1))
    enc = StreamEncoderBlockTc(params)
    enc.push([1, 1])
    other = enc.clone()
    assert enc.push([0, 1]) == other.push([0, 1])

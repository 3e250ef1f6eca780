"""Tests for the (I, A) linear tree codes and the integer tree code."""

import math
import random

import pytest

from treecodes.core import IntPair, serialize_symbol
from treecodes.linearcode import (
    BoostParams,
    StreamEncoderIntTreeCode,
    StreamEncoderTcA,
    StreamEncoderTcASr,
    cx_rx_report,
    encode_int_treecode,
    encode_tc_a,
    encode_tc_a_sr,
)
from treecodes.pascal import is_totally_nonsingular, pascal_matrix, search_tns


def test_encode_tc_a_systematic_and_linear():
    P = pascal_matrix(5)
    x = (3, 1, 4, 1, 5, 9)
    out = encode_tc_a(P, x)
    assert all(pair.a == xi for pair, xi in zip(out, x))
    # Check coordinate is the Pascal-weighted prefix sum.
    for i, pair in enumerate(out):
        assert pair.b == sum(math.comb(i, j) * x[j] for j in range(i + 1))


def test_encode_tc_a_streaming_matches_batch():
    P = pascal_matrix(7)
    rng = random.Random(5)
    for _ in range(20):
        x = [rng.randrange(10) for _ in range(8)]
        enc = StreamEncoderTcA(P)
        assert tuple(enc.push(v) for v in x) == encode_tc_a(P, x)


def test_encode_tc_a_length_guard():
    P = pascal_matrix(2)
    with pytest.raises(ValueError):
        encode_tc_a(P, [1, 2, 3, 4])


def test_encode_tc_a_signed_tns_matrix():
    A = search_tns(3, 2, seed=0)
    assert is_totally_nonsingular(A).ok
    assert any(v < 0 for row in A.rows for v in row)
    out = encode_tc_a(A, (0, 0, 1))
    assert out == (IntPair(0, 0), IntPair(0, 0), IntPair(1, A.rows[2][2]))
    assert [serialize_symbol(p) for p in out] == ["(0,0)", "(0,0)", "(1,%d)" % A.rows[2][2]]
    assert serialize_symbol(IntPair(-1, -3)) == "(-1,-3)"
    x = (1, -1, 2)
    assert encode_tc_a(A, x) == tuple(
        IntPair(x[i], sum(A.rows[i][j] * x[j] for j in range(i + 1))) for i in range(3))


def test_boosted_encoder_pads_blocks():
    # s=1, r=2: each input is followed by two zeros before A is applied.
    A = pascal_matrix(5)  # dimension 6 = (1+2)*2 blocks
    params = BoostParams(1, 2)
    out = encode_tc_a_sr(A, params, [(5,), (7,)])
    assert len(out) == 2 and all(len(t) == 3 for t in out)
    padded = [5, 0, 0, 7, 0, 0]
    flat = [v for t in out for v in t]
    for i in range(6):
        assert flat[i] == sum(math.comb(i, j) * padded[j] for j in range(i + 1))


def test_boosted_encoder_block_size_guard():
    A = pascal_matrix(5)
    enc = StreamEncoderTcASr(A, BoostParams(2, 1))
    with pytest.raises(ValueError):
        enc.push((1,))


def test_boosted_clone_independent():
    A = pascal_matrix(11)
    enc = StreamEncoderTcASr(A, BoostParams(1, 1))
    enc.push((3,))
    other = enc.clone()
    assert enc.push((4,)) == other.push((4,))
    enc.push((5,))
    assert other.push((6,)) != ()  # other unaffected by enc's extra push


def test_int_treecode_bound_and_values():
    a = [6, 0, 2, 8]
    out = encode_int_treecode(a)
    assert out[0] == IntPair(6, 6)
    assert out[3].b == 6 + 0 + 3 * 2 + 8  # C(3,0)*6 + C(3,2)*2 + C(3,3)*8
    k = len(a)
    for pair in out:
        assert pair.b <= (1 << k) * max(a)


def test_int_treecode_rejects_negative():
    with pytest.raises(ValueError):
        encode_int_treecode([1, -2])
    assert encode_int_treecode([]) == ()
    enc = StreamEncoderIntTreeCode(3)
    enc.push(1)
    with pytest.raises(ValueError):
        enc.push(-2)
    assert enc.push(2) == IntPair(2, 3)


def test_int_treecode_streaming():
    rng = random.Random(9)
    a = [rng.randrange(1 << 16) for _ in range(12)]
    enc = StreamEncoderIntTreeCode(12)
    assert tuple(enc.push(v) for v in a) == encode_int_treecode(a)


def test_cx_rx_claim_on_enumeration():
    P = pascal_matrix(4)
    import itertools

    for x in itertools.product(range(3), repeat=5):
        if all(v == 0 for v in x):
            continue
        rep = cx_rx_report(P, x)
        assert len(rep.C_x) > len(rep.R_x)


def test_cx_rx_rejects_zero():
    with pytest.raises(ValueError):
        cx_rx_report(pascal_matrix(3), (0, 0, 0))

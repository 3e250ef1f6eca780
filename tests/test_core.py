"""Tests for the shared symbol and metric primitives."""

import os
import random
import re

import pytest

import treecodes
from treecodes.core import (
    BLANK,
    AlphabetDescriptor,
    BitString,
    FixedBits,
    IntPair,
    LengthMismatchError,
    SymbolTuple,
    hamming_distance,
    hamming_weight,
    serialize_symbol,
    split,
)


def test_blank_is_singleton():
    assert BLANK is not None
    assert (BLANK == BLANK) is True
    assert serialize_symbol(BLANK) == "-"


def test_fixed_bits_range_checks():
    fb = FixedBits(4, 11)
    assert fb.bits() == (1, 0, 1, 1)
    with pytest.raises(ValueError):
        FixedBits(4, 16)
    with pytest.raises(ValueError):
        FixedBits(4, -1)
    assert FixedBits(4, 0).bits() == (0, 0, 0, 0)


def test_serialize_symbol_forms():
    assert serialize_symbol(FixedBits(8, 255)) == "ff"
    assert serialize_symbol(FixedBits(5, 3)) == "03"
    assert serialize_symbol(7) == "7"
    assert serialize_symbol(IntPair(2, 13)) == "(2,13)"
    inner = SymbolTuple((FixedBits(4, 1), BLANK))
    assert serialize_symbol(inner) == "(1,-)"


def test_bitstring_roundtrip():
    bs = BitString((1, 0, 1, 1, 0))
    assert bs.to_int() == 22
    assert BitString.from_int(22, 5) == bs
    assert len(bs) == 5


def test_split_basic():
    assert split("abcde", "abXde") == 2
    assert split((1, 2, 3), (1, 2, 3)) == 3
    assert split("", "") == 0
    with pytest.raises(LengthMismatchError):
        split((1,), (1, 2))


def test_hamming_distance_and_weight():
    assert hamming_distance((1, 2, 3), (1, 0, 3)) == 1
    assert hamming_weight((0, 5, 0, 1), 0) == 2
    with pytest.raises(LengthMismatchError):
        hamming_distance((1,), ())


def test_split_random_pairs():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 30)
        x = [rng.randrange(3) for _ in range(n)]
        y = list(x)
        pos = rng.randrange(n)
        y[pos] = (y[pos] + 1 + rng.randrange(2)) % 3
        s = split(tuple(x), tuple(y))
        assert s <= pos
        assert x[:s] == y[:s]
        assert x[s] != y[s]


def test_alphabet_descriptor_total():
    d = AlphabetDescriptor(5, 11, (("window", 5), ("L1.left", "blank"), ("L1.right", 6)))
    assert d.total_bits == 11
    assert sum(v for _, v in d.structure if v != "blank") == d.total_bits


def test_version_matches_pyproject():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path) as fh:
        declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE).group(1)
    assert treecodes.__version__ == declared

"""Tests for the shared symbol and metric primitives."""

import copy
import dataclasses
import os
import pickle
import random
import re

import pytest

import treecodes
from treecodes.core import (
    BLANK,
    AlphabetDescriptor,
    FinalSymbol,
    FixedBits,
    IntPair,
    LaggedSymbol,
    LengthMismatchError,
    hamming_distance,
    hamming_weight,
    serialize_symbol,
    split,
)
from treecodes.core import _HEX_FORMATS
from treecodes.pipeline import PipelineConfig, PipelineEncoder, alphabet_at


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
    pair = LaggedSymbol(FixedBits(4, 1), BLANK)
    assert serialize_symbol(pair) == "(1,-)"
    assert serialize_symbol(FinalSymbol(FixedBits(5, 3), ())) == "(03)"
    assert serialize_symbol(FinalSymbol(FixedBits(5, 3), (pair, pair))) == "(03,(1,-),(1,-))"


def _serialize_reference(sym):
    # The recursive isinstance chain serialize_symbol replaced, kept as the
    # reference for its text.
    if sym is BLANK or isinstance(sym, type(BLANK)):
        return "-"
    if isinstance(sym, FixedBits):
        ndigits = max(1, (sym.width + 3) // 4)
        return format(sym.value, "0%dx" % ndigits)
    if isinstance(sym, int):
        return str(sym)
    if isinstance(sym, IntPair):
        return "(%d,%d)" % (sym.a, sym.b)
    if isinstance(sym, LaggedSymbol):
        return "(" + _serialize_reference(sym.left) + "," + _serialize_reference(sym.right) + ")"
    if isinstance(sym, FinalSymbol):
        parts = (sym.window,) + sym.levels
        return "(" + ",".join(_serialize_reference(p) for p in parts) + ")"
    raise TypeError("cannot serialize %r" % (sym,))


class _TaggedBits(FixedBits):
    pass


class _TaggedPair(LaggedSymbol):
    pass


def _random_symbol(rng, depth):
    kind = rng.randrange(10 if depth < 4 else 7)
    if kind == 0:
        return BLANK
    if kind in (1, 2):
        width = rng.choice((0, 1, 3, 4, 5, 10, 63, 64, 77, 154, 255, 256, 300))
        cls = FixedBits if kind == 1 else _TaggedBits
        return cls(width, rng.getrandbits(width) if width else 0)
    if kind == 3:
        return rng.randrange(-10**6, 10**6)
    if kind == 4:
        return rng.random() < 0.5
    if kind in (5, 6):
        return IntPair(rng.randrange(-999, 10**9), rng.randrange(-10**12, 10**12))
    if kind in (7, 8):
        cls = LaggedSymbol if kind == 7 else _TaggedPair
        return cls(_random_symbol(rng, depth + 1), _random_symbol(rng, depth + 1))
    levels = tuple(_random_pair(rng, depth + 1) for _ in range(rng.randrange(4)))
    return FinalSymbol(_random_symbol(rng, depth + 1), levels)


def _random_pair(rng, depth):
    cls = LaggedSymbol if rng.random() < 0.5 else _TaggedPair
    return cls(_random_symbol(rng, depth), _random_symbol(rng, depth))


def test_serialize_symbol_matches_reference_on_random_trees():
    rng = random.Random(12)
    for _ in range(3000):
        sym = _random_symbol(rng, 0)
        assert serialize_symbol(sym) == _serialize_reference(sym), sym
    assert serialize_symbol(True) == "True"
    assert serialize_symbol(_TaggedBits(12, 0xABC)) == "abc"
    assert serialize_symbol(IntPair(1, -2)) == "(1,-2)"


def test_serialize_symbol_narrow_widths_match_the_format():
    # Widths below 11 are read from a table built at import; every value
    # of each must give the text the width's format gives, through a
    # FixedBits subclass (the MRO fallback) too.
    for w in range(11):
        for v in range(1 << w):
            want = _HEX_FORMATS[w] % v
            assert serialize_symbol(FixedBits(w, v)) == want, (w, v)
            assert serialize_symbol(_TaggedBits(w, v)) == want, (w, v)
    rng = random.Random(31)
    for w in (11, 97, 255, 256, 300):
        for v in (0, 1, (1 << w) - 1, rng.getrandbits(w)):
            want = format(v, "0%dx" % ((w + 3) // 4))
            assert serialize_symbol(FixedBits(w, v)) == want, (w, v)
            assert serialize_symbol(_TaggedBits(w, v)) == want, (w, v)
            if w < len(_HEX_FORMATS):
                assert _HEX_FORMATS[w] % v == want


def test_serialize_symbol_rejects_unknown_types():
    for bad in (1.5, "01", [1], (FixedBits(1, 1),), None,
                LaggedSymbol(FixedBits(2, 1), 2.0),
                FinalSymbol(FixedBits(1, 0), (LaggedSymbol(BLANK, object()),)),
                FinalSymbol(2.0, ())):
        with pytest.raises(TypeError):
            serialize_symbol(bad)
        with pytest.raises(TypeError):
            _serialize_reference(bad)


@pytest.mark.parametrize("config", [PipelineConfig(n=3000), PipelineConfig(n=586, recipe="concat")])
def test_serialize_symbol_of_pushed_symbols_matches_reference(config):
    # The serializer on the symbols the pipeline makes, with blank and live
    # slots (rs levels of 5-11 bits, concat of 63-154).
    enc = PipelineEncoder(config)
    rng = random.Random(29)
    for i in range(1, config.n + 1):
        sym = enc.push(rng.randrange(2))
        assert serialize_symbol(sym) == _serialize_reference(sym), i


def test_slotted_symbols_copy_and_pickle():
    config = PipelineConfig(n=3000)
    enc = PipelineEncoder(config)
    rng = random.Random(30)
    for _ in range(2999):
        enc.push(rng.randrange(2))
    alphabet_at(config, 2999)
    pushed = enc.push(1)  # filled through the slot descriptors, as are its pairs
    samples = [
        FixedBits(5, 3),
        FixedBits(300, (1 << 299) + 5),
        LaggedSymbol(FixedBits(4, 1), IntPair(2, 13)),
        FinalSymbol(FixedBits(4, 1), (LaggedSymbol(BLANK, FixedBits(6, 9)),)),
        pushed,
        pushed.levels[-1],
        AlphabetDescriptor(5, 11, (("window", 5), ("L1.left", "blank"), ("L1.right", 6))),
        alphabet_at(config, 3000),  # inside the regime of 2999, also filled by slot
    ]
    for sym in samples:
        assert not hasattr(sym, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sym, dataclasses.fields(sym)[0].name, None)
        for other in (copy.copy(sym), copy.deepcopy(sym), pickle.loads(pickle.dumps(sym))):
            assert type(other) is type(sym)
            assert other == sym and hash(other) == hash(sym) and repr(other) == repr(sym)
            if type(sym) is not AlphabetDescriptor:
                assert serialize_symbol(other) == serialize_symbol(sym)


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

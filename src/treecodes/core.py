"""Shared domain types: output symbols, distance/split primitives.

Conventions used throughout the package:

* Symbol sequences are 1-indexed in documentation and in reported indices
  (split values, witness positions).  The lone exception is the Pascal
  matrix, which is 0-indexed.
* The blank symbol is a first-class value, not an absence: lagged encoders
  emit it before their first full block and it participates in Hamming
  comparisons (blank equals blank, and nothing else).
* Bit order is most-significant bit first everywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence, Tuple


class LengthMismatchError(ValueError):
    """Two sequences that must have equal length do not."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget."""


class _Blank:
    """The blank symbol.  Compares equal only to itself; serializes as "-"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Blank"

    def __reduce__(self):
        return (_Blank, ())


BLANK = _Blank()


# Slotted, as are LaggedSymbol, FinalSymbol and AlphabetDescriptor: one is
# made per symbol on the pipeline's per-bit path, whose wrappers fill the
# fields of the others through their slot descriptors.
@dataclass(frozen=True, slots=True)
class FixedBits:
    """A fixed-width bit string packed into an int, MSB first."""

    width: int
    value: int

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("width must be non-negative")
        if self.value < 0 or self.value >> self.width:
            raise ValueError("payload does not fit in %d bits" % self.width)

    def bits(self) -> tuple:
        return tuple((self.value >> (self.width - 1 - i)) & 1 for i in range(self.width))


@dataclass(frozen=True)
class IntPair:
    """A symbol (x_i, (Ax)_i) of the (I, A) code over the integers.

    Both components are non-negative for the integer tree code (A the
    Pascal matrix, non-negative inputs), whose encoders check their inputs;
    a signed matrix can give a negative check coordinate.
    """

    a: int
    b: int


@dataclass(frozen=True, slots=True)
class LaggedSymbol:
    """The per-position pair of the untruncated lagged code: (older
    instance, newer instance); blank components where an instance has not
    emitted."""

    left: object
    right: object


@dataclass(frozen=True, slots=True)
class FinalSymbol:
    """One output symbol of the pipeline: the input window plus one lagged
    pair per active level (levels with s_g > i are absent, not blank)."""

    window: FixedBits
    levels: Tuple[LaggedSymbol, ...]

    def to_symbol(self) -> "FinalSymbol":
        """The symbol itself.  serialize_symbol writes a FinalSymbol
        directly, so there is nothing to convert; this stays for callers
        written against the older API, among them the benchmark harness
        (perfbench/run.py) and tools/bench_user_path.py."""
        return self


@dataclass(frozen=True, slots=True)
class AlphabetDescriptor:
    """Exact size accounting for the output alphabet at one position."""

    position: int
    total_bits: int
    structure: tuple  # of (component name, bit count or "blank")

    def __post_init__(self):
        counted = sum([b for _, b in self.structure if b != "blank"])
        if counted != self.total_bits:
            raise ValueError("total_bits inconsistent with structure")


def split(x: Sequence, y: Sequence) -> int:
    """Length of the longest common prefix of x and y.

    Returns len(x) when the sequences are equal.  Raises on length mismatch.
    """
    if len(x) != len(y):
        raise LengthMismatchError("split: |x|=%d != |y|=%d" % (len(x), len(y)))
    s = 0
    for a, b in zip(x, y):
        if a != b:
            break
        s += 1
    return s


def hamming_distance(x: Sequence, y: Sequence) -> int:
    """Number of positions where x and y differ (symbol-level equality)."""
    if len(x) != len(y):
        raise LengthMismatchError("hamming_distance: |x|=%d != |y|=%d" % (len(x), len(y)))
    return sum(map(operator.ne, x, y))


def hamming_weight(x: Sequence, zero) -> int:
    """Number of positions of x whose symbol differs from `zero`."""
    return sum(1 for a in x if a != zero)


# "%0<d>x" with d = max(1, ceil(width/4)) hex digits, for widths below 256.
_HEX_FORMATS = tuple("%%0%dx" % max(1, (w + 3) // 4) for w in range(256))
_HEX_WIDTHS = len(_HEX_FORMATS)
# The text of every value of each width below 11 (2,047 strings): the
# pipeline's level symbols are 5-10 bits wide at the default rs config.
_NARROW_TEXT = tuple(tuple([_HEX_FORMATS[w] % v for v in range(1 << w)]) for w in range(11))
_NARROW_WIDTHS = len(_NARROW_TEXT)


def _part_text(part) -> str:
    # The one formatter of FixedBits text, and of every part of a composite
    # symbol: the pipeline's parts are FixedBits and BLANK, and any other
    # part type goes through serialize_symbol.
    if isinstance(part, FixedBits):
        w = part.width
        if w < _NARROW_WIDTHS:
            return _NARROW_TEXT[w][part.value]
        if w < _HEX_WIDTHS:
            return _HEX_FORMATS[w] % part.value
        return format(part.value, "0%dx" % ((w + 3) // 4))
    if part is BLANK:
        return "-"
    return serialize_symbol(part)


def _lagged_text(sym: LaggedSymbol) -> str:
    return "(%s,%s)" % (_part_text(sym.left), _part_text(sym.right))


def _final_text(sym: FinalSymbol) -> str:
    return "(%s)" % ",".join([_part_text(sym.window), *map(_lagged_text, sym.levels)])


_TEXT_BY_TYPE = {
    FinalSymbol: _final_text,
    LaggedSymbol: _lagged_text,
    FixedBits: _part_text,
    _Blank: lambda sym: "-",
    int: str,
    IntPair: lambda sym: "(%d,%d)" % (sym.a, sym.b),
}


def serialize_symbol(sym) -> str:
    """Render an output symbol using the package-wide text conventions.

    Blank -> "-";  FixedBits -> lowercase hex, MSB first (width is carried
    out of band);  plain ints (Nat) -> decimal;  IntPair, LaggedSymbol and
    FinalSymbol -> comma-joined components in parentheses, so a pipeline
    symbol reads "(window,(left,right),...)" and a lone pair
    "(left,right)".  A negative integer, which only the (I, A) code of a
    signed matrix emits, is written in decimal with a leading "-", as in
    "(1,-2)"; the blank is a lone "-" with no digits.

    The exact package types are looked up by type(sym) first, since every
    symbol of a stream passes through here; anything else (bool,
    subclasses) takes the entry of its nearest base class in the MRO.
    """
    text = _TEXT_BY_TYPE.get(type(sym))
    if text is None:
        for base in type(sym).__mro__:
            if base in _TEXT_BY_TYPE:
                return _TEXT_BY_TYPE[base](sym)
        raise TypeError("cannot serialize %r" % (sym,))
    return text(sym)

"""Lagged tree codes: the truncated block composition and its untruncated
interleaving.

Truncated form (input up to s^2 bits): input block j (bits (j-1)s+1 .. js)
is packed through the integer tree code into one wide symbol, which the
block code re-encodes into s short symbols written at output positions
js .. js+s-1.  Positions 1 .. s-1 carry the blank symbol (no block has
completed yet).

Untruncated form (any input length): fresh truncated encoders are started
every h = s^2/2 positions, each living for 2h positions, so every output
position carries a pair of short symbols -- one from each of the two
overlapping instances (blank where an instance has not yet emitted).

Both forms run on one raw-int core: `LaggedParams` holds what the
instances of one code share, and `UntruncatedCore` is the state of one
level: the two overlapping instances, which share one block accumulator.
The truncated encoder is the same core with instance period s^2.  The
pipeline drives the core through `complete`/`roll` at its events; the
stream encoders here push bit by bit and only wrap its ints into BLANK,
FixedBits and LaggedSymbol.

`lagged_symbol` is the one wrap of a level's (older, newer) ints, for the
untruncated encoder and for every level of the pipeline's push: it reads
the level's table of interned symbols directly and skips LaggedSymbol's
__init__.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import BLANK, FixedBits, LaggedSymbol
from .ecc import CodeSpecC
from .linearcode import BoostParams
from .packing import Packing, packing_for


# A level interns its FixedBits symbols in a direct-mapped table of
# 2^min(c_delta, INTERN_BITS) entries, so the table is bounded whatever the
# symbol width (rs levels have 5-17 bits, concat levels 63-539).
INTERN_BITS = 10

_new = object.__new__


@dataclass(frozen=True)
class LaggedParams:
    """One lagged level: block width s (even), minimum lag ell = a*s with
    a >= 2, the block code that spreads each packed symbol over its block
    (its rows are built when the first block completes), and what every
    encoder of the level shares: the instance period h = s^2/2, the symbol
    width c_delta, the packing and the table of interned symbols."""

    s: int
    ell: int
    spec: CodeSpecC
    boost: Optional[BoostParams] = None
    # Set once in __post_init__: push, complete and symbol() read them on
    # every call, and a plain attribute is the cheapest read (a
    # cached_property table made symbol() about 1.5x slower).
    h: int = field(init=False, repr=False, compare=False)
    c_delta: int = field(init=False, repr=False, compare=False)
    packer: Packing = field(init=False, repr=False, compare=False)
    symbol_mask: int = field(init=False, repr=False, compare=False)
    symbols: List[Optional[FixedBits]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.s < 2 or self.s % 2:
            raise ValueError("s must be even and at least 2")
        if self.ell % self.s or self.ell < 2 * self.s:
            raise ValueError("ell must be a multiple of s with ell/s >= 2")
        if self.spec.s != self.s:
            raise ValueError("block code emits %d symbols, need %d" % (self.spec.s, self.s))
        packer = packing_for(self.s, self.boost)
        if self.spec.input_bits != packer.symbol_bits:
            raise ValueError(
                "block code consumes %d bits, packed symbols have %d"
                % (self.spec.input_bits, packer.symbol_bits)
            )
        mask = (1 << min(self.spec.c_delta, INTERN_BITS)) - 1
        object.__setattr__(self, "h", self.s * self.s // 2)
        object.__setattr__(self, "c_delta", self.spec.c_delta)
        object.__setattr__(self, "packer", packer)
        object.__setattr__(self, "symbol_mask", mask)
        object.__setattr__(self, "symbols", [None] * (mask + 1))

    @property
    def a(self) -> int:
        return self.ell // self.s

    def distance_bound(self) -> Fraction:
        """The guaranteed ell-lagged distance delta*(base - 3/(2a)) of the
        truncated and untruncated encoders, base the packing's distance
        (1/2, or r/(r+1) boosted)."""
        return self.spec.provable_delta * (self.packer.base_distance - Fraction(3, 2 * self.a))

    def symbol(self, value: int) -> FixedBits:
        """FixedBits(c_delta, value), interned.

        The slot is the value's low bits; a slot holding another value is
        overwritten.  Every symbol is built by the FixedBits constructor, so
        a value out of range raises as it would without the table.
        """
        slot = value & self.symbol_mask
        sym = self.symbols[slot]
        if sym is None or sym.value != value:
            sym = self.symbols[slot] = FixedBits(self.c_delta, value)
        return sym


class UntruncatedCore:
    """One lagged level on raw ints: two overlapping instances that share
    one block accumulator.

    Instance j starts at position j*period + 1 and lives for 2*period
    positions (one instance covers the string start).  The period h = s^2/2
    is a multiple of s, so both instances complete their blocks at the same
    positions from the same s bits: `cur`/`cnt` serve both, and an instance
    keeps only its Pascal state and codeword (diffs None: no instance yet).
    A completed block is packed into each live instance and its codeword
    spread over the next s positions.  push returns (older, newer), each an
    int, or None before the instance's first completed block.  The truncated
    encoder uses period s^2, so within its s^2 bits only `newer` exists.

    push is the per-bit driver: it calls roll at each instance start and
    complete at each block end.  A caller that keeps the input bits itself
    (the pipeline) calls those two at their positions instead and reads the
    words directly; push's own `pos`/`cur`/`cnt` then stay 0.
    """

    __slots__ = ("level", "period", "pos", "cur", "cnt",
                 "old_diffs", "old_word", "new_diffs", "new_word")

    def __init__(self, params: LaggedParams, period: Optional[int] = None):
        self.level = params
        self.period = params.h if period is None else period
        self.pos = 0
        self.cur = 0
        self.cnt = 0
        self.old_diffs: Optional[List[int]] = None
        self.old_word: Optional[Tuple[int, ...]] = None
        self.new_diffs: Optional[List[int]] = None
        self.new_word: Optional[Tuple[int, ...]] = None

    def push(self, bit: int) -> Tuple[Optional[int], Optional[int]]:
        if bit != 0 and bit != 1:
            raise ValueError("input bit must be 0 or 1, got %r" % (bit,))
        # Before pos moves: a float or other non-int equal to 0 or 1 fails
        # here.  roll() leaves cur alone, so the order does not matter.
        try:
            cur = (self.cur << 1) | bit
        except TypeError:
            raise ValueError("input bit must be 0 or 1, got %r" % (bit,)) from None
        pos = self.pos + 1
        self.pos = pos
        if pos % self.period == 1:
            self.roll()
        cnt = self.cnt + 1
        if cnt == self.level.s:
            self.complete(cur)
            cur = cnt = 0
        self.cur = cur
        self.cnt = cnt
        old = self.old_word
        new = self.new_word
        return (None if old is None else old[cnt], None if new is None else new[cnt])

    def roll(self) -> None:
        """Position j*period + 1: instance j starts as `newer`, j-1 moves to
        `older` and j-2 retires after its 2*period bits.  A block just
        completed, so no block is under way."""
        self.old_diffs = self.new_diffs
        self.old_word = self.new_word
        self.new_diffs = []
        self.new_word = None

    def complete(self, block: int) -> None:
        """A block of s bits (first bit most significant) completed: pack it
        into each live instance, older first, and encode its codeword."""
        lv = self.level
        pack = lv.packer.pack
        symbols_for = lv.spec.symbols_for
        if self.old_diffs is not None:
            self.old_diffs, packed = pack(self.old_diffs, block)
            self.old_word = symbols_for(packed)
        self.new_diffs, packed = pack(self.new_diffs, block)
        self.new_word = symbols_for(packed)

    def clone(self) -> "UntruncatedCore":
        other = UntruncatedCore.__new__(UntruncatedCore)
        other.level = self.level
        other.period = self.period
        other.pos = self.pos
        other.cur = self.cur
        other.cnt = self.cnt
        other.old_diffs = self.old_diffs
        other.old_word = self.old_word
        other.new_diffs = self.new_diffs
        other.new_word = self.new_word
        return other


class StreamEncoderTruncatedLagged:
    """Online truncated lagged encoder: one bit in, one symbol out."""

    def __init__(self, params: LaggedParams):
        self.params = params
        self.core = UntruncatedCore(params, params.s ** 2)

    def push(self, bit: int):
        core = self.core
        if core.pos >= core.period:
            raise ValueError("truncated encoder accepts at most %d bits" % core.period)
        v = core.push(bit)[1]
        return BLANK if v is None else core.level.symbol(v)

    def clone(self) -> "StreamEncoderTruncatedLagged":
        other = StreamEncoderTruncatedLagged.__new__(StreamEncoderTruncatedLagged)
        other.params = self.params
        other.core = self.core.clone()
        return other


def encode_truncated_lagged(params: LaggedParams, bits) -> tuple:
    """Encode a whole bit sequence (length <= s^2) through the truncated code."""
    enc = StreamEncoderTruncatedLagged(params)
    return tuple(enc.push(b) for b in bits)


def lagged_symbol(params: LaggedParams, left: Optional[int], right: Optional[int]) -> LaggedSymbol:
    """Wrap an UntruncatedCore output: None becomes BLANK, an int the
    level's interned c_delta-bit symbol.

    A slot holding the same value is read directly; any other int goes
    through LaggedParams.symbol and its validating FixedBits constructor,
    so a value out of range raises.  The fields are set through the slot
    descriptors, skipping the frozen __init__ and its per-field
    object.__setattr__; LaggedSymbol has no __post_init__ to skip.
    """
    symbols = params.symbols
    mask = params.symbol_mask
    if left is None:
        left = BLANK
    else:
        sym = symbols[left & mask]
        left = sym if sym is not None and sym.value == left else params.symbol(left)
    if right is None:
        right = BLANK
    else:
        sym = symbols[right & mask]
        right = sym if sym is not None and sym.value == right else params.symbol(right)
    pair = _new(LaggedSymbol)
    _set_left(pair, left)
    _set_right(pair, right)
    return pair


# The frozen class's __setattr__ raises; its slot descriptors do not.
_set_left = LaggedSymbol.left.__set__
_set_right = LaggedSymbol.right.__set__


class StreamEncoderUntruncatedLagged:
    """Online untruncated lagged encoder; any input length.

    A fresh truncated instance starts at position j*h + 1 for h = s^2/2 and
    lives for 2h positions; every position is covered by exactly two
    instances (one at the string start), the older on the left and the
    newer on the right of the emitted pair.
    """

    def __init__(self, params: LaggedParams):
        self.params = params
        self.core = UntruncatedCore(params)

    def push(self, bit: int) -> LaggedSymbol:
        left, right = self.core.push(bit)
        return lagged_symbol(self.params, left, right)

    def clone(self) -> "StreamEncoderUntruncatedLagged":
        other = StreamEncoderUntruncatedLagged.__new__(StreamEncoderUntruncatedLagged)
        other.params = self.params
        other.core = self.core.clone()
        return other


def encode_untruncated_lagged(params: LaggedParams, bits) -> tuple:
    """Encode a whole bit sequence through the untruncated code."""
    enc = StreamEncoderUntruncatedLagged(params)
    return tuple(enc.push(b) for b in bits)

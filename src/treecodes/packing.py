"""Bit-packing around the integer tree code: s-bit blocks in, 3s-bit symbols out.

Block i is read as an integer a_i in [0, 2^s - 1] (MSB first) and fed to
the integer tree code truncated at n = s.  The output pair (a_i, b_i) is
packed as s bits of a_i followed by 2s bits of b_i; the magnitude bound
b_i <= 2^s * max a_j < 2^{2s} makes the 2s-bit budget exact.

The boosted variant replaces the (a_i, b_i) pair with the zero-padded
(s_int, r) integer code over wider coordinates; it is used only by the
arbitrary-distance pipeline.  Both packings run on the online Pascal
kernel; the `pack` method of each params class is the raw step that the
encoders here and the lagged core share.  `packing_for` is the one place
that picks a level's packing, and with it the input width of its block
code (`symbol_bits`) and the distance of its base code (`base_distance`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

from .core import FixedBits
from .linearcode import BoostParams, pascal_step


@dataclass(frozen=True)
class PackedCodeParams:
    """Block width s; the code accepts at most n = s blocks of s bits each."""

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be at least 1")

    @property
    def symbol_bits(self) -> int:
        return 3 * self.s

    @property
    def base_distance(self) -> Fraction:
        """Distance of the integer tree code under this packing."""
        return Fraction(1, 2)

    def pack(self, diffs: List[int], a: int) -> Tuple[List[int], int]:
        """Feed block value a to the Pascal kernel state diffs; return the
        new state and the packed symbol a || b as an int."""
        diffs = pascal_step(diffs, a)
        return diffs, (a << (2 * self.s)) | diffs[-1]


class StreamEncoderBlockTc:
    """Online packed encoder: push one s-bit block, get one packed symbol.

    The params object packs: PackedCodeParams gives the 3s-bit symbols,
    BoostedPackedParams the boosted ones.  At most s blocks are accepted.
    """

    def __init__(self, params: Packing):
        self.params = params
        self.blocks = 0
        self.diffs: List[int] = []

    def push(self, block) -> FixedBits:
        p = self.params
        if len(block) != p.s:
            raise ValueError("block must be exactly %d bits" % p.s)
        if self.blocks >= p.s:
            raise ValueError("encoder already consumed %d blocks" % p.s)
        a = 0
        for b in block:
            if b != 0 and b != 1:
                raise ValueError("block bit must be 0 or 1, got %r" % (b,))
            a = (a << 1) | b
        self.diffs, value = p.pack(self.diffs, a)
        self.blocks += 1
        return FixedBits(p.symbol_bits, value)

    def clone(self) -> "StreamEncoderBlockTc":
        other = StreamEncoderBlockTc.__new__(StreamEncoderBlockTc)
        other.params = self.params
        other.blocks = self.blocks
        other.diffs = self.diffs
        return other


def encode_block_tc(params: Packing, blocks: Sequence) -> Tuple[FixedBits, ...]:
    """Encode up to s blocks of s bits each into 3s-bit symbols, or into
    the wider symbols of a BoostedPackedParams."""
    if len(blocks) > params.s:
        raise ValueError("at most %d blocks allowed" % params.s)
    enc = StreamEncoderBlockTc(params)
    return tuple(enc.push(b) for b in blocks)


@dataclass(frozen=True)
class BoostedPackedParams:
    """Packed parameters for the zero-padded integer code.

    Each s-bit input block still packs to one integer a < 2^s, but the
    integer code appends boost.r zeros per input, so one input block yields
    boost.r + 1 output coordinates.  Each coordinate of the padded code at
    dimension n = (r+1)s is below 2^{(r+1)s} * 2^s, so a (r+2)s-bit field
    per coordinate always suffices; the packed symbol has
    (r+1)*(r+2)*s bits.
    """

    s: int
    boost: BoostParams

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be at least 1")
        if self.boost.s != 1:
            raise ValueError("packed boosting supports one integer per block (s=1 boost)")

    @property
    def coord_bits(self) -> int:
        return (self.boost.r + 2) * self.s

    @property
    def symbol_bits(self) -> int:
        return (self.boost.r + 1) * self.coord_bits

    @property
    def base_distance(self) -> Fraction:
        """Distance r/(r+1) of the zero-padded integer code."""
        return Fraction(self.boost.r, self.boost.r + 1)

    def pack(self, diffs: List[int], a: int) -> Tuple[List[int], int]:
        """Feed a and then r zeros to the Pascal kernel state diffs; return
        the new state and the r+1 coordinates packed into one int."""
        bits = self.coord_bits
        value = 0
        for v in (a,) + (0,) * self.boost.r:
            diffs = pascal_step(diffs, v)
            if diffs[-1] >> bits:
                raise AssertionError("coordinate exceeds its packed width")
            value = (value << bits) | diffs[-1]
        return diffs, value


Packing = Union[PackedCodeParams, BoostedPackedParams]


@lru_cache(maxsize=None)
def packing_for(s: int, boost: Optional[BoostParams]) -> Packing:
    """The packing of a block width s: the plain 3s-bit one, or the boosted
    one when boost is given (which refuses a boost other than (1, r)).
    Packings are immutable, so one per (s, boost) serves the process."""
    return PackedCodeParams(s) if boost is None else BoostedPackedParams(s, boost)

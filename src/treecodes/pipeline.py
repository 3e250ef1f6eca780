"""Superimposition of lagged codes at doubly-exponentially growing lags.

The encoder emits, per input bit, a sliding window of the last a*s_min+1
input bits together with the symbols of one untruncated lagged code per
schedule level.  Level g uses block width s_g = ell_g / a; a lag of b
positions is caught either by the window (b <= a*s_min) or by the level
whose interval [ell_g, s_g^2/2] contains b, giving relative distance
delta*(1/2 - 3/(2a)) overall (1/16 for the default delta=1/4, a=6).

The schedule rule used here keeps every lag a multiple of a times an even
block width: ell_1 = a*s_min and ell_{g+1} = 2a*floor(s_g^2/(4a)), so
ell_g = a*s_g exactly and consecutive coverage intervals overlap.  A level
enters the emitted symbol only from position s_g onward, and its lagged
code is made there, on first use; so every symbol is independent of the
target length n, n only caps the input, and a level whose code cannot be
made raises at the first position that needs it.

Per-position alphabet accounting is exact: window bits plus, per active
level, the two component widths with structurally-blank components (left
before the second instance window, right inside a block prefix) counted
as blank.

The encoder works one span at a time.  An event is a position where some
level completes a block (a multiple of its s) or starts an instance (one
past a multiple of its h = s^2/2); between two events every level emits
fixed codewords at a moving index, so the levels are touched only at
events and each push in between reads a ready-made level tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from typing import List, Optional, Tuple

from .core import AlphabetDescriptor, FinalSymbol, FixedBits
from .ecc import CodeSpecC, build_code_c
from .lagged import LaggedParams, UntruncatedCore, lagged_symbol
from .linearcode import BoostParams
from .packing import packing_for


_new = object.__new__


class ScheduleError(ValueError):
    """The lag schedule cannot cover the requested length."""


@dataclass(frozen=True)
class ScheduleLevel:
    g: int
    ell: int
    s: int

    @property
    def cover_lo(self) -> int:
        return self.ell

    @property
    def cover_hi(self) -> int:
        return self.s * self.s // 2


@dataclass(frozen=True)
class Schedule:
    levels: Tuple[ScheduleLevel, ...]
    s_min: int
    a: int
    n: int


def build_schedule(n: int, s_min: int = 16, a: int = 6) -> Schedule:
    """Lag levels ell_1 = a*s_min, ell_{g+1} = 2a*floor(s_g^2/(4a)), kept
    while the level's block width s_g = ell_g/a is at most n (none below
    s_min).

    Raises ScheduleError when the recurrence stalls before the window, which
    covers lags up to a*s_min, and the coverage intervals reach n (small
    s_min cannot grow: the first level needs s_min^2/2 > ell_1).
    """
    if s_min < 2 or s_min % 2:
        raise ValueError("s_min must be even and at least 2")
    if a < 2:
        raise ValueError("a must be at least 2")
    levels: List[ScheduleLevel] = []
    ell, s = a * s_min, s_min
    g = 1
    while s <= n:
        levels.append(ScheduleLevel(g, ell, s))
        nxt = 2 * a * (s * s // (4 * a))
        if nxt <= ell:
            if max(levels[-1].cover_hi, a * s_min) >= n:
                break
            raise ScheduleError(
                "schedule stalls at level %d (ell=%d, next=%d) before covering n=%d"
                % (g, ell, nxt, n)
            )
        ell, s = nxt, nxt // a
        g += 1
    return Schedule(tuple(levels), s_min, a, n)


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of the full binary-input tree code."""

    n: int
    delta: Fraction = Fraction(1, 4)
    a: int = 6
    s_min: int = 16
    recipe: str = "rs"
    boost: Optional[BoostParams] = None

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 <= self.delta < 1:
            raise ValueError("delta must be in [0, 1)")
        if self.s_min < 2 or self.s_min % 2:
            raise ValueError("s_min must be even and at least 2")
        if self.a < 2:
            raise ValueError("a must be at least 2")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.recipe not in ("rs", "concat"):
            raise ValueError("recipe must be 'rs' or 'concat'")
        packing_for(self.s_min, self.boost)  # refuses a boost the packing cannot take

    @property
    def window_bits(self) -> int:
        return self.a * self.s_min + 1

    def base_distance(self) -> Fraction:
        """The packed base code's distance: 1/2, or r/(r+1) boosted."""
        return packing_for(self.s_min, self.boost).base_distance

    def declared_distance(self) -> Fraction:
        """The composed guarantee delta*(base - 3/(2a))."""
        return self.delta * (self.base_distance() - Fraction(3, 2 * self.a))

    @cached_property
    def _schedule(self) -> Schedule:
        return build_schedule(self.n, self.s_min, self.a)

    def _level(self, k: int) -> LaggedParams:
        """The lagged code of schedule level k (counted from 0): block width
        s, lag ell = a*s and the level's block code (its rows not yet
        built).  The levels are made in order on first use and kept in the
        instance __dict__, as alphabet_at keeps its regime; an infeasible
        level's InfeasibleCodeError is raised again on every call."""
        made = self.__dict__.setdefault("_made_levels", [])
        while len(made) <= k:
            lv = self._schedule.levels[len(made)]
            code = level_code(lv.s, self.delta, self.recipe,
                              packing_for(lv.s, self.boost).symbol_bits)
            made.append(LaggedParams(lv.s, lv.ell, code, self.boost))
        return made[k]


def level_c_delta(config: PipelineConfig, s: int) -> int:
    """Per-symbol bit width of the level's block code (its rows are not
    built)."""
    return level_code(s, config.delta, config.recipe,
                      packing_for(s, config.boost).symbol_bits).c_delta


@lru_cache(maxsize=None)
def level_code(s: int, delta: Fraction, recipe: str, input_bits: int) -> CodeSpecC:
    """The block code of a level, shared by every encoder and clone in the
    process with the same code parameters, so its rows are built once."""
    return build_code_c(s, delta, recipe, input_bits=input_bits)


class PipelineEncoder:
    """Online encoder for the full code; one FinalSymbol per pushed bit.

    push_raw returns the symbol as a plain nested tuple (window length,
    window value, per-joined-level (left, right) ints-or-None), which is
    the representation used by the large-scale distance experiments;
    push wraps it into a FinalSymbol.

    The levels move only at events: positions where some level completes a
    block (pos = 0 mod s) or starts an instance (pos = 1 mod h).  Between
    two events every level's (older, newer) codewords are fixed and only
    the index into them moves, so at each event `_event` advances the
    levels concerned (UntruncatedCore.complete / roll) and builds `span`,
    the level tuples of positions span_start .. next_event - 1.  A push in
    between updates the window and pos and indexes the span.

    A level joins at its first block end, pos = s, which is an event: its
    core is made there from config._level, rolled once for its first
    instance (which started at position 1, and saw no block end before s)
    and completed with the block.  So the event loop walks only the joined
    levels, and a level's code is sized, or raises, at that position.

    Level 1's block ends are events, so a span is at most s_min positions,
    fewer than the window holds: the bits since the last event are the
    window's low bits.  `hist` holds the input up to span_start, masked to
    the widest schedule level's s, and takes those bits in at the next
    event.  Clones share span, hist, params and steps, which are replaced,
    never mutated.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        schedule = config._schedule.levels
        self.n = config.n
        self.wbits = config.window_bits
        self.wmask = (1 << self.wbits) - 1
        self.hist_mask = (1 << schedule[-1].s) - 1 if schedule else 0
        # The joined levels in order of increasing s: their LaggedParams,
        # (s, h) and cores.  Level k joins at joins[k]; n + 1 ends the list.
        self.params: Tuple[LaggedParams, ...] = ()
        self.steps: Tuple[Tuple[int, int], ...] = ()
        self.levels: List[UntruncatedCore] = []
        self.joins = tuple([lv.s for lv in schedule]) + (self.n + 1,)
        self.pos = 0
        self.window = 0
        self.hist = 0
        # Position 1 is an event: the first span starts there.
        self.span: List[tuple] = []
        self.span_start = 0
        self.next_event = 1

    def push_raw(self, bit: int):
        pos = self.pos
        if pos >= self.n:
            raise ValueError("input longer than n=%d" % self.n)
        if bit != 0 and bit != 1:
            raise ValueError("input bit must be 0 or 1, got %r" % (bit,))
        try:
            self.window = window = ((self.window << 1) | bit) & self.wmask
        except TypeError:  # a float or other non-int equal to 0 or 1
            raise ValueError("input bit must be 0 or 1, got %r" % (bit,)) from None
        self.pos = pos = pos + 1
        if pos == self.next_event:
            self._event(pos, window)
        wbits = self.wbits
        return (pos if pos < wbits else wbits, window, self.span[pos - self.span_start])

    def _event(self, pos: int, window: int) -> None:
        """Let in the level whose first block ends at pos, advance the levels
        whose block ends or instance starts at pos and build the span from
        pos to the next event."""
        k = pos - self.span_start
        hist = ((self.hist << k) | (window & ((1 << k) - 1))) & self.hist_mask
        self.hist = hist
        join_at = self.joins[len(self.levels)]
        if pos == join_at:
            params = self.config._level(len(self.levels))  # or raises here
            core = UntruncatedCore(params)
            core.roll()
            self.levels.append(core)
            self.params += (params,)
            self.steps += ((params.s, params.h),)
            join_at = self.joins[len(self.levels)]
        cap = self.config.s_min
        cols = []
        for core, (s, h) in zip(self.levels, self.steps):
            r = pos % s
            if r == 0:
                core.complete(hist & ((1 << s) - 1))
            elif r == 1 and pos % h == 1:
                core.roll()
            # A column runs to the level's block end, or to pos alone when
            # an instance starts at pos + 1; zip stops at the shortest.
            end = r + 1 if r == 0 and pos % h == 0 else r + cap
            old, new = core.old_word, core.new_word
            cols.append(zip(repeat(None) if old is None else old[r:end],
                            repeat(None) if new is None else new[r:end]))
        limit = join_at - pos
        span = list(zip(*cols)) if cols else [()] * limit
        del span[limit:]
        self.span = span
        self.span_start = pos
        self.next_event = pos + len(span)

    def push(self, bit: int) -> FinalSymbol:
        wlen, wval, raw = self.push_raw(bit)
        levels = tuple([
            lagged_symbol(params, left, right)
            for params, (left, right) in zip(self.params, raw)
        ])
        # Filled as lagged_symbol fills a LaggedSymbol: FinalSymbol has no
        # __post_init__, and the window goes through FixedBits' checks.
        sym = _new(FinalSymbol)
        _set_window(sym, FixedBits(wlen, wval))
        _set_levels(sym, levels)
        return sym

    def clone(self) -> "PipelineEncoder":
        other = PipelineEncoder.__new__(PipelineEncoder)
        other.__dict__.update(self.__dict__)
        other.levels = [core.clone() for core in self.levels]
        return other


_set_window = FinalSymbol.window.__set__
_set_levels = FinalSymbol.levels.__set__


def alphabet_at(config: PipelineConfig, i: int) -> AlphabetDescriptor:
    """Exact bit accounting of the symbol at position i; independent of n.
    It reads the levels with s <= i through config._level, so a level whose
    code is infeasible raises from its first position on, as the encoder
    does.

    The structure is constant over a regime of positions: it changes only
    where the window grows, where a level joins (i = s), where its older
    instance appears (i = h + 1) and where its newer one starts or
    completes its first block (i = 1 or s mod h).  The config keeps the last
    regime (lo, hi, total, structure) in its instance __dict__, as
    cached_property does, so its ==, hash and repr do not see it; a
    position inside it costs no walk over the levels.
    """
    if not isinstance(i, int):
        raise TypeError("position must be an int, got %r" % (i,))
    if not 1 <= i <= config.n:
        raise ValueError("position outside [1, n]")
    memo = config.__dict__.get("_alphabet_regime")
    if memo is not None and memo[0] <= i < memo[1]:
        # The (total, structure) pair passed the validating constructor
        # when the regime was walked.
        desc = _new(AlphabetDescriptor)
        _set_position(desc, i)
        _set_total_bits(desc, memo[2])
        _set_structure(desc, memo[3])
        return desc
    window_bits = config.window_bits
    if i < window_bits:
        total, hi = i, i + 1
    else:
        total, hi = window_bits, config.n + 1
    structure = [("window", total)]
    for k, lv in enumerate(config._schedule.levels):
        s = lv.s
        if s > i:
            hi = min(hi, s)  # the level joins
            break
        params = config._level(k)
        h, c = params.h, params.c_delta
        left_name, right_name = "L%d.left" % lv.g, "L%d.right" % lv.g
        # Left slot: the older instance exists from position h+1 on.
        if i > h:
            structure.append((left_name, c))
            total += c
        else:
            structure.append((left_name, "blank"))
            hi = min(hi, h + 1)
        # Right slot: the newer instance's local position is i mod h (or h
        # when the position is a segment boundary); blank before its first
        # completed block, that is up to the next position = s mod h, and
        # live up to the next start of an instance, at 1 mod h.
        r = i % h
        if r == 0 or r >= s:
            structure.append((right_name, c))
            total += c
            hi = min(hi, i + 1 if r == 0 else i + h - r + 1)
        else:
            structure.append((right_name, "blank"))
            hi = min(hi, i + s - r)
    desc = AlphabetDescriptor(i, total, tuple(structure))
    config.__dict__["_alphabet_regime"] = (i, hi, total, desc.structure)
    return desc


_set_position = AlphabetDescriptor.position.__set__
_set_total_bits = AlphabetDescriptor.total_bits.__set__
_set_structure = AlphabetDescriptor.structure.__set__


def boosted_config(eta, n: int = 1 << 14) -> PipelineConfig:
    """A configuration whose declared distance reaches eta.

    For eta up to the default guarantee 1/16 the standard constants are
    returned; beyond it the boost r, the block-code distance and the lag
    ratio a are raised so that delta*(r/(r+1) - 3/(2a)) >= eta.

    No configuration returned for eta > 1/16 can be encoded yet (checked
    at eta = k/100).  Below eta = 11/20 it has delta > 2/3 and r >= 3, so
    the RS level code needs field degree m >= (r+1)(r+2)/(1-delta) >= 60
    (the cap is 24): the encoder and alphabet_at raise InfeasibleCodeError
    at position s_min = 16, where level 1 joins.  From eta = 11/20 on it
    has a >= 8, so ell_1 = a*s_min >= s_min^2/2 and the schedule stalls at
    level 1: PipelineEncoder raises ScheduleError at construction.  A
    hand-built PipelineConfig(n, delta=1/4, boost=BoostParams(1, 2))
    encodes, with declared distance 5/48.
    """
    eta = Fraction(eta)
    if not 0 <= eta < 1:
        raise ValueError("eta must be in [0, 1)")
    default = PipelineConfig(n=n)
    if eta <= default.declared_distance():
        return default
    target = 1 - (1 - eta) / 3  # both r/(r+1) and delta must reach this
    r = math.ceil(target / (1 - target))
    delta = target
    base = Fraction(r, r + 1)
    # base >= target, so the slack is at least (1-eta)(4-eta)/(3(2+eta)) > 0.
    a = max(2, math.ceil(Fraction(3, 2) / (base - eta / delta)))
    config = PipelineConfig(n=n, delta=delta, a=a, boost=BoostParams(1, r))
    assert config.declared_distance() >= eta
    return config

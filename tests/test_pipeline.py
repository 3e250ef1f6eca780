"""Tests for the schedule, the full pipeline encoder and its alphabet
accounting."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

import treecodes.pipeline as pipeline
import treecodes
from treecodes import core, lagged
from treecodes.core import BLANK, AlphabetDescriptor, FixedBits, serialize_symbol
from treecodes.ecc import InfeasibleCodeError, build_code_c
from treecodes.lagged import INTERN_BITS, LaggedSymbol, UntruncatedCore
from treecodes.linearcode import BoostParams
from treecodes.packing import packing_for
from treecodes.pipeline import (
    FinalSymbol,
    PipelineConfig,
    PipelineEncoder,
    ScheduleError,
    alphabet_at,
    boosted_config,
    build_schedule,
    level_c_delta,
)


def test_schedule_default_levels():
    sch = build_schedule(1 << 14)
    assert [(lv.g, lv.ell, lv.s) for lv in sch.levels] == [
        (1, 96, 16),
        (2, 120, 20),
        (3, 192, 32),
        (4, 504, 84),
        (5, 3528, 588),
    ]
    sch6 = build_schedule(10**6)
    assert len(sch6.levels) == 6
    assert sch6.levels[-1].s == 28812


def test_schedule_lag_divisibility_and_coverage():
    sch = build_schedule(10**7)
    prev_hi = sch.a * sch.s_min  # the window covers lags below ell_1
    for lv in sch.levels:
        assert lv.ell == sch.a * lv.s
        assert lv.s % 2 == 0
        # Contiguity: each interval starts no later than just past the
        # previous cover.
        assert lv.cover_lo <= prev_hi + 1
        prev_hi = lv.cover_hi
    assert prev_hi >= 10**7 or sch.levels[-1].s > 10**7


def test_schedule_errors():
    # Below the first lag the schedule holds the levels with s <= n; the
    # window covers every lag up to a*s_min, so a stall only raises past it.
    assert [(lv.g, lv.ell, lv.s) for lv in build_schedule(50).levels] == [
        (1, 96, 16), (2, 120, 20), (3, 192, 32)]
    assert build_schedule(15).levels == ()
    assert [lv.s for lv in build_schedule(12, s_min=2, a=6).levels] == [2]
    with pytest.raises(ScheduleError, match="stalls at level 1"):
        build_schedule(13, s_min=2, a=6)
    with pytest.raises(ScheduleError):
        build_schedule(10**6, s_min=2, a=6)  # recurrence stalls
    with pytest.raises(ValueError):
        build_schedule(1000, s_min=15)
    with pytest.raises(ValueError):
        build_schedule(1000, a=1)


def test_config_distances():
    cfg = PipelineConfig(n=1 << 14)
    assert cfg.window_bits == 97
    assert cfg.base_distance() == Fraction(1, 2)
    assert cfg.declared_distance() == Fraction(1, 16)
    boosted = PipelineConfig(n=1 << 14, delta=Fraction(5, 6), a=7,
                             boost=BoostParams(1, 5))
    assert boosted.base_distance() == Fraction(5, 6)
    assert boosted.declared_distance() >= Fraction(1, 2)


def test_encoder_window_tracks_input():
    cfg = PipelineConfig(n=1 << 14)
    enc = PipelineEncoder(cfg)
    rng = random.Random(0)
    bits = []
    for i in range(1, 300):
        bits.append(rng.randrange(2))
        sym = enc.push(bits[-1])
        w = sym.window
        assert w.width == min(i, 97)
        assert list(w.bits()) == bits[-w.width:]


def test_encoder_levels_match_alphabet_accounting():
    cfg = PipelineConfig(n=1 << 14)
    enc = PipelineEncoder(cfg)
    rng = random.Random(1)
    for i in range(1, 1500):
        sym = enc.push(rng.randrange(2))
        desc = alphabet_at(cfg, i)
        # The accounted structure must match the emitted blank pattern.
        assert desc.structure[0] == ("window", sym.window.width)
        idx = 0
        for name, width in desc.structure[1:]:
            level_idx, side = divmod(idx, 2)
            lag = sym.levels[level_idx]
            comp = lag.left if side == 0 else lag.right
            if width == "blank":
                assert comp is BLANK, (i, name)
            else:
                assert isinstance(comp, FixedBits) and comp.width == width, (i, name)
            idx += 1


def test_encoder_length_guard():
    cfg = PipelineConfig(n=96)
    enc = PipelineEncoder(cfg)
    for _ in range(96):
        enc.push(0)
    with pytest.raises(ValueError):
        enc.push(0)


def _encoder_state(enc):
    state = dict(vars(enc))
    state["levels"] = [tuple(getattr(core, f) for f in UntruncatedCore.__slots__)
                       for core in enc.levels]
    return state


def test_push_rejects_non_bits_before_changing_state():
    # Bad bits before pushes whose position is an event (a block end at 16
    # or 32, a rollover at 129) and before one that is not, then pushes
    # past n.
    cfg = PipelineConfig(n=200)
    enc = PipelineEncoder(cfg)
    rng = random.Random(6)
    for stop in (15, 31, 128, 140):
        while enc.pos < stop:
            enc.push_raw(rng.randrange(2))
        twin = enc.clone()
        before = _encoder_state(enc)
        for bad in (2, -1, 3, "1", None, 0.5, 1.0, 0.0):
            with pytest.raises(ValueError):
                enc.push_raw(bad)
            with pytest.raises(ValueError):
                enc.push(bad)
        assert _encoder_state(enc) == before
        bit = rng.randrange(2)
        assert enc.push_raw(bit) == twin.push_raw(bit)
    while enc.pos < cfg.n:
        enc.push_raw(rng.randrange(2))
    before = _encoder_state(enc)
    for bit in (0, 1, 2):
        with pytest.raises(ValueError):
            enc.push_raw(bit)
        assert _encoder_state(enc) == before


def _all_levels(config):
    """The LaggedParams of every schedule level, as the encoder makes them."""
    return [config._level(k) for k in range(len(config._schedule.levels))]


def _constructor_built(config, raw):
    """push_raw's tuple wrapped through the public constructors alone."""
    wlen, wval, pairs = raw
    return FinalSymbol(FixedBits(wlen, wval), tuple([
        LaggedSymbol(*[BLANK if v is None else FixedBits(params.c_delta, v) for v in pair])
        for params, pair in zip(_all_levels(config), pairs)
    ]))


def _assert_push_is_constructor_built(config, enc, twin, bits):
    """Returns the last symbol pushed."""
    for bit in bits:
        sym = enc.push(bit)
        raw = twin.push_raw(bit)
        ref = _constructor_built(config, raw)
        assert sym == ref and hash(sym) == hash(ref) and repr(sym) == repr(ref), twin.pos
        assert sym.to_symbol() is sym, twin.pos
        for params, lv, pair in zip(_all_levels(config), sym.levels, raw[2]):
            for component, v in zip((lv.left, lv.right), pair):
                assert component is (BLANK if v is None else params.symbol(v))
    return sym


def test_push_symbols_equal_constructor_built_ones():
    # push fills FinalSymbol and LaggedSymbol without their __init__; they
    # must be the symbols the constructors build from push_raw's tuple.  The clone is taken just before level 1's
    # first rollover (h = 128).
    cfg = PipelineConfig(n=3000)
    rng = random.Random(27)
    bits = [rng.randrange(2) for _ in range(cfg.n)]
    enc, twin = PipelineEncoder(cfg), PipelineEncoder(cfg)
    _assert_push_is_constructor_built(cfg, enc, twin, bits[:128])
    clone, clone_twin = enc.clone(), twin.clone()
    _assert_push_is_constructor_built(cfg, enc, twin, bits[128:])
    tail = [1 - bits[128]] + [rng.randrange(2) for _ in range(cfg.n - 129)]
    sym = _assert_push_is_constructor_built(cfg, clone, clone_twin, tail)
    for name in ("window", "levels"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sym, name, None)
    for name in ("left", "right"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sym.levels[0], name, None)


@pytest.mark.parametrize("config", [PipelineConfig(n=3000), PipelineConfig(n=586, recipe="concat")])
def test_pushed_symbols_serialize_directly(config):
    # to_symbol is kept for older callers and returns the symbol itself, so
    # its text is the pushed symbol's, which is the constructor-built one's.
    enc, twin = PipelineEncoder(config), PipelineEncoder(config)
    rng = random.Random(31)
    for i in range(1, config.n + 1):
        bit = rng.randrange(2)
        sym = enc.push(bit)
        text = serialize_symbol(sym)
        assert text == serialize_symbol(sym.to_symbol()), i
        assert text == serialize_symbol(_constructor_built(config, twin.push_raw(bit))), i


def test_symbol_types_live_in_core():
    # One class per output symbol, reachable from the modules that make it.
    assert lagged.LaggedSymbol is treecodes.LaggedSymbol is core.LaggedSymbol
    assert pipeline.FinalSymbol is treecodes.FinalSymbol is core.FinalSymbol
    assert not hasattr(treecodes, "SymbolTuple") and not hasattr(core, "SymbolTuple")


def test_level_codes_built_once_per_process(monkeypatch):
    calls = []
    real = pipeline.build_code_c

    def counting(s, *args, **kwargs):
        calls.append(s)
        return real(s, *args, **kwargs)

    pipeline.level_code.cache_clear()
    monkeypatch.setattr(pipeline, "build_code_c", counting)
    cfg = PipelineConfig(n=1 << 14)
    rng = random.Random(7)
    base = PipelineEncoder(cfg)
    base.push_raw(1)
    twin = base.clone()
    for _ in range(600):
        base.push_raw(rng.randrange(2))
        twin.push_raw(rng.randrange(2))
    assert sorted(calls) == [16, 20, 32, 84, 588]
    fresh = PipelineEncoder(cfg)
    for _ in range(600):
        fresh.push_raw(rng.randrange(2))
    assert len(calls) == 5
    # The level codes keep no memo: their wide inputs rarely repeat.
    for lv in build_schedule(cfg.n).levels:
        spec = pipeline.level_code(lv.s, cfg.delta, cfg.recipe,
                                   packing_for(lv.s, cfg.boost).symbol_bits)
        assert not spec._memo
    assert len(calls) == 5


def test_delta_with_a_large_denominator_encodes():
    # The width lookup and the build size each level's code from the same,
    # exact delta, whatever its denominator.
    cfg = PipelineConfig(n=200, delta=Fraction(1, 4) + Fraction(1, 10**7))
    enc = PipelineEncoder(cfg)
    rng = random.Random(16)
    for _ in range(cfg.n):
        enc.push(rng.randrange(2))
    for lv in build_schedule(cfg.n).levels:
        spec = pipeline.level_code(lv.s, cfg.delta, cfg.recipe,
                                   packing_for(lv.s, cfg.boost).symbol_bits)
        assert level_c_delta(cfg, lv.s) == spec.c_delta
        assert spec.provable_delta >= cfg.delta


def test_level_code_built_on_first_completed_block(monkeypatch):
    # A level's code is made where the stream reaches its first block end.
    # At n = 10^6 the top level (s = 28,812) has no buildable rows yet (about
    # 4.7 GB): up to the position before it the encoder makes the five lower
    # levels' codes, one at each s, with their rows built, and never its own.
    calls = []
    real = pipeline.build_code_c

    def counting(s, *args, **kwargs):
        calls.append(s)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(pipeline, "build_code_c", counting)
    pipeline.level_code.cache_clear()
    widths = [16, 20, 32, 84, 588]
    marks = {s + d for s in widths for d in (-1, 0)} | {28811}
    enc = PipelineEncoder(PipelineConfig(n=10**6))
    rng = random.Random(9)
    for pos in range(1, 28812):
        enc.push_raw(rng.randrange(2))
        if pos in marks:
            assert calls == [s for s in widths if s <= pos], pos
            assert [core.level.s for core in enc.levels] == calls, pos
    assert all("generator_rows" in vars(core.level.spec) for core in enc.levels)
    assert enc.joins[len(enc.levels)] == 28812


def _outputs(config, bits):
    """push_raw's tuple, the pushed symbol's text and alphabet_at, per bit,
    and the two encoders after the last bit."""
    raw, wrapped = PipelineEncoder(config), PipelineEncoder(config)
    out = [(raw.push_raw(b), serialize_symbol(wrapped.push(b)), alphabet_at(config, i))
           for i, b in enumerate(bits, 1)]
    return out, raw, wrapped


@pytest.mark.parametrize("n", [1, 50, 95])
def test_lengths_below_the_first_lag_are_prefixes_of_n96(n):
    # The symbols 1..n do not depend on n: they are the first n of the
    # n = 96 encoder's.  n only caps the input and the positions.
    rng = random.Random(n)
    bits = [rng.randrange(2) for _ in range(96)]
    config = PipelineConfig(n=n)
    out, raw, wrapped = _outputs(config, bits[:n])
    assert out == _outputs(PipelineConfig(n=96), bits)[0][:n]
    for push in (raw.push_raw, wrapped.push):
        with pytest.raises(ValueError, match="input longer than n=%d" % n):
            push(bits[n])
    with pytest.raises(ValueError, match="outside"):
        alphabet_at(config, n + 1)


def test_a_length_past_the_field_cap_encodes_up_to_its_unbuilt_level():
    # At n = 10^8 the schedule's s = 69,177,612 level needs a field degree
    # above ecc.MAX_FIELD_DEGREE, but the stream never reaches it here: the
    # first 28,811 bits encode as at n = 28,811.  Bit 28,812 is not pushed,
    # since the s = 28,812 level's rows take about 4.7 GB.
    rng = random.Random(10)
    bits = [rng.randrange(2) for _ in range(28811)]
    huge, exact = PipelineConfig(n=10**8), PipelineConfig(n=28811)
    assert build_schedule(huge.n).levels[-1].s == 69177612
    a, b = PipelineEncoder(huge), PipelineEncoder(exact)
    assert [a.push_raw(x) for x in bits] == [b.push_raw(x) for x in bits]
    assert all(alphabet_at(huge, i) == alphabet_at(exact, i) for i in range(1, 28812))
    assert [core.level.s for core in a.levels] == [16, 20, 32, 84, 588]


@pytest.mark.parametrize("kwargs, message", [
    ({"delta": Fraction(1)}, "delta must be in [0, 1)"),
    ({"delta": Fraction(-1, 4)}, "delta must be in [0, 1)"),
    ({"s_min": 15}, "s_min must be even and at least 2"),
    ({"s_min": 0}, "s_min must be even and at least 2"),
    ({"a": 1}, "a must be at least 2"),
    ({"n": 0}, "n must be at least 1"),
    ({"n": -5}, "n must be at least 1"),
    ({"recipe": "ldpc"}, "recipe must be 'rs' or 'concat'"),
    ({"boost": BoostParams(2, 1)}, "packed boosting supports one integer per block"),
], ids=["delta-1", "delta-negative", "s_min-odd", "s_min-0", "a-1", "n-0", "n-negative",
        "recipe", "boost"])
def test_config_refusals(kwargs, message):
    with pytest.raises(ValueError) as refused:
        PipelineConfig(**{"n": 1000, **kwargs})
    assert type(refused.value) is ValueError
    assert str(refused.value).startswith(message)


def test_push_rejects_what_is_not_a_bit():
    cfg = PipelineConfig(n=200)
    for bad in ("1", None, 2):
        with pytest.raises(ValueError, match="0 or 1"):
            PipelineEncoder(cfg).push(bad)


def test_prefix_stability_across_n():
    rng = random.Random(3)
    bits = [rng.randrange(2) for _ in range(600)]
    small = PipelineConfig(n=1 << 14)
    large = PipelineConfig(n=1 << 16)
    e1, e2 = PipelineEncoder(small), PipelineEncoder(large)
    assert [e1.push_raw(b) for b in bits] == [e2.push_raw(b) for b in bits]


def test_clone_diverges_independently():
    cfg = PipelineConfig(n=1 << 14)
    enc = PipelineEncoder(cfg)
    rng = random.Random(4)
    for _ in range(700):
        enc.push_raw(rng.randrange(2))
    twin = enc.clone()
    tail = [rng.randrange(2) for _ in range(300)]
    out_a = [enc.push_raw(b) for b in tail]
    flipped = [1 - tail[0]] + tail[1:]
    out_b = [twin.push_raw(b) for b in flipped]
    assert out_a[0] != out_b[0]
    # Same-suffix replay from a fresh clone is identical.
    # (Clones share immutable level data but no mutable state.)


class _PerBitReference:
    """The per-bit walk that the span-based push_raw replaced: every
    level's core is pushed on every bit, and the pairs of the active levels
    (s <= pos) are kept."""

    def __init__(self, config):
        self.wbits = config.window_bits
        self.levels = [UntruncatedCore(params) for params in _all_levels(config)]
        self.pos = 0
        self.window = 0

    def push_raw(self, bit):
        self.pos += 1
        self.window = ((self.window << 1) | bit) & ((1 << self.wbits) - 1)
        out = [(core.level.s, core.push(bit)) for core in self.levels]
        return (min(self.pos, self.wbits), self.window,
                tuple([sym for s, sym in out if s <= self.pos]))

    def clone(self):
        other = _PerBitReference.__new__(_PerBitReference)
        other.__dict__.update(self.__dict__)
        other.levels = [core.clone() for core in self.levels]
        return other


def _clone_positions(config, rng):
    """Each level's first block end s_g, its first two rollovers j*h+1, the
    first position where levels 1 and 2 both end a block and the position
    before it, and random positions; all below n."""
    sched = build_schedule(config.n, config.s_min, config.a)
    s1, s2 = sched.levels[0].s, sched.levels[1].s
    both = s1 * s2 // math.gcd(s1, s2)
    marks = {both - 1, both}
    for lv in sched.levels:
        h = lv.s * lv.s // 2
        marks.update((lv.s, h + 1, 2 * h + 1))
    marks.update(rng.randrange(1, config.n) for _ in range(3))
    return sorted(p for p in marks if p < config.n)


@pytest.mark.parametrize("config", [
    PipelineConfig(n=1 << 14),
    # n=5000 would add an s=5000 level whose one block, at the last bit,
    # builds a generator of about 120 MB; levels 12, 18 and 40 roll over
    # several times either way.
    PipelineConfig(n=4999, delta=Fraction(1, 2), a=4, s_min=12),
    PipelineConfig(n=500, boost=BoostParams(1, 2)),
    PipelineConfig(n=586, recipe="concat"),
], ids=["default", "d12-a4-s12", "boost-1-2", "concat"])
def test_push_raw_matches_the_per_bit_walk(config):
    rng = random.Random(config.n)
    bits = [rng.randrange(2) for _ in range(config.n)]
    marks = _clone_positions(config, rng)
    enc, ref = PipelineEncoder(config), _PerBitReference(config)
    clones = []
    for i, bit in enumerate(bits, 1):
        assert enc.push_raw(bit) == ref.push_raw(bit), i
        if i in marks:
            clones.append((i, enc.clone(), ref.clone()))
    assert [p for p, _, _ in clones] == marks
    for i, twin, ref_twin in clones:
        # A tail that differs from the stream at its first bit.
        tail = [1 - bits[i]] + [rng.randrange(2) for _ in range(min(1200, config.n - i) - 1)]
        for t, bit in enumerate(tail, i + 1):
            assert twin.push_raw(bit) == ref_twin.push_raw(bit), (i, t)


def _alphabet_at_reference(config, i):
    # The schedule walk alphabet_at replaced, kept as the reference.
    if not 1 <= i <= config.n:
        raise ValueError("position outside [1, n]")
    structure = [("window", min(i, config.window_bits))]
    total = min(i, config.window_bits)
    for lv in build_schedule(config.n, config.s_min, config.a).levels:
        if lv.s > i:
            continue
        c = level_c_delta(config, lv.s)
        h = lv.s * lv.s // 2
        left = c if i > h else "blank"
        r = i % h
        local = h if r == 0 else r
        right = c if local >= lv.s else "blank"
        structure.append(("L%d.left" % lv.g, left))
        structure.append(("L%d.right" % lv.g, right))
        total += (0 if left == "blank" else c) + (0 if right == "blank" else c)
    return AlphabetDescriptor(i, total, tuple(structure))


def _same_descriptor(config, i):
    # A position inside the config's last regime gets a descriptor filled
    # without the constructor; it must be the one the constructor builds.
    got, want = alphabet_at(config, i), _alphabet_at_reference(config, i)
    assert (got.position, got.total_bits, got.structure) == (
        want.position, want.total_bits, want.structure), (config, i)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


@pytest.mark.parametrize("config", [
    PipelineConfig(n=1 << 14),
    PipelineConfig(n=1 << 14, recipe="concat"),
    PipelineConfig(n=1 << 14, boost=BoostParams(1, 2)),
    # With a=4 and s_min=8 the schedule stalls after its first level, so
    # n=32 = a*s_min is the longest length it admits.
    PipelineConfig(n=32, a=4, s_min=8),
    PipelineConfig(n=1 << 14, a=4, s_min=16),
])
def test_alphabet_at_matches_schedule_walk_everywhere(config):
    for i in range(1, config.n + 1):
        _same_descriptor(config, i)


def test_alphabet_at_matches_schedule_walk_sampled_to_a_million():
    config = PipelineConfig(n=10**6)
    rng = random.Random(14)
    positions = {1, 96, 97, 98, config.n}
    for lv in build_schedule(config.n).levels:
        h = lv.s * lv.s // 2
        for base in (lv.s, h, 2 * h, 3 * h):
            positions.update(range(max(1, base - 2), min(config.n, base + lv.s + 2) + 1))
    positions.update(rng.randrange(1, config.n + 1) for _ in range(20000))
    for i in sorted(positions):
        _same_descriptor(config, i)


def _regime_edges(config):
    """Every position of the window's growth, and positions around each
    place a level's slots change (i = s, 1 or s mod h, h + 1)."""
    positions = set(range(1, config.window_bits + 2))
    for lv in build_schedule(config.n, config.s_min, config.a).levels:
        h = lv.s * lv.s // 2
        for base in range(0, config.n, h):
            for edge in (base + 1, base + lv.s, base + h + 1):
                positions.update(range(edge - 2, edge + 3))
    return sorted(i for i in positions if 1 <= i <= config.n)


@pytest.mark.parametrize("order", ["shuffled", "descending", "repeated"])
def test_alphabet_at_in_any_order_matches_schedule_walk(order):
    config = PipelineConfig(n=1 << 14)
    positions = _regime_edges(config)
    rng = random.Random(28)
    if order == "shuffled":
        rng.shuffle(positions)
    elif order == "descending":
        positions.reverse()
    else:
        # Each position twice in a row, then a jump to any position.
        positions = [j for i in positions for j in (i, i, rng.choice(positions))]
    for i in positions:
        _same_descriptor(config, i)


def test_alphabet_at_keeps_a_regime_per_config():
    # Configs asked in turn at the same positions: each answer is that
    # config's own, never a regime another config left.
    configs = [PipelineConfig(n=1 << 14), PipelineConfig(n=3000, s_min=20),
               PipelineConfig(n=1 << 14, a=4), PipelineConfig(n=2000)]
    for i in range(1, 2001):
        for config in configs:
            _same_descriptor(config, i)


def test_alphabet_at_leaves_config_equality_hash_and_repr():
    config, twin = PipelineConfig(n=1 << 14), PipelineConfig(n=1 << 14)
    before = (hash(config), repr(config))
    for i in (1, 500, 200, 200, 1 << 14):
        alphabet_at(config, i)
    assert config == twin and twin == config
    assert (hash(config), repr(config)) == before == (hash(twin), repr(twin))
    assert dataclasses.astuple(config) == dataclasses.astuple(twin)


def test_alphabet_at_refuses_positions_that_are_not_ints():
    # A float position used to be accounted: 5.5 as a window of 5.5 bits,
    # 200.5 as 125 bits.  The check comes before the config's regime is
    # read, so a position inside it is refused as well.  A bool is an int,
    # as push takes True and False.
    config = PipelineConfig(n=1 << 14)
    for bad in (5.5, 5.0, 200.5, "5"):
        alphabet_at(config, int(float(bad)))
        with pytest.raises(TypeError):
            alphabet_at(config, bad)
    assert alphabet_at(config, True) == alphabet_at(config, 1)


def test_level_c_delta_refuses_as_build_code_c():
    # One recipe choice: the width lookup refuses where the build does, with
    # its text (at s = 4 and delta = 1/2 the width arithmetic alone passes).
    for s, delta in ((16, Fraction(1, 3)), (16, Fraction(1, 2)), (4, Fraction(1, 2))):
        config = PipelineConfig(n=200, delta=delta, recipe="concat")
        with pytest.raises(InfeasibleCodeError) as built:
            build_code_c(s, delta, "concat")
        with pytest.raises(InfeasibleCodeError) as looked_up:
            level_c_delta(config, s)
        assert str(looked_up.value) == str(built.value)


def test_alphabet_at_raises_from_an_infeasible_level_only():
    # boosted_config(1/8) has no feasible level code at s=16: its RS code
    # needs a field degree above MAX_FIELD_DEGREE (ROADMAP items 3 and 4).
    # The window-only positions are still accounted, as by the walk, and
    # encoded; the encoder raises where level 1 joins, as alphabet_at does.
    config = boosted_config(Fraction(1, 8))
    first = build_schedule(config.n, config.s_min, config.a).levels[0].s
    enc = PipelineEncoder(config)
    for i in range(1, first):
        _same_descriptor(config, i)
        assert enc.push(i % 2).levels == ()
    with pytest.raises(InfeasibleCodeError):
        enc.push(0)
    for i in (first, first + 1, config.n):
        with pytest.raises(InfeasibleCodeError):
            alphabet_at(config, i)
        with pytest.raises(InfeasibleCodeError):
            _alphabet_at_reference(config, i)


def test_interned_level_symbols_stay_bounded():
    # n=586 keeps the concat stream below the s=588 level, whose code takes
    # about a second to build; its levels still see more symbols than the
    # table holds, so slots are overwritten.
    cfg = PipelineConfig(n=586, recipe="concat")
    enc = PipelineEncoder(cfg)
    rng = random.Random(17)
    seen = [set() for _ in enc.levels]
    for _ in range(cfg.n):
        sym = enc.push(rng.randrange(2))
        for values, lv in zip(seen, sym.levels):
            values.update(p.value for p in (lv.left, lv.right) if p is not BLANK)
    for values, pair in zip(seen, enc.levels):
        lv = pair.level
        assert lv.c_delta > INTERN_BITS
        assert len(lv.symbols) == lv.symbol_mask + 1 == 1 << INTERN_BITS
        assert len(values) > sum(sym is not None for sym in lv.symbols)
        for bad in (-1, 1 << lv.c_delta, (1 << lv.c_delta) + 3):
            with pytest.raises(ValueError):
                lv.symbol(bad)
        for slot, sym in enumerate(lv.symbols):
            assert sym is None or (type(sym) is FixedBits and sym.width == lv.c_delta
                                   and sym.value & lv.symbol_mask == slot)


def test_alphabet_polylog_at_default():
    cfg = PipelineConfig(n=10**6)
    desc = alphabet_at(cfg, 10**6)
    window = 97
    levels = 6
    cds = [level_c_delta(cfg, s) for s in (16, 20, 32, 84, 588, 28812)]
    assert desc.total_bits <= window + 2 * sum(cds)
    assert desc.total_bits <= 200


def test_alphabet_position_guard():
    cfg = PipelineConfig(n=1000)
    with pytest.raises(ValueError):
        alphabet_at(cfg, 0)
    with pytest.raises(ValueError):
        alphabet_at(cfg, 1001)
    assert alphabet_at(cfg, 1).total_bits == 1


def test_boosted_config_thresholds():
    default = boosted_config(Fraction(0))
    assert default.boost is None and default.delta == Fraction(1, 4)
    at_paper = boosted_config(Fraction(1, 16))
    assert at_paper.boost is None
    half = boosted_config(Fraction(1, 2))
    assert half.boost is not None
    assert Fraction(half.boost.r, half.boost.r + half.boost.s) >= Fraction(5, 6)
    assert half.delta >= Fraction(5, 6)
    assert half.declared_distance() >= Fraction(1, 2)
    with pytest.raises(ValueError):
        boosted_config(Fraction(3, 2))


def test_pipeline_refuses_a_boost_the_packing_cannot_take():
    with pytest.raises(ValueError):
        PipelineConfig(n=1000, boost=BoostParams(2, 1))


def test_boosted_config_stalls_from_eleven_twentieths():
    # From eta = 11/20 on a >= 8, so ell_1 = a*s_min >= s_min^2/2.
    cfg = boosted_config(Fraction(11, 20))
    assert cfg.a >= 8
    with pytest.raises(ScheduleError, match="stalls at level 1"):
        PipelineEncoder(cfg)


def test_boosted_config_monotone_sampled():
    rng = random.Random(5)
    for _ in range(30):
        eta = Fraction(rng.randrange(0, 99), 100)
        cfg = boosted_config(eta)
        assert cfg.declared_distance() >= eta


def test_boosted_pipeline_symbol_widths_match_alphabet():
    # A feasible boosted configuration up to its s=588 level's first blocks.
    cfg = PipelineConfig(n=1 << 14, delta=Fraction(1, 4), boost=BoostParams(1, 2))
    enc = PipelineEncoder(cfg)
    rng = random.Random(8)
    for i in range(1, 601):
        sym = enc.push(rng.randrange(2))
        width = sym.window.width + sum(
            part.width for lv in sym.levels for part in (lv.left, lv.right)
            if isinstance(part, FixedBits)
        )
        assert width == alphabet_at(cfg, i).total_bits, i

"""Acceptance gate: one test per shipped guarantee, each emitting a single
pass/fail line with its measured value.

Runtime-limited criteria assert their own wall-clock budget.  Sampling
criteria are falsification attempts for theorems whose full statement is
not desk-verifiable; exhaustive criteria are exact.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from treecodes.core import BLANK
from treecodes.ecc import build_code_c, find_inner_code
from treecodes.lagged import (
    LaggedParams,
    StreamEncoderTruncatedLagged,
    StreamEncoderUntruncatedLagged,
    encode_truncated_lagged,
    encode_untruncated_lagged,
)
from treecodes.linearcode import (
    BoostParams,
    StreamEncoderIntTreeCode,
    StreamEncoderTcA,
    StreamEncoderTcASr,
    cx_rx_report,
    encode_int_treecode,
    encode_tc_a_sr,
)
from treecodes.packing import (
    BoostedPackedParams,
    PackedCodeParams,
    StreamEncoderBlockTc,
)
from treecodes.pascal import (
    LowerTriangularMatrix,
    all_staircase_minors_positive,
    is_totally_nonsingular,
    pascal_matrix,
)
from treecodes.pipeline import PipelineConfig, PipelineEncoder, alphabet_at, build_schedule
from treecodes.verify import (
    is_mds,
    lagged_distance,
    largest_feasible_delta,
    sample_toeplitz_code,
    singleton_bound,
    toeplitz_weight_distance,
    tree_distance_exhaustive,
    verify_split0_lagged_bound,
    weight_distance_linear,
)


def report(number, ok, detail):
    line = "criterion %2d: %s  (%s)" % (number, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    assert ok, line


def test_criterion_01_pascal_tns():
    t0 = time.time()
    for n in range(9):
        verdict = is_totally_nonsingular(pascal_matrix(n))
        assert verdict.ok and verdict.witness is None
    assert all_staircase_minors_positive(pascal_matrix(8))
    rejected = is_totally_nonsingular(LowerTriangularMatrix.identity(6))
    assert not rejected.ok and rejected.witness is not None
    elapsed = time.time() - t0
    report(1, elapsed < 60,
           "Pascal TNS n<=8, all minors > 0, identity rejected; %.1fs" % elapsed)


def test_criterion_02_weight_distance_exceeds_half():
    t0 = time.time()
    rep = weight_distance_linear(pascal_matrix(6), range(3), 7)
    elapsed = time.time() - t0
    report(2, rep.value > Fraction(1, 2) and elapsed < 120,
           "min weight ratio %s > 1/2 over {0,1,2}^k, k<=7; %.1fs" % (rep.value, elapsed))


def test_criterion_03_cx_rx_claim():
    P = pascal_matrix(6)
    violations = 0
    checked = 0
    for k in range(1, 8):
        for x in itertools.product(range(3), repeat=k):
            if all(v == 0 for v in x):
                continue
            rep = cx_rx_report(P, x)
            checked += 1
            if len(rep.C_x) <= len(rep.R_x):
                violations += 1
    report(3, violations == 0,
           "|C_x| > |R_x| for all %d non-zero x, %d violations" % (checked, violations))


def test_criterion_04_boosted_block_distance():
    results = []
    ok = True
    for s, r in ((1, 1), (1, 2), (2, 1)):
        blocks = tuple(itertools.product((0, 1), repeat=s))
        A = pascal_matrix((r + s) * 5 - 1)
        params = BoostParams(s, r)
        rep = tree_distance_exhaustive(
            lambda xs: encode_tc_a_sr(A, params, list(xs)), blocks, 5
        )
        ok = ok and rep.value > Fraction(r, r + s)
        results.append("(%d,%d): %s > %s" % (s, r, rep.value, Fraction(r, r + s)))
    report(4, ok, "; ".join(results))


def test_criterion_05_integer_bound():
    rng = random.Random(55)
    violations = 0
    for _ in range(1000):
        k = rng.randrange(1, 65)
        a = [rng.getrandbits(64) for _ in range(k)]
        out = encode_int_treecode(a)
        cap = (1 << k) * max(a)
        if any(p.b > cap for p in out):
            violations += 1
    report(5, violations == 0,
           "1000 random inputs, k<=64, entries < 2^64, %d bound violations" % violations)


def test_criterion_06_concatenated_code():
    t0 = time.time()
    inner = find_inner_code(8, 64, 0.3, seed=0)
    assert inner.verified_distance >= math.ceil(0.3 * 64)
    spec = build_code_c(64, Fraction(1, 4), "concat", seed=0)
    assert spec.provable_delta >= Fraction(1, 4)
    need = math.ceil(64 / 4)
    rng = random.Random(66)
    worst = spec.s
    sampled = 0
    while sampled < 10_000:
        x, y = rng.getrandbits(192), rng.getrandbits(192)
        if x == y:
            continue
        sampled += 1
        sx, sy = spec.symbols_for(x), spec.symbols_for(y)
        worst = min(worst, sum(1 for a, b in zip(sx, sy) if a != b))
    elapsed = time.time() - t0
    report(6, worst >= need and elapsed < 120,
           "inner (8,64) d=%d>=20; concat s=64 provable %s; worst sampled "
           "distance %d >= %d over 10^4 pairs; %.1fs"
           % (inner.verified_distance, spec.provable_delta, worst, need, elapsed))


def test_criterion_07_lagged_lemmas_exhaustive():
    # Toy block code at s=4 with exhaustively verified distance (all 4095
    # non-zero packed inputs scanned via linearity).
    toy = build_code_c(4, Fraction(1, 4), "rs")
    min_w = min(
        sum(1 for c in toy.symbols_for(v) if c) for v in range(1, 1 << 12)
    )
    toy_delta = Fraction(min_w, 4)
    assert toy_delta >= toy.provable_delta
    s, a = 4, 4
    params = LaggedParams(s, a * s, toy)
    bound = toy_delta * (Fraction(1, 2) - Fraction(3, 2 * a))
    # Truncated lemma: the only in-range lags at k <= 16 are the split-0
    # pairs of full length 16; certified exhaustively with sound pruning.
    check = verify_split0_lagged_bound(
        lambda: StreamEncoderTruncatedLagged(params), s * s, 4, bound
    )
    # Untruncated lemma: its lag interval [ell, s^2/2] = [16, 8] is empty at
    # these parameters (it needs s >= 2a), so it holds vacuously; as a
    # non-vacuous supplement, the untruncated encoder at lag s^2/2 = 8
    # (interval [8, 8], a = 2) must show strictly positive distance even
    # though the lemma bound there is vacuous (negative).
    assert a * s > s * s // 2  # the vacuity is a fact, not an assumption
    params2 = LaggedParams(s, 2 * s, toy)
    supplement = lagged_distance(
        lambda bits: encode_untruncated_lagged(params2, bits),
        2 * s, s * s // 2, (0, 1), 10,
    )
    ok = check.ok and supplement.value > 0 >= params2.distance_bound()
    report(7, ok,
           "toy delta %s exact; truncated split-0 bound %s certified over "
           "2^16 x 2^15 pairs (%d nodes); untruncated interval empty "
           "(vacuous), supplement min %s > 0"
           % (toy_delta, bound, check.nodes, supplement.value))


def test_criterion_08_pipeline_sampled_distance():
    t0 = time.time()
    n = 1 << 14
    cfg = PipelineConfig(n=n)
    sched = build_schedule(n)
    rng = random.Random(88)
    counts = {1: 2100, 2: 2000, 3: 1500, 4: 500, 5: 150}
    strata = [(1, cfg.window_bits - 1, 3750)]
    for lv in sched.levels:
        strata.append((lv.ell, min(lv.cover_hi, n), counts[lv.g]))
    pairs = []
    for lo, hi, cnt in strata:
        for _ in range(cnt):
            b = rng.randint(lo, hi)
            pairs.append((rng.randint(0, n - b), b))
    pairs.sort()
    base = PipelineEncoder(cfg)
    pos = 0
    threshold = Fraction(1, 16)
    violations = 0
    worst = None
    for sp, b in pairs:
        step = sp - pos
        while step:
            k = min(step, 64)
            x = rng.getrandbits(k)
            for _ in range(k):
                base.push_raw(x & 1)
                x >>= 1
            step -= k
        pos = sp
        e1, e2 = base.clone(), base.clone()
        first = rng.randrange(2)
        d = 0 if e1.push_raw(first) == e2.push_raw(1 - first) else 1
        rem = b - 1
        while rem:
            k = min(rem, 64)
            x1, x2 = rng.getrandbits(k), rng.getrandbits(k)
            for _ in range(k):
                if e1.push_raw(x1 & 1) != e2.push_raw(x2 & 1):
                    d += 1
                x1 >>= 1
                x2 >>= 1
            rem -= k
        val = Fraction(d, b)
        if worst is None or val < worst:
            worst = val
        if val < threshold:
            violations += 1
    elapsed = time.time() - t0
    report(8, violations == 0 and elapsed < 600,
           "10^4 stratified pairs at n=2^14: %d below 1/16, worst ratio %s "
           "~ %.3f; %.0fs" % (violations, worst, float(worst), elapsed))


def test_criterion_09_polylog_alphabet_and_prefix_stability():
    cfg = PipelineConfig(n=10**6)
    sched = build_schedule(10**6)
    assert len(sched.levels) == 6
    desc = alphabet_at(cfg, 10**6)
    from treecodes.pipeline import level_c_delta

    cap = cfg.window_bits + 2 * sum(level_c_delta(cfg, lv.s) for lv in sched.levels)
    rng = random.Random(99)
    bits = [rng.randrange(2) for _ in range(500)]
    small = PipelineConfig(n=500)
    large = PipelineConfig(n=2000)
    e1, e2 = PipelineEncoder(small), PipelineEncoder(large)
    stable = all(e1.push(b) == e2.push(b) for b in bits)
    # The larger n adds a schedule level (s=588), which must stay invisible
    # within the shared prefix.
    assert len(build_schedule(2000).levels) == len(build_schedule(500).levels) + 1
    ok = desc.total_bits <= cap and desc.total_bits <= 200 and stable
    report(9, ok,
           "alphabet_at(10^6) = %d bits <= min(%d, 200); 500-symbol prefix "
           "stable under n=500 vs n=2000" % (desc.total_bits, cap))


def test_criterion_10_singleton_and_mds():
    ok = True
    details = []
    # Block codes constructed elsewhere in the gate respect d <= n-k+1.
    for s, recipe in ((16, "rs"), (64, "concat")):
        spec = build_code_c(s, Fraction(1, 4), recipe, seed=0)
        n_sym, k_sym = spec.outer.n_code, spec.outer.k_msg
        ok = ok and spec.outer.distance == n_sym - k_sym + 1
    inner = find_inner_code(8, 64, 0.3, seed=0)
    ok = ok and inner.verified_distance <= 64 - 8 + 1
    # The Pascal code's measured weight distance obeys the tree-code
    # Singleton bound for sigma=3, gamma=9 (rate-1/2 pairs) and certifies
    # the MDS property (distance beyond 1 - log sigma / log gamma).
    measured = weight_distance_linear(pascal_matrix(5), range(3), 6).value
    bound = singleton_bound(6, 3, 9)
    ok = ok and min(measured, Fraction(1)) <= bound
    mds = is_mds(measured, 3, 9)
    ok = ok and mds
    details.append("component codes within Singleton")
    details.append("Pascal delta~ %s <= bound %s and MDS=%s" % (measured, bound, mds))
    report(10, ok, "; ".join(details))


def test_criterion_11_toeplitz_baseline():
    delta = largest_feasible_delta(4, 16)
    success_seed = None
    for seed in range(100):
        code = sample_toeplitz_code(4, 2, 6, seed)
        rep = toeplitz_weight_distance(code, stop_at=delta)
        if rep.value > delta:
            success_seed = seed
            break
    report(11, success_seed is not None,
           "q=4, d=2, n=6: seed %s achieves weight distance > %s"
           % (success_seed, delta))


def _prefix_check(make_encoder, push_pair, rng, max_len):
    """One prefix-determinism check: two encoders fed inputs sharing a
    random-length prefix must emit identical symbols on that prefix."""
    total = rng.randrange(2, max_len + 1)
    p = rng.randrange(1, total)
    e1, e2 = make_encoder(), make_encoder()
    for t in range(total):
        same = t < p
        s1, s2 = push_pair(e1, e2, same, rng)
        if same and s1 != s2:
            return False
    return True


def test_criterion_12_online_everywhere():
    P = pascal_matrix(31)
    toy = build_code_c(4, Fraction(1, 4), "rs")
    lag_params = LaggedParams(4, 8, toy)
    pipe_cfg = PipelineConfig(n=200)
    boost_params = BoostedPackedParams(2, BoostParams(1, 1))

    def int_pair(e1, e2, same, rng):
        v = rng.randrange(1 << 8)
        w = v if same else rng.randrange(1 << 8)
        return e1.push(v), e2.push(w)

    def block_pair(width):
        def push(e1, e2, same, rng):
            b1 = [rng.randrange(2) for _ in range(width)]
            b2 = list(b1) if same else [rng.randrange(2) for _ in range(width)]
            return e1.push(b1), e2.push(b2)
        return push

    def tuple_block_pair(e1, e2, same, rng):
        b1 = (rng.randrange(4),)
        b2 = b1 if same else (rng.randrange(4),)
        return e1.push(b1), e2.push(b2)

    def bit_pair(e1, e2, same, rng):
        b1 = rng.randrange(2)
        b2 = b1 if same else rng.randrange(2)
        return e1.push(b1), e2.push(b2)

    cases = [
        ("tc_a", lambda: StreamEncoderTcA(P), int_pair, 16),
        ("tc_a_sr", lambda: StreamEncoderTcASr(P, BoostParams(1, 1)), tuple_block_pair, 16),
        ("int_tree", lambda: StreamEncoderIntTreeCode(16), int_pair, 16),
        ("block_tc", lambda: StreamEncoderBlockTc(PackedCodeParams(4)), block_pair(4), 4),
        ("boosted_block", lambda: StreamEncoderBlockTc(boost_params), block_pair(2), 2),
        ("truncated", lambda: StreamEncoderTruncatedLagged(lag_params), bit_pair, 16),
        ("untruncated", lambda: StreamEncoderUntruncatedLagged(lag_params), bit_pair, 30),
        ("pipeline", lambda: PipelineEncoder(pipe_cfg), bit_pair, 30),
    ]
    failures = []
    rng = random.Random(1212)
    for name, mk, push, max_len in cases:
        bad = sum(0 if _prefix_check(mk, push, rng, max_len) else 1
                  for _ in range(1000))
        if bad:
            failures.append("%s: %d" % (name, bad))
    report(12, not failures,
           "1000 prefix-determinism checks per encoder class (8 classes); "
           + ("failures: " + ", ".join(failures) if failures else "0 failures"))


def test_criterion_13_per_level_single_flip_distance():
    # The per-level lagged lemma: for a lag b in [ell_g, s_g^2/2], level g's
    # component alone differs on at least delta*(1/2 - 3/(2a)) of the b
    # positions after a divergence.  Each pair flips one bit and then shares
    # its suffix, so every difference after the block holding the flip comes
    # from the Pascal mixing across blocks (random suffixes, as in criterion
    # 8, differ in the window almost everywhere and cannot see it).
    n = 1 << 14
    cfg = PipelineConfig(n=n)
    bound = cfg.declared_distance()
    rng = random.Random(1313)
    pairs = []
    for lv in build_schedule(n).levels[:4]:
        for _ in range(6):
            b = rng.randint(lv.ell, min(lv.cover_hi, 3000))
            pairs.append((rng.randint(0, n - b), b, lv.g))
    pairs.sort()
    base = PipelineEncoder(cfg)
    pos = 0
    worst = {}
    for sp, b, g in pairs:
        for _ in range(sp - pos):
            base.push_raw(rng.randrange(2))
        pos = sp
        e1, e2 = base.clone(), base.clone()
        bits = [rng.randrange(2) for _ in range(b)]
        d = 0
        for i, bit in enumerate(bits):
            # Level g's (left, right) pair; () while the level is inactive.
            r1 = e1.push_raw(bit)[2][g - 1:g]
            r2 = e2.push_raw(1 - bit if i == 0 else bit)[2][g - 1:g]
            if r1 != r2:
                d += 1
        val = Fraction(d, b)
        if g not in worst or val < worst[g]:
            worst[g] = val
    ok = all(v >= bound for v in worst.values())
    report(13, ok,
           "single-flip pairs with a shared suffix, 6 per level at n=2^14: worst "
           "level-only ratio %s against %s"
           % (", ".join("L%d %.3f" % (g, float(v)) for g, v in sorted(worst.items())), bound))

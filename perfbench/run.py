"""Benchmark for treecodes: online stream encode, criterion-8 pair sampling
and a small exhaustive certification job.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream|pairs|certify --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Every workload is a closed loop in one process and one thread.  The amount
of work is fixed by --seconds (not by a clock), so a seed always gives the
same inputs and the same work; on the reference machine a run lasts about
--seconds.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (from perfbench/spans.py) with --trace 1.
Every end-to-end time is in host-normalised seconds (perfbench/hostclock.py),
which takes the shared host's speed drift out of the figures.  See
perfbench/NOTES.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from array import array
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

N_STREAM = 1 << 14
# Sizing of one run from --seconds, calibrated on the reference machine.
STREAM_SECONDS_EACH = 3.5
PAIRS_PER_SECOND = 16
CERTIFY_SECONDS_EACH = 6.5
# Set-up of pairs and certify takes milliseconds, so one sample times a
# batch of set-ups.  The samples are spread over the whole run, and a run
# reports the median sample, per set-up.
SETUP_SAMPLES = 15
SETUP_BATCH = {"pairs": 40, "certify": 200}
# Criterion 8's strata at 10^4 pairs: the window stratum, then one per level.
CRITERION8_WINDOW_PAIRS = 3750
CRITERION8_LEVEL_PAIRS = {1: 2100, 2: 2000, 3: 1500, 4: 500, 5: 150}
CRITERION8_TOTAL = 10_000

_ns = time.perf_counter_ns


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "treecodes", "__init__.py")):
        sys.stderr.write("perfbench: no treecodes sources under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import treecodes  # noqa: F401


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[k]


def _latency_metrics(clock, starts, ends, what, res):
    """push_p50_us and push_p999_us of the timed calls [starts[i], ends[i]]
    in host-normalised time; notes the sample count, since p99.9 needs at
    least ten samples beyond it."""
    lat = sorted(clock.norm(a, b) * 1e6 for a, b in zip(starts, ends))
    res.notes.append("%s latency over %d samples (p99.9 has %d samples beyond it)"
                     % (what, len(lat), len(lat) - round(0.999 * len(lat))))
    return {
        "push_p50_us": (_quantile(lat, 0.5), "us"),
        "push_p999_us": (_quantile(lat, 0.999), "us"),
    }


def _peak_mem_mb():
    """ru_maxrss of this process, which ran only one workload.  Read at the
    end of the workload's timed part, before the benchmark's own
    post-processing allocates its sorted samples."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _top_width(n):
    """Block width of the top schedule level; its first block completes at
    position s, where the last lazy level-code build happens."""
    from treecodes import pipeline

    return pipeline.build_schedule(n).levels[-1].s


class Result:
    """Counts operations and failures; one operation is a stream, a pair or
    a certify step."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append("FAILED: " + what)


def _load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _timed_setup(name, make, tracer, stamps):
    """Times one batch of SETUP_BATCH[name] calls of make(), appending its
    start and end to `stamps`; returns the last value made."""
    with tracer.root("setup." + name):
        t0 = _ns()
        for _ in range(SETUP_BATCH[name]):
            value = make()
        stamps.append((t0, _ns()))
    return value


def _setup_s(clock, name, stamps):
    """Median host-normalised seconds per set-up over the timed batches."""
    return statistics.median(clock.norm(a, b) / SETUP_BATCH[name] for a, b in stamps)


# -- stream ----------------------------------------------------------------


def _stream_bits(seed, k, n):
    rng = random.Random("stream-%d-%d" % (seed, k))
    x = rng.getrandbits(n)
    return [(x >> t) & 1 for t in range(n)]


def _symbol_width(sym):
    from treecodes.core import FixedBits

    total = sym.window.width
    for lv in sym.levels:
        for part in (lv.left, lv.right):
            if isinstance(part, FixedBits):
                total += part.width
    return total


def run_one_stream(seed, k, tracer):
    """One fresh encoder over a seeded 2^14-bit stream, through the same
    library calls as `treecodes encode-chs`.  Only those calls are timed;
    the output checks run between them and keep no symbol or output.
    Returns (stamps, digest, width_mismatches): the encoder's construction
    as (start, end), then (start, end of push, end) of each position's
    library calls."""
    from treecodes import core, pipeline

    cfg = pipeline.PipelineConfig(n=N_STREAM)
    bits = _stream_bits(seed, k, cfg.n)
    h = hashlib.sha256()
    mismatches = 0
    stamps = array("q")
    with tracer.root("op.stream"):
        a = _ns()
        enc = pipeline.PipelineEncoder(cfg)
        stamps.extend((a, _ns()))
        for i in range(1, cfg.n + 1):
            a = _ns()
            sym = enc.push(bits[i - 1])
            b = _ns()
            text = core.serialize_symbol(sym.to_symbol())
            gamma = pipeline.alphabet_at(cfg, i).total_bits
            c = _ns()
            stamps.extend((a, b, c))
            h.update(("%s\t%d\n" % (text, gamma)).encode())
            if _symbol_width(sym) != gamma:
                mismatches += 1
    return stamps, h.hexdigest(), mismatches


def stream_count(seconds):
    return max(2, round(seconds / STREAM_SECONDS_EACH))


def workload_stream(seed, seconds, tracer, res, clock):
    expected = _load_expected()["stream_digests"].get(str(seed), [])
    streams = []
    checked = 0
    with clock:
        for k in range(stream_count(seconds)):
            # A finished encoder is cyclic garbage.  Collecting it here keeps
            # peak_mem_mb to one encoder and keeps its collection out of the
            # timed calls of the next stream.
            gc.collect()
            stamps, digest, mismatches = run_one_stream(seed, k, tracer)
            streams.append(stamps)
            ok = mismatches == 0
            if k < len(expected):
                checked += 1
                ok = ok and digest == expected[k]
            res.op(ok, "stream %d: %d width mismatches, digest %s" % (k, mismatches, digest))
    peak = _peak_mem_mb()
    res.notes.append("stream: %d streams, %d digests checked" % (len(streams), checked))
    # Set-up is the construction and positions 1..s_top, where the lazy
    # builds happen; the loop is positions s_top+1..n.
    first = 2 + 3 * _top_width(N_STREAM)
    setups, rates, starts, ends = [], [], [], []
    for st in streams:
        setups.append(clock.norm(st[0], st[1])
                      + sum(clock.norm(st[j], st[j + 2]) for j in range(2, first, 3)))
        loop = sum(clock.norm(st[j], st[j + 2]) for j in range(first, len(st), 3))
        rates.append((len(st) - first) // 3 / loop)
        starts.extend(st[first::3])
        ends.extend(st[first + 1::3])
    return dict(
        _latency_metrics(clock, starts, ends, "push", res),
        setup_s=(statistics.median(setups), "s"),
        ops_per_s=(statistics.median(rates), "1/s"),
        peak_mem_mb=(peak, "MB"),
    )


# -- pairs -----------------------------------------------------------------


def _criterion8_strata(cfg, sched, total):
    """(lo, hi, count) per stratum, criterion 8's proportions scaled to total."""
    scale = Fraction(total, CRITERION8_TOTAL)
    strata = [(1, cfg.window_bits - 1, CRITERION8_WINDOW_PAIRS)]
    for lv in sched.levels:
        strata.append((lv.ell, min(lv.cover_hi, cfg.n), CRITERION8_LEVEL_PAIRS[lv.g]))
    return [(lo, hi, round(cnt * scale)) for lo, hi, cnt in strata]


def _straddle_share(lo, hi, n, s_top):
    """P(split < s_top <= split + b) under criterion 8's draw: b uniform in
    [lo, hi], split uniform in [0, n - b]."""
    acc = 0.0
    for b in range(lo, hi + 1):
        first, last = max(0, s_top - b), min(s_top - 1, n - b)
        if last >= first:
            acc += (last - first + 1) / (n - b + 1)
    return acc / (hi - lo + 1)


def pair_plan(total):
    """Criterion 8's strata at `total` pairs, each with its count of pairs
    whose clones are taken before the base encoder has built the top
    level's code and whose suffix reaches it (split < s_top <= split + b).

    Those straddling pairs are allocated in exact proportion to their
    criterion-8 probability (largest remainder), not left to chance: each
    costs two rebuilds of the top code and dominates the run, so a Poisson
    count of them would make pairs/s spread by tens of percent from seed to
    seed.  The plan depends on n and `total` only, not on the seed.
    Returns (strata as (lo, hi, count, straddling), s_top).
    """
    from treecodes import pipeline

    cfg = pipeline.PipelineConfig(n=N_STREAM)
    s_top = _top_width(cfg.n)
    strata = _criterion8_strata(cfg, pipeline.build_schedule(cfg.n), total)
    shares = [cnt * _straddle_share(lo, hi, cfg.n, s_top) for lo, hi, cnt in strata]
    alloc = [int(x) for x in shares]
    order = sorted(range(len(strata)), key=lambda i: shares[i] - alloc[i], reverse=True)
    for i in order[: round(sum(shares)) - sum(alloc)]:
        alloc[i] += 1
    return [st + (k,) for st, k in zip(strata, alloc)], s_top


def draw_pairs(seed, n, plan):
    """The sorted pairs (split, lag) of a plan: inside each stratum, b and
    the split are drawn as in criterion 8 and kept by rejection until the
    stratum has its straddling and non-straddling counts."""
    strata, s_top = plan
    rng = random.Random("pairs-%d" % seed)
    pairs = []
    for lo, hi, cnt, straddling in strata:
        for want, count in ((True, straddling), (False, cnt - straddling)):
            got = 0
            while got < count:
                b = rng.randint(lo, hi)
                sp = rng.randint(0, n - b)
                if (sp < s_top <= sp + b) == want:
                    pairs.append((sp, b))
                    got += 1
    pairs.sort()
    return pairs


def pair_total(seconds):
    return max(20, round(PAIRS_PER_SECOND * seconds))


def workload_pairs(seed, seconds, tracer, res, clock):
    from treecodes import pipeline

    cfg = pipeline.PipelineConfig(n=N_STREAM)
    plan = pair_plan(pair_total(seconds))

    def setup():
        return draw_pairs(seed, cfg.n, plan), pipeline.PipelineEncoder(cfg)

    setups, pair_stamps = [], array("q")
    starts, ends = array("q"), array("q")
    threshold = cfg.declared_distance()
    rng = random.Random("pairs-bits-%d" % seed)
    pos = 0
    worst = None
    with clock:
        pairs, base = _timed_setup("pairs", setup, tracer, setups)
        # The other set-up samples are taken between pairs, spread over the run.
        marks = {len(pairs) * m // SETUP_SAMPLES for m in range(1, SETUP_SAMPLES)}
        for j, (sp, b) in enumerate(pairs):
            if j in marks:
                _timed_setup("pairs", setup, tracer, setups)
            pair_stamps.append(_ns())
            with tracer.root("op.pair"):
                push = base.push_raw
                for _ in range(sp - pos):
                    bit = rng.getrandbits(1)
                    a = _ns()
                    push(bit)
                    ends.append(_ns())
                    starts.append(a)
                pos = sp
                e1, e2 = base.clone(), base.clone()
                first = rng.randrange(2)
                x1, x2 = first, 1 - first
                d = 0
                p1, p2 = e1.push_raw, e2.push_raw
                for t in range(b):
                    if t:
                        x1, x2 = rng.getrandbits(1), rng.getrandbits(1)
                    a = _ns()
                    y1 = p1(x1)
                    c = _ns()
                    y2 = p2(x2)
                    ends.extend((c, _ns()))
                    starts.extend((a, c))
                    if y1 != y2:
                        d += 1
            pair_stamps.append(_ns())
            ratio = Fraction(d, b)
            if worst is None or ratio < worst:
                worst = ratio
            res.op(ratio >= threshold, "pair split=%d lag=%d ratio %s < %s"
                   % (sp, b, ratio, threshold))
    peak = _peak_mem_mb()
    loop_s = sum(clock.norm(pair_stamps[i], pair_stamps[i + 1])
                 for i in range(0, len(pair_stamps), 2))
    res.notes.append("pairs: %d pairs (%d straddle the s=%d build), worst ratio %s >= %s, "
                     "%d set-up samples"
                     % (len(pairs), sum(st[3] for st in plan[0]), _top_width(cfg.n), worst,
                        threshold, len(setups)))
    return dict(
        _latency_metrics(clock, starts, ends, "push_raw", res),
        setup_s=(_setup_s(clock, "pairs", setups), "s"),
        ops_per_s=(len(pairs) / loop_s, "1/s"),
        peak_mem_mb=(peak, "MB"),
    )


# -- certify ---------------------------------------------------------------

CERTIFY_EXPECTED = {
    "tns": True,
    "guard": "BudgetExceededError",
    "tree": Fraction(3, 5),
    "lagged": Fraction(1, 2),
    "split0": True,
}


def certify_setup():
    """The matrices and criterion 7's toy block code (s=4, delta=1/4)."""
    from treecodes import ecc, lagged, pascal

    mats = [pascal.pascal_matrix(n) for n in range(10)]
    big = pascal.pascal_matrix(15)
    toy = ecc.build_code_c(4, Fraction(1, 4), "rs")
    s, a = 4, 4
    return {
        "mats": mats,
        "big": big,
        "toy": toy,
        "s": s,
        "a": a,
        "params": lagged.LaggedParams(s, a * s, toy),
        "params2": lagged.LaggedParams(s, 2 * s, toy),
    }


def certify_steps(job, starts, ends):
    from treecodes import lagged, linearcode, pascal, verify
    from treecodes.core import BudgetExceededError

    def tns():
        return all(
            v.ok and v.witness is None
            for v in (pascal.is_totally_nonsingular(m) for m in job["mats"])
        )

    def guard():
        try:
            pascal.is_totally_nonsingular(job["big"])
        except BudgetExceededError as exc:
            return type(exc).__name__
        return "accepted"

    def tree():
        return verify.tree_distance_exhaustive(
            lambda x: linearcode.encode_int_treecode(list(x)), (0, 1, 2), 6
        ).value

    def encode_lagged(bits):
        enc = lagged.StreamEncoderUntruncatedLagged(job["params2"])
        out = []
        for b in bits:
            a = _ns()
            out.append(enc.push(b))
            ends.append(_ns())
            starts.append(a)
        return tuple(out)

    def lagged_step():
        s = job["s"]
        return verify.lagged_distance(encode_lagged, 2 * s, s * s // 2, (0, 1), 10).value

    def split0():
        toy, s, a = job["toy"], job["s"], job["a"]
        min_w = min(sum(1 for c in toy.symbols_for(v) if c) for v in range(1, 1 << 12))
        bound = Fraction(min_w, s) * (Fraction(1, 2) - Fraction(3, 2 * a))
        return verify.verify_split0_lagged_bound(
            lambda: lagged.StreamEncoderTruncatedLagged(job["params"]), s * s, 4, bound
        ).ok

    return (("tns", tns), ("guard", guard), ("tree", tree), ("lagged", lagged_step),
            ("split0", split0))


def certify_jobs(seconds):
    return max(2, round(seconds / CERTIFY_SECONDS_EACH))


def workload_certify(seed, seconds, tracer, res, clock, expected=CERTIFY_EXPECTED, jobs=None):
    # The job is fixed: the seed does not enter it.  Each job gets a fresh
    # toy code, so no job finds the memo filled by an earlier one.  A
    # set-up sample is taken before each step, spread over the run.
    setups, steps = [], []
    starts, ends = array("q"), array("q")
    with clock:
        for _ in range(certify_jobs(seconds) if jobs is None else jobs):
            with tracer.root("setup.certify"):
                job = certify_setup()
            steps.append([])
            for name, step in certify_steps(job, starts, ends):
                _timed_setup("certify", certify_setup, tracer, setups)
                with tracer.root("op.certify." + name):
                    t0 = _ns()
                    got = step()
                    steps[-1].append((t0, _ns()))
                res.op(got == expected[name], "certify %s: got %s, expected %s"
                       % (name, got, expected[name]))
    peak = _peak_mem_mb()
    walls = [sum(clock.norm(a, b) for a, b in job) for job in steps]
    certify_s = statistics.median(walls)
    res.notes.append("certify: %d jobs, certify_s median %.4f s" % (len(walls), certify_s))
    return dict(
        _latency_metrics(clock, starts, ends, "lagged push", res),
        setup_s=(_setup_s(clock, "certify", setups), "s"),
        ops_per_s=(1 / certify_s, "1/s"),
        peak_mem_mb=(peak, "MB"),
    )


WORKLOADS = {"stream": workload_stream, "pairs": workload_pairs, "certify": workload_certify}


# -- entry point -----------------------------------------------------------


class _NoTracer:
    def root(self, name):
        return contextlib.nullcontext()


def run(workload, seed, seconds, trace):
    from hostclock import HostClock

    res = Result()
    clock = HostClock()
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            e2e = WORKLOADS[workload](seed, seconds, tracer, res, clock)
        finally:
            tracer.uninstall()
        metrics, bad_roots = tracer.layer_metrics()
        tracer.write(os.path.join(TRACE_DIR, "trace-%s-seed%d.tsv" % (workload, seed)))
        res.notes.append("traced end-to-end (compare with an untraced run for the "
                         "tracing overhead): %s"
                         % json.dumps({k: v[0] for k, v in e2e.items()}))
        res.notes.append("trace: %d spans, %d roots, %d roots failing the self-time check"
                         % (metrics["trace.spans"][0], metrics["trace.roots"][0], len(bad_roots)))
        consistent = not bad_roots
    else:
        metrics = WORKLOADS[workload](seed, seconds, _NoTracer(), res, clock)
        consistent = True
    res.notes.append(clock.note())
    res.notes.append("failed_ops_share: %d/%d = %.6f"
                     % (res.failed, res.attempted, res.failed / max(1, res.attempted)))
    for line in res.notes:
        print(line)
    out = {
        "correct": res.failed == 0 and consistent,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))


def self_test():
    """Corrupt one expected certify verdict; the harness must count exactly
    that step as failed and report correct = false."""
    from hostclock import HostClock

    corrupted = dict(CERTIFY_EXPECTED, tree=Fraction(2, 3))
    res = Result()
    workload_certify(0, 0, _NoTracer(), res, HostClock(), expected=corrupted, jobs=1)
    for line in res.notes:
        print(line)
    counted = res.failed == 1 and res.attempted == len(CERTIFY_EXPECTED)
    print("self-test: %d/%d certify steps failed with tree distance expected 2/3: %s"
          % (res.failed, res.attempted, "failure counted" if counted else "NOT COUNTED"))
    return 0 if counted else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    _import_library()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracer for the benchmark.

Spans are recorded only from this directory's code: `Tracer.install` wraps
public functions and methods of `treecodes` at module boundaries by
replacing the module or class attribute, and `Tracer.uninstall` puts the
originals back.  Nothing under `src/` is edited.

A span is (name, label, start, end, parent); times are
`time.perf_counter_ns` integers so that self times add up exactly.  A call
that re-enters the span already innermost on the stack (recursion, e.g.
`serialize_symbol` on nested tuples) is folded into that span.  The two
calls made hundreds of thousands of times per certify job
(`verify.hamming_distance`, `pascal.minor_determinant`) are counted rather
than spanned; their time stays in the caller's self time.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict

_ns = time.perf_counter_ns


def _s_of_first_arg(args, kwargs):
    return args[0] if args else kwargs.get("s")


def _s_of_self(args, kwargs):
    return args[0].s


class Tracer:
    def __init__(self):
        self.names = []
        self.labels = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.stack = []
        self.counts = defaultdict(int)
        self._patches = []

    # -- recording -------------------------------------------------------

    def _open(self, name, label):
        idx = len(self.names)
        self.names.append(name)
        self.labels.append(label)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(_ns())
        return idx

    def _close(self, idx):
        self.ends[idx] = _ns()
        self.stack.pop()

    def root(self, name):
        """Context manager for a benchmark-level span (one operation)."""
        return _RootSpan(self, name)

    def _wrapper(self, fn, name, label_of):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.names[stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = tracer._open(name, label_of(args, kwargs) if label_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr, name, label_of=None, count_only=False):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        if count_only:
            setattr(owner, attr, self._counter(original, name))
        else:
            setattr(owner, attr, self._wrapper(original, name, label_of))

    # -- module boundaries -------------------------------------------------

    def install(self):
        from treecodes import core, ecc, lagged, linearcode, packing, pascal, pipeline, verify

        self._patch(pipeline.PipelineEncoder, "push", "pipeline.push")
        self._patch(pipeline.PipelineEncoder, "push_raw", "pipeline.push_raw")
        self._patch(pipeline.PipelineEncoder, "clone", "pipeline.clone")
        self._patch(pipeline, "alphabet_at", "pipeline.alphabet_at")
        self._patch(pipeline, "build_code_c", "ecc.build_code_c", _s_of_first_arg)
        self._patch(ecc, "build_code_c", "ecc.build_code_c", _s_of_first_arg)
        self._patch(ecc.CodeSpecC, "symbols_for", "ecc.symbols_for", _s_of_self)
        self._patch(ecc.CodeSpecC, "encode_int", "ecc.encode_int", _s_of_self)
        self._patch(core, "serialize_symbol", "core.serialize_symbol")
        self._patch(pascal, "is_totally_nonsingular", "pascal.is_totally_nonsingular")
        self._patch(pascal, "minor_determinant", "pascal.minor_determinant", count_only=True)
        self._patch(pascal, "staircase_pair_count", "pascal.staircase_pair_count")
        self._patch(verify, "tree_distance_exhaustive", "verify.tree_distance_exhaustive")
        self._patch(verify, "lagged_distance", "verify.lagged_distance")
        self._patch(verify, "verify_split0_lagged_bound", "verify.verify_split0_lagged_bound")
        self._patch(verify, "hamming_distance", "verify.hamming_distance", count_only=True)
        self._patch(lagged.StreamEncoderTruncatedLagged, "push", "lagged.push")
        self._patch(lagged.StreamEncoderTruncatedLagged, "clone", "lagged.clone")
        self._patch(lagged.StreamEncoderUntruncatedLagged, "push", "lagged.push_untruncated")
        self._patch(lagged.StreamEncoderUntruncatedLagged, "clone", "lagged.clone")
        self._patch(packing.StreamEncoderBlockTc, "push", "packing.block_push")
        self._patch(linearcode, "encode_int_treecode", "linearcode.encode_int_treecode")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        n = len(self.names)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return array("q", (self.ends[i] - self.starts[i] - child[i] for i in range(n)))

    def check_self_sums(self, self_ns):
        """For every root span, its duration must equal the sum of the self
        times of the root and all its descendants, each child must lie inside
        its parent's interval and no self time may be negative (the sum alone
        telescopes; the last two make it a check).  Returns (roots, bad)."""
        n = len(self.names)
        roots = array("q", bytes(8 * n))
        sums = defaultdict(int)
        bad = set()
        for i in range(n):
            p = self.parents[i]
            roots[i] = i if p < 0 else roots[p]
            sums[roots[i]] += self_ns[i]
            if self_ns[i] < 0 or (p >= 0 and not (
                    self.starts[p] <= self.starts[i] <= self.ends[i] <= self.ends[p])):
                bad.add(roots[i])
        bad.update(r for r, total in sums.items() if total != self.ends[r] - self.starts[r])
        return len(sums), sorted(bad)

    def layer_metrics(self):
        """Aggregate the spans into the per-layer metrics of the benchmark."""
        self_ns = self.self_times()
        calls = defaultdict(int)
        dur = defaultdict(int)
        selfsum = defaultdict(int)
        by_s = defaultdict(lambda: [0, 0])
        push_child_self = 0
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            calls[name] += 1
            dur[name] += d
            selfsum[name] += self_ns[i]
            if name in ("ecc.build_code_c", "ecc.encode_int"):
                rec = by_s[(name, self.labels[i])]
                rec[0] += 1
                rec[1] += d
            elif name == "pipeline.push_raw":
                p = self.parents[i]
                if p >= 0 and self.names[p] == "pipeline.push":
                    push_child_self += self_ns[i]

        def s(ns):
            return ns / 1e9

        def mean_us(name):
            return dur[name] / calls[name] / 1e3 if calls[name] else 0.0

        m = {}
        m["ecc.build_calls"] = (calls["ecc.build_code_c"], "count")
        m["ecc.build_s"] = (s(dur["ecc.build_code_c"]), "s")
        for w in LEVEL_WIDTHS:
            m["ecc.build_s.s%d" % w] = (s(by_s[("ecc.build_code_c", w)][1]), "s")
        m["ecc.encode_int_calls"] = (calls["ecc.encode_int"], "count")
        for w in LEVEL_WIDTHS:
            c, d = by_s[("ecc.encode_int", w)]
            m["ecc.encode_int_us.s%d" % w] = (d / c / 1e3 if c else 0.0, "us")
        m["ecc.symbols_for_calls"] = (calls["ecc.symbols_for"], "count")
        sf = calls["ecc.symbols_for"]
        m["ecc.memo_hit_ratio"] = (1 - calls["ecc.encode_int"] / sf if sf else 0.0, "ratio")
        m["pipeline.push_self_s"] = (s(selfsum["pipeline.push"] + push_child_self), "s")
        m["pipeline.push_raw_self_s"] = (s(selfsum["pipeline.push_raw"]), "s")
        m["pipeline.push_wrap_us"] = (
            selfsum["pipeline.push"] / calls["pipeline.push"] / 1e3
            if calls["pipeline.push"] else 0.0,
            "us",
        )
        m["pipeline.clone_calls"] = (calls["pipeline.clone"], "count")
        m["pipeline.clone_us"] = (mean_us("pipeline.clone"), "us")
        m["core.serialize_us"] = (mean_us("core.serialize_symbol"), "us")
        m["pipeline.alphabet_at_us"] = (mean_us("pipeline.alphabet_at"), "us")
        minors = self.counts["pascal.minor_determinant"]
        guard = dur["pascal.staircase_pair_count"]
        tns = dur["pascal.is_totally_nonsingular"] - guard
        m["pascal.minors"] = (minors, "count")
        m["pascal.minors_per_s"] = (minors / s(tns) if tns > 0 else 0.0, "1/s")
        m["pascal.guard_s"] = (s(guard), "s")
        m["verify.pairs_compared"] = (self.counts["verify.hamming_distance"], "count")
        m["verify.self_s"] = (
            s(sum(v for k, v in selfsum.items() if k.startswith("verify."))), "s"
        )
        m["lagged.push_calls"] = (calls["lagged.push"] + calls["lagged.push_untruncated"], "count")
        m["lagged.push_self_s"] = (
            s(selfsum["lagged.push"] + selfsum["lagged.push_untruncated"]), "s"
        )
        m["lagged.clone_calls"] = (calls["lagged.clone"], "count")
        m["packing.block_push_calls"] = (calls["packing.block_push"], "count")
        m["packing.block_push_self_s"] = (s(selfsum["packing.block_push"]), "s")
        m["linearcode.encode_calls"] = (calls["linearcode.encode_int_treecode"], "count")
        m["linearcode.encode_self_s"] = (s(selfsum["linearcode.encode_int_treecode"]), "s")
        roots, bad = self.check_self_sums(self_ns)
        m["trace.spans"] = (len(self.names), "count")
        m["trace.roots"] = (roots, "count")
        return m, bad

    def write(self, path):
        """Write every span as one tab-separated line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("idx\tparent\tname\tlabel\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                label = self.labels[i]
                fh.write("%d\t%d\t%s\t%s\t%d\t%d\n" % (
                    i, self.parents[i], name, "" if label is None else label,
                    self.starts[i], self.ends[i],
                ))


# Block widths of the schedule levels at n = 2^14 (see NOTES.md).
LEVEL_WIDTHS = (16, 20, 32, 84, 588)


class _RootSpan:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name, None)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False

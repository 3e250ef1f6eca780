"""Per-bit cost of the library's user path, for a base and a changed source
tree side by side.

Usage (from the repository root):

    python3 tools/bench_user_path.py --tree before=PATH --tree after=. \
        --label before_vs_after

Each PATH is a source tree: a directory holding `src/treecodes` (or the
`src` directory itself); the first `--tree` is the base.  Both trees are
imported into this one process under their own package names, so a pass
of one tree and a pass of the other run back to back on the same warm
interpreter, and the order of the trees alternates from pass to pass.

One pass runs five loops over one seeded stream of n = 2^14 bits, each on
a fresh `PipelineConfig` and `PipelineEncoder` (an untimed warm-up pass
has built the level codes), keeping nothing between bits.  The five loops
take turns over blocks of 256 bits, so a slow spell of the host is shared
by all of them.  Every loop is `for i, b in enumerate(block, i0)`; the
first calls `PipelineEncoder.push_raw` alone, and each of the others adds
exactly one call per bit to the loop before it:

1. `PipelineEncoder.push`, in place of `push_raw`;
2. then `core.serialize_symbol` of the pushed symbol;
3. then `pipeline.alphabet_at(config, i).total_bits`: `path`, the three
   library calls per bit as `encode-chs` makes them;
4. then `cli._emit` of the record `{"i", "symbol", "gamma_bits"}` into a
   StringIO, the record's dict included: `path_and_emit`.

The `push` row is the whole `push` loop.  Each later call's cost per bit
is the difference of the loops with and without it, taken within a pass,
so a single pass can read slightly below zero for a cheap call.  The
output of the path is hashed once per tree, outside the timed loops.

Then RUNS processes per tree, again alternating, run
`treecodes encode-chs --n 16384` on one seeded input, start-up and level
code builds included; each run's output is hashed, so the file also
records whether the trees write the same bytes.

The result is `BENCH_<label>.json` in --out-dir: per tree and row the
median and quartiles in microseconds per bit, the host, and the ratio of
the change's medians to the base's.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time

N = 1 << 14
PASSES = 9
RUNS = 6  # encode-chs processes per tree
SEED = 0
BLOCK = 256  # bits each loop runs before the next loop takes its turn
# Each loop adds one call per bit to the loop before it: the path is the
# three library calls per bit as encode-chs makes them, and the last loop
# adds encode-chs's record writer (JSON and flush, into a StringIO).
CUMULATIVE = ("push", "+serialize_symbol", "+alphabet_at", "+_emit")
# The cost of one call per bit: the difference of consecutive loops.
CALLS = ("push", "serialize_symbol", "alphabet_at", "_emit")
ROWS = ("push_raw",) + CALLS + ("path", "path_and_emit")


def _src_dir(path):
    for cand in (os.path.join(path, "src"), path):
        if os.path.isfile(os.path.join(cand, "treecodes", "__init__.py")):
            return os.path.abspath(cand)
    raise SystemExit("no treecodes sources under %s" % path)


def _load(alias, src):
    """Import the package under `src`/treecodes as the top-level package
    `alias`; its relative imports resolve inside it."""
    pkg = os.path.join(src, "treecodes")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(alias + "." + m) for m in ("pipeline", "core", "cli"))


def _bits(seed, n):
    x = random.Random("bench-user-path-%d" % seed).getrandbits(n)
    return [(x >> t) & 1 for t in range(n)]


def path_digest(pipeline, core, bits):
    """sha256 of the path's output over one stream: each bit's symbol text
    and gamma_bits.  Untimed; it also builds the level codes."""
    cfg = pipeline.PipelineConfig(n=len(bits))
    push = pipeline.PipelineEncoder(cfg).push
    h = hashlib.sha256()
    for i, b in enumerate(bits, 1):
        text = core.serialize_symbol(push(b))
        h.update(b"%s\t%d\n" % (text.encode(), pipeline.alphabet_at(cfg, i).total_bits))
    return h.hexdigest()


def _loops(pipeline, core, cli, n):
    """The five loops, one per row of ("push_raw",) + CUMULATIVE, each on
    its own fresh config and encoder; each takes a block of bits and the
    position of its first bit."""
    serialize = core.serialize_symbol
    alphabet_at = pipeline.alphabet_at
    emit = cli._emit
    loops = []
    for row in ("push_raw",) + CUMULATIVE:
        cfg = pipeline.PipelineConfig(n=n)
        enc = pipeline.PipelineEncoder(cfg)
        push = enc.push
        push_raw = enc.push_raw
        sink = io.StringIO()
        if row == "push_raw":
            def loop(block, i0, push_raw=push_raw):
                for i, b in enumerate(block, i0):
                    push_raw(b)
        elif row == "push":
            def loop(block, i0, push=push):
                for i, b in enumerate(block, i0):
                    push(b)
        elif row == "+serialize_symbol":
            def loop(block, i0, push=push):
                for i, b in enumerate(block, i0):
                    text = serialize(push(b))
        elif row == "+alphabet_at":
            def loop(block, i0, push=push, cfg=cfg):
                for i, b in enumerate(block, i0):
                    text = serialize(push(b))
                    gamma = alphabet_at(cfg, i).total_bits
        else:
            def loop(block, i0, push=push, cfg=cfg, sink=sink):
                for i, b in enumerate(block, i0):
                    text = serialize(push(b))
                    gamma = alphabet_at(cfg, i).total_bits
                    emit(sink, {"i": i, "symbol": text, "gamma_bits": gamma})
        loops.append((row, loop))
    return loops


def one_pass(pipeline, core, cli, bits):
    """Microseconds per bit of each loop over one stream.  The loops
    advance together, BLOCK bits at a time, in an order that rotates from
    block to block, so a slow spell of the host lands on all of them
    rather than on whichever loop it overlaps.  Nothing is kept between
    bits, as in encode-chs, so no loop pays for collecting what an earlier
    one stored."""
    ns = time.perf_counter_ns
    n = len(bits)
    loops = _loops(pipeline, core, cli, n)
    spent = [0] * len(loops)
    order = list(range(len(loops)))
    gc.collect()
    for start in range(0, n, BLOCK):
        block = bits[start:start + BLOCK]
        for k in order:
            t = ns()
            loops[k][1](block, start + 1)
            spent[k] += ns() - t
        order.append(order.pop(0))
    return {row: spent[k] / 1e3 / n for k, (row, _) in enumerate(loops)}


def _cli_run(src, infile, outfile, n):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from treecodes.cli import main; sys.exit(main(sys.argv[2:]))")
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, src, "--output", outfile,
                    "encode-chs", "--n", str(n), "--input", infile], check=True)
    wall = time.perf_counter() - t
    with open(outfile, "rb") as fh:
        return wall / n * 1e6, hashlib.sha256(fh.read()).hexdigest()


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "samples": [round(v, 4) for v in values]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", required=True, metavar="NAME=PATH",
                    help="give it twice: the base tree, then the changed tree")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args(argv)
    if len(args.tree) != 2:
        ap.error("give exactly two --tree NAME=PATH: the base, then the change")

    trees = []
    for k, spec in enumerate(args.tree):
        name, sep, path = spec.partition("=")
        if not sep or not name:
            ap.error("--tree takes NAME=PATH, got %r" % spec)
        src = _src_dir(path)
        trees.append((name, src, _load("_bench_tree%d" % k, src)))
    if trees[0][0] == trees[1][0]:
        ap.error("the two trees need different names")

    bits = _bits(SEED, N)
    per_bit = {name: {row: [] for row in ROWS} for name, _, _ in trees}
    digests = {}
    for name, _, modules in trees:  # warm-up: level codes, caches
        digests[name] = path_digest(modules[0], modules[1], bits)
        one_pass(*modules, bits)
    for p in range(PASSES):
        order = trees if p % 2 == 0 else trees[::-1]
        for name, _, modules in order:
            loops = one_pass(*modules, bits)
            prev = 0.0
            for call, row in zip(CALLS, CUMULATIVE):
                per_bit[name][call].append(loops[row] - prev)
                prev = loops[row]
            per_bit[name]["push_raw"].append(loops["push_raw"])
            per_bit[name]["path"].append(loops["+alphabet_at"])
            per_bit[name]["path_and_emit"].append(loops["+_emit"])

    cli = {name: [] for name, _, _ in trees}
    cli_digests = {name: set() for name, _, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        infile = os.path.join(tmp, "in.txt")
        with open(infile, "w") as fh:
            fh.write("%0*x\n" % (N // 4, random.Random("bench-cli-%d" % SEED).getrandbits(N)))
        for r in range(RUNS):
            order = trees if r % 2 == 0 else trees[::-1]
            for name, src, _ in order:
                us, digest = _cli_run(src, infile, os.path.join(tmp, "out.txt"), N)
                cli[name].append(us)
                cli_digests[name].add(digest)

    base = trees[0][0]
    record = {
        "label": args.label,
        "n": N,
        "seed": SEED,
        "passes": PASSES,
        "runs": RUNS,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "unit": "us per bit",
        "trees": {},
    }
    for name, _, _ in trees:
        rows = {row: _summary(per_bit[name][row]) for row in ROWS}
        rows["encode_chs_process"] = _summary(cli[name])
        record["trees"][name] = {
            "per_bit_us": rows,
            "stream_sha256": digests[name],
            "encode_chs_sha256": sorted(cli_digests[name]),
            "ratio_to_%s" % base: {
                row: round(rows[row]["median"] / record["trees"][base]["per_bit_us"][row]["median"], 3)
                for row in rows
            } if name != base else None,
        }
    record["same_output"] = (len({d for d in digests.values()}) == 1
                             and len({d for ds in cli_digests.values() for d in ds}) == 1)
    path = os.path.join(args.out_dir, "BENCH_%s.json" % args.label)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for row in ROWS + ("encode_chs_process",):
        print("%-20s" % row + "".join(
            "  %s %8.3f" % (name, record["trees"][name]["per_bit_us"][row]["median"])
            for name, _, _ in trees))
    print("same output: %s; wrote %s" % (record["same_output"], path))
    return 0 if record["same_output"] else 1


if __name__ == "__main__":
    sys.exit(main())

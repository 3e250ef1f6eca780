"""Command-line front end.

All record streams are NDJSON with exact integers rendered as decimal
strings (JSON numbers are never trusted beyond 2^53).  Exit codes:
0 success, 1 usage error, 2 verification failure (a distance report that
falls below its claimed bound).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import BudgetExceededError, IntPair, serialize_symbol
from .ecc import build_code_c
from .lagged import LaggedParams, encode_truncated_lagged
from .linearcode import pascal_step
from .pascal import is_totally_nonsingular, pascal_matrix, search_tns
from .pipeline import (
    PipelineConfig,
    PipelineEncoder,
    alphabet_at,
    boosted_config,
    build_schedule,
    level_c_delta,
)
from .verify import (
    lagged_distance,
    sample_toeplitz_code,
    singleton_bound,
    toeplitz_weight_distance,
    tree_distance_exhaustive,
    weight_distance_linear,
)


def _open_out(path):
    return sys.stdout if path in (None, "-") else open(path, "w")


def _open_in(path):
    return sys.stdin if path in (None, "-") else open(path)


def _emit(out, record):
    out.write(json.dumps(record) + "\n")
    out.flush()


def _witness_json(witness):
    def conv(v):
        if isinstance(v, tuple):
            return [conv(p) for p in v]
        if isinstance(v, int):
            return str(v)
        return serialize_symbol(v)

    return [conv(v) for v in witness]


def _report_json(report):
    return {
        "value": str(report.value),
        "witness": _witness_json(report.witness),
        "space": report.space,
    }


def _cmd_pascal(args, out):
    P = pascal_matrix(args.n)
    for row in P.rows:
        out.write(" ".join(str(v) for v in row) + "\n")
    if args.check_tns:
        verdict = is_totally_nonsingular(P)
        _emit(out, {
            "tns": verdict.ok,
            "minors_checked": verdict.minors_checked,
            "witness": None if verdict.witness is None
            else {"I": list(verdict.witness.I), "J": list(verdict.witness.J)},
        })
    return 0


def _cmd_search_tns(args, out):
    found = search_tns(args.n, args.bound, seed=args.seed)
    if found is None:
        out.write("none\n")
    else:
        for row in found.rows:
            out.write(" ".join(str(v) for v in row) + "\n")
    return 0


def _cmd_encode_int(args, out):
    # No length cap: the Pascal kernel state grows by one entry per value.
    diffs = []
    with _open_in(args.input) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a = int(line)
            if a < 0:
                raise ValueError("encode-int inputs must be non-negative, got %d" % a)
            diffs = pascal_step(diffs, a)
            pair = IntPair(a, diffs[-1])
            _emit(out, {"i": len(diffs), "a": str(pair.a), "b": str(pair.b)})
    return 0


_BIT_DIGITS = frozenset("01")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _read_bits(fh, limit):
    """Bits from the non-blank lines: a line of 0s and 1s gives one bit per
    character, a line of hex digits four; any other line is a ValueError."""
    bits = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        digits = set(line)
        if digits <= _BIT_DIGITS:
            bits.extend(int(c) for c in line)
        elif not digits <= _HEX_DIGITS:
            raise ValueError("input line %r is neither bits nor hex digits" % line)
        else:
            v = int(line, 16)
            width = 4 * len(line)
            bits.extend((v >> (width - 1 - t)) & 1 for t in range(width))
        if len(bits) >= limit:
            break
    return bits[:limit]


def _cmd_encode_chs(args, out):
    if args.eta is not None:
        config = boosted_config(Fraction(args.eta), n=args.n)
    else:
        config = PipelineConfig(n=args.n)
    enc = PipelineEncoder(config)
    with _open_in(args.input) as fh:
        bits = _read_bits(fh, args.n)
    for i, b in enumerate(bits, start=1):
        sym = enc.push(b)
        _emit(out, {
            "i": i,
            "symbol": serialize_symbol(sym),
            "gamma_bits": alphabet_at(config, i).total_bits,
        })
    return 0


def _cmd_schedule(args, out):
    config = PipelineConfig(n=args.n)
    sched = build_schedule(args.n)
    for lv in sched.levels:
        _emit(out, {
            "g": lv.g,
            "ell": lv.ell,
            "s": lv.s,
            "covers": [lv.cover_lo, lv.cover_hi],
            "c_delta": level_c_delta(config, lv.s),
        })
    return 0


def _cmd_ecc_build(args, out):
    spec = build_code_c(args.s, Fraction(args.delta), args.recipe, args.seed)
    record = {
        "s": spec.s,
        "c_delta": spec.c_delta,
        "input_bits": spec.input_bits,
        "provable_delta": str(spec.provable_delta),
        "recipe": spec.recipe,
        "outer": {"m": spec.outer.m, "k_msg": spec.outer.k_msg, "n_code": spec.outer.n_code},
    }
    if spec.inner is not None:
        record["inner"] = {
            "m_in": spec.inner.m_in,
            "n_in": spec.inner.n_in,
            "verified_distance": spec.inner.verified_distance,
            "seed": spec.inner.seed,
        }
    _emit(out, record)
    return 0


def _cmd_verify(args, out):
    from .linearcode import encode_tc_a

    claim = None if args.claim is None else Fraction(args.claim)
    nmax = args.nmax
    if nmax is None:
        # The lagged mode's pairs need length at least its smallest lag a*s.
        nmax = args.a * args.s if args.mode == "lagged" else 5
    if args.mode == "singleton":
        value = singleton_bound(args.n, args.sigma, args.gamma)
        out.write("%s\n" % value)
        return 0
    if args.mode in ("distance", "tilde") and nmax < 1:
        raise ValueError("--nmax must be at least 1, got %d" % nmax)
    if args.mode == "distance":
        P = pascal_matrix(nmax - 1)
        report = tree_distance_exhaustive(
            lambda x: encode_tc_a(P, x), range(3), nmax
        )
    elif args.mode == "tilde":
        P = pascal_matrix(nmax - 1)
        report = weight_distance_linear(P, range(3), nmax)
    elif args.mode == "lagged":
        spec = build_code_c(args.s, Fraction(args.delta), "rs", args.seed)
        params = LaggedParams(args.s, args.a * args.s, spec)
        report = lagged_distance(
            lambda bits: encode_truncated_lagged(params, bits),
            params.ell, params.h, (0, 1), nmax,
        )
    elif args.mode == "toeplitz":
        code = sample_toeplitz_code(args.q, args.d, args.n, args.seed)
        report = toeplitz_weight_distance(code)
    else:
        raise AssertionError
    _emit(out, _report_json(report))
    if claim is not None and report.value < claim:
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="treecodes")
    p.add_argument("--output", default="-")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("pascal")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--check-tns", action="store_true")

    sp = sub.add_parser("search-tns")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("encode-int")
    sp.add_argument("--input", default="-")

    sp = sub.add_parser("encode-chs")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--eta", default=None)
    sp.add_argument("--input", default="-")

    sp = sub.add_parser("schedule")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("ecc")
    eccsub = sp.add_subparsers(dest="ecc_cmd", required=True)
    bp = eccsub.add_parser("build")
    bp.add_argument("--s", type=int, required=True)
    bp.add_argument("--delta", required=True)
    bp.add_argument("--recipe", choices=("rs", "concat"), default="concat")
    bp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify")
    sp.add_argument("--mode", choices=("distance", "tilde", "lagged", "singleton", "toeplitz"),
                    required=True)
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--sigma", type=int, default=2)
    sp.add_argument("--gamma", type=int, default=4)
    sp.add_argument("--s", type=int, default=4)
    sp.add_argument("--a", type=int, default=2)
    sp.add_argument("--delta", default="1/4")
    sp.add_argument("--q", type=int, default=4)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--claim", default=None)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    handlers = {
        "pascal": _cmd_pascal,
        "search-tns": _cmd_search_tns,
        "encode-int": _cmd_encode_int,
        "encode-chs": _cmd_encode_chs,
        "schedule": _cmd_schedule,
        "ecc": _cmd_ecc_build,
        "verify": _cmd_verify,
    }
    handler = handlers[args.cmd]
    try:
        out = _open_out(args.output)
        try:
            return handler(args, out)
        finally:
            # Inside the outer try: closing flushes, which can fail too.
            if out is not sys.stdout:
                out.close()
    except (ValueError, ArithmeticError, BudgetExceededError, MemoryError) as exc:
        # Covers infeasible code parameters, schedule errors, enumerations
        # larger than their budget and block codes whose rows do not fit.
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the stream; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        # After BrokenPipeError, its subclass: an --input that cannot be
        # read or an --output that cannot be written.
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Golden outputs of the encoders and the distance oracles.

Each case serializes an encoder's output or a list of distance reports on
fixed, seeded inputs into text lines and compares their sha256 digest with
`golden/encoder_outputs.json`.  The digests pin the behaviour of the
pipeline, lagged, packed and integer encoders, of the weight, tree,
Toeplitz and lagged distance reports, and of the `encode-int`,
`encode-chs` and `verify` commands; a digest changes only with an intended
change of behaviour, recorded in CHANGES.md.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from treecodes.cli import main
from treecodes.core import serialize_symbol
from treecodes.ecc import build_code_c
from treecodes.lagged import LaggedParams, encode_truncated_lagged, encode_untruncated_lagged
from treecodes.linearcode import (
    BoostParams,
    StreamEncoderTcASr,
    cx_rx_report,
    encode_int_treecode,
    encode_tc_a,
)
from treecodes.packing import (
    BoostedPackedParams,
    PackedCodeParams,
    encode_block_tc,
)
from treecodes.pascal import LowerTriangularMatrix, pascal_matrix
from treecodes.pipeline import PipelineConfig, PipelineEncoder, alphabet_at
from treecodes.verify import (
    lagged_distance,
    sample_toeplitz_code,
    toeplitz_weight_distance,
    tree_distance_exhaustive,
    tree_distance_relaxed,
    weight_distance_linear,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "encoder_outputs.json")


def _sha(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _bits(tag, n):
    x = random.Random(tag).getrandbits(n)
    return [(x >> t) & 1 for t in range(n)]


def _lagged(sym):
    return "%s|%s" % (serialize_symbol(sym.left), serialize_symbol(sym.right))


def pipeline_raw_lines():
    """push_raw at n=2^14 over a whole seeded stream, and a clone taken at
    position 5000 that continues on other bits."""
    enc = PipelineEncoder(PipelineConfig(n=1 << 14))
    bits, other = _bits("golden-pipeline", 1 << 14), _bits("golden-clone", 3000)
    lines = []
    for i, b in enumerate(bits):
        if i == 5000:
            twin = enc.clone()
        lines.append(repr(enc.push_raw(b)))
    lines.extend("clone " + repr(twin.push_raw(b)) for b in other)
    return lines


def pipeline_boosted_lines():
    """A hand-built boosted configuration (levels up to s=84): push_raw on
    one encoder, push with its alphabet accounting on another."""
    cfg = PipelineConfig(n=500, delta=Fraction(1, 4), boost=BoostParams(1, 2))
    bits = _bits("golden-boosted", 500)
    raw, wrapped = PipelineEncoder(cfg), PipelineEncoder(cfg)
    lines = [repr(raw.push_raw(b)) for b in bits]
    for i, b in enumerate(bits, start=1):
        sym = wrapped.push(b)
        lines.append("%s %d" % (serialize_symbol(sym), alphabet_at(cfg, i).total_bits))
    return lines


def _toy(s=4, a=2):
    return LaggedParams(s, a * s, build_code_c(s, Fraction(1, 4), "rs"))


def lagged_truncated_lines():
    params = _toy()
    rng = random.Random("golden-truncated")
    lines = []
    for _ in range(64):
        n = rng.randint(1, 16)
        bits = [rng.randrange(2) for _ in range(n)]
        lines.append(" ".join(serialize_symbol(v) for v in encode_truncated_lagged(params, bits)))
    return lines


def lagged_untruncated_lines():
    lines = []
    for a in (2, 4):
        params = _toy(a=a)
        for k in range(3):
            bits = _bits("golden-untruncated-%d-%d" % (a, k), 200)
            lines.append(" ".join(_lagged(v) for v in encode_untruncated_lagged(params, bits)))
    return lines


def lagged_boosted_lines():
    boost = BoostParams(1, 1)
    spec = build_code_c(2, Fraction(0), "rs", input_bits=BoostedPackedParams(2, boost).symbol_bits)
    params = LaggedParams(2, 4, spec, boost=boost)
    lines = []
    for x in range(16):
        bits = [(x >> (3 - t)) & 1 for t in range(4)]
        lines.append(" ".join(serialize_symbol(v) for v in encode_truncated_lagged(params, bits)))
    bits = _bits("golden-boosted-lagged", 100)
    lines.append(" ".join(_lagged(v) for v in encode_untruncated_lagged(params, bits)))
    return lines


def int_treecode_lines():
    rng = random.Random("golden-int")
    lines = []
    for k in (1, 2, 5, 17, 64):
        for width in (1, 8, 200):
            a = [rng.getrandbits(width) for _ in range(k)]
            lines.append(" ".join(serialize_symbol(p) for p in encode_int_treecode(a)))
    return lines


def block_tc_lines():
    rng = random.Random("golden-block")
    lines = []
    for s in (1, 3, 8, 16):
        blocks = [[rng.randrange(2) for _ in range(s)] for _ in range(s)]
        lines.append(" ".join(serialize_symbol(v) for v in encode_block_tc(PackedCodeParams(s), blocks)))
    return lines


def boosted_block_tc_lines():
    rng = random.Random("golden-boosted-block")
    lines = []
    for s in (1, 2, 5, 8):
        for r in (1, 2, 3):
            params = BoostedPackedParams(s, BoostParams(1, r))
            blocks = [[rng.randrange(2) for _ in range(s)] for _ in range(s)]
            lines.append(" ".join(serialize_symbol(v) for v in encode_block_tc(params, blocks)))
    return lines


def general_a_lines():
    """The general-A reference encoders on the Pascal matrix and on a
    signed matrix, whose zero-padded outputs can be negative."""
    rng = random.Random("golden-general-a")
    signed = LowerTriangularMatrix(
        tuple(tuple(rng.choice((-3, -1, 1, 2)) for _ in range(i + 1)) for i in range(12))
    )
    x = [rng.randrange(5) for _ in range(12)]
    lines = [" ".join(serialize_symbol(p) for p in encode_tc_a(pascal_matrix(11), x))]
    for A in (pascal_matrix(11), signed):
        for s, r in ((1, 1), (2, 1), (1, 2)):
            enc = StreamEncoderTcASr(A, BoostParams(s, r))
            blocks = [tuple(rng.randrange(-4, 5) for _ in range(s)) for _ in range(enc.limit)]
            lines.append(repr([enc.push(b) for b in blocks]))
        rep = cx_rx_report(A, [0, 0] + x[2:])
        lines.append("%s %s %d" % (sorted(rep.C_x), sorted(rep.R_x), rep.ell))
    return lines


def _report(rep):
    return "%s %r %s" % (rep.value, rep.witness, rep.space)


def weight_distance_lines():
    return [
        _report(weight_distance_linear(pascal_matrix(m), entries, m + 1))
        for m in range(2, 6)
        for entries in (range(3), (0, 1, -1))
    ]


def tree_distance_lines():
    lines = []
    for n in range(1, 6):
        P = pascal_matrix(n - 1)
        encode = lambda x: encode_tc_a(P, x)
        for alphabet in (range(3), (0, 1)):
            lines.append(_report(tree_distance_exhaustive(encode, alphabet, n)))
            lines.append(_report(tree_distance_relaxed(encode, alphabet, n)))
    return lines


def toeplitz_distance_lines():
    lines = []
    for q in (2, 3, 4, 5, 8):
        for seed in range(4):
            code = sample_toeplitz_code(q, 2, 4, seed)
            lines.append(_report(toeplitz_weight_distance(code)))
            lines.append(_report(toeplitz_weight_distance(code, stop_at=Fraction(1, 2))))
    return lines


def lagged_distance_lines():
    params = _toy()
    encode = lambda bits: encode_untruncated_lagged(params, bits)
    return [_report(lagged_distance(encode, ell, L, (0, 1), 10))
            for ell, L in ((8, 8), (4, 8), (2, 5))]


def _cli_lines(tmp_path, name, text, *argv):
    inp, out = tmp_path / (name + ".in"), tmp_path / (name + ".out")
    inp.write_text(text)
    assert main(["--output", str(out)] + list(argv) + ["--input", str(inp)]) == 0
    return out.read_text().splitlines()


def cli_encode_int_lines(tmp_path):
    rng = random.Random("golden-cli-int")
    text = "".join("%d\n" % rng.getrandbits(rng.choice((1, 16, 90))) for _ in range(150))
    return _cli_lines(tmp_path, "int", text, "encode-int")


def cli_encode_chs_lines(tmp_path, n=2000):
    x = random.Random("golden-cli-chs").getrandbits(n)
    return _cli_lines(tmp_path, "chs", "%0*x\n" % (n // 4, x), "encode-chs", "--n", str(n))


def cli_verify_lines(tmp_path, mode, *argv):
    out = tmp_path / (mode + ".out")
    assert main(["--output", str(out), "verify", "--mode", mode] + list(argv)) == 0
    return out.read_text().splitlines()


CASES = {
    "pipeline_raw_n16384": pipeline_raw_lines,
    "pipeline_boosted_n500_r2": pipeline_boosted_lines,
    "lagged_truncated_s4": lagged_truncated_lines,
    "lagged_untruncated_s4": lagged_untruncated_lines,
    "lagged_boosted_s2": lagged_boosted_lines,
    "encode_int_treecode": int_treecode_lines,
    "encode_block_tc": block_tc_lines,
    "encode_boosted_block_tc": boosted_block_tc_lines,
    "general_a": general_a_lines,
    "distance_weight_linear": weight_distance_lines,
    "distance_tree_tc_a": tree_distance_lines,
    "distance_toeplitz": toeplitz_distance_lines,
    "distance_lagged_s4": lagged_distance_lines,
}
CLI_CASES = {
    "cli_encode_int": cli_encode_int_lines,
    "cli_encode_chs_n2000": cli_encode_chs_lines,
    "cli_encode_chs_n16384": lambda tmp_path: cli_encode_chs_lines(tmp_path, 16384),
    "cli_verify_tilde_nmax4": lambda tmp_path: cli_verify_lines(tmp_path, "tilde", "--nmax", "4"),
    "cli_verify_lagged_nmax10": lambda tmp_path: cli_verify_lines(tmp_path, "lagged", "--nmax", "10"),
    "cli_verify_toeplitz": lambda tmp_path: cli_verify_lines(tmp_path, "toeplitz"),
}


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_cases_recorded():
    assert sorted(_golden()) == sorted(list(CASES) + list(CLI_CASES))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_encoder_outputs(name):
    assert _sha(CASES[name]()) == _golden()[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_golden_cli_outputs(name, tmp_path):
    assert _sha(CLI_CASES[name](tmp_path)) == _golden()[name]

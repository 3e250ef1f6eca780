"""Tests for the finite-field tools and the block-code recipes."""

import dataclasses
import hashlib
import json
import math
import os
import random
from fractions import Fraction

import pytest

from treecodes.ecc import (
    MEMO_MAX_INPUT_BITS,
    CodeSpecC,
    InfeasibleCodeError,
    RSParams,
    build_code_c,
    canonical_modulus,
    find_inner_code,
    s_delta,
)
from treecodes.ecc import (
    INNER_DELTA, INNER_EXPANSION, _best_concat_params, _build_rows_rs, _poly_mulmod,
)

GOLDEN_ROWS = os.path.join(os.path.dirname(__file__), "golden", "block_code_rows.json")


def test_canonical_moduli_small_degrees():
    # Degree 1: x; degree 2: x^2+x+1; degree 3: x^3+x+1; degree 8: the
    # least irreducible octic is x^8+x^4+x^3+x+1 = 0x11b.
    assert canonical_modulus(1) == 0b10
    assert canonical_modulus(2) == 0b111
    assert canonical_modulus(3) == 0b1011
    assert canonical_modulus(8) == 0x11B


def gf_mul_int(m, a, b):
    """Multiplication in GF(2^m) on raw int representations: the scalar
    reference, used only by these tests."""
    return _poly_mulmod(a, b, canonical_modulus(m), m)


def test_gf_field_axioms_sampled():
    m = 5
    mul = lambda a, b: gf_mul_int(m, a, b)
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = rng.randrange(32), rng.randrange(32), rng.randrange(32)
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        # Distributivity over addition, which is XOR.
        assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    for v in range(1, 32):
        # The inverse is v^(2^m - 2), by square-and-multiply.
        inv, base, e = 1, v, (1 << m) - 2
        while e:
            if e & 1:
                inv = mul(inv, base)
            base = mul(base, base)
            e >>= 1
        assert mul(v, inv) == 1


def test_gf_mul_int_matches_known_aes_products():
    # GF(2^8) with the AES modulus 0x11b: 0x53 * 0xca = 0x01.
    assert gf_mul_int(8, 0x53, 0xCA) == 0x01
    assert gf_mul_int(8, 0x02, 0x80) == 0x1B


def rs_encode(params, msg):
    """Evaluate the polynomial with coefficients msg (constant term first):
    the scalar RS reference, used only by these tests."""
    if len(msg) != params.k_msg:
        raise ValueError("message must have %d symbols" % params.k_msg)
    m = params.m
    out = []
    for point in range(params.n_code):
        # Horner evaluation at the field element `point`.
        acc = 0
        for c in reversed(msg):
            acc = gf_mul_int(m, acc, point) ^ c
        out.append(acc)
    return tuple(out)


def rs_min_distance_exhaustive(params):
    """Exact minimum distance by scanning all non-zero messages (linearity)."""
    best = params.n_code
    for idx in range(1, (1 << params.m) ** params.k_msg):
        msg = []
        v = idx
        for _ in range(params.k_msg):
            msg.append(v % (1 << params.m))
            v //= 1 << params.m
        w = sum(1 for c in rs_encode(params, msg) if c)
        best = min(best, w)
    return best


def test_rs_distance_is_mds_small():
    params = RSParams(3, 3, 6)
    assert params.distance == 4
    assert rs_min_distance_exhaustive(params) == 4


def test_rs_encode_linear_and_systematic_at_zero():
    params = RSParams(4, 3, 8)
    rng = random.Random(2)
    for _ in range(50):
        u = [rng.randrange(16) for _ in range(3)]
        v = [rng.randrange(16) for _ in range(3)]
        cu, cv = rs_encode(params, u), rs_encode(params, v)
        cw = rs_encode(params, [a ^ b for a, b in zip(u, v)])
        assert cw == tuple(a ^ b for a, b in zip(cu, cv))
        # Evaluation at the zero element returns the constant coefficient.
        assert cu[0] == u[0]


def test_inner_code_found_and_verified():
    code = find_inner_code(4, 32, 0.3, seed=0)
    assert code.verified_distance >= math.ceil(0.3 * 32)
    # The verified distance is the true minimum over all non-zero messages.
    best = min(
        bin(code.encode(msg)).count("1") for msg in range(1, 16)
    )
    assert best == code.verified_distance


def test_inner_code_singleton_infeasible():
    with pytest.raises(InfeasibleCodeError):
        find_inner_code(8, 9, 0.9, seed=0)


def test_build_code_c_rs_properties():
    spec = build_code_c(16, Fraction(1, 4), "rs")
    assert spec.s == 16 and spec.input_bits == 48
    assert spec.provable_delta >= Fraction(1, 4)
    assert spec.c_delta == spec.outer.m
    # Linearity of the packed encoder.
    rng = random.Random(3)
    for _ in range(20):
        x = rng.getrandbits(48)
        y = rng.getrandbits(48)
        sx, sy, sxy = spec.symbols_for(x), spec.symbols_for(y), spec.symbols_for(x ^ y)
        assert sxy == tuple(a ^ b for a, b in zip(sx, sy))
    assert spec.encode([0] * 48) == (0,) * 16


def test_build_code_c_rs_distance_exhaustive_tiny():
    # s=4 at target 1/4: small enough to scan every non-zero message.
    spec = build_code_c(4, Fraction(1, 4), "rs")
    k = spec.outer.k_msg
    worst = spec.s
    for msg in range(1, 1 << (k * spec.outer.m)):
        # Only messages expressible in input_bits matter, but padding means
        # scanning the raw message space is the stronger statement.
        cw = rs_encode(spec.outer, [
            (msg >> (spec.outer.m * t)) & ((1 << spec.outer.m) - 1) for t in range(k)
        ])
        worst = min(worst, sum(1 for c in cw if c))
    assert Fraction(worst, spec.s) == spec.provable_delta


def test_build_code_c_concat_properties():
    spec = build_code_c(16, Fraction(1, 4), "concat", seed=0)
    assert spec.provable_delta >= Fraction(1, 4)
    assert spec.inner is not None
    assert spec.inner.n_in == 8 * spec.inner.m_in
    # Sampled codeword pairs respect the provable symbol distance.
    rng = random.Random(4)
    need = math.ceil(spec.provable_delta * spec.s)
    for _ in range(200):
        x = rng.getrandbits(48)
        y = rng.getrandbits(48)
        if x == y:
            continue
        sx, sy = spec.symbols_for(x), spec.symbols_for(y)
        assert sum(1 for a, b in zip(sx, sy) if a != b) >= need


def test_build_code_c_concat_plotkin_error():
    with pytest.raises(InfeasibleCodeError):
        build_code_c(16, Fraction(1, 2), "concat")


def test_build_code_c_validation():
    with pytest.raises(ValueError):
        build_code_c(16, Fraction(3, 2), "rs")
    with pytest.raises(ValueError):
        build_code_c(0, Fraction(1, 4), "rs")
    with pytest.raises(ValueError):
        build_code_c(16, Fraction(1, 4), "bogus")


def test_build_code_c_builds_its_rows_on_first_use():
    # The rows of the rs code at s = 28,812 would take about 4.7 GB; its
    # descriptor is arithmetic, and the concatenated one adds the inner
    # code search.
    assert "generator_rows" not in {f.name for f in dataclasses.fields(CodeSpecC)}
    for s, recipe in ((28812, "rs"), (588, "concat")):
        spec = build_code_c(s, Fraction(1, 4), recipe)
        assert "generator_rows" not in vars(spec), (s, recipe)
    spec = build_code_c(16, Fraction(1, 4), "concat")
    spec.symbols_for(1)
    assert "generator_rows" in vars(spec)


def _best_concat_params_reference(input_bits, s, delta):
    # The full scan _best_concat_params cuts short, kept as the reference:
    # every outer length of every m_out, the smallest c_delta kept, the
    # first in scan order among equals.
    best = None
    for m_out in range(2, 17):
        n_in = INNER_EXPANSION * m_out
        d_in = math.ceil(INNER_DELTA * n_in - 1e-12)
        k_out = math.ceil(input_bits / m_out)
        for n_outer in range(max(k_out, 1 << (m_out - 1)), 1 << m_out):
            c = math.ceil(n_outer * n_in / s)
            provable_num = math.ceil((n_outer - k_out + 1) * d_in / c)
            if (provable_num * delta.denominator >= delta.numerator * s
                    and (best is None or c < best[2])):
                best = (m_out, n_outer, c)
    return best


def test_best_concat_params_matches_full_scan():
    # Widths from the toy codes to the concat schedule levels, targets from
    # 0 to 9/20 (1/3 and up infeasible from s = 16 on, where the scan ends
    # early), the standard 3s-bit input and a boosted 12s.
    for s in (1, 4, 7, 16, 84, 129, 588):
        for delta in map(Fraction, ("0", "1/4", "1/3", "2/5", "9/20")):
            for input_bits in (3 * s, 12 * s):
                want = _best_concat_params_reference(input_bits, s, delta)
                assert _best_concat_params(input_bits, s, delta) == want, (s, delta, input_bits)


def test_s_delta_rs_is_one_at_quarter():
    assert s_delta(Fraction(1, 4), "rs") == 1


def test_s_delta_refuses_what_build_code_c_refuses():
    # At s = 1 the concatenated width arithmetic alone reaches 1/2, but the
    # Plotkin bound rules the recipe out at every s.
    with pytest.raises(InfeasibleCodeError):
        s_delta(Fraction(1, 2), "concat", s_max=64)
    with pytest.raises(ValueError, match="unknown recipe"):
        s_delta(Fraction(1, 4), "bogus")
    for delta in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match=r"delta must be in \[0, 1\)"):
            s_delta(delta, "rs", s_max=8)


def test_s_delta_concat_reasonable():
    s0 = s_delta(Fraction(1, 4), "concat", s_max=64)
    assert 1 <= s0 <= 64
    # Verify the reported s actually builds.
    build_code_c(s0, Fraction(1, 4), "concat")


def _reference_rows_rs(params, input_bits):
    """The generator rows by their scalar definition: message bit t is bit b
    of padded symbol q, and its row holds j^q * x^b in the slot of point j."""
    m, k, n = params.m, params.k_msg, params.n_code
    powers = []
    for j in range(n):
        p = [1]
        for _ in range(k - 1):
            p.append(gf_mul_int(m, p[-1], j))
        powers.append(p)
    rows = []
    for bitpos in range(k * m - input_bits, k * m):
        q, b = bitpos // m, m - 1 - bitpos % m
        row = 0
        for j in range(n):
            row = (row << m) | gf_mul_int(m, powers[j][q], 1 << b)
        rows.append(row)
    return tuple(rows)


def _padded_widths(params):
    # Every input width that pads the message by 0 .. m-1 bits.
    top = params.k_msg * params.m
    return range(max(1, top - params.m + 1), top + 1)


def test_build_rows_rs_matches_scalar_definition_small_shapes():
    for m in range(1, 5):
        for n in range(1, (1 << m) + 1):
            for k in range(1, n + 1):
                params = RSParams(m, k, n)
                for bits in _padded_widths(params):
                    assert _build_rows_rs(params, bits) == _reference_rows_rs(params, bits), (
                        m, k, n, bits)
    rng = random.Random(6)
    for m in (5, 6, 7, 8, 20, 24):
        for _ in range(6):
            n = rng.randint(1, min(1 << m, 40))
            params = RSParams(m, rng.randint(1, min(n, 6)), n)
            for bits in (params.k_msg * params.m, rng.choice(_padded_widths(params))):
                assert _build_rows_rs(params, bits) == _reference_rows_rs(params, bits), (
                    m, params, bits)


def test_build_rows_rs_matches_scalar_definition_on_recipes():
    rs = build_code_c(20, Fraction(1, 4), "rs")
    concat = build_code_c(16, Fraction(1, 4), "concat", seed=0)
    wide = build_code_c(8, Fraction(0), "rs", input_bits=150)  # m=20, 10 bits of padding
    assert wide.outer.m == 20
    for spec in (rs, concat, wide):
        rows = _build_rows_rs(spec.outer, spec.input_bits)
        assert rows == _reference_rows_rs(spec.outer, spec.input_bits)


def _rows_sha256(spec):
    h = hashlib.sha256()
    for row in spec.generator_rows:
        h.update(b"%x\n" % row)
    return h.hexdigest()


def test_generator_rows_golden_digests():
    # Recorded from the scalar build (concat-588 from the per-symbol inner
    # re-encode the table join replaced); any change here changes every
    # codeword.
    with open(GOLDEN_ROWS) as fh:
        golden = json.load(fh)
    assert sorted(golden) == [
        "concat-588", "concat-64", "rs-16", "rs-20", "rs-32", "rs-588", "rs-84"]
    for key, want in golden.items():
        recipe, s = key.split("-")
        spec = build_code_c(int(s), Fraction(1, 4), recipe, seed=0)
        got = {"c_delta": spec.c_delta, "input_bits": spec.input_bits,
               "rows_sha256": _rows_sha256(spec)}
        assert got == want, key


def test_symbols_for_memoizes_only_small_input_spaces():
    toy = build_code_c(4, Fraction(1, 4), "rs")
    assert toy.input_bits <= MEMO_MAX_INPUT_BITS
    first = toy.symbols_for(5)
    assert toy.symbols_for(5) is first and toy._memo == {5: first}
    # A miss walks the byte tables; a hit returns the same tuple.
    got = [toy.symbols_for(x) for x in range(1 << toy.input_bits)]
    for x, sym in enumerate(got):
        assert sym == toy.split_codeword(toy.encode_int(x)), x
        assert toy.symbols_for(x) is sym
    wide = build_code_c(16, Fraction(1, 4), "rs")
    assert wide.input_bits > MEMO_MAX_INPUT_BITS
    assert wide.symbols_for(5) == wide.symbols_for(5)
    assert not wide._memo


def test_encode_int_is_the_xor_of_the_selected_rows():
    # Row i is selected by input bit input_bits-1-i.  encode_int is one
    # row-selecting pass at every width; only the s=84 code, at most 1024
    # input bits wide, also has byte tables (for symbols_for).
    from treecodes.pipeline import level_code

    rng = random.Random(21)
    for recipe, s in (("rs", 588), ("concat", 588), ("rs", 84)):
        spec = level_code(s, Fraction(1, 4), recipe, 3 * s)
        w = spec.input_bits
        assert (spec._byte_tables == ()) == (w > 1024)
        xs = [0, 1, 1 << (w - 1), (1 << w) - 1] + [rng.getrandbits(w) for _ in range(6)]
        for x in xs:
            want = 0
            for i, row in enumerate(spec.generator_rows):
                if x >> (w - 1 - i) & 1:
                    want ^= row
            assert spec.encode_int(x) == want, (recipe, s, x.bit_length())


def test_block_code_refuses_inputs_out_of_range():
    # s = 4 memoizes its codewords, s = 16 and s = 20 encode through the
    # byte tables and s = 588 (1,764 input bits) through the wide row pass.
    # Unchecked, a trailing 2 at s = 16 gave the codeword of [0]*46 +
    # [1, 0], a leading 2 or -1 an IndexError from the byte tables, and at
    # s = 588 encode_int(1 << 1764) the codeword of 1 << 1763.  Where
    # input_bits is not a multiple of 8 (s = 4, 20), 2^(8*nb) - 1 fills
    # every byte the table walk reads, so to_bytes alone would accept it.
    # A refused input never reaches the memo.
    for s in (4, 16, 20, 588):
        spec = build_code_c(s, Fraction(1, 4), "rs")
        w = spec.input_bits
        spec.symbols_for(1)
        memo = None if spec._memo is None else dict(spec._memo)
        for bad in ([0] * (w - 1) + [2], [2] + [0] * (w - 1), [-1] + [0] * (w - 1)):
            with pytest.raises(ValueError, match="0 or 1"):
                spec.encode(bad)
        bytes_full = (1 << (8 * -(-w // 8))) - 1
        for bad in (-1, 1 << w, (1 << w) | 1) + ((bytes_full,) if w % 8 else ()):
            for encode in (spec.encode_int, spec.symbols_for):
                with pytest.raises(ValueError, match=r"input must be in \[0, 2\^%d\)" % w):
                    encode(bad)
        assert spec._memo == memo
        assert (spec._byte_tables == ()) == (s == 588)


def _table_path_codes():
    # Every code here has at most 1,024 input bits, so symbols_for walks
    # its lane-laid byte tables: rs over the level widths up to s = 340
    # (1,020 input bits), two concat codes and a boosted rs code of 12*s
    # input bits.
    for s in (2, 4, 16, 20, 32, 84, 340):
        yield build_code_c(s, Fraction(1, 4), "rs")
    for s in (16, 84):
        yield build_code_c(s, Fraction(1, 4), "concat")
    yield build_code_c(84, Fraction(1, 4), "rs", input_bits=12 * 84)


def test_symbols_for_table_walk_is_the_split_codeword():
    rng = random.Random(30)
    for spec in _table_path_codes():
        w = spec.input_bits
        assert 0 < len(spec._byte_tables) == (w + 7) // 8, (spec.recipe, spec.s, w)
        xs = [0, (1 << w) - 1] + [1 << i for i in range(w)]
        xs += [rng.getrandbits(w) for _ in range(20)]
        for x in xs:
            want = spec.split_codeword(spec.encode_int(x))
            assert spec.symbols_for(x) == want, (spec.recipe, spec.s, w, x)


def _split_reference(s, c, out):
    # The per-symbol shift symbols_for used before split_codeword, kept as
    # the reference: O(s^2 c) bit work.
    total = s * c
    mask = (1 << c) - 1
    return tuple((out >> (total - (j + 1) * c)) & mask for j in range(s))


def _recipe_symbol_shapes():
    # Every (s, c_delta) of the schedule levels up to n=10^6 under the rs,
    # concat and boosted recipes (the boosted concat level at s=28812 is
    # infeasible), the s=4 toy code, the concat s=64 test code, and the
    # lane-filling widths 8, 16, 32 and 64, where no field moves.
    from treecodes.linearcode import BoostParams
    from treecodes.pipeline import PipelineConfig, build_schedule, level_c_delta

    shapes = {(4, 5), (64, 105), (16, 8), (20, 16), (7, 32), (5, 64), (3, 1), (1, 9)}
    for recipe in ("rs", "concat"):
        for boost in (None, BoostParams(1, 2)):
            cfg = PipelineConfig(n=10**6, recipe=recipe, boost=boost)
            for lv in build_schedule(cfg.n).levels:
                try:
                    shapes.add((lv.s, level_c_delta(cfg, lv.s)))
                except InfeasibleCodeError:
                    assert (recipe, lv.s) == ("concat", 28812)
    return sorted(shapes)


def test_split_codeword_matches_shift_reference():
    toy = build_code_c(4, Fraction(1, 4), "rs")
    rng = random.Random(15)
    shapes = _recipe_symbol_shapes()
    assert {c for _, c in shapes} >= {5, 10, 15, 17, 63, 154}
    for s, c in shapes:
        spec = dataclasses.replace(toy, s=s, c_delta=c)
        total = s * c
        assert spec.split_codeword(0) == (0,) * s
        assert spec.split_codeword((1 << total) - 1) == ((1 << c) - 1,) * s
        # Known symbols packed through a bit string, split back.
        syms = tuple(rng.getrandbits(c) for _ in range(s))
        packed = int("".join(format(v, "0%db" % c) for v in syms), 2)
        assert spec.split_codeword(packed) == syms, (s, c)
        if s <= 588:
            for out in [0, (1 << total) - 1] + [rng.getrandbits(total) for _ in range(3)]:
                assert spec.split_codeword(out) == _split_reference(s, c, out), (s, c)


"""Tests for the distance oracles, bounds and the Toeplitz baseline."""

import itertools
import math
import random
from fractions import Fraction
from operator import itemgetter

import pytest

from treecodes import verify
from treecodes.core import (
    BLANK, BudgetExceededError, FixedBits, LengthMismatchError, hamming_distance, split,
)
from treecodes.ecc import build_code_c
from treecodes.lagged import LaggedParams, StreamEncoderTruncatedLagged, encode_truncated_lagged
from treecodes.linearcode import encode_int_treecode, encode_tc_a
from treecodes.pascal import LowerTriangularMatrix, pascal_matrix
from treecodes.verify import (
    DistanceReport,
    SmallField,
    SUPPORTED_FIELD_SIZES,
    ToeplitzCode,
    entropy_hr,
    get_field,
    is_mds,
    lagged_distance,
    largest_feasible_delta,
    sample_toeplitz_code,
    singleton_bound,
    toeplitz_condition,
    toeplitz_weight_distance,
    tree_distance_exhaustive,
    tree_distance_relaxed,
    verify_split0_lagged_bound,
    weight_distance_linear,
)


def test_tree_distance_identity_code():
    # Encoding a string as itself has distance exactly ... the worst pair
    # differs only at the split position: value 1/(n - split) minimized at
    # split 0, n = n_max.
    rep = tree_distance_exhaustive(lambda x: x, (0, 1), 3)
    assert rep.value == Fraction(1, 3)
    x, y, sp, d = rep.witness
    assert sp == 0 and d == 1


def test_tree_distance_repetition_code():
    # Repeating each symbol keeps the symbol-level distance ratio at least 1.
    rep = tree_distance_exhaustive(lambda x: [(v, v) for v in x], (0, 1), 3)
    assert rep.value == Fraction(1, 3)


def test_tree_distance_budget():
    with pytest.raises(BudgetExceededError):
        tree_distance_exhaustive(lambda x: x, range(3), 12)


def test_relaxed_at_least_full():
    P = pascal_matrix(4)
    enc = lambda x: encode_tc_a(P, x)
    full = tree_distance_exhaustive(enc, range(3), 4)
    relaxed = tree_distance_relaxed(enc, range(3), 4)
    assert relaxed.value >= full.value


def test_weight_distance_witness_consistency():
    P = pascal_matrix(4)
    rep = weight_distance_linear(P, range(3), 4)
    x, ell, wt = rep.witness
    enc = encode_tc_a(P, x)
    recount = sum((p.a != 0) + (p.b != 0) for p in enc)
    assert recount == wt
    assert rep.value == Fraction(wt, 2 * (len(x) - ell))
    assert rep.value > Fraction(1, 2)


def test_lagged_distance_requires_reachable_lag():
    with pytest.raises(ValueError):
        lagged_distance(lambda x: x, 10, 20, (0, 1), 5)


def test_lagged_distance_budget_counts_the_lengths_scanned():
    # ell = 8, n_max = 10, q = 2: lengths 8..10 hold 687,232 pairs, and
    # lengths 1..10 698,027; only the scanned ones count.
    scanned = sum(2**n * (2**n - 1) // 2 for n in range(8, 11))
    assert scanned == 687_232
    enc = lambda x: x
    rep = lagged_distance(enc, 8, 8, (0, 1), 10, budget=690_000)
    assert rep.value == Fraction(1, 8)
    with pytest.raises(BudgetExceededError):
        lagged_distance(enc, 8, 8, (0, 1), 10, budget=scanned - 1)


def test_singleton_bound_values():
    assert singleton_bound(4, 2, 4) == Fraction(3, 4)
    # sigma = gamma: m* = n, bound = 1/n.
    assert singleton_bound(6, 3, 3) == Fraction(1, 6)
    with pytest.raises(ValueError):
        singleton_bound(0, 2, 2)


def test_is_mds_exact_boundary():
    # delta > 1 - log2/log4 = 1/2 required for sigma=2, gamma=4.
    assert not is_mds(Fraction(1, 2), 2, 4)
    assert is_mds(Fraction(1, 2) + Fraction(1, 1000), 2, 4)


def test_entropy_properties():
    assert entropy_hr(2, 0.5) == pytest.approx(1.0)
    assert entropy_hr(4, 0.0) == 0.0
    assert entropy_hr(4, 0.75) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        entropy_hr(2, 0.9)


def test_toeplitz_condition_and_feasible_delta():
    # Larger output alphabet admits larger delta.
    d16 = largest_feasible_delta(4, 16)
    d256 = largest_feasible_delta(4, 256)
    assert 0 < d16 < d256
    assert toeplitz_condition(4, 16, float(d16))
    assert not toeplitz_condition(4, 16, float(d16 + Fraction(5, 100)))


def test_small_fields_axioms():
    for q in SUPPORTED_FIELD_SIZES:
        F = get_field(q)
        # Additive/multiplicative identities and inverses exist.
        for a in range(q):
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.mul(a, 0) == 0
            assert any(F.add(a, b) == 0 for b in range(q))
            if a:
                assert any(F.mul(a, b) == 1 for b in range(q))
        rng = random.Random(q)
        for _ in range(50):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_small_field_moduli():
    # The element x is the integer p and x^(m-1) is q/p, so their product
    # is x^m reduced by the modulus: x^2+x+1, x^3+x^2+1, x^2+1 and
    # x^4+x^3+1, the first irreducible x^m + c(x) with c's coefficients
    # (c_0, ..., c_{m-1}) in itertools.product order.
    for q, p, want in ((4, 2, 3), (8, 2, 5), (9, 3, 2), (16, 2, 9)):
        assert get_field(q).mul(p, q // p) == want


def test_unsupported_field():
    with pytest.raises(ValueError):
        SmallField(6)


def test_toeplitz_encode_systematic_and_triangular():
    code = sample_toeplitz_code(5, 3, 6, seed=1)
    x = (1, 4, 0, 2, 3, 1)
    out = code.encode(x)
    assert all(sym[0] == xi for sym, xi in zip(out, x))
    F = get_field(5)
    # Recompute coordinate (A_1 x)_2 by hand.
    acc = 0
    for j in range(3):
        acc = F.add(acc, F.mul(code.entry(1, 2, j), x[j]))
    assert out[2][1] == acc


def test_toeplitz_weight_distance_stop_at():
    code = sample_toeplitz_code(4, 2, 5, seed=0)
    full = toeplitz_weight_distance(code)
    early = toeplitz_weight_distance(code, stop_at=Fraction(1, 1))
    assert early.value <= Fraction(1, 1)
    assert full.value <= early.value


def test_weight_scans_without_a_nonzero_vector_raise():
    # No non-zero vector: a lone zero entry, no positions, a code of length
    # 0.  These used to return None in place of a DistanceReport.
    P = pascal_matrix(3)
    with pytest.raises(ValueError, match="no non-zero vector"):
        weight_distance_linear(P, [0], 3)
    with pytest.raises(ValueError, match="no non-zero vector"):
        weight_distance_linear(P, range(3), 0)
    with pytest.raises(ValueError, match="no non-zero vector"):
        toeplitz_weight_distance(sample_toeplitz_code(4, 2, 0, 0))


def test_largest_feasible_delta_needs_r_at_least_2():
    # r = 0 used to end in ZeroDivisionError; the rule is entropy_hr's.
    for r in (-1, 0, 1):
        with pytest.raises(ValueError, match="r must be at least 2"):
            largest_feasible_delta(4, r)


def _split0_min(params, n):
    # The pairs of length n at lag n are exactly those that split at 0.
    return lagged_distance(lambda b: encode_truncated_lagged(params, b), n, n, (0, 1), n).value


def test_split0_bound_check_matches_brute_force():
    spec = build_code_c(4, Fraction(1, 4), "rs")
    params = LaggedParams(4, 8, spec)

    def mk():
        return StreamEncoderTruncatedLagged(params)

    true_min = _split0_min(params, 8)
    ok = verify_split0_lagged_bound(mk, 8, 4, true_min)
    assert ok.ok
    too_high = verify_split0_lagged_bound(mk, 8, 4, true_min + Fraction(1, 8))
    assert not too_high.ok
    x1, x2, d = too_high.violator
    assert Fraction(d) < (true_min + Fraction(1, 8)) * 8
    assert (x1 ^ x2) >> 7 == 1


def test_split0_bound_check_prunes():
    spec = build_code_c(4, Fraction(1, 4), "rs")
    params = LaggedParams(4, 8, spec)

    def mk():
        return StreamEncoderTruncatedLagged(params)

    loose = verify_split0_lagged_bound(mk, 8, 4, Fraction(1, 100))
    tight = verify_split0_lagged_bound(mk, 8, 4, _split0_min(params, 8))
    assert loose.ok and tight.ok
    assert loose.nodes <= tight.nodes


def _reference_pair_ratios(encode, alphabet, lengths, lags):
    # The pair walk the index-range scan replaced, kept as the reference:
    # every pair in (i, j) order, its split computed and its lag filtered,
    # one Fraction per compared pair.
    for n in lengths:
        strings = list(itertools.product(alphabet, repeat=n))
        encs = [tuple(encode(s)) for s in strings]
        for i in range(len(strings)):
            for j in range(i + 1, len(strings)):
                sp = split(strings[i], strings[j])
                if n - sp not in lags:
                    continue
                d = hamming_distance(encs[i], encs[j])
                yield Fraction(d, n - sp), (strings[i], strings[j], sp, d)


def _reference_minimum(ratios, space):
    best = min(ratios, key=itemgetter(0), default=None)
    return None if best is None else DistanceReport(best[0], best[1], space)


_REFERENCE_ENCODERS = {
    "identity": lambda x: x,
    "pascal-tc-a": lambda x: encode_tc_a(pascal_matrix(4), x),
    "int-treecode": lambda x: encode_int_treecode(list(x)),
    # Not online: a later symbol changes earlier outputs.
    "sorted": lambda x: tuple(sorted(x)),
    "suffix-sums": lambda x: tuple(sum(x[i:]) % 3 for i in range(len(x))),
    "sorted-twice": lambda x: tuple(sorted(x)) * 2,
    # Every distance is 0, so the witness must be the very first pair.
    "constant": lambda x: ("c",) * len(x),
    "empty": lambda x: (),
    # Non-int symbols with many tied distances.
    "mixed-symbols": lambda x: tuple(BLANK if v == 0 else FixedBits(2, v) for v in x)
    + ("s%d" % (sum(x) % 2),),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_ENCODERS))
def test_tree_distances_match_pair_walk_reference(name):
    encode = _REFERENCE_ENCODERS[name]
    for alphabet in ((0, 1), (0, 1, 2), (2, 0, 1)):
        q = len(alphabet)
        for n in range(1, 5):
            lengths = range(1, n + 1)
            assert tree_distance_exhaustive(encode, alphabet, n) == _reference_minimum(
                _reference_pair_ratios(encode, alphabet, lengths, lengths),
                "n<=%d over %d symbols" % (n, q)), (alphabet, n)
            assert tree_distance_relaxed(encode, alphabet, n) == _reference_minimum(
                _reference_pair_ratios(encode, alphabet, range(n, n + 1), lengths),
                "n=%d exactly" % n), (alphabet, n)


def test_lagged_distance_matches_pair_walk_reference():
    spec = build_code_c(4, Fraction(1, 4), "rs")
    for a, ell, L, n_max in ((2, 4, 8, 8), (2, 1, 3, 6), (3, 3, 6, 7)):
        params = LaggedParams(4, a * 4, spec)
        enc = lambda bits: encode_truncated_lagged(params, bits)
        for alphabet in ((0, 1), (1, 0)):
            want = _reference_minimum(
                _reference_pair_ratios(enc, alphabet, range(ell, n_max + 1), range(ell, L + 1)),
                "lag in [%d,%d]" % (ell, L))
            assert lagged_distance(enc, ell, L, alphabet, n_max) == want, (a, ell, L, alphabet)


@pytest.mark.parametrize("name", ["identity", "sorted-twice", "suffix-sums"])
def test_tree_distances_match_pair_walk_reference_at_three_symbols_to_n5(name):
    # Widths 4..10 at n = 4, 5 need agreement counters of three and four
    # bit planes; sorted-twice reaches the top plane with equal encodings.
    encode, alphabet, n = _REFERENCE_ENCODERS[name], (0, 1, 2), 5
    lengths = range(1, n + 1)
    assert tree_distance_exhaustive(encode, alphabet, n) == _reference_minimum(
        _reference_pair_ratios(encode, alphabet, lengths, lengths), "n<=5 over 3 symbols")
    assert tree_distance_relaxed(encode, alphabet, n) == _reference_minimum(
        _reference_pair_ratios(encode, alphabet, range(n, n + 1), lengths), "n=5 exactly")


def test_encodings_of_one_length_must_share_a_width():
    """The width is checked over every encoding of a length, not only over
    the pairs compared: at n = 2 with lag 1 only 00/01 and 10/11 are
    compared, which agree in width, yet 0x and 1x do not."""
    encode = lambda x: x + (0,) * (x[0] * (len(x) - 1))
    with pytest.raises(LengthMismatchError):
        lagged_distance(encode, 1, 1, (0, 1), 2)
    with pytest.raises(LengthMismatchError):
        tree_distance_exhaustive(lambda x: x + (0,) * x[0], (0, 1), 2)


def test_reported_witness_is_re_evaluated(monkeypatch):
    monkeypatch.setattr(verify, "hamming_distance", lambda x, y: -1)
    with pytest.raises(AssertionError, match="re-evaluates"):
        tree_distance_exhaustive(lambda x: x, (0, 1), 2)


def test_exhaustive_distances_fail_loudly_without_pairs():
    for call in (
        lambda: tree_distance_exhaustive(lambda x: x, (0, 1), 0),
        lambda: tree_distance_exhaustive(lambda x: x, (0,), 3),
        lambda: tree_distance_relaxed(lambda x: x, (0, 1), 0),
        lambda: tree_distance_relaxed(lambda x: x, (5,), 2),
        lambda: lagged_distance(lambda x: x, 2, 3, (0,), 4),
    ):
        with pytest.raises(ValueError, match="no pair"):
            call()


def test_exhaustive_distances_reject_repeated_symbols():
    for call in (
        lambda: tree_distance_exhaustive(lambda x: x, (0, 1, 0), 2),
        lambda: tree_distance_relaxed(lambda x: x, (0, 1, 1), 2),
        lambda: lagged_distance(lambda x: x, 1, 2, (1, 1), 2),
    ):
        with pytest.raises(ValueError, match="distinct"):
            call()


def test_exhaustive_distances_need_hashable_symbols():
    with pytest.raises(TypeError, match="hashable"):
        tree_distance_exhaustive(lambda x: [[v] for v in x], (0, 1), 2)
    with pytest.raises(TypeError, match="hashable"):
        lagged_distance(lambda x: [[v] for v in x], 1, 2, (0, 1), 2)

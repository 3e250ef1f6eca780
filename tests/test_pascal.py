"""Tests for the Pascal matrix and the staircase-minor machinery."""

import math
import random

import pytest

from treecodes.core import BudgetExceededError
from treecodes.pascal import (
    LowerTriangularMatrix,
    MinorIndexPair,
    TnsVerdict,
    all_staircase_minors_positive,
    bareiss_determinant,
    is_totally_nonsingular,
    iter_staircase_pairs,
    minor_determinant,
    pascal_matrix,
    search_tns,
    staircase_pair_count,
)


def test_pascal_entries():
    P = pascal_matrix(5)
    assert P.n == 6
    for i in range(6):
        for j in range(6):
            assert P.entry(i, j) == (math.comb(i, j) if j <= i else 0)


def test_bareiss_matches_known_determinants():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    # Vandermonde 3x3 on (1, 2, 4): product of differences = 1*3*2 = 6.
    v = [[1, 1, 1], [1, 2, 4], [1, 4, 16]]
    assert bareiss_determinant(v) == 6
    # Singular with a zero pivot forcing a row swap.
    assert bareiss_determinant([[0, 1], [0, 2]]) == 0
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1


def test_bareiss_random_against_cofactor_expansion():
    def det_slow(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        return sum(
            (-1) ** j * m[0][j] * det_slow([row[:j] + row[j + 1:] for row in m[1:]])
            for j in range(n)
        )

    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(m) == det_slow(m)


def test_staircase_pair_validation():
    with pytest.raises(ValueError):
        MinorIndexPair((2, 1), (0, 1))
    with pytest.raises(ValueError):
        MinorIndexPair((), ())


def test_staircase_count_matches_enumeration():
    for n in range(1, 10):
        assert staircase_pair_count(n) == sum(1 for _ in iter_staircase_pairs(n))


def test_pascal_is_tns_small():
    for n in range(0, 5):
        v = is_totally_nonsingular(pascal_matrix(n))
        assert v.ok and v.witness is None


def test_identity_rejected_with_witness():
    I5 = LowerTriangularMatrix.identity(5)
    v = is_totally_nonsingular(I5)
    assert not v.ok
    assert v.witness is not None
    assert minor_determinant(I5, v.witness) == 0


def test_minor_determinant_pascal_positive_samples():
    P = pascal_matrix(6)
    rng = random.Random(3)
    pairs = list(iter_staircase_pairs(7))
    for pair in rng.sample(pairs, 100):
        assert minor_determinant(P, pair) > 0


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        is_totally_nonsingular(pascal_matrix(20), budget=10)


def test_search_tns_exhaustive_tiny():
    found = search_tns(2, 1)
    assert found is not None
    assert is_totally_nonsingular(found).ok
    assert all(v in (-1, 1) for row in found.rows for v in row)


def test_search_tns_seeded():
    found = search_tns(3, 2, seed=0)
    assert found is not None
    assert is_totally_nonsingular(found).ok


def test_search_tns_bound_zero():
    assert search_tns(2, 0) is None


def _reference_scan(A):
    # The per-minor canonical scan the Sylvester-identity kernel replaced,
    # kept as the reference: one Bareiss elimination per staircase minor.
    # Returns the TNS verdict and the strict positivity of every minor.
    positive = True
    for checked, pair in enumerate(iter_staircase_pairs(A.n), 1):
        det = minor_determinant(A, pair)
        positive = positive and det > 0
        if det == 0:
            return TnsVerdict(False, pair, checked), False
    return TnsVerdict(True, None, staircase_pair_count(A.n)), positive


def _reference_cases():
    rng = random.Random(17)
    mats = [pascal_matrix(n) for n in range(10)] + [LowerTriangularMatrix.identity(6)]
    for _ in range(300):
        n = rng.randint(1, 6)
        bound = rng.choice((1, 2, 3))
        mats.append(LowerTriangularMatrix(tuple(
            tuple(rng.randint(-bound, bound) for _ in range(i + 1)) for i in range(n))))
    # Entries in {1, 2} are never zero: failures come from larger minors.
    for _ in range(100):
        n = rng.randint(2, 6)
        mats.append(LowerTriangularMatrix(tuple(
            tuple(rng.choice((1, 2)) for _ in range(i + 1)) for i in range(n))))
    return mats


def test_tns_kernel_matches_per_minor_reference():
    failing = 0
    for A in _reference_cases():
        want, positive = _reference_scan(A)
        assert is_totally_nonsingular(A) == want, A.rows
        assert all_staircase_minors_positive(A) == positive, A.rows
        failing += not want.ok
    assert failing > 200


def test_tns_witness_is_smallest_failing_minor():
    # A also has the zero 3x3 minor I=(2,3,4), J=(0,2,3); the witness is
    # the smallest zero minor in (r, I, J), at position 34 in canonical order.
    A = LowerTriangularMatrix(((2,), (-1, 2), (3, 1, 2), (3, 2, 1, 3), (-1, 2, -1, 1, -1)))
    assert minor_determinant(A, MinorIndexPair((2, 3, 4), (0, 2, 3))) == 0
    v = is_totally_nonsingular(A)
    assert v == TnsVerdict(False, MinorIndexPair((1, 4), (0, 1)), 34)
    assert v == _reference_scan(A)[0]


def test_positive_scan_budget_guard():
    with pytest.raises(BudgetExceededError):
        all_staircase_minors_positive(pascal_matrix(20), budget=10)

import itertools
import math

from hypothesis import given
from hypothesis import strategies as st

from lie2.signs import chi, koszul_sign, sign, unshuffles


def test_swap_of_two_odd_slots():
    assert koszul_sign([1, 1], (1, 0)) == -1
    assert chi([1, 1], (1, 0)) == 1


def test_swap_of_two_even_slots():
    assert koszul_sign([0, 0], (1, 0)) == 1
    assert chi([0, 0], (1, 0)) == -1


def test_identity_permutation():
    for degs in ([0], [1, 1], [0, 1, 0]):
        ident = tuple(range(len(degs)))
        assert koszul_sign(degs, ident) == 1
        assert chi(degs, ident) == 1


def test_mixed_swap():
    # moving an odd element past an even one costs nothing beyond the sign
    assert koszul_sign([0, 1], (1, 0)) == 1
    assert chi([0, 1], (1, 0)) == -1


def test_unshuffle_counts_exhaustive():
    for n in range(2, 9):
        for j in range(1, n):
            out = unshuffles(j, n)
            assert len(out) == math.comb(n, j)
            assert len(set(out)) == len(out)


def test_unshuffle_monotone_blocks():
    for sigma in unshuffles(2, 5):
        assert list(sigma[:2]) == sorted(sigma[:2])
        assert list(sigma[2:]) == sorted(sigma[2:])


def test_unshuffle_small_cases():
    assert len(unshuffles(1, 2)) == 2
    assert len(unshuffles(2, 4)) == 6
    assert unshuffles(3, 3) == [(0, 1, 2)]


perm4 = st.permutations(range(4))
degrees4 = st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4)


@given(degrees4, perm4, perm4)
def test_koszul_multiplicative(degs, sigma, tau):
    # reorder by sigma, then by tau: total permutation b -> sigma[tau[b]]
    combined = tuple(sigma[t] for t in tau)
    permuted_degs = [degs[s] for s in sigma]
    assert koszul_sign(degs, combined) == \
        koszul_sign(degs, sigma) * koszul_sign(permuted_degs, tau)


@given(perm4)
def test_all_even_chi_is_sign(sigma):
    assert chi([0, 0, 0, 0], sigma) == sign(sigma)


@given(perm4)
def test_all_odd_chi_is_plus_one(sigma):
    assert koszul_sign([1, 1, 1, 1], sigma) == sign(sigma)
    assert chi([1, 1, 1, 1], sigma) == 1


def test_sign_matches_inversion_parity():
    for sigma in itertools.permutations(range(4)):
        inversions = sum(1 for a, b in itertools.combinations(range(4), 2)
                         if sigma[a] > sigma[b])
        assert sign(sigma) == (-1) ** inversions

"""Koszul signs and unshuffle enumeration for graded multilinear identities.

Permutations are tuples ``sigma`` of length n whose entry ``sigma[a]`` is the
0-based index of the argument placed in slot ``a``; degree signatures are
sequences of non-negative integers, one per argument slot.  Every permutation
and signature the engine passes in comes from ``unshuffles`` and
``linfty.jacobi_samples``, so none is checked here.
"""

from __future__ import annotations

import itertools
from typing import Sequence

Permutation = tuple[int, ...]


def sign(sigma: Sequence[int]) -> int:
    """Sign of a permutation, from inversion parity."""
    inversions = sum(
        1 for a, b in itertools.combinations(range(len(sigma)), 2) if sigma[a] > sigma[b]
    )
    return -1 if inversions % 2 else 1


def koszul_sign(degrees: Sequence[int], sigma: Sequence[int]) -> int:
    """Sign picked up by reordering graded factors x_0 ^ ... ^ x_{n-1}.

    Each crossing of two factors of degrees d_i, d_j contributes (-1)^(d_i d_j);
    the crossings of ``sigma`` are exactly its inversion pairs.
    """
    weight = 0
    for a, b in itertools.combinations(range(len(sigma)), 2):
        if sigma[a] > sigma[b]:
            weight += degrees[sigma[a]] * degrees[sigma[b]]
    return -1 if weight % 2 else 1


def chi(degrees: Sequence[int], sigma: Sequence[int]) -> int:
    """Product of the permutation sign and the Koszul sign.

    Depends on the degrees of the slots only, not on the elements themselves.
    """
    return sign(sigma) * koszul_sign(degrees, sigma)


def unshuffles(j: int, n: int) -> list[Permutation]:
    """All permutations increasing on the first j and on the last n-j slots,
    for 1 <= j <= n.

    Values are strictly increasing on each block (permutation entries are
    distinct).  Returned in lexicographic order of the first block; there are
    C(n, j) of them.  ``j == n`` yields only the identity, so callers can sum
    over arities uniformly.
    """
    universe = range(n)
    return [head + tuple(i for i in universe if i not in head)
            for head in itertools.combinations(universe, j)]

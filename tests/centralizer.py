"""The reference Z(sigma_h) of the tests: every element of a centralizer, as tuples."""

from functools import cache
from itertools import permutations, product

from stratavol.permutation import Perm, compose, cycles, inverse


@cache
def centralizer_elements(p: Perm) -> tuple[Perm, ...]:
    """All elements of the centralizer of p in S_n, as a cached tuple.

    z commutes with p iff it maps each cycle of p onto a cycle of the same
    length, at one of its rotations; so Z(p) is the product over the cycle
    lengths L, with m_L cycles each, of C_L wr S_{m_L}.  Each element is
    listed as the map from the cycles of p, concatenated, onto one choice
    of image cycles and rotations, the identity first.
    """
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cyc in cycles(p):
        by_length.setdefault(len(cyc), []).append(cyc)
    images = [
        [
            sum((cyc[r:] + cyc[:r] for cyc, r in zip(order, shifts)), ())
            for order in permutations(group)
            for shifts in product(range(length), repeat=len(group))
        ]
        for length, group in by_length.items()
    ]
    source = inverse(sum((cyc for group in by_length.values() for cyc in group), ()))
    return tuple(compose(sum(image, ()), source) for image in product(*images))

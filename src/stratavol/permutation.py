"""Small permutation toolkit on tuples.

A permutation of {0,..,n-1} is a tuple ``p`` of length n with ``p[i]`` the
image of ``i``.  Composition follows the function convention:
``compose(p, q)`` applies ``q`` first.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate, permutations, product
from math import factorial, prod
from typing import Iterable, Iterator

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (compose(p, q))(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def conjugate(pi: Perm, p: Perm) -> Perm:
    """pi o p o pi^{-1}."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[pi[i]] = pi[j]
    return tuple(out)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycles of p, each starting at its minimal element, sorted by it."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def indexed_cycles(p: Perm) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The cycles of p, as `cycles` lists them, and the index of each point's cycle."""
    cycs = tuple(cycles(p))
    index = [0] * len(p)
    for i, cyc in enumerate(cycs):
        for x in cyc:
            index[x] = i
    return cycs, tuple(index)


def cycle_count(p: Perm) -> int:
    seen = [False] * len(p)
    count = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
    return count


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths sorted non-increasingly."""
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def conjugator(p: Perm, q: Perm) -> Perm:
    """A permutation pi with pi o p o pi^{-1} = q.

    The cycles of p, taken in order of length, are mapped element by
    element onto the cycles of q of the same length.
    """
    p_cycles = sorted(cycles(p), key=len)
    q_cycles = sorted(cycles(q), key=len)
    if [len(c) for c in p_cycles] != [len(c) for c in q_cycles]:
        raise ValueError("p and q must have the same cycle type")
    pi = [0] * len(p)
    for p_cyc, q_cyc in zip(p_cycles, q_cycles):
        for a, b in zip(p_cyc, q_cyc):
            pi[a] = b
    return tuple(pi)


def is_transitive(p: Perm, q: Perm) -> bool:
    """Does the group generated by p and q act transitively on {0,..,n-1}?"""
    n = len(p)
    if n == 0:
        return False
    seen = [False] * n
    stack = [0]
    seen[0] = True
    found = 1
    while stack:
        i = stack.pop()
        for j in (p[i], q[i]):
            if not seen[j]:
                seen[j] = True
                found += 1
                stack.append(j)
    return found == n


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n as non-increasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def from_cycles(cycs: Iterable[tuple[int, ...]], n: int) -> Perm:
    """The permutation of {0,..,n-1} with the given cycles, fixing every other point."""
    img = list(range(n))
    for cyc in cycs:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return tuple(img)


def from_cycle_type(ctype: tuple[int, ...]) -> Perm:
    """Canonical representative with the given cycle type on consecutive blocks."""
    starts = accumulate(ctype, initial=0)
    return from_cycles([tuple(range(s, s + m)) for s, m in zip(starts, ctype)], sum(ctype))


def multiplicity_factorial(parts) -> int:
    """prod_i m_i! over the multiplicities m_i of the values in parts."""
    return prod(factorial(m) for m in Counter(parts).values())


def centralizer_order(ctype: tuple[int, ...]) -> int:
    """|Z(p)| in S_n for p of the given cycle type: prod_i i^{m_i} m_i!."""
    return prod(ctype) * multiplicity_factorial(ctype)


@cache
def centralizer_elements(p: Perm) -> tuple[Perm, ...]:
    """All elements of the centralizer of p in S_n, as a cached tuple.

    z commutes with p iff it maps each cycle of p onto a cycle of the same
    length, at one of its rotations; so Z(p) is the product over the cycle
    lengths L, with m_L cycles each, of C_L wr S_{m_L}.  Each element is
    listed as the map from the cycles of p, concatenated, onto one choice
    of image cycles and rotations, the identity first.  Raises
    AssertionError unless there are centralizer_order elements.
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
    elems = tuple(compose(sum(image, ()), source) for image in product(*images))
    if len(elems) != centralizer_order(cycle_type(p)):
        raise AssertionError(f"centralizer has {len(elems)} elements, not the centralizer order")
    return elems

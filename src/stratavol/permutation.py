"""Small permutation toolkit on tuples.

A permutation of {0,..,n-1} is a tuple ``p`` of length n with ``p[i]`` the
image of ``i``.  Composition follows the function convention:
``compose(p, q)`` applies ``q`` first.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial, prod
from typing import Iterator

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


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


def from_cycle_type(ctype: tuple[int, ...]) -> Perm:
    """Canonical representative with the given cycle type on consecutive blocks."""
    img: list[int] = []
    start = 0
    for length in ctype:
        img.extend(range(start + 1, start + length))
        img.append(start)
        start += length
    return tuple(img)


def multiplicity_factorial(parts) -> int:
    """prod_i m_i! over the multiplicities m_i of the values in parts."""
    return prod(factorial(m) for m in Counter(parts).values())


def centralizer_order(ctype: tuple[int, ...]) -> int:
    """|Z(p)| in S_n for p of the given cycle type: prod_i i^{m_i} m_i!."""
    return prod(ctype) * multiplicity_factorial(ctype)


def centralizer_generators(p: Perm) -> list[Perm]:
    """Generators of the centralizer of p in S_n.

    One rotation per cycle plus one swap for each adjacent pair of
    equal-length cycles.
    """
    n = len(p)
    gens: list[Perm] = []
    cycs = cycles(p)
    for cyc in cycs:
        if len(cyc) > 1:
            g = list(range(n))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                g[a] = b
            gens.append(tuple(g))
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cyc in cycs:
        by_length.setdefault(len(cyc), []).append(cyc)
    for group in by_length.values():
        for c1, c2 in zip(group, group[1:]):
            g = list(range(n))
            for a, b in zip(c1, c2):
                g[a] = b
                g[b] = a
            gens.append(tuple(g))
    return gens


@cache
def centralizer_elements(p: Perm) -> tuple[Perm, ...]:
    """All elements of the centralizer of p in S_n, as a cached tuple.

    The breadth-first closure of the identity under the generators of
    Z(p), so the identity comes first.  Raises AssertionError unless the
    closure has centralizer_order elements.
    """
    gens = centralizer_generators(p)
    elems = [identity(len(p))]
    seen = set(elems)
    for elem in elems:
        for g in gens:
            moved = compose(g, elem)
            if moved not in seen:
                seen.add(moved)
                elems.append(moved)
    if len(elems) != centralizer_order(cycle_type(p)):
        raise AssertionError("centralizer closure does not have the centralizer order")
    return tuple(elems)

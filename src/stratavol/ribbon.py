"""One-face bipartite ribbon graphs, integral metrics, and positive trees.

Conventions
-----------

A graph in the enumerated family has k black vertices labeled 1..k, l white
vertices labeled 1..l, one boundary component, and genus g, which forces
E = k + l - 1 + 2g edges.  Every edge joins a black vertex to a white one,
so an edge carries one dart at each end; identifying both darts of edge e
with the index e gives the compact encoding used here:

* ``rho_black``: permutation of the edge set, sending each edge to the next
  edge counterclockwise around its black endpoint (cycles = black vertices);
* ``rho_white``: the same around white endpoints;
* the boundary components are the cycles of rho_black o rho_white, so the
  one-face condition says that product is a single E-cycle.

Since all E-cycles are conjugate, every isomorphism class has a
representative whose product is the fixed cycle sigma = (0 1 .. E-1), and
isomorphisms between such representatives are exactly conjugations by
powers of sigma (the centralizer of an E-cycle is the cyclic group it
generates).  Enumeration keeps one object per orbit, the least: it scans
rho_black over S_E and keeps it iff no rotation conjugates it to a smaller
permutation, then keeps a labeling of its vertices iff no rotation fixing
rho_black maps it to a smaller labeling.  |Aut| of a class is the number of
rotations that fix both rho_black and the labeling.

The metric count of a graph depends only on its labeled edge multiset, the
(black label, white label) pairs of its edges, and not on the cyclic
orders.  So a family sum runs over the multisets, each weighted by the sum
of 1/|Aut| over its classes.  At genus >= 1 a multiset is counted by a
transfer over its distinct edge pairs, with the remaining perimeters as
the state.  At genus 0 the multisets are the spanning trees of K_{k,l},
listed directly with their weights, and the family is never enumerated.

A linear form on H_{k,l} with coefficients 0, 1 on the black perimeters and
0, -1 on the white ones is an ``int`` bit mask over the k + l vertices: bit
i < k stands for +L_{i+1} and bit k + j for -L'_{j+1}.  ``_form_values(p)``
lists the value at p of every mask, so each reader takes a form's value by
indexing that one table.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations as _all_perms
from itertools import product
from math import comb, factorial

from .permutation import (
    Perm,
    compose,
    conjugate,
    cycle_count,
    indexed_cycles,
    inverse,
)
from .pnum import p_bw_value

__all__ = [
    "RibbonGraph",
    "PerimeterPair",
    "Wall",
    "enumerate_graphs",
    "counting_function",
    "count_positive_trees",
    "wall_sample_point",
    "p0_oracle",
    "fit_ray_polynomial",
    "verify_wall_constancy",
    "MAX_EDGES",
]

MAX_EDGES = 8

# Wall sampling: the largest block total drawn, and the draws allowed
# before giving up on a point of the open wall.
SAMPLE_MAX = 10**6
SAMPLE_TRIES = 500


@dataclass(frozen=True)
class RibbonGraph:
    """Bipartite combinatorial map with labeled colored vertices.

    ``black_labels[e]`` / ``white_labels[e]`` give the 1-based label of the
    black / white endpoint of edge e.
    """

    rho_black: Perm
    rho_white: Perm
    black_labels: tuple[int, ...]
    white_labels: tuple[int, ...]


@dataclass(frozen=True)
class PerimeterPair:
    """Prescribed vertex perimeters: black tuple L and white tuple L'."""

    black: tuple
    white: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "black", tuple(self.black))
        object.__setattr__(self, "white", tuple(self.white))

    def is_balanced(self) -> bool:
        return sum(self.black) == sum(self.white)

    def scale(self, c) -> "PerimeterPair":
        return PerimeterPair(
            tuple(c * x for x in self.black), tuple(c * x for x in self.white)
        )


@dataclass(frozen=True)
class Wall:
    """The block wall W^b_w of H_{k,l}.

    The black vertices 1..k are cut into consecutive blocks of the sizes in
    ``black_blocks`` and the white vertices 1..l into consecutive blocks of
    the sizes in ``white_blocks``; the wall is the locus where every black
    block has the same perimeter sum as the white block of the same index.
    A single block gives all of H_{k,l}.
    """

    black_blocks: tuple[int, ...]
    white_blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.black_blocks) != len(self.white_blocks):
            raise ValueError("b and w must have the same length")
        if not self.black_blocks:
            raise ValueError("a wall needs at least one block")
        if any(x < 1 for x in self.black_blocks + self.white_blocks):
            raise ValueError("block sizes must be >= 1")

    @property
    def k(self) -> int:
        return sum(self.black_blocks)

    @property
    def l(self) -> int:
        return sum(self.white_blocks)

    @staticmethod
    def full_space(k: int, l: int) -> "Wall":
        return Wall((k,), (l,))

    @staticmethod
    def partition_wall(b: tuple[int, ...], w: tuple[int, ...]) -> "Wall":
        """The block wall with consecutive black blocks b and white blocks w."""
        return Wall(tuple(b), tuple(w))

    @staticmethod
    def diagonal(n: int) -> "Wall":
        """V_n = {L_1 = L'_1, .., L_n = L'_n} inside H_{n,n}."""
        return Wall((1,) * n, (1,) * n)

    def implies(self, form: int) -> bool:
        """Whether the form (a vertex mask) vanishes on the whole wall.

        The wall is cut out by the block equations, so a 0/1/-1 form
        vanishes on it iff it is a sum of block equations: iff each block's
        vertex mask, black and white bits alike, lies wholly inside the form
        or wholly outside it.
        """
        b_start, w_start = 0, self.k
        for bi, wi in zip(self.black_blocks, self.white_blocks):
            block = ((1 << bi) - 1) << b_start | ((1 << wi) - 1) << w_start
            if form & block not in (0, block):
                return False
            b_start += bi
            w_start += wi
        return True


# ---------------------------------------------------------------------------
# Enumeration of the graph families
# ---------------------------------------------------------------------------

def _sigma(e: int) -> Perm:
    return tuple((i + 1) % e for i in range(e))


def _edge_count(g: int, k: int, l: int) -> int:
    """E = k + l - 1 + 2g of the (g, k, l) family, checked against the bounds."""
    if g < 0 or k < 1 or l < 1:
        raise ValueError("need g >= 0, k >= 1, l >= 1")
    n_edges = k + l - 1 + 2 * g
    if n_edges > MAX_EDGES:
        raise ValueError(
            f"(g,k,l)=({g},{k},{l}) needs {n_edges} edges; bound is {MAX_EDGES}"
        )
    return n_edges


def enumerate_graphs(g: int, k: int, l: int) -> list[tuple[RibbonGraph, int]]:
    """All isomorphism classes of the (g, k, l) family with |Aut| counts."""
    return list(_enumerate_graphs(g, k, l))


@cache
def _enumerate_graphs(g: int, k: int, l: int) -> tuple[tuple[RibbonGraph, int], ...]:
    """The classes of enumerate_graphs, cached as a tuple that no caller can change."""
    n_edges = _edge_count(g, k, l)
    sigma = _sigma(n_edges)
    rotations = [
        tuple((i + j) % n_edges for i in range(n_edges)) for j in range(n_edges)
    ]

    # Base pairs: rho_black with k cycles whose partner has l cycles, each the
    # least of its conjugates under the sigma-rotations; the other rotations
    # that fix it act on its labelings below.
    classes: list[tuple[RibbonGraph, int]] = []
    for rho_b in _all_perms(range(n_edges)):
        if cycle_count(rho_b) != k:
            continue
        rho_w = compose(inverse(rho_b), sigma)
        if cycle_count(rho_w) != l:
            continue
        orbit = [conjugate(rot, rho_b) for rot in rotations]
        if min(orbit) != rho_b:
            continue
        symmetries = [rot for rot, image in zip(rotations[1:], orbit[1:]) if image == rho_b]
        classes.extend(_labeled_classes(rho_b, rho_w, symmetries))
    return tuple(classes)


def _labeled_classes(
    rho_b: Perm, rho_w: Perm, symmetries: list[Perm]
) -> list[tuple[RibbonGraph, int]]:
    """One labeling pair per isomorphism class of one base pair, with |Aut|.

    A pair is kept iff no symmetry maps it to a smaller one; its |Aut| is 1
    plus the number of symmetries that fix it.
    """
    n_edges = len(rho_b)
    b_cycles, b_idx = indexed_cycles(rho_b)
    w_cycles, w_idx = indexed_cycles(rho_w)
    # Induced action of each symmetry on cycle indices.
    actions = [
        ([b_idx[rot[cyc[0]]] for cyc in b_cycles], [w_idx[rot[cyc[0]]] for cyc in w_cycles])
        for rot in symmetries
    ]
    out = []
    for lb in _all_perms(range(1, len(b_cycles) + 1)):
        for lw in _all_perms(range(1, len(w_cycles) + 1)):
            aut = 1
            for b_map, w_map in actions:
                image = (tuple(lb[ci] for ci in b_map), tuple(lw[ci] for ci in w_map))
                if image < (lb, lw):
                    break
                aut += image == (lb, lw)
            else:
                graph = RibbonGraph(
                    rho_b,
                    rho_w,
                    tuple(lb[b_idx[e]] for e in range(n_edges)),
                    tuple(lw[w_idx[e]] for e in range(n_edges)),
                )
                out.append((graph, aut))
    return out


# ---------------------------------------------------------------------------
# Integral metrics
# ---------------------------------------------------------------------------


def _form_values(p: PerimeterPair) -> list:
    """The value at p of every form on H_{k,l}, indexed by its vertex mask."""
    values = [0]
    for x in p.black + tuple(-y for y in p.white):
        values += [v + x for v in values]
    return values


@cache
def _multigraphs(g: int, k: int, l: int) -> dict:
    """The (g, k, l) family folded onto its labeled edge multisets.

    Maps each sorted tuple of (black label, white label) edge pairs to its
    weight, the sum of 1/|Aut| over the classes with that multiset.  The
    metric count of a graph depends only on which vertices its edges join,
    not on the cyclic orders, so a family sum over classes equals the
    weighted sum over multisets.  A weight is an ``int`` when every class
    with its multiset has |Aut| = 1.
    """
    weights: dict[tuple[tuple[int, int], ...], int | Fraction] = {}
    for graph, aut in _enumerate_graphs(g, k, l):
        edges = tuple(sorted(zip(graph.black_labels, graph.white_labels)))
        weights[edges] = weights.get(edges, 0) + (1 if aut == 1 else Fraction(1, aut))
    return weights


@cache
def _trees(k: int, l: int) -> dict[int, int]:
    """The k^(l-1) l^(k-1) spanning trees of K_{k,l}, the (0, k, l) family.

    Maps each tree's bridge forms, as an ``int`` bitset with bit m set iff
    the mask m is one of them, to its weight prod_v (deg v - 1)!: its plane
    embeddings, each a class with |Aut| = 1.  The trees are rooted at black
    vertex 0 and built from their rooted subtrees, each listed once per root
    and vertex set S.  The edge from a subtree's root up to its parent has
    bridge form S if that root is black, and the complement of S if white.
    """
    full = (1 << k + l) - 1

    @cache
    def forests(roots: int, vertices: int) -> list[tuple[int, int, int]]:
        """(bits, weight, tree count) of each forest on ``vertices`` with roots in ``roots``.

        The forest hangs from one vertex outside it; a weight counts the
        orders of the children of the vertices inside.
        """
        if not vertices:
            return [(0, 1, 0)]
        low = vertices & -vertices
        out = []
        # The tree holding the lowest vertex: its vertex set, its root c,
        # the forest below c and the forest on the other vertices.
        for picks in product(*((0, 1 << v) for v in range(k + l) if (vertices ^ low) >> v & 1)):
            tree = low + sum(picks)
            rest = forests(roots, vertices ^ tree)
            for c in range(k + l):
                if (tree & roots) >> c & 1:
                    form = 1 << (tree if c < k else full ^ tree)
                    for bits, weight, children in forests(full ^ roots, tree ^ 1 << c):
                        bits, weight = form | bits, weight * factorial(children)
                        out += [(bits | b, weight * w, count + 1) for b, w, count in rest]
        return out

    whites = full ^ (1 << k) - 1
    return {bits: weight * factorial(count - 1) for bits, weight, count in forests(whites, full ^ 1)}


@cache
def _walk(edges: tuple, k: int) -> tuple:
    """The (b, w, m, left[b], left[w]) of ``_count_metrics``, listed once per multiset."""
    pairs = sorted(Counter((b - 1, k + w - 1) for b, w in edges).items())
    left = [0] * (k + max(w for _, w in edges))
    for (b, w), m in pairs:
        left[b] += m
        left[w] += m
    walk = []
    for (b, w), m in pairs:
        left[b] -= m
        left[w] -= m
        walk.append((b, w, m, left[b], left[w]))
    return tuple(walk)


def _count_metrics(edges: tuple[tuple[int, int], ...], p: PerimeterPair) -> int:
    """Metric count on one labeled edge multiset at a balanced positive integer point.

    ``edges`` lists the (black label, white label) pair of each edge.  The
    m parallel edges of one distinct pair carry a total t >= m in
    C(t - 1, m - 1) ways.  The pairs are walked in sorted order; a state is
    the tuple of remaining perimeters, mapped to its number of ways.
    ``left[v]`` counts the edges at v not walked yet, each of weight >= 1,
    so a pair takes at most rem[v] - left[v] from an end v, and all of
    rem[v] from an end it closes.  Every vertex closes, so the count is the
    sum of the final states.
    """
    states = {p.black + p.white: 1}
    for b, w, m, left_b, left_w in _walk(edges, len(p.black)):
        walked: dict[tuple, int] = {}
        for rem, ways in states.items():
            lo = max(m, 0 if left_b else rem[b], 0 if left_w else rem[w])
            hi = min(rem[b] - left_b, rem[w] - left_w)
            # b < w: black vertices come first
            head, mid, tail = rem[:b], rem[b + 1:w], rem[w + 1:]
            for t in range(lo, hi + 1):
                key = head + (rem[b] - t,) + mid + (rem[w] - t,) + tail
                walked[key] = walked.get(key, 0) + ways * comb(t - 1, m - 1)
        states = walked
    return sum(states.values())


def _family_sum(g: int, k: int, l: int, p: PerimeterPair):
    """Sum of w * _count_metrics over the (g, k, l) family's edge multisets.

    The family and the arity of p are checked first, and at genus >= 1 the
    perimeters must be integers.  An unbalanced point, or one with a
    perimeter <= 0, admits no positive metric on any graph, so it gives 0
    before the family is listed.  At genus 0 a tree carries one metric iff
    all its bridge forms are positive, so the sum is the weight of the
    trees whose bitset misses every nonpositive form; there the point may
    be rational.
    """
    _edge_count(g, k, l)
    if len(p.black) != k or len(p.white) != l:
        raise ValueError("perimeter arity does not match the graph")
    if g and not all(isinstance(x, int) for x in p.black + p.white):
        raise ValueError("metric counts at genus >= 1 need integer perimeters")
    if not p.is_balanced() or any(x <= 0 for x in p.black + p.white):
        return 0
    if g == 0:
        nonpositive = sum(1 << m for m, value in enumerate(_form_values(p)) if value <= 0)
        return sum(w for bits, w in _trees(k, l).items() if not bits & nonpositive)
    return sum(w * _count_metrics(edges, p) for edges, w in _multigraphs(g, k, l).items())


def counting_function(g: int, k: int, l: int, p: PerimeterPair) -> Fraction:
    """Automorphism-weighted metric count over the whole (g, k, l) family.

    The sum runs over the family's labeled edge multisets, each with its
    weight; see ``_multigraphs``, ``_trees`` and ``_family_sum``.  At
    genus >= 1 each multiset's metrics are counted by ``_count_metrics``,
    and the perimeters must be ``int``: any other value, even ``5.0`` or
    ``Fraction(5)``, raises ValueError.  At genus 0 they may be rational.
    """
    return Fraction(_family_sum(g, k, l, p))


def count_positive_trees(k: int, l: int, p: PerimeterPair) -> int:
    """Number of trees of the (0, k, l) family positive at the given point.

    Perimeters may be arbitrary rationals; only the signs of the induced
    edge weights matter.  The sum runs over the spanning trees of K_{k,l},
    each weighted by its number of plane embeddings (see ``_trees``), so the
    count is an int.
    """
    return int(_family_sum(0, k, l, p))


# ---------------------------------------------------------------------------
# Walls: sampling and the positive-tree oracle
# ---------------------------------------------------------------------------


def _all_forms(k: int, l: int) -> range:
    """Every form (vertex mask) on H_{k,l} but the empty and the full one."""
    return range(1, 2 ** (k + l) - 1)


def _open_wall_forms(wall: Wall) -> list[int]:
    """The forms the wall does not imply: none vanishes at a point of its open part."""
    return [form for form in _all_forms(wall.k, wall.l) if not wall.implies(form)]


def _random_parts(rng: random.Random, total: int, n: int) -> list[int]:
    """total split into n positive parts at n - 1 distinct random cuts."""
    cuts = [0] + sorted(rng.sample(range(1, total), n - 1)) + [total]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def wall_sample_point(wall: Wall, seed: int = 0) -> PerimeterPair:
    """A positive integer point in the open part of the wall.

    Each block draws a total T in [max(b_i, w_i), SAMPLE_MAX] and splits it
    into b_i black and w_i white positive parts at random cuts, so the
    point lies on the wall; draws on which a form the wall does not imply
    vanishes are rejected.  Deterministic for a given seed.
    """
    forms = _open_wall_forms(wall)
    rng = random.Random(seed)
    for _ in range(SAMPLE_TRIES):
        black: list[int] = []
        white: list[int] = []
        for bi, wi in zip(wall.black_blocks, wall.white_blocks):
            total = rng.randint(max(bi, wi), SAMPLE_MAX)
            black += _random_parts(rng, total, bi)
            white += _random_parts(rng, total, wi)
        point = PerimeterPair(tuple(black), tuple(white))
        values = _form_values(point)
        if all(values[m] for m in forms):
            return point
    raise ValueError(f"no point of the open wall in {SAMPLE_TRIES} draws")


def p0_oracle(b: tuple[int, ...], w: tuple[int, ...], seed: int = 0) -> int:
    """Positive-tree count at a generic point of the block wall W^b_w.

    Brute-force oracle for the p-numbers: lists every spanning tree of
    K_{k,l} and tests positivity of its forced weights at a sampled point.
    """
    k, l = sum(b), sum(w)
    if k > 4 or l > 4:
        raise ValueError("oracle bound: sum(b) <= 4 and sum(w) <= 4")
    wall = Wall.partition_wall(b, w)
    point = wall_sample_point(wall, seed=seed)
    return count_positive_trees(k, l, point)


# ---------------------------------------------------------------------------
# Ray interpolation
# ---------------------------------------------------------------------------


def fit_ray_polynomial(
    g: int, k: int, l: int, p: PerimeterPair, c_max: int
) -> list[Fraction]:
    """Interpolate c -> counting_function(g, k, l, c*p) as an exact polynomial.

    The point p must lie in an open cell, so the whole ray c*p stays in it
    and the counting function restricted to the ray is a polynomial of
    degree at most 2g.  Newton forward differences at c = 1..c_max recover
    it; differences of order above 2g must vanish, otherwise the cell
    assumption is wrong and a ValueError is raised.

    Returns the monomial coefficients [a_0, .., a_deg] in c.
    """
    if c_max < 2 * g + 2:
        raise ValueError("c_max must be at least 2g + 2")
    values = [
        counting_function(g, k, l, p.scale(c)) for c in range(1, c_max + 1)
    ]
    diffs: list[Fraction] = []
    row = [Fraction(v) for v in values]
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    for j in range(2 * g + 1, len(diffs)):
        if diffs[j] != 0:
            raise ValueError(
                f"finite difference of order {j} is {diffs[j]} != 0: "
                "degree bound 2g violated (point not in an open cell?)"
            )
    # Newton form f(c) = sum_j a_j (c - 1)..(c - j) with a_j = diffs[j] / j!,
    # folded by Horner's rule: coeffs <- coeffs * (c - (j + 1)) + a_j.
    coeffs: list[Fraction] = []
    for j in range(2 * g, -1, -1):
        coeffs = [
            a - (j + 1) * b
            for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])
        ]
        coeffs[0] += diffs[j] / factorial(j)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# Wall-crossing constancy checks
# ---------------------------------------------------------------------------


def _sign_pattern(k: int, l: int, p: PerimeterPair) -> tuple[int, ...]:
    values = _form_values(p)
    return tuple((values[m] > 0) - (values[m] < 0) for m in _all_forms(k, l))


def verify_wall_constancy() -> bool:
    """Constancy of the positive-tree count across open cells.

    Checks, for k = l <= 3, that points of distinct top-dimensional cells
    of H^+ all give (k + l - 2)! positive trees, and that points of at
    least four distinct open cells of H^+ intersected with the open
    diagonal wall V_3 all give the same count p_{2,2,2} = 11 (similarly
    V_2 and p_{2,2} = 1).
    """
    for k in (1, 2, 3):
        expected = factorial(2 * k - 2)
        patterns = set()
        for seed in range(6):
            point = wall_sample_point(Wall.full_space(k, k), seed=seed)
            patterns.add(_sign_pattern(k, k, point))
            if count_positive_trees(k, k, point) != expected:
                return False
        if k > 1 and len(patterns) < 2:
            return False

    # H^+ of V_2 has exactly two open cells (only sign(L_1 - L_2) varies);
    # V_3 has at least four.
    for n, required, lengths_pool in (
        (2, 2, [(5, 1), (1, 5), (2, 7), (9, 4)]),
        (3, 4, [(1, 2, 4), (2, 3, 4), (4, 2, 1), (3, 4, 2), (1, 4, 2), (4, 3, 2)]),
    ):
        forms = _open_wall_forms(Wall.diagonal(n))
        expected = p_bw_value((1,) * n, (1,) * n)
        patterns = set()
        for lengths in lengths_pool:
            point = PerimeterPair(lengths, lengths)
            values = _form_values(point)
            if not all(values[m] for m in forms):
                raise ValueError(f"cell point {lengths} is not in the open wall")
            patterns.add(_sign_pattern(n, n, point))
            if count_positive_trees(n, n, point) != expected:
                return False
        if len(patterns) < required:
            return False
    return True

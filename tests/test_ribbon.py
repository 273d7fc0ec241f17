import hashlib
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import comb, factorial

import pytest

from stratavol.permutation import compose, conjugate, cycle_count, cycles, inverse
from stratavol.pnum import compositions, p_value, pgvn_polynomial
from stratavol.ribbon import (
    MAX_EDGES,
    PerimeterPair,
    RibbonGraph,
    Wall,
    count_positive_trees,
    counting_function,
    enumerate_graphs,
    fit_ray_polynomial,
    p0_oracle,
    verify_wall_constancy,
    wall_sample_point,
)
from stratavol.ribbon import (
    _all_forms,
    _count_metrics,
    _enumerate_graphs,
    _multigraphs,
    _sign_pattern,
    _trees,
)


def block_walls(max_size=4):
    """Every block wall with k, l <= max_size."""
    return [
        Wall(b, w)
        for k in range(1, max_size + 1)
        for l in range(1, max_size + 1)
        for n in range(1, min(k, l) + 1)
        for b in compositions(k, n)
        for w in compositions(l, n)
    ]


def decode(mask, k, l):
    """A form's vertex mask as its (blacks, whites) 0-based index tuples."""
    blacks = tuple(i for i in range(k) if mask >> i & 1)
    whites = tuple(j for j in range(l) if mask >> (k + j) & 1)
    return blacks, whites


def block_sums(blocks, values):
    sums, start = [], 0
    for size in blocks:
        sums.append(sum(values[start:start + size]))
        start += size
    return sums


# The rational row reduction that Wall.implies replaced, kept here as the
# reference only: a form vanishes on the wall iff its coefficient vector
# reduces to zero against the balance relation and the block equations.


def reference_rref(rows):
    """Reduced row-echelon form over the rationals; zero rows dropped."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return mat[:r]


def reference_implies(wall, form):
    k, l = wall.k, wall.l

    def vector(blacks, whites):
        vec = [0] * (k + l)
        for i in blacks:
            vec[i] = 1
        for j in whites:
            vec[k + j] = -1
        return vec

    rows = [vector(range(k), range(l))]
    b_start = w_start = 0
    for bi, wi in zip(wall.black_blocks, wall.white_blocks):
        rows.append(vector(range(b_start, b_start + bi), range(w_start, w_start + wi)))
        b_start += bi
        w_start += wi
    v = vector(*form)
    for row in reference_rref(rows):
        pivot = next(i for i, x in enumerate(row) if x != 0)
        if v[pivot] != 0:
            factor = v[pivot]
            v = [a - factor * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


# The free-edge scan that _count_metrics replaced, kept here as the
# reference only: every free edge ranges over its interval, and the tree
# edges are checked on the residual perimeters through bridge forms found by
# one DFS per tree edge.


@cache
def reference_tree(graph):
    """(ends, free edges, bridge forms) of a DFS tree.

    The bridge forms map each tree edge's index to the (blacks, whites)
    sets of its black endpoint's side of the tree minus that edge.
    """
    k, l = max(graph.black_labels), max(graph.white_labels)
    ends = [(b - 1, k + w - 1) for b, w in zip(graph.black_labels, graph.white_labels)]
    adjacency = {v: [] for v in range(k + l)}
    for e, (b, w) in enumerate(ends):
        adjacency[b].append((w, e))
        adjacency[w].append((b, e))
    tree_edges, visited, stack = [], {0}, [0]
    while stack:
        v = stack.pop()
        for u, e in adjacency[v]:
            if u not in visited:
                visited.add(u)
                tree_edges.append(e)
                stack.append(u)
    forms = {}
    for removed in tree_edges:
        component, stack = {ends[removed][0]}, [ends[removed][0]]
        while stack:
            v = stack.pop()
            for u, e in adjacency[v]:
                if e in tree_edges and e != removed and u not in component:
                    component.add(u)
                    stack.append(u)
        forms[removed] = ({v for v in component if v < k}, {v - k for v in component if v >= k})
    free_edges = [e for e in range(len(ends)) if e not in tree_edges]
    return ends, free_edges, forms


def reference_count_metrics(graph, p):
    black, white = p.black, p.white
    if sum(black) != sum(white) or min(black + white) < 1:
        return 0
    k = max(graph.black_labels)
    ends, free_edges, forms = reference_tree(graph)
    ranges = [range(1, min(black[ends[e][0]], white[ends[e][1] - k]) + 1) for e in free_edges]
    total = 0
    for assignment in product(*ranges):
        res_black, res_white = list(black), list(white)
        for e, value in zip(free_edges, assignment):
            b, w = ends[e]
            res_black[b] -= value
            res_white[w - k] -= value
        total += all(
            sum(res_black[i] for i in blacks) - sum(res_white[j] for j in whites) >= 1
            for blacks, whites in forms.values()
        )
    return total


# The enumeration that enumerate_graphs replaced, kept here as the reference
# only: base pairs and labelings are classified by recording every orbit
# already met, with a separate path for base pairs without symmetry.


def reference_labeled_classes(rho_b, rho_w, rotations, stab):
    n_edges = len(rho_b)
    b_cycles, w_cycles = cycles(rho_b), cycles(rho_w)
    k, l = len(b_cycles), len(w_cycles)
    b_idx, w_idx = [0] * n_edges, [0] * n_edges
    for idx, perm_cycles in ((b_idx, b_cycles), (w_idx, w_cycles)):
        for ci, cyc in enumerate(perm_cycles):
            for e in cyc:
                idx[e] = ci

    def build(lb, lw, aut):
        graph = RibbonGraph(
            rho_b,
            rho_w,
            tuple(lb[b_idx[e]] for e in range(n_edges)),
            tuple(lw[w_idx[e]] for e in range(n_edges)),
        )
        return graph, aut

    if stab == [0]:
        return [
            build(lb, lw, 1)
            for lb in permutations(range(1, k + 1))
            for lw in permutations(range(1, l + 1))
        ]
    actions = []
    for j in stab:
        rot = rotations[j]
        b_map = tuple(b_idx[rot[cyc[0]]] for cyc in b_cycles)
        w_map = tuple(w_idx[rot[cyc[0]]] for cyc in w_cycles)
        actions.append((b_map, w_map))
    out, seen = [], set()
    for lb in permutations(range(1, k + 1)):
        for lw in permutations(range(1, l + 1)):
            if (lb, lw) in seen:
                continue
            orbit, aut = set(), 0
            for b_map, w_map in actions:
                moved_b = tuple(lb[b_map[ci]] for ci in range(k))
                moved_w = tuple(lw[w_map[ci]] for ci in range(l))
                orbit.add((moved_b, moved_w))
                if (moved_b, moved_w) == (lb, lw):
                    aut += 1
            seen.update(orbit)
            out.append(build(lb, lw, aut))
    return out


def reference_enumerate_graphs(g, k, l):
    n_edges = k + l - 1 + 2 * g
    sigma = tuple((i + 1) % n_edges for i in range(n_edges))
    rotations = [
        tuple((i + j) % n_edges for i in range(n_edges)) for j in range(n_edges)
    ]
    base_seen, classes = set(), []
    for rho_b in permutations(range(n_edges)):
        if cycle_count(rho_b) != k:
            continue
        rho_w = compose(inverse(rho_b), sigma)
        if cycle_count(rho_w) != l:
            continue
        orbit = [conjugate(rot, rho_b) for rot in rotations]
        if min(orbit) in base_seen:
            continue
        base_seen.add(min(orbit))
        stab = [j for j, image in enumerate(orbit) if image == rho_b]
        classes.extend(reference_labeled_classes(rho_b, rho_w, rotations, stab))
    return classes


# The per-class family sums that the fold onto labeled edge multisets
# replaced, kept here as the reference only: every class of the family is
# counted on its own, by the reference scan and the reference bridge forms.


def reference_counting_function(g, k, l, p):
    return sum(
        (
            Fraction(reference_count_metrics(graph, p), aut)
            for graph, aut in enumerate_graphs(g, k, l)
        ),
        Fraction(0),
    )


def reference_trees(k, l):
    """enumerate_graphs(0, k, l) folded onto bridge-form bitsets, weights sum 1/|Aut|.

    The bridge forms come from reference_tree, as vertex masks (black i is
    bit i, white j is bit k + j); bit m of a bitset is set iff m is one of
    them.  They depend only on a class's edges, so reference_tree runs once
    per edge multiset.
    """
    folded = {}
    for graph, aut in enumerate_graphs(0, k, l):
        edges = tuple(sorted(zip(graph.black_labels, graph.white_labels)))
        first, weight = folded.get(edges, (graph, 0))
        folded[edges] = (first, weight + Fraction(1, aut))
    trees = {}
    for graph, weight in folded.values():
        bits = sum(
            1 << (sum(1 << i for i in blacks) + sum(1 << k + j for j in whites))
            for blacks, whites in reference_tree(graph)[2].values()
        )
        assert bits not in trees, graph
        trees[bits] = weight
    return trees


def reference_positive_trees(k, l, p):
    return sum(
        all(
            sum(p.black[i] for i in blacks) > sum(p.white[j] for j in whites)
            for blacks, whites in reference_tree(tree)[2].values()
        )
        for tree, _ in enumerate_graphs(0, k, l)
    )


def metric_count(graph, p):
    """The metric count of one graph at a balanced positive integer point."""
    return _count_metrics(tuple(zip(graph.black_labels, graph.white_labels)), p)


def forced_weights(tree, p):
    """A tree's forced edge weights at p, in edge order: its reference bridge forms' values."""
    forms = reference_tree(tree)[2]
    return tuple(
        sum(p.black[i] for i in forms[e][0]) - sum(p.white[j] for j in forms[e][1])
        for e in range(len(forms))
    )


def stirling_first(n, k):
    """The signed Stirling number of the first kind s(n, k)."""
    row = [1]  # s(0, 0)
    for m in range(n):
        # s(m + 1, j) = s(m, j - 1) - m s(m, j)
        row = [a - m * b for a, b in zip([0] + row, row + [0])]
    return row[k] if k < len(row) else 0


def balanced_points(k, l, max_side):
    """Every positive integer point with sum L = sum L' <= max_side."""
    return [
        PerimeterPair(black, white)
        for side in range(max(k, l), max_side + 1)
        for black in compositions(side, k)
        for white in compositions(side, l)
    ]


def points_up_to(k, l, max_total):
    """Every point with entries >= 0 and perimeter total <= max_total."""
    return [
        PerimeterPair(black, white)
        for black in product(range(max_total + 1), repeat=k)
        for white in product(range(max_total + 1), repeat=l)
        if sum(black) + sum(white) <= max_total
    ]


def jackson_weight(g, k, l):
    """Sum of 1/|Aut| over the (g, k, l) family, by Jackson's formula.

    Jackson (J. Combin. Theory A 49 (1988)): the factorizations of a fixed
    E-cycle into a permutation with k cycles and one with l cycles number
    A = E! sum_{p,q >= 1} (E-1)! / ((p-1)! (q-1)! (E-p-q+1)!) s(p,k)/p!
    s(q,l)/q!, s the signed Stirling numbers of the first kind.  The
    labelings multiply that by k! l! and the E rotations of the cycle
    divide it by E: the family weighs A k! l! / E.
    """
    edges = k + l - 1 + 2 * g
    a = factorial(edges) * sum(
        Fraction(
            factorial(edges - 1) * stirling_first(p, k) * stirling_first(q, l),
            factorial(p - 1) * factorial(q - 1) * factorial(edges - p - q + 1),
        )
        / (factorial(p) * factorial(q))
        for p in range(1, edges + 1)
        for q in range(1, edges + 2 - p)
    )
    return a * factorial(k) * factorial(l) / edges


def families(n_edges):
    """Every (g, k, l) whose graphs have n_edges edges."""
    return [
        (g, k, n_edges + 1 - 2 * g - k)
        for g in range(n_edges // 2 + 1)
        for k in range(1, n_edges + 1 - 2 * g)
    ]


# SHA-256 of repr(enumerate_graphs(g, k, l)) for every 7-edge family, taken
# from reference_enumerate_graphs.
ENUMERATION_DIGESTS_AT_7 = {
    (0, 1, 7): "8689f021b4f9b34e6b79cd151bacedb8967e1f5616b13ff9227af882a4c2de9d",
    (0, 2, 6): "d5547cfb0da622285df841e1edd6eb47cfce8d73cd04dd3dbb091f134b47c574",
    (0, 3, 5): "cb8a9b41b3210c448636fb68ea4ec3313522cf843ef583b17049cf9f176c8772",
    (0, 4, 4): "7edfdb5a170431a9015b25bd0d6d52b472d4e526627682b94be267339cc81032",
    (0, 5, 3): "941e2d34e852760b86cd08d575d992fc399f445590f304cdacded107c3439715",
    (0, 6, 2): "2f7712f7d05eb9f2e5ca0c487c402ff6c5d2277f9fdb26102f4aad6aca00dd7d",
    (0, 7, 1): "aa1cbc523e44ec2b8093e491529dd97613abc6757158306270aaaa21a2ca15ee",
    (1, 1, 5): "7bb84cb834bb041085c277cb485664669c3d31c763262dc7b347d77b6b19ff22",
    (1, 2, 4): "429a7fd2b98c3ea43ee0b45af06ef8ad1c67f3c33c034708c594b217a7de36a1",
    (1, 3, 3): "d083213c0aefdd9c91111b4ac163f90445c8a93153b049c05778412a5a56f305",
    (1, 4, 2): "b8bc08640b3ba0bb770c3a34c54ce4bce4f253d38d7b1adcf7da8bee832ee1e0",
    (1, 5, 1): "8ff589e6b65c582777fcd001a8ee8cffc7fc9ad964f97d2bf530e2cc2aeaebb2",
    (2, 1, 3): "f1d095cc39c06c50c707de0f8be458773d76f6f163cded44703e43c5c2dd1a30",
    (2, 2, 2): "92a33dbe01e6b1f024dbc5f322a4e45ff42fb47b167e33d59310a2a5f6cd9bac",
    (2, 3, 1): "cfb459613af8518c4316014a03acf0517bb2904378c68e8e110eb38ff6435fc2",
    (3, 1, 1): "8809930d5f4052661940455a4ae2180f17d149320493c2c4eb0d0978a95903a8",
}


class TestEnumeration:
    def test_single_edge(self):
        classes = enumerate_graphs(0, 1, 1)
        assert len(classes) == 1 and classes[0][1] == 1

    def test_four_spanning_paths(self):
        classes = enumerate_graphs(0, 2, 2)
        assert len(classes) == 4
        assert all(aut == 1 for _, aut in classes)

    def test_genus_one_triple_edge(self):
        classes = enumerate_graphs(1, 1, 1)
        assert len(classes) == 1 and classes[0][1] == 3

    def test_returned_list_is_the_callers_own(self):
        # clearing the list a caller got back leaves the family whole; the
        # folded family is dropped so that counting_function lists it again
        enumerate_graphs(1, 1, 1).clear()
        _multigraphs.cache_clear()
        assert counting_function(1, 1, 1, PerimeterPair((4,), (4,))) == 1
        assert len(enumerate_graphs(1, 1, 1)) == 1

    def test_trees_have_trivial_automorphisms(self):
        for k, l in [(1, 2), (2, 2), (3, 2), (3, 3)]:
            assert all(aut == 1 for _, aut in enumerate_graphs(0, k, l))

    @pytest.mark.parametrize(
        "k, l", [(1, 1), (1, 2), (2, 2), (3, 2), (2, 4), (3, 3), (4, 3), (4, 4)]
    )
    def test_tree_counts_match_narayana_formula(self, k, l):
        # Minimal factorizations of an E-cycle into (k cycles) o (l cycles)
        # are counted by the Narayana number N(E, k); labels contribute
        # k! l! and the E rotations act freely since trees are rigid.
        edges = k + l - 1
        narayana = comb(edges, k) * comb(edges, k - 1) // edges
        expected = narayana * factorial(k) * factorial(l) // edges
        assert len(enumerate_graphs(0, k, l)) == expected

    def test_structural_invariants(self):
        for g, k, l in [(0, 2, 3), (1, 2, 1), (1, 2, 2), (2, 1, 1)]:
            for graph, aut in enumerate_graphs(g, k, l):
                faces = cycle_count(compose(graph.rho_black, graph.rho_white))
                assert faces == 1
                assert k + l - len(graph.rho_black) + faces == 2 - 2 * g
                assert sorted(set(graph.black_labels)) == list(range(1, k + 1))
                assert sorted(set(graph.white_labels)) == list(range(1, l + 1))
                assert aut >= 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_graphs(3, 2, 2)  # would need 9 edges

    @pytest.mark.parametrize("g, k, l", [f for n in range(1, 8) for f in families(n)])
    def test_weighted_count_matches_jackson_formula(self, g, k, l):
        weight = sum(Fraction(1, aut) for _, aut in enumerate_graphs(g, k, l))
        assert weight == jackson_weight(g, k, l)

    @pytest.mark.parametrize("g, k, l", [f for n in range(1, 7) for f in families(n)])
    def test_matches_reference_enumeration(self, g, k, l):
        # every family with <= 6 edges, the symmetric (1,1,1), (2,1,1) and
        # (2,1,2) among them: same classes, same order, same |Aut|
        assert enumerate_graphs(g, k, l) == reference_enumerate_graphs(g, k, l)

    @pytest.mark.parametrize("g, k, l", sorted(ENUMERATION_DIGESTS_AT_7))
    def test_seven_edges_pinned(self, g, k, l):
        text = repr(enumerate_graphs(g, k, l))
        assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_DIGESTS_AT_7[g, k, l]

    @pytest.mark.parametrize("g, k, l", [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 2, 2)])
    def test_orbit_sizes_account_for_all_labeled_structures(self, g, k, l):
        # each class meets the fixed-face normal form in edges/|Aut| labeled
        # structures, so the class list must tile the labeled count exactly
        from itertools import permutations as all_perms

        from stratavol.permutation import cycle_count as cc, compose as co, inverse as inv

        edges = k + l - 1 + 2 * g
        sigma = tuple((i + 1) % edges for i in range(edges))
        bases = sum(
            1
            for rho in all_perms(range(edges))
            if cc(rho) == k and cc(co(inv(rho), sigma)) == l
        )
        labeled = bases * factorial(k) * factorial(l)
        classes = enumerate_graphs(g, k, l)
        assert sum(Fraction(edges, aut) for _, aut in classes) == labeled


class TestCountMetrics:
    def test_single_edge_tree(self):
        # the (0, 1, 1) family is the single edge, whose metric count is the
        # family sum
        for point, expected in ((PerimeterPair((7,), (7,)), 1), (PerimeterPair((0,), (0,)), 0)):
            assert counting_function(0, 1, 1, point) == expected
            assert count_positive_trees(1, 1, point) == expected

    def test_triple_edge_compositions(self):
        graph, _ = enumerate_graphs(1, 1, 1)[0]
        for length in range(1, 9):
            expected = (length - 1) * (length - 2) // 2
            assert metric_count(graph, PerimeterPair((length,), (length,))) == expected

    def test_balance_forces_zero(self):
        # off sum L = sum L' no graph of the family carries a metric
        point = PerimeterPair((5, 2), (4, 2))
        assert counting_function(0, 2, 2, point) == 0
        assert count_positive_trees(2, 2, point) == 0

    def test_metric_assignment_round_trip(self):
        # the forced tree weights sum back to the prescribed perimeters at
        # every vertex, whatever their signs
        point = PerimeterPair((5, 1), (4, 2))
        for tree, _ in enumerate_graphs(0, 2, 2):
            black, white = [0, 0], [0, 0]
            for e, w in enumerate(forced_weights(tree, point)):
                b, wl = tree.black_labels[e], tree.white_labels[e]
                black[b - 1] += w
                white[wl - 1] += w
            assert PerimeterPair(tuple(black), tuple(white)) == point

    @pytest.mark.parametrize(
        "g, k, l, max_total",
        [
            (1, 1, 1, 16), (1, 2, 1, 12), (1, 2, 2, 10), (2, 1, 1, 14),
            (1, 2, 3, 10), (2, 1, 2, 12), (3, 1, 1, 8), (1, 3, 3, 7),
        ],
    )
    def test_matches_reference_scan(self, g, k, l, max_total):
        # every point with perimeter total <= max_total: zero perimeters,
        # unbalanced points and wall points such as L_1 = L'_1 included; off
        # the balanced positive points the family sum is 0 before any graph
        # is counted.  The trees are compared in
        # TestPositiveTrees::test_matches_reference_scan.
        graphs = [graph for graph, _ in enumerate_graphs(g, k, l)]
        for point in points_up_to(k, l, max_total):
            if point.is_balanced() and min(point.black + point.white) >= 1:
                for graph in graphs:
                    assert metric_count(graph, point) == reference_count_metrics(
                        graph, point
                    ), (graph, point)
            else:
                # the reference returns 0 there before it reads the graph,
                # so one class stands for all of them
                assert counting_function(g, k, l, point) == 0
                assert reference_count_metrics(graphs[0], point) == 0, point

    @pytest.mark.parametrize(
        "g, k, l, point",
        [
            (1, 2, 3, PerimeterPair((5, 4), (3, 3, 3))),
            (1, 2, 4, PerimeterPair((5, 4), (3, 2, 2, 2))),
            (1, 3, 3, PerimeterPair((4, 3, 2), (3, 3, 3))),
            (2, 1, 2, PerimeterPair((8,), (5, 3))),
            (2, 2, 2, PerimeterPair((4, 4), (5, 3))),
        ],
    )
    def test_multisets_match_reference_scan_at_nonzero_points(self, g, k, l, point):
        # the grids above reach no nonzero count of the families with 6 or
        # 7 edges but (2, 1, 2); here every edge multiset is counted against
        # the reference scan on one of its classes
        graphs = {}
        for graph, _ in enumerate_graphs(g, k, l):
            graphs.setdefault(tuple(sorted(zip(graph.black_labels, graph.white_labels))), graph)
        for edges, graph in graphs.items():
            assert _count_metrics(edges, point) == reference_count_metrics(graph, point), edges
        assert counting_function(g, k, l, point) > 0

    def test_tree_metric_is_indicator_of_positive_weights(self):
        # on a tree the metric count is 0 or 1, deciding positivity of the
        # unique forced weight vector; every (0, 2, 2) class has |Aut| = 1,
        # so the family sum counts the trees whose weights are all positive
        points = [
            PerimeterPair((5, 1), (4, 2)),
            PerimeterPair((2, 2), (3, 1)),
            PerimeterPair((6, 3), (5, 4)),
        ]
        trees = [tree for tree, _ in enumerate_graphs(0, 2, 2)]
        for point in points:
            expected = [int(all(w > 0 for w in forced_weights(tree, point))) for tree in trees]
            assert [reference_count_metrics(tree, point) for tree in trees] == expected
            assert counting_function(0, 2, 2, point) == sum(expected)
            assert count_positive_trees(2, 2, point) == sum(expected)


class TestCountingFunction:
    def test_tree_value(self):
        for length in (1, 4, 9):
            assert counting_function(0, 1, 1, PerimeterPair((length,), (length,))) == 1

    def test_genus_one_weighted(self):
        assert counting_function(1, 1, 1, PerimeterPair((4,), (4,))) == 1

    def test_two_by_two(self):
        assert counting_function(0, 2, 2, PerimeterPair((5, 1), (4, 2))) == 2

    @pytest.mark.parametrize(
        "point",
        [
            PerimeterPair((9, 9, 9, 9), (9, 9, 9, 9, 9)),
            PerimeterPair((0, 9, 9, 9), (9, 9, 9, 9, -9)),
        ],
    )
    def test_infeasible_point_skips_family(self, point):
        caches = (_enumerate_graphs, _multigraphs, _trees)
        before = [reader.cache_info() for reader in caches]
        assert counting_function(0, 4, 5, point) == 0
        assert [reader.cache_info() for reader in caches] == before

    def test_genus_zero_lists_no_classes(self):
        # every genus-0 reader sums over _trees, never over enumerate_graphs
        before = _enumerate_graphs.cache_info()
        point = wall_sample_point(Wall.full_space(4, 5), seed=1)
        assert counting_function(0, 4, 5, point) == count_positive_trees(4, 5, point) == 5040
        assert p0_oracle((2, 2), (1, 3), seed=1) == p_value((3, 5))
        assert verify_wall_constancy()
        assert _enumerate_graphs.cache_info() == before

    @pytest.mark.parametrize("g", [-1, 9])
    def test_family_checked_at_every_point(self, g):
        # an unbalanced point gives 0 only within a family that exists
        point = PerimeterPair((1,), (2,))
        match = "need g >= 0" if g < 0 else f"needs 19 edges; bound is {MAX_EDGES}"
        with pytest.raises(ValueError, match=match):
            counting_function(g, 1, 1, point)

    def test_arity_checked_first(self):
        with pytest.raises(ValueError, match="arity"):
            counting_function(0, 4, 5, PerimeterPair((9, 9, 9), (9, 9, 9, 9, 9)))

    @pytest.mark.parametrize("x", [Fraction(5, 2), Fraction(5), 5.0], ids=["5/2", "Fraction(5)", "5.0"])
    def test_genus_one_needs_integer_perimeters(self, x):
        # metrics at genus >= 1 are lattice points; genus 0 keeps rational
        # points (TestPositiveTrees::test_rational_points_allowed)
        with pytest.raises(ValueError, match="need integer perimeters"):
            counting_function(1, 1, 1, PerimeterPair((x,), (x,)))

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_parallel_edge_families(self, g):
        # the (g, 1, 1) family is one multiset of 2g + 1 parallel edges,
        # whose metrics at (L; L) are the compositions of L into 2g + 1 parts
        weight = jackson_weight(g, 1, 1)
        for length in range(1, 41):
            point = PerimeterPair((length,), (length,))
            assert counting_function(g, 1, 1, point) == weight * comb(length - 1, 2 * g)

    @pytest.mark.parametrize("g, k, l", [f for n in range(1, 7) for f in families(n)])
    def test_matches_per_class_sum(self, g, k, l):
        # the multiset fold against the sum over every class, at every
        # positive balanced point with side sum <= 5, walls included
        for point in balanced_points(k, l, 5):
            assert counting_function(g, k, l, point) == reference_counting_function(
                g, k, l, point
            ), point


class TestTreeWeights:
    def test_single_edge(self):
        tree, _ = enumerate_graphs(0, 1, 1)[0]
        assert forced_weights(tree, PerimeterPair((7,), (7,))) == (7,)

    def test_path_example(self):
        # the path with edges b2-w2, b1-w2, b1-w1 at (5,1;4,2) carries (1,1,4)
        for tree, _ in enumerate_graphs(0, 2, 2):
            ends = list(zip(tree.black_labels, tree.white_labels))
            if sorted(ends) == [(1, 1), (1, 2), (2, 2)]:
                weights = dict(zip(ends, forced_weights(tree, PerimeterPair((5, 1), (4, 2)))))
                assert weights[(2, 2)] == 1
                assert weights[(1, 2)] == 1
                assert weights[(1, 1)] == 4
                break
        else:
            pytest.fail("path tree not found")


class TestTreeArity:
    @pytest.mark.parametrize(
        "point",
        [PerimeterPair((3, 3, 1), (4, 3)), PerimeterPair((3,), (1, 2))],
        ids=["long", "short"],
    )
    @pytest.mark.parametrize("reader", ["count_positive_trees"])
    def test_mismatch_rejected(self, reader, point):
        # a (0, 2, 2) reader at a point of another arity
        with pytest.raises(ValueError, match="perimeter arity does not match the graph"):
            count_positive_trees(2, 2, point)


class TestPositiveTrees:
    def test_single_edge(self):
        assert count_positive_trees(1, 1, PerimeterPair((5,), (5,))) == 1

    def test_worked_examples(self):
        assert count_positive_trees(2, 2, PerimeterPair((5, 1), (4, 2))) == 2
        assert count_positive_trees(2, 2, PerimeterPair((5, 1), (5, 1))) == 1

    def test_unbalanced_point_gives_zero(self):
        # no tree metric exists off sum L = sum L', whatever the signs of
        # the bridge forms there
        assert count_positive_trees(1, 1, PerimeterPair((5,), (3,))) == 0
        assert count_positive_trees(2, 2, PerimeterPair((5, 1), (4, 3))) == 0

    def test_rational_points_allowed(self):
        point = PerimeterPair((Fraction(7, 2), Fraction(1, 2)), (Fraction(5, 2), Fraction(3, 2)))
        assert count_positive_trees(2, 2, point) == 2
        assert reference_positive_trees(2, 2, point) == 2

    def test_matches_reference_scan(self):
        # the (0, 3, 3) family at every point with perimeter total <= 8, as
        # TestCountMetrics::test_matches_reference_scan takes the families
        # of genus >= 1: zero perimeters, unbalanced and wall points included
        trees = [tree for tree, _ in enumerate_graphs(0, 3, 3)]  # each |Aut| = 1
        for point in points_up_to(3, 3, 8):
            expected = sum(reference_count_metrics(tree, point) for tree in trees)
            assert counting_function(0, 3, 3, point) == expected, point
            assert count_positive_trees(3, 3, point) == expected, point

    @pytest.mark.parametrize("k", range(1, 9))
    def test_generic_points_at_eight_edges(self, k):
        # a point of an open cell of H_{k,l} has (k + l - 2)! positive trees;
        # at k + l = 9 no class is listed
        for seed in range(3):
            point = wall_sample_point(Wall.full_space(k, 9 - k), seed=seed)
            assert count_positive_trees(k, 9 - k, point) == factorial(7), (seed, point)

    @pytest.mark.parametrize("k, l", list(product(range(1, 5), repeat=2)))
    def test_matches_per_class_count(self, k, l):
        for seed in range(3):
            point = wall_sample_point(Wall.full_space(k, l), seed=seed)
            count = count_positive_trees(k, l, point)
            assert type(count) is int
            assert count == reference_positive_trees(k, l, point), (seed, point)


class TestMultigraphs:
    def test_tree_weights_count_plane_embeddings(self):
        # _trees lists the k^(l-1) l^(k-1) spanning trees of K_{k,l}, each
        # weighted by its prod_v (deg v - 1)! plane embeddings.  For every
        # genus-0 family with <= 7 edges (k + l <= 8) that is the fold of the
        # family's classes onto their reference bridge forms.
        total = 0
        for k, l in product(range(1, 8), repeat=2):
            if k + l > 8:
                continue
            trees = _trees(k, l)
            assert len(trees) == k ** (l - 1) * l ** (k - 1)
            assert all(type(weight) is int for weight in trees.values())
            assert trees == reference_trees(k, l), (k, l)
            total += len(trees)
        assert total == 9740

    def test_multisets_are_connected_and_weighted(self):
        # every multiset of a family of genus >= 1 with <= 7 edges has E
        # edges, touches all k + l vertices and is connected, and the
        # weights sum to the family's weight by Jackson's formula
        for g, k, l in [f for n in range(1, 8) for f in families(n) if f[0] >= 1]:
            multigraphs = _multigraphs(g, k, l)
            vertices = {("b", i) for i in range(1, k + 1)} | {("w", j) for j in range(1, l + 1)}
            for edges in multigraphs:
                assert len(edges) == k + l - 1 + 2 * g
                reached, grown = set(), {("b", 1)}
                while grown != reached:
                    reached = grown
                    grown = reached.union(
                        *({("b", b), ("w", w)} for b, w in edges if {("b", b), ("w", w)} & reached)
                    )
                assert reached == vertices, edges
            assert sum(multigraphs.values()) == jackson_weight(g, k, l), (g, k, l)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_eight_edge_trees_match_jackson_formula(self, k):
        # k + l = 9, past the enumeration: the tree count, and the family
        # weight by Jackson's formula
        l = 9 - k
        trees = _trees(k, l)
        assert len(trees) == k ** (l - 1) * l ** (k - 1)
        assert sum(trees.values()) == jackson_weight(0, k, l)


class TestWallSampling:
    def test_deterministic(self):
        wall = Wall.diagonal(2)
        assert wall_sample_point(wall, seed=5) == wall_sample_point(wall, seed=5)

    def test_diagonal_membership(self):
        point = wall_sample_point(Wall.diagonal(3), seed=2)
        assert point.black == point.white
        assert all(x > 0 for x in point.black)

    def test_full_space(self):
        point = wall_sample_point(Wall.full_space(1, 1), seed=0)
        assert point.black == point.white and point.black[0] > 0

    def test_block_wall_membership(self):
        wall = Wall.partition_wall((2, 1), (1, 2))
        point = wall_sample_point(wall, seed=4)
        assert all(x > 0 for x in point.black + point.white)
        assert block_sums((2, 1), point.black) == block_sums((1, 2), point.white)

    def test_malformed_blocks_rejected(self):
        for b, w in [((1, 2), (3,)), ((2, 0), (1, 1)), ((2,), (-1,)), ((), ())]:
            with pytest.raises(ValueError):
                Wall.partition_wall(b, w)
        with pytest.raises(ValueError):
            Wall.full_space(0, 2)

    def test_implies_matches_row_reduction(self):
        pairs = 0
        for wall in block_walls():
            for form in _all_forms(wall.k, wall.l):
                expected = reference_implies(wall, decode(form, wall.k, wall.l))
                assert wall.implies(form) == expected, (wall, form)
                pairs += 1
        assert pairs == 8778

    def test_sampled_points_are_generic_integers(self):
        walls = block_walls()
        assert len(walls) == 69
        for wall in walls:
            for seed in range(5):
                point = wall_sample_point(wall, seed=seed)
                values = point.black + point.white
                assert all(type(x) is int and x > 0 for x in values)
                assert block_sums(wall.black_blocks, point.black) == block_sums(
                    wall.white_blocks, point.white
                )
                for form in _all_forms(wall.k, wall.l):
                    blacks, whites = decode(form, wall.k, wall.l)
                    value = sum(point.black[i] for i in blacks) - sum(
                        point.white[j] for j in whites
                    )
                    assert (value == 0) == wall.implies(form)

    def test_sign_pattern_stable_along_rays(self):
        point = wall_sample_point(Wall.diagonal(2), seed=3)
        base = _sign_pattern(2, 2, point)
        for c in range(2, 6):
            assert _sign_pattern(2, 2, point.scale(c)) == base


class TestOracle:
    @pytest.mark.parametrize(
        "b, w, expected",
        [((1, 1), (1, 1), 1), ((2,), (2,), 2), ((2, 1), (1, 1), 4)],
    )
    def test_examples(self, b, w, expected):
        assert p0_oracle(b, w) == expected
        assert expected == p_value(tuple(bi + wi for bi, wi in zip(b, w)))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            p0_oracle((5,), (5,))


class TestFitRay:
    def test_constant_tree_case(self):
        poly = fit_ray_polynomial(0, 1, 1, PerimeterPair((1,), (1,)), 3)
        assert poly == [Fraction(1)]

    def test_genus_one_leading_term(self):
        poly = fit_ray_polynomial(1, 1, 1, PerimeterPair((1,), (1,)), 6)
        assert poly == [Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)]
        assert poly[-1] == pgvn_polynomial(1, 1).evaluate((1,))

    def test_two_cylinder_leading_term(self):
        poly = fit_ray_polynomial(1, 2, 2, PerimeterPair((5, 1), (5, 1)), 6)
        assert len(poly) == 3
        assert poly[-1] == pgvn_polynomial(1, 2).evaluate((5, 1))

    def test_genus_two_leading_term(self):
        poly = fit_ray_polynomial(2, 1, 1, PerimeterPair((1,), (1,)), 7)
        assert len(poly) == 5
        assert poly[-1] == Fraction(1, 15) == pgvn_polynomial(2, 1).evaluate((1,))

    def test_top_term_stable_across_cells(self):
        # (5,1) and (2,7) lie in the two different open cells of the diagonal
        # wall of H_{2,2}; the lower-order terms may differ but the leading
        # coefficient comes from one homogeneous polynomial.
        top = pgvn_polynomial(1, 2)
        for lengths in [(5, 1), (2, 7)]:
            poly = fit_ray_polynomial(1, 2, 2, PerimeterPair(lengths, lengths), 6)
            assert poly[-1] == top.evaluate(lengths)

    def test_cmax_precondition(self):
        with pytest.raises(ValueError):
            fit_ray_polynomial(1, 1, 1, PerimeterPair((1,), (1,)), 3)


def test_wall_constancy():
    assert verify_wall_constancy()

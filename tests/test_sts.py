import hashlib
import io
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import factorial, prod
from operator import mul

import pytest

from stratavol import sts
from stratavol.cli import main
from stratavol.permutation import (
    compose,
    conjugate,
    conjugator,
    cycle_type,
    cycles,
    from_cycle_type,
    from_cycles,
    indexed_cycles,
    inverse,
    multiplicity_factorial,
    partitions,
)
from stratavol.pnum import compositions
from stratavol.ribbon import PerimeterPair, counting_function
from stratavol.sts import (
    SquareTiledSurface,
    census,
    enumerate_sts,
    predicted_counts,
    verify_cylinder_formula,
    zero_profile,
)

from centralizer import centralizer_elements

# SHA-256 of repr(enumerate_sts(g, 8)), the height-one classes: computed
# from the census that listed every class (tall cylinders too), whose full
# listings at 8 squares hashed to d66598f9..., 3aa79ebf..., 643dede9... and
# d00d2d42... for g = 1..4, by keeping the classes whose cylinders, split by
# `cylinder_decomposition` below, all have height 1 (8, 90, 1,434 and 8,720
# classes).
CENSUS_DIGESTS_AT_8 = {
    1: "936f5b9adf9f94b3cccdff9ded47658bb3399970180ef88d49b557bcd2fdbd78",
    2: "91db7b17e26ba82a7b8af51fe4b72584ccd5600ffeff22d37b6ec80f608893b8",
    3: "7c4cbd391c5c86ef9c7bcf5bd6dba50b10020930cc372f4364fd830a83fb666a",
    4: "a6a04dc03ef2cc68924217340c61c0bb52d21db847dd4ff0e614d98a9b1242cf",
}

# SHA-256 of repr(census(g, 8)), computed by the census that walked every
# (2g-1)-cycle c and split cylinders with the rows rebuilt per surface.
CENSUS_TABLE_DIGESTS_AT_8 = {
    1: "1e71bb79eb56ded582299f8aff456875ee9412911640b55de719fb2dbe4013a5",
    2: "aa7b410ecc5f75184018bef936c1a201dc217b7e72e61e258ad5be8140bae41c",
    3: "a9e1691699a95593e28bb2e9c7957c873ddaacdd1bc1566887016de1ec936cb4",
    4: "5b7306a2b56b3bf7efa3db447270359e28b40cbf8fff5afcea651594a4bf3423",
}


def is_transitive(p, q) -> bool:
    """Does the group generated by p and q act transitively on {0,..,n-1}?"""
    orbit, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in (p[i], q[i]):
            if j not in orbit:
                orbit.add(j)
                todo.append(j)
    return len(orbit) == len(p)


def divisor_sum(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def is_connected(surface: SquareTiledSurface) -> bool:
    return is_transitive(surface.sigma_h, surface.sigma_v)


def euler_consistent(surface: SquareTiledSurface) -> bool:
    """V - E + F = 2 - 2g with V = vertex cycles, E = 2N, F = N."""
    v = len(cycles(surface.vertex_permutation()))
    n = len(surface.sigma_h)
    genus = (sum(zero_profile(surface)) + 2) // 2
    return v - 2 * n + n == 2 - 2 * genus


def reference_admissible(sh, sv, g: int) -> bool:
    """Transitive, with vertex permutation of the minimal stratum of genus g."""
    if not is_transitive(sh, sv):
        return False
    c = compose(compose(sv, sh), compose(inverse(sv), inverse(sh)))
    nontrivial = [len(cyc) for cyc in cycles(c) if len(cyc) > 1]
    return nontrivial == ([] if g == 1 else [2 * g - 1])


@cache
def reference_enumerate_sts(g: int, n_squares: int):
    """Every class, tall cylinders too, by scanning every sigma_v in S_N per sigma_h type.

    Each orbit under Z(sigma_h) is formed from the whole centralizer and
    represented by its least element.  Cached, as a tuple.
    """
    out = []
    for ctype in partitions(n_squares):
        sh = from_cycle_type(ctype)
        centralizer = list(centralizer_elements(sh))
        seen = set()
        for sv in permutations(range(n_squares)):
            if sv in seen or not reference_admissible(sh, sv, g):
                continue
            orbit = {conjugate(z, sv) for z in centralizer}
            seen |= orbit
            out.append((SquareTiledSurface(sh, min(orbit)), len(centralizer) // len(orbit)))
    out.sort(key=lambda pair: (pair[0].sigma_h, pair[0].sigma_v))
    return tuple(out)


@dataclass(frozen=True)
class CylinderDecomposition:
    """Cylinders as (circumference, height) pairs, sorted."""

    cylinders: tuple[tuple[int, int], ...]

    @property
    def n_cylinders(self) -> int:
        return len(self.cylinders)

    def total_squares(self) -> int:
        return sum(length * height for length, height in self.cylinders)


def cylinder_decomposition(surface: SquareTiledSurface) -> CylinderDecomposition:
    """Split the surface along its singular horizontal circles.

    The reference for the census's height bijection.  Rows are the cycles
    of sigma_h.  The circle below a row is singular iff it carries a cone
    point, i.e. the vertex permutation moves some corner of the row.  A
    cylinder is a maximal stack of rows whose internal circles are
    regular; stacking is well defined there because sigma_v then maps a
    row bijectively onto the next.
    """
    sv = surface.sigma_v
    moved = {x for x, y in enumerate(surface.vertex_permutation()) if x != y}
    row_list, row_of = indexed_cycles(surface.sigma_h)

    def top_is_singular(idx: int) -> bool:
        return not moved.isdisjoint(map(sv.__getitem__, row_list[idx]))

    # On the torus no circle carries a cone point, sigma_v permutes the rows
    # in one cycle, and the one stack starts at row 0 and ends below it.
    starts = sorted({row_of[x] for x in moved}) or [0]
    covered = [False] * len(row_list)
    cylinders = []
    for start in starts:
        width = len(row_list[start])
        height = 1
        cur = start
        covered[cur] = True
        while not top_is_singular(cur):
            nxt = row_of[sv[row_list[cur][0]]]
            if nxt == start:
                break
            if len(row_list[nxt]) != width or covered[nxt]:
                raise AssertionError("inconsistent cylinder stack")
            covered[nxt] = True
            cur = nxt
            height += 1
        cylinders.append((width, height))
    if not all(covered):
        raise AssertionError("cylinder decomposition did not cover all rows")
    decomposition = CylinderDecomposition(tuple(sorted(cylinders)))
    if decomposition.total_squares() != len(sv):
        raise AssertionError("cylinder areas do not sum to the square count")
    return decomposition


def is_height_one(surface: SquareTiledSurface) -> bool:
    return all(height == 1 for _, height in cylinder_decomposition(surface).cylinders)


def rows_met(sh, support) -> int:
    return sum(1 for row in cycles(sh) if set(row) & set(support))


def reference_counts(g: int, n_cyl: int, n_max: int) -> dict[int, Fraction]:
    """The cylinder identity's right-hand side per N, over compositions L and h-tuples.

    Every positive h with sum h_i L_i <= n_max is listed, each adding the
    term of L to the cell of its area.
    """
    cells: dict[int, Fraction] = {}
    for length_sum in range(n_cyl, n_max + 1):
        for lengths in compositions(length_sum, n_cyl):
            value = counting_function(g - n_cyl, n_cyl, n_cyl, PerimeterPair(lengths, lengths))
            heights = product(*(range(1, n_max // length + 1) for length in lengths))
            for h in heights:
                area = sum(map(mul, h, lengths))
                if area <= n_max:
                    cells[area] = cells.get(area, 0) + prod(lengths) * value
    return {n: total / factorial(n_cyl) for n, total in cells.items() if total}


class TestSurfaceBasics:
    def test_one_square_torus(self):
        surface = SquareTiledSurface((0,), (0,))
        assert is_connected(surface)
        # the marked point of the torus is a regular point: a zero of order 0
        assert zero_profile(surface) == [0]
        assert euler_consistent(surface)

    def test_profile_of_three_square_surface(self):
        # sigma_h = (123), sigma_v = (12) in 1-based cycles
        surface = SquareTiledSurface((1, 2, 0), (1, 0, 2))
        assert zero_profile(surface) == [2]
        assert euler_consistent(surface)

    def test_disconnected_pair_detected(self):
        surface = SquareTiledSurface((1, 0, 2), (0, 1, 2))
        assert not is_connected(surface)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            SquareTiledSurface((0, 1), (0,))

    @pytest.mark.parametrize("sigma_h, sigma_v", [((0, 0, 2), (1, 0, 2)), ((5,), (0,))])
    def test_non_permutations_rejected(self, sigma_h, sigma_v):
        # zero_profile of the first pair looped forever on the vertex map
        # (1, 1, 2); that of the second raised IndexError
        with pytest.raises(ValueError, match="permutations of the same squares"):
            SquareTiledSurface(sigma_h, sigma_v)


class TestCylinders:
    def test_single_row_torus(self):
        d = cylinder_decomposition(SquareTiledSurface((1, 0), (1, 0)))
        assert d.cylinders == ((2, 1),)

    def test_stacked_torus(self):
        d = cylinder_decomposition(SquareTiledSurface((0, 1), (1, 0)))
        assert d.cylinders == ((1, 2),)

    def test_three_square_one_cylinder(self):
        d = cylinder_decomposition(SquareTiledSurface((1, 2, 0), (1, 0, 2)))
        assert d.cylinders == ((3, 1),)

    def test_area_and_bounds(self):
        # every listed class is height-one, each row a cylinder, and has at
        # most g rows
        for g in (1, 2, 3):
            for n_squares in range(max(1, 2 * g - 1), 8):
                for surface, _ in enumerate_sts(g, n_squares):
                    d = cylinder_decomposition(surface)
                    assert d.total_squares() == n_squares
                    assert all(height == 1 for _, height in d.cylinders)
                    assert d.n_cylinders == len(cycles(surface.sigma_h)) <= g


class TestEnumeration:
    @pytest.mark.parametrize("n_squares, classes", [(1, 1), (2, 2), (3, 3)])
    def test_torus_counts(self, n_squares, classes):
        # the one-row tori, one per twist
        assert len(enumerate_sts(1, n_squares)) == classes

    def test_below_minimum_area_empty(self):
        assert enumerate_sts(2, 2) == []

    def test_returned_list_is_the_callers_own(self):
        # clearing the list a caller got back leaves the census whole
        before = census(2, 4)
        enumerate_sts(2, 4).clear()
        assert census(2, 4) == before
        assert enumerate_sts(2, 4) != []

    @pytest.mark.parametrize(
        "call, g, n",
        [
            ("enumerate_sts", 1, 9),
            ("enumerate_sts", 0, 3),
            ("enumerate_sts", 2, 0),
            ("enumerate_sts", 2, 9),
            ("census", 0, 4),
            ("census", 2, 9),
        ],
    )
    def test_size_guard(self, call, g, n):
        # the kernel is a generator, yet a bad argument is refused at the call
        with pytest.raises(ValueError):
            getattr(sts, call)(g, n)

    def test_all_admissible(self):
        # the kernel tests no transitivity: a coset member is transitive
        # because its vertex cycle meets every row
        for g, n_squares in product(range(2, 5), range(1, 9)):
            for surface, aut in enumerate_sts(g, n_squares):
                assert is_connected(surface)
                assert zero_profile(surface) == [2 * g - 2]
                assert euler_consistent(surface)
                assert aut >= 1

    def test_genus_two_has_no_automorphisms(self):
        # a translation fixing the single cone point is the identity
        for n_squares in range(3, 7):
            assert all(aut == 1 for _, aut in enumerate_sts(2, n_squares))

    # For g >= 2 the Z(sigma_h)-orbit of c often spans several cosets, and a
    # class's least conjugate can lie outside the coset that was scanned.
    @pytest.mark.parametrize(
        "g, n_squares",
        [(1, 4), (1, 6), (1, 8), (2, 5), (3, 6), (2, 8), (3, 7), (4, 7), (3, 8), (4, 8)],
    )
    def test_representative_is_orbit_minimum(self, g, n_squares):
        for surface, aut in enumerate_sts(g, n_squares):
            sh, sv = surface.sigma_h, surface.sigma_v
            orbit = {conjugate(z, sv) for z in centralizer_elements(sh)}
            assert sv == min(orbit)
            ctype = cycle_type(sh)
            assert len(orbit) * aut == prod(ctype) * multiplicity_factorial(ctype)

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("n_squares", [3, 4, 5])
    def test_burnside_consistency(self, g, n_squares):
        labeled = sum(
            1
            for sh in permutations(range(n_squares))
            for sv in permutations(range(n_squares))
            if reference_admissible(sh, sv, g)
        )
        from_classes = sum(
            factorial(n_squares) // aut
            for _, aut in reference_enumerate_sts(g, n_squares)
        )
        assert labeled == from_classes

    @pytest.mark.parametrize(
        "g, n_squares",
        [(g, n) for g in (1, 2, 3, 4) for n in range(2 * g - 1, 8)],
    )
    def test_coset_census_matches_scan(self, g, n_squares):
        height_one = [pair for pair in reference_enumerate_sts(g, n_squares) if is_height_one(pair[0])]
        assert enumerate_sts(g, n_squares) == height_one

    @pytest.mark.parametrize("g", sorted(CENSUS_DIGESTS_AT_8))
    def test_census_at_eight_squares_pinned(self, g):
        text = repr(enumerate_sts(g, 8))
        assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_DIGESTS_AT_8[g]

    def test_stratum_check_exits_three(self, monkeypatch, capsys):
        # pi_0 composed with a sigma_h-moving transposition conjugates sigma_h
        # to the wrong target, so some classes leave the stratum
        def wrong_conjugator(p, q):
            return compose(conjugator(p, q), (1, 0) + tuple(range(2, len(p))))

        monkeypatch.setattr(sts, "conjugator", wrong_conjugator)
        sts._class_counts.cache_clear()
        try:
            with pytest.raises(AssertionError, match="minimal stratum of genus 2"):
                enumerate_sts(2, 5)
            out = io.StringIO()
            assert main(["count", "sts", "--genus", "2", "--max-squares", "5"], out=out) == 3
            assert out.getvalue() == ""
            assert capsys.readouterr().err.startswith("internal error: census class")
        finally:
            sts._class_counts.cache_clear()

    def test_torus_stratum_check_exits_three(self, monkeypatch, capsys):
        # a reversed sigma_h is no longer the row rotation that the shift
        # sigma_v commutes with
        monkeypatch.setattr(sts, "from_cycle_type", lambda ctype: from_cycle_type(ctype)[::-1])
        sts._class_counts.cache_clear()
        try:
            with pytest.raises(AssertionError, match="minimal stratum of genus 1"):
                enumerate_sts(1, 4)
            out = io.StringIO()
            assert main(["count", "sts", "--genus", "1", "--max-squares", "4"], out=out) == 3
            assert out.getvalue() == ""
            err = capsys.readouterr().err
            assert err.startswith("internal error: ") and err.count("\n") == 1
        finally:
            sts._class_counts.cache_clear()

    def test_stratum_error_names_the_class(self, monkeypatch):
        # the reversed sigma_h of the torus test: the error names the first
        # class that fails, on one line
        monkeypatch.setattr(sts, "from_cycle_type", lambda ctype: from_cycle_type(ctype)[::-1])
        with pytest.raises(AssertionError) as error:
            enumerate_sts(1, 4)
        sh, sv = from_cycle_type((4,))[::-1], (3, 0, 1, 2)
        c = SquareTiledSurface(sh, sv).vertex_permutation()
        assert str(error.value) == (
            "census class outside the minimal stratum of genus 1: widths (4,), "
            f"sigma_v {sv}, commutator of cycle type {cycle_type(c)}"
        )

    def test_census_builds_no_surface(self, monkeypatch):
        # the census counts the classes of the kernel, never a SquareTiledSurface
        def refuse(*args):
            raise AssertionError("SquareTiledSurface built")

        monkeypatch.setattr(sts, "SquareTiledSurface", refuse)
        sts._class_counts.cache_clear()
        try:
            assert hashlib.sha256(repr(census(3, 8)).encode()).hexdigest() == (
                CENSUS_TABLE_DIGESTS_AT_8[3]
            )
        finally:
            sts._class_counts.cache_clear()

    def test_orbit_count_check(self, monkeypatch):
        # a scan that never finds a smaller conjugate keeps every transitive
        # coset member, so the classes overcount the Z(sigma_h)-orbits
        monkeypatch.setattr(sts, "_conjugates", lambda p, tables, inverses: [p] * len(tables))
        with pytest.raises(AssertionError, match="transitive coset members"):
            enumerate_sts(2, 5)


class TestSupports:
    @pytest.mark.parametrize("n_squares", range(3, 8))
    def test_one_support_per_orbit(self, n_squares):
        # the orbits of the (2g-1)-subsets that meet every row under every
        # element of Z(sigma_h), each met by exactly its least subset
        for ctype in partitions(n_squares):
            sh = from_cycle_type(ctype)
            for m in (3, 5, 7):
                g = (m + 1) // 2
                if m > n_squares:
                    continue
                orbits = {
                    frozenset(
                        tuple(sorted(z[x] for x in support)) for z in centralizer_elements(sh)
                    )
                    for support in combinations(range(n_squares), m)
                    if rows_met(sh, support) == len(ctype)
                }
                kept = list(sts._supports(sh, g))
                assert kept == sorted(min(orbit) for orbit in orbits), (ctype, m)

    def test_vertex_cycle_meets_at_most_g_rows(self):
        # over every (2g-1)-cycle c with c sigma_h of sigma_h's type, N <= 7:
        # the most rows met is g, so a height-one sigma_h, whose every row
        # c meets, has at most g rows, and the bound is tight
        most = {}
        for n_squares in range(3, 8):
            for g in range(2, (n_squares + 3) // 2):
                m = 2 * g - 1
                for ctype in partitions(n_squares):
                    sh = from_cycle_type(ctype)
                    for first, *rest in combinations(range(n_squares), m):
                        for tail in permutations(rest):
                            c = from_cycles([(first, *tail)], n_squares)
                            if cycle_type(compose(c, sh)) == ctype:
                                k = rows_met(sh, (first, *tail))
                                most[g] = max(most.get(g, 0), k)
        assert most == {2: 2, 3: 3, 4: 4}


class TestKernel:
    @pytest.mark.parametrize("length", range(1, 9))
    def test_rotation_table(self, length):
        # against the least of the length rotations of each bit list
        table = sts._least_rotations(length)
        assert len(table) == 1 << length
        for pattern, least in enumerate(table):
            bits = [pattern >> i & 1 for i in range(length)]
            rotations = (bits[r:] + bits[:r] for r in range(length))
            assert least == min(sum(bit << i for i, bit in enumerate(rot)) for rot in rotations)

    @pytest.mark.parametrize("n_squares", range(1, 9))
    def test_centralizer_matches_reference(self, n_squares):
        # the census's bytes Z(sigma_h) against the tuple reference, with no
        # element listed twice
        for ctype in partitions(n_squares):
            sh = from_cycle_type(ctype)
            elements = sts._centralizer(bytes(sh))
            assert len(set(elements)) == len(elements)
            assert set(elements) == set(map(bytes, centralizer_elements(sh)))

    @pytest.mark.parametrize(
        "g, cycs, n_squares, accepted",
        [
            (5, [tuple(range(9))], 9, True),
            (5, [tuple(range(1, 10))], 11, True),
            (2, [(0, 1, 2)], 3, True),
            (5, [(0, 1, 2), (3, 4, 5), (6, 7, 8)], 9, False),  # 9 moved, no 9-cycle
            (5, [tuple(range(9)), (9, 10, 11)], 12, False),  # a 9-cycle and more
            (3, [(0, 1), (2, 3)], 5, False),
            (2, [], 4, False),
            (3, [], 6, False),
            (1, [(0, 1, 2)], 3, False),
            (1, [(0, 1, 2), (3, 4, 5)], 6, False),
            (1, [], 4, True),
        ],
    )
    def test_stratum_check_on_crafted_pairs(self, g, cycs, n_squares, accepted):
        # a pair with commutator c: sigma_v conjugates sigma_h to c sigma_h
        c = from_cycles(cycs, n_squares)
        sh = next(
            from_cycle_type(ctype)
            for ctype in partitions(n_squares)
            if cycle_type(compose(c, from_cycle_type(ctype))) == ctype
        )
        sv = conjugator(sh, compose(c, sh))
        sv_bytes, sh_bytes = bytes(sv), bytes(sh)
        commutator = sts._commutator(sv_bytes, sh_bytes, bytes(inverse(sh)))
        assert commutator == bytes(SquareTiledSurface(sh, sv).vertex_permutation()) == bytes(c)
        if accepted:
            sts._in_stratum(g, cycle_type(sh), sv_bytes, commutator)
        else:
            with pytest.raises(AssertionError, match=f"minimal stratum of genus {g}: "):
                sts._in_stratum(g, cycle_type(sh), sv_bytes, commutator)

    def test_stratum_check_rejects_odd_commutator(self):
        # a 3-cycle and a 2-cycle move 5 points at g = 3; no pair has this
        # odd commutator, so the check gets it directly
        c = bytes(from_cycles([(0, 1, 2), (3, 4)], 6))
        with pytest.raises(AssertionError) as error:
            sts._in_stratum(3, (6,), bytes(range(6)), c)
        assert str(error.value) == (
            "census class outside the minimal stratum of genus 3: widths (6,), "
            "sigma_v (0, 1, 2, 3, 4, 5), commutator of cycle type (3, 2, 1)"
        )


class TestCensus:
    def test_cumulative_torus_counts(self):
        table = census(1, 3)
        assert sum(c for (n, _), (c, _) in table.items() if n == 1) == 8
        assert all(n == 1 for (n, _) in table)

    def test_weighted_column(self):
        table = census(1, 2)
        assert table[(1, 2)] == (3, Fraction(3, 2))

    def test_divisor_sum_oracle(self):
        table = census(1, 8)
        for n_squares in range(1, 9):
            got = sum(c for (_, nn), (c, _) in table.items() if nn == n_squares)
            assert got == divisor_sum(n_squares)

    def test_torus_classes_have_n_automorphisms(self):
        # each class is an index-N sublattice of Z^2, and Z^2 / Lambda acts
        # on it by translations, so |Aut| = N and the weighted count is
        # sigma(N) / N
        table = census(1, 8)
        for n_squares in range(1, 9):
            assert all(aut == n_squares for _, aut in enumerate_sts(1, n_squares))
            weighted = sum(w for (_, nn), (_, w) in table.items() if nn == n_squares)
            assert weighted == Fraction(divisor_sum(n_squares), n_squares)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_heights_match_full_scan(self, g):
        # every class of the S_N scan, tall cylinders too, counted by the
        # cylinders of the test-side split, against the height walk
        cells: dict[tuple[int, int], tuple[int, Fraction]] = {}
        for n_squares in range(1, 8):
            for surface, aut in reference_enumerate_sts(g, n_squares):
                key = (cylinder_decomposition(surface).n_cylinders, n_squares)
                count, weighted = cells.get(key, (0, Fraction(0)))
                cells[key] = (count + 1, weighted + Fraction(1, aut))
        assert census(g, 7) == cells

    @pytest.mark.parametrize("g", sorted(CENSUS_TABLE_DIGESTS_AT_8))
    def test_census_at_eight_squares_pinned(self, g):
        text = repr(census(g, 8))
        assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_TABLE_DIGESTS_AT_8[g]

    def test_genus_two_fixture(self):
        # pinned by the enumeration run; regression fixture
        table = census(2, 4)
        assert {key: value[0] for key, value in sorted(table.items())} == {
            (1, 3): 1,
            (1, 4): 4,
            (2, 3): 2,
            (2, 4): 5,
        }


class TestCylinderFormula:
    def test_torus_small(self):
        assert verify_cylinder_formula(1, 8)

    def test_genus_two_small(self):
        assert verify_cylinder_formula(2, 5)

    def test_genus_two_deeper(self):
        # beyond the acceptance bound, as runtime permits
        assert verify_cylinder_formula(2, 7)

    def test_genus_three(self):
        # the identity at g = 3, every cylinder count n <= 3, N <= 8
        assert verify_cylinder_formula(3, 8)

    def test_genus_four(self):
        assert verify_cylinder_formula(4, 8)

    @pytest.mark.parametrize("n_cyl", [1, 2, 3, 4])
    def test_partition_sum_matches_composition_sum(self, n_cyl):
        cells = predicted_counts(sts._width_weights(4, 10), 10)
        predicted = {nn: count for (n, nn), count in cells.items() if n == n_cyl}
        assert predicted == reference_counts(4, n_cyl, 10)

    def test_class_under_the_wrong_square_count_fails(self, monkeypatch):
        # One class moved from 7 to 8 squares keeps every cumulative total
        # per n, which is all a check at n_max = 8 summed over N would see.
        table = census(2, 8)
        n_cyl = min(n for n, nn in table if nn == 7)
        shifted = dict(table)
        for key, step in (((n_cyl, 7), -1), ((n_cyl, 8), 1)):
            count, weighted = shifted[key]
            shifted[key] = (count + step, weighted + step)
        monkeypatch.setattr(sts, "census", lambda g, n_max: shifted)

        def totals(cells):
            return {n: sum(c for (m, _), c in cells.items() if m == n) for n in (1, 2)}

        assert totals({key: count for key, (count, _) in shifted.items()}) == totals(
            predicted_counts(sts._width_weights(2, 8), 8)
        )
        assert verify_cylinder_formula(2, 8) is False

    def test_class_under_the_wrong_widths_fails(self, monkeypatch):
        # One class moved from widths (6, 1) to (5, 2): both have two
        # cylinders and 7 squares at height one, and no taller class fits
        # in 7 squares, so every (n, N) cell keeps its count.
        counts = sts._width_counts(2, 7)
        assert counts[6, 1] >= 1
        moved = Counter(counts)
        moved[6, 1] -= 1
        moved[5, 2] += 1
        before = census(2, 7)
        monkeypatch.setattr(sts, "_width_counts", lambda g, n_max: moved)
        assert census(2, 7) == before
        assert verify_cylinder_formula(2, 7) is False

    @pytest.mark.parametrize("g, n_max", [(2, 12), (3, 10)])
    def test_width_identity_past_the_cap(self, monkeypatch, g, n_max):
        # the height-one classes per width multiset, beyond the CLI's cap,
        # each of them transitive
        monkeypatch.setattr(sts, "MAX_SQUARES", n_max)
        sts._class_counts.cache_clear()
        try:
            assert sts._width_counts(g, n_max) == sts._width_weights(g, n_max)
            for n_squares in range(1, n_max + 1):
                assert all(is_connected(surface) for surface, _ in enumerate_sts(g, n_squares))
        finally:
            sts._class_counts.cache_clear()

    def test_census_keeps_no_class(self, monkeypatch):
        # past the cap the census lists 11,538 height-one classes; only the
        # counts per width multiset stay allocated after it
        monkeypatch.setattr(sts, "MAX_SQUARES", 10)
        sts._class_counts.cache_clear()
        tracemalloc.start()
        try:
            census(3, 10)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            sts._class_counts.cache_clear()
        assert kept < 0.5 * 2**20

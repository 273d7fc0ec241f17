import hashlib
import io
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod
from operator import mul

import pytest

from stratavol import sts
from stratavol.cli import main
from stratavol.permutation import (
    centralizer_elements,
    centralizer_order,
    compose,
    conjugate,
    conjugator,
    cycle_type,
    cycles,
    from_cycle_type,
    from_cycles,
    inverse,
    is_transitive,
    partitions,
)
from stratavol.pnum import compositions
from stratavol.ribbon import PerimeterPair, counting_function
from stratavol.sts import (
    SquareTiledSurface,
    census,
    cylinder_decomposition,
    enumerate_sts,
    predicted_counts,
    verify_cylinder_formula,
    zero_profile,
)
from stratavol.sts import _enumerate_sts

# SHA-256 of repr(enumerate_sts(g, 8)): g = 2, 3 computed by the S_N scan,
# g = 1 by the orbit closure over the transitive members of Z(sigma_h) that
# the torus census used before it took the coset path (the coset scan and
# the sublattice listing that replaced it both reproduce it), and g = 4
# (9,800 classes) by the census that scanned one coset per vertex
# permutation c, before it scanned one coset per Z(sigma_h)-orbit of c.
CENSUS_DIGESTS_AT_8 = {
    1: "d66598f94d82104c3869af9090138bf9fa497baa601a13a03d33c85d8c7a9bfb",
    2: "3aa79ebf080fba79389e78af38e05cc6d6f41c8c26bbd4b10de3d12dbe2fb661",
    3: "643dede9ae683cebf9c04e36743c00280cee662d6f29b420d748ed14091d7a8d",
    4: "d00d2d42dcf7c86aeb89b7abf0463c0d9bf7d9cbaade7403020a5045e5cdf66e",
}

# SHA-256 of repr(census(g, 8)), computed by the census that walked every
# (2g-1)-cycle c and split cylinders with the rows rebuilt per surface.
CENSUS_TABLE_DIGESTS_AT_8 = {
    1: "1e71bb79eb56ded582299f8aff456875ee9412911640b55de719fb2dbe4013a5",
    2: "aa7b410ecc5f75184018bef936c1a201dc217b7e72e61e258ad5be8140bae41c",
    3: "a9e1691699a95593e28bb2e9c7957c873ddaacdd1bc1566887016de1ec936cb4",
    4: "5b7306a2b56b3bf7efa3db447270359e28b40cbf8fff5afcea651594a4bf3423",
}


def divisor_sum(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def is_connected(surface: SquareTiledSurface) -> bool:
    return is_transitive(surface.sigma_h, surface.sigma_v)


def euler_consistent(surface: SquareTiledSurface) -> bool:
    """V - E + F = 2 - 2g with V = vertex cycles, E = 2N, F = N."""
    v = len(cycles(surface.vertex_permutation()))
    n = surface.num_squares
    genus = (sum(zero_profile(surface)) + 2) // 2
    return v - 2 * n + n == 2 - 2 * genus


def reference_admissible(sh, sv, g: int) -> bool:
    """Transitive, with vertex permutation of the minimal stratum of genus g."""
    if not is_transitive(sh, sv):
        return False
    c = compose(compose(sv, sh), compose(inverse(sv), inverse(sh)))
    nontrivial = [len(cyc) for cyc in cycles(c) if len(cyc) > 1]
    return nontrivial == ([] if g == 1 else [2 * g - 1])


def reference_enumerate_sts(g: int, n_squares: int):
    """The census by scanning every sigma_v in S_N for each sigma_h type.

    Each orbit under Z(sigma_h) is formed from the whole centralizer and
    represented by its least element.
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
    return out


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
        for g in (1, 2):
            for n_squares in range(max(1, 2 * g - 1), 7):
                for surface, _ in enumerate_sts(g, n_squares):
                    d = cylinder_decomposition(surface)
                    assert d.total_squares() == n_squares
                    assert 1 <= d.n_cylinders <= g


class TestEnumeration:
    @pytest.mark.parametrize("n_squares, classes", [(1, 1), (2, 3), (3, 4)])
    def test_torus_counts(self, n_squares, classes):
        assert len(enumerate_sts(1, n_squares)) == classes

    def test_below_minimum_area_empty(self):
        assert enumerate_sts(2, 2) == []

    def test_returned_list_is_the_callers_own(self):
        # clearing the list a caller got back leaves the census whole
        before = census(2, 4)
        enumerate_sts(2, 4).clear()
        assert census(2, 4) == before
        assert enumerate_sts(2, 4) != []

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_sts(1, 9)

    def test_all_admissible(self):
        for surface, aut in enumerate_sts(2, 5):
            assert is_connected(surface)
            assert zero_profile(surface) == [2]
            assert euler_consistent(surface)
            assert aut >= 1

    def test_genus_two_has_no_automorphisms(self):
        # a translation fixing the single cone point is the identity
        for n_squares in range(3, 7):
            assert all(aut == 1 for _, aut in enumerate_sts(2, n_squares))

    # For g >= 2 the Z(sigma_h)-orbit of c often spans several cosets, and a
    # class's least conjugate can lie outside the coset that was scanned.
    @pytest.mark.parametrize(
        "g, n_squares", [(1, 4), (1, 6), (1, 8), (2, 5), (3, 6), (2, 8), (3, 7), (4, 7)]
    )
    def test_representative_is_orbit_minimum(self, g, n_squares):
        for surface, aut in enumerate_sts(g, n_squares):
            sh, sv = surface.sigma_h, surface.sigma_v
            orbit = {conjugate(z, sv) for z in centralizer_elements(sh)}
            assert sv == min(orbit)
            assert len(orbit) * aut == centralizer_order(cycle_type(sh))

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
        assert enumerate_sts(g, n_squares) == reference_enumerate_sts(g, n_squares)

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
        _enumerate_sts.cache_clear()
        try:
            with pytest.raises(AssertionError, match="minimal stratum of genus 2"):
                enumerate_sts(2, 5)
            out = io.StringIO()
            assert main(["count", "sts", "--genus", "2", "--max-squares", "5"], out=out) == 3
            assert out.getvalue() == ""
            assert capsys.readouterr().err.startswith("internal error: census class")
        finally:
            _enumerate_sts.cache_clear()

    def test_torus_stratum_check_exits_three(self, monkeypatch, capsys):
        # a reversed sigma_h is no longer the row rotation that the
        # sublattice's sigma_v commutes with
        monkeypatch.setattr(sts, "from_cycle_type", lambda ctype: from_cycle_type(ctype)[::-1])
        _enumerate_sts.cache_clear()
        try:
            with pytest.raises(AssertionError, match="minimal stratum of genus 1"):
                enumerate_sts(1, 4)
            out = io.StringIO()
            assert main(["count", "sts", "--genus", "1", "--max-squares", "4"], out=out) == 3
            assert out.getvalue() == ""
            # the census's cylinder check may fire first, at two squares
            err = capsys.readouterr().err
            assert err.startswith("internal error: ") and err.count("\n") == 1
        finally:
            _enumerate_sts.cache_clear()

    def test_orbit_count_check(self, monkeypatch):
        # a scan that never finds a smaller conjugate keeps every transitive
        # coset member, so the classes overcount the Z(sigma_h)-orbits
        monkeypatch.setattr(sts, "conjugate", lambda y, p: p)
        _enumerate_sts.cache_clear()
        try:
            with pytest.raises(AssertionError, match="transitive coset members"):
                enumerate_sts(2, 5)
        finally:
            _enumerate_sts.cache_clear()


class TestSupports:
    @pytest.mark.parametrize("n_squares", range(3, 8))
    def test_one_support_per_orbit(self, n_squares):
        # the orbits of the (2g-1)-subsets under every element of
        # Z(sigma_h), each met by exactly its least subset
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
                    if rows_met(sh, support) <= g
                }
                kept = list(sts._supports(sh, g))
                assert kept == sorted(min(orbit) for orbit in orbits), (ctype, m)

    def test_vertex_cycle_meets_at_most_g_rows(self):
        # over every (2g-1)-cycle c with c sigma_h of sigma_h's type, N <= 7:
        # the most rows met is g, so the bound that _supports uses is tight
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
        predicted = {nn: count for (n, nn), count in predicted_counts(4, 10).items() if n == n_cyl}
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
            predicted_counts(2, 8)
        )
        assert verify_cylinder_formula(2, 8) is False

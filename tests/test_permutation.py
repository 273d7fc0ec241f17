import io
from itertools import permutations

import pytest

from stratavol import permutation
from stratavol.cli import main
from stratavol.permutation import (
    centralizer_elements,
    centralizer_order,
    compose,
    conjugate,
    conjugator,
    cycle_count,
    cycle_type,
    cycles,
    from_cycle_type,
    from_cycles,
    inverse,
    is_transitive,
    partitions,
)
from stratavol.sts import _enumerate_sts


def test_compose_applies_right_first():
    p = (1, 2, 0)
    q = (1, 0, 2)
    assert compose(p, q) == tuple(p[q[i]] for i in range(3))


def test_inverse():
    p = (2, 0, 3, 1)
    assert compose(p, inverse(p)) == tuple(range(4))
    assert compose(inverse(p), p) == tuple(range(4))


def test_conjugate_is_homomorphism():
    p = (1, 2, 0, 3)
    q = (0, 2, 1, 3)
    pi = (3, 1, 0, 2)
    assert conjugate(pi, compose(p, q)) == compose(conjugate(pi, p), conjugate(pi, q))


def test_cycles_start_at_minimum():
    assert cycles((1, 0, 3, 2)) == [(0, 1), (2, 3)]
    assert cycle_count((1, 0, 3, 2)) == 2
    assert cycle_type((1, 2, 0, 4, 3)) == (3, 2)


def test_from_cycles_round_trip():
    assert from_cycles([(0, 2), (3, 4, 1)], 6) == (2, 3, 0, 4, 1, 5)
    for p in permutations(range(5)):
        assert from_cycles(cycles(p), 5) == p


def test_from_cycle_type_round_trip():
    for ctype in partitions(6):
        assert cycle_type(from_cycle_type(ctype)) == ctype


def test_partition_counts():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]
    assert [sum(1 for _ in partitions(n)) for n in range(16)] == counts
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


def test_transitivity():
    assert is_transitive((1, 2, 0), (0, 1, 2))
    assert not is_transitive((1, 0, 2), (0, 1, 2))


@pytest.mark.parametrize("ctype", [(4,), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1)])
def test_centralizer_elements_match_order_and_commute(ctype):
    p = from_cycle_type(ctype)
    elems = set(centralizer_elements(p))
    assert len(elems) == centralizer_order(ctype)
    assert all(compose(z, p) == compose(p, z) for z in elems)
    # against the brute-force centralizer
    n = len(p)
    brute = {z for z in permutations(range(n)) if compose(z, p) == compose(p, z)}
    assert elems == brute


def test_centralizer_elements_sequence():
    # identity first, no repeats, and the same sequence on every call
    for n in range(1, 7):
        for ctype in partitions(n):
            p = from_cycle_type(ctype)
            elems = list(centralizer_elements(p))
            assert elems[0] == tuple(range(n))
            assert len(set(elems)) == len(elems) == centralizer_order(ctype)
            assert list(centralizer_elements(p)) == elems


def test_centralizer_closure_checks_its_order(monkeypatch, capsys):
    # an order one more than the listing finds stands for a listing that
    # misses an element of Z(p)
    order = permutation.centralizer_order
    monkeypatch.setattr(permutation, "centralizer_order", lambda ctype: order(ctype) + 1)
    permutation.centralizer_elements.cache_clear()
    _enumerate_sts.cache_clear()
    try:
        for n in range(2, 7):
            for ctype in partitions(n):
                with pytest.raises(AssertionError, match="centralizer order"):
                    centralizer_elements(from_cycle_type(ctype))
        out = io.StringIO()
        assert main(["count", "sts", "--genus", "2", "--max-squares", "5"], out=out) == 3
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and err.count("\n") == 1
    finally:
        permutation.centralizer_elements.cache_clear()
        _enumerate_sts.cache_clear()


def test_conjugator_maps_p_to_q():
    for ctype in partitions(5):
        p = from_cycle_type(ctype)
        for q in permutations(range(5)):
            if cycle_type(q) == ctype:
                assert conjugate(conjugator(p, q), p) == q


def test_conjugator_rejects_other_cycle_type():
    with pytest.raises(ValueError):
        conjugator((1, 2, 0), (1, 0, 2))
    with pytest.raises(ValueError):
        conjugator((0, 1), (0, 1, 2))

"""Square-tiled surfaces in minimal strata and the cylinder cross-check.

A surface with N unit squares is a pair of permutations of {0,..,N-1}:
``sigma_h`` maps each square to its right neighbor, ``sigma_v`` to its
upper neighbor.  The pair must act transitively (connected surface).
Surfaces are counted up to simultaneous conjugation (square relabeling).

Height-one classes.  At g >= 2 a cylinder is a maximal stack of rows
(cycles of sigma_h) whose inner circles carry no cone point, and the
circle below a row carries the cone point iff the vertex permutation c
moves the bottom-left corner of some square of the row.  So a surface is
height-one, every row a cylinder of height 1, iff the support of c meets
every row; at g = 1, with no cone point, iff it has one row.  The census
lists only these.  Squashing each cylinder of width w to height 1, and
keeping its twist in [0, w), sends a surface of N squares to a height-one
surface with the same widths and a height vector h >= 1 over its rows
with sum h_i w_i = N; stretching row i back to height h_i inverts it.
The map commutes with relabeling, and it is a bijection on classes
because no height-one class has a nontrivial automorphism to carry one
height vector to another: at g >= 2 every class has |Aut| = 1, and at
g = 1 the torus has one row.  So a height-one class with sorted widths L
stands for one class per height vector h >= 1, with len(L) cylinders and
sum h_i L_i squares, and the census walks those h.

Enumeration at g = 1: the height-one tori are the N one-row tori, sigma_h
the rotation of the row and sigma_v the shift by -t, 0 <= t < N.  Each is
the least of its Z(sigma_h)-conjugates, since the rotations of the row
commute with sigma_v, and each has |Aut| = N.

Enumeration at g >= 2: sigma_h runs over one permutation per cycle type
with at most g cycles (a height-one surface has at most g rows, below).
The vertex permutation c = [sigma_v, sigma_h] is a (2g-1)-cycle, and the
condition is the same as sigma_v sigma_h sigma_v^{-1} = c sigma_h.  So
sigma_v is built, never searched for: for every such c with c sigma_h of
the cycle type of sigma_h, the solutions form the coset pi_0 Z(sigma_h),
where pi_0 is any permutation conjugating sigma_h to c sigma_h.
Conjugating sigma_v by Z(sigma_h) relabels the squares and keeps
sigma_h, so the classes with this sigma_h are the Z(sigma_h)-orbits of
the transitive coset members.  Conjugating by z in Z(sigma_h) maps the
coset of c onto the coset of z c z^{-1}, so one c per Z(sigma_h)-orbit
is scanned, and every class whose c lies in that orbit meets its coset.  A
class is represented by the least of its Z(sigma_h)-conjugates, which
may lie in the coset of another c of the orbit, so the classes of the
coset are the set of the least conjugates of its members.  The size of
that set proves that each has |Aut| = 1.  An automorphism
commutes with sigma_h and sigma_v, so it fixes c = [sigma_v, sigma_h]
and lies in the stabilizer Stab(c) = {y in Z(sigma_h) : y c y^{-1} = c},
and a class with |Aut| = a meets the coset of c in |Stab(c)|/a members.
The coset has |Z(sigma_h)| members, so the sum of 1/a over its classes
is |Z(sigma_h)|/|Stab(c)|: the number of classes times |Stab(c)| is at
least |Z(sigma_h)|, with equality iff every a is 1, and the census
asserts the equality.

Every coset member is transitive.  It satisfies [sigma_v, sigma_h] = c,
so <sigma_h, sigma_v> holds sigma_h, whose orbits are the rows, and c.
The one cycle of c meets every row, since only such supports are kept
(below), so one orbit holds every square.  In the loop every permutation
is a byte string: p q is q.translate(p + bytes(range(N, 256))), one C
call, and y p y^{-1} is two.  Z(sigma_h) is built as byte strings from
the rows of the canonical sigma_h, which lie on consecutive blocks.  The
kernel yields the classes one coset at a time and keeps none: census
keeps only the number of classes per width multiset and per N, and only
enumerate_sts builds SquareTiledSurface objects.

The candidates c are found by their supports.  z maps the support of c
onto that of z c z^{-1}, so the cycles on one (2g-1)-subset per
Z(sigma_h)-orbit of subsets meet every orbit of c.  Z(sigma_h) =
prod_L C_L wr S_{m_L} rotates each row (cycle of sigma_h) and permutes
the rows of one length, so two subsets lie in one orbit iff they have
the same sorted list of (row length, rotation-least bit pattern on the
row) over the rows they meet.  Only the subsets that meet every row are
kept.  A height-one sigma_h has at most g rows, by Riemann-Hurwitz: a
support S meeting k rows carries the first-return map rho of sigma_h on
S, with k cycles, c restricted to S is one (2g-1)-cycle gamma, and
c sigma_h has the cycle type of sigma_h only if gamma rho has k cycles
too; gamma, rho and (gamma rho)^{-1} generate a transitive group on S
with product 1, so 1 + k + k <= (2g - 1) + 2, that is k <= g.

The vertex permutation acts on bottom-left corners: rotating a full turn
counterclockwise around the corner of square x visits the squares

    x -> left -> below-left -> right of that -> up,

which composes to sigma_v o sigma_h o sigma_v^{-1} o sigma_h^{-1}.  A
corner whose vertex has 4m incident squares lies on a cycle of length m,
so cone points of the flat metric are the nontrivial cycles; membership in
the minimal stratum of genus g means a single cycle of length 2g-1
(for g = 1 the vertex permutation is trivial and the marked point is a
regular point).  The census checks this for every class it lists, on
bytes: it forms the commutator with bytes.maketrans and translate, from
sigma_h and sigma_h^{-1} built once per cycle type, counts the moved
points and walks the orbit of the first.

Counting convention: the census reports both the plain number of
conjugacy classes and the 1/|Aut|-weighted number.  The cylinder identity
(census counts against the metric-counting route) holds for the
UNWEIGHTED class count; verify_cylinder_formula checks it per width
multiset of the height-one classes and per (n, N) cell.  At g >= 2 the
two counts coincide, because a translation fixing the unique cone point
is trivial; at g = 1 every torus of N squares has N translations.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, groupby, permutations, product, repeat
from math import prod
from typing import Collection, Iterable, Iterator, Sequence

from .permutation import (
    Perm,
    conjugator,
    cycle_type,
    cycles,
    from_cycle_type,
    indexed_cycles,
    inverse,
    multiplicity_factorial,
    partitions,
)
from .ribbon import PerimeterPair, counting_function

__all__ = [
    "SquareTiledSurface",
    "enumerate_sts",
    "zero_profile",
    "census",
    "verify_cylinder_formula",
    "MAX_SQUARES",
]

MAX_SQUARES = 8


@dataclass(frozen=True)
class SquareTiledSurface:
    """Pair of permutations on labeled squares (right and upper neighbor)."""

    sigma_h: Perm
    sigma_v: Perm

    def __post_init__(self) -> None:
        if not sorted(self.sigma_h) == sorted(self.sigma_v) == list(range(len(self.sigma_h))):
            raise ValueError("sigma_h and sigma_v must be permutations of the same squares")

    def vertex_permutation(self) -> Perm:
        """Action on bottom-left corners: sigma_v o sigma_h o sigma_v^-1 o sigma_h^-1."""
        inv_v = inverse(self.sigma_v)
        return tuple(
            map(self.sigma_v.__getitem__,
                map(self.sigma_h.__getitem__,
                    map(inv_v.__getitem__, inverse(self.sigma_h))))
        )


def zero_profile(surface: SquareTiledSurface) -> list[int]:
    """Sorted cone orders: (cycle length - 1) over nontrivial vertex cycles.

    A trivial vertex permutation (torus) reports [0]: the distinguished
    marked point is a regular point, a zero of order 0.
    """
    c = surface.vertex_permutation()
    profile = sorted(len(cyc) - 1 for cyc in cycles(c) if len(cyc) > 1)
    return profile if profile else [0]


# The rows (the cycles of sigma_h) and the index of each square's row.
_rows = cache(indexed_cycles)


# ---------------------------------------------------------------------------
# Enumeration up to simultaneous conjugation
# ---------------------------------------------------------------------------

# Byte i is i: p + _IDENTITY[len(p):] is the bytes.translate table of a
# permutation p given as bytes, and q.translate of it is p q.
_IDENTITY = bytes(range(256))


@cache
def _least_rotations(length: int) -> tuple[int, ...]:
    """Entry b: the least rotation of the length-bit pattern b."""
    mask = (1 << length) - 1
    return tuple(
        min((b >> r | b << length - r) & mask for r in range(length)) for b in range(1 << length)
    )


def _supports(sh: bytes, g: int) -> Iterator[tuple[int, ...]]:
    """One (2g-1)-subset of the squares per Z(sigma_h)-orbit, meeting every row.

    Z(sigma_h) rotates each row and permutes the rows of one length, so
    the orbit of a subset is named by the length of each row it meets with
    the rotation-least bit pattern of the subset on that row, sorted.  The
    first subset of each orbit is yielded, in the order of combinations.
    A subset that misses a row is the support of no height-one surface's
    vertex cycle c (module docstring), so it is skipped.
    """
    row_list, row_of = _rows(sh)
    bit_of = [1 << row_list[row_of[x]].index(x) for x in range(len(sh))]
    least_of = [_least_rotations(len(row)) for row in row_list]
    keys = set()
    for support in combinations(range(len(sh)), 2 * g - 1):
        bits: dict[int, int] = {}
        for x in support:
            idx = row_of[x]
            bits[idx] = bits.get(idx, 0) | bit_of[x]
        if len(bits) < len(row_list):
            continue
        key = tuple(sorted((len(row_list[idx]), least_of[idx][b]) for idx, b in bits.items()))
        if key not in keys:
            keys.add(key)
            yield support


# The classes of one coset: (sigma_h, its widths, the sigma_v), every
# permutation as bytes.
_Coset = tuple[bytes, tuple[int, ...], Collection[bytes]]


def _bytes_inverse(p: bytes) -> bytes:
    """p^-1 as bytes: the table with entry p[i] = i."""
    return bytes.maketrans(p, _IDENTITY[:len(p)])[:len(p)]


def _commutator(sv: bytes, sh: bytes, sh_inv: bytes) -> bytes:
    """sigma_v sigma_h sigma_v^-1 sigma_h^-1, every permutation as bytes.

    sigma_v sigma_h sigma_v^-1 maps sigma_v[x] to sigma_v[sigma_h[x]], so
    bytes.maketrans gives its table, and sigma_h^-1 translated by that
    table is the commutator.
    """
    return sh_inv.translate(bytes.maketrans(sv, sh.translate(sv + _IDENTITY[len(sv):])))


def _in_stratum(g: int, widths: tuple[int, ...], sv: bytes, c: bytes) -> None:
    """Raise unless the vertex permutation c is one (2g-1)-cycle, the identity at g = 1.

    c moves 2g - 1 points (none at g = 1), and the orbit of the first
    moved point holds them all.
    """
    moved = [x for x, y in enumerate(c) if x != y]
    length = 0
    if moved:
        x, length = c[moved[0]], 1
        while x != moved[0]:
            x, length = c[x], length + 1
    if not len(moved) == length == (2 * g - 1 if g > 1 else 0):
        raise AssertionError(
            f"census class outside the minimal stratum of genus {g}: widths {widths}, "
            f"sigma_v {tuple(sv)}, commutator of cycle type {cycle_type(c)}"
        )


def _torus_classes(n_squares: int) -> Iterator[_Coset]:
    """The n_squares one-row tori as one block: sigma_h rotates the row, sigma_v shifts by -t."""
    widths = (n_squares,)
    sh = bytes(from_cycle_type(widths))
    sh_inv = _bytes_inverse(sh)
    row = _IDENTITY[:n_squares]
    shifts = [row[-t:] + row[:-t] for t in range(n_squares)]  # t = 0: row[-0:] is row
    for sv in shifts:
        _in_stratum(1, widths, sv, _commutator(sv, sh, sh_inv))
    yield sh, widths, shifts


def _classes(g: int, n_squares: int) -> Iterable[_Coset]:
    """The height-one classes with n_squares squares, one (sigma_h, widths, sigma_v) per coset.

    The arguments are checked at the call; the classes are listed while
    the result is iterated, each coset once every check on it has passed.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    if n_squares < 1 or n_squares > MAX_SQUARES:
        raise ValueError(f"need 1 <= N <= {MAX_SQUARES}")
    if n_squares < 2 * g - 1:
        return ()
    return _torus_classes(n_squares) if g == 1 else _coset_classes(g, n_squares)


def enumerate_sts(g: int, n_squares: int) -> list[tuple[SquareTiledSurface, int]]:
    """Height-one conjugacy classes of admissible pairs with exactly n_squares squares.

    Every row of a listed class is a whole cylinder; the classes with
    taller cylinders follow from these by the height bijection of the
    module docstring.  Returns (representative, |Aut|) with |Aut| the
    centralizer order of the pair, sorted by (sigma_h, sigma_v); every
    representative is the least of its Z(sigma_h)-conjugates.  The list is
    built on each call from the (sigma_h, sigma_v) byte pairs of `_classes`,
    which sort as the tuples do; nothing is cached.

    g = 1: the classes are the N one-row tori of `_torus_classes`, each
    with |Aut| = N (the translations along the row).  Z(sigma_h) is the
    rotations of the row, which fix sigma_v, itself a rotation.

    g >= 2: sigma_h runs over one representative per cycle type with at
    most g cycles.  For each (2g-1)-cycle c with c sigma_h of the cycle
    type of sigma_h, the sigma_v with sigma_v sigma_h sigma_v^-1 = c sigma_h
    form the coset pi_0 Z(sigma_h), pi_0 = conjugator(sigma_h, c sigma_h),
    and every other c contributes none.  The c are the cycles on one
    support per Z(sigma_h)-orbit of (2g-1)-subsets that meet every row,
    walked in order, and a c in the Z(sigma_h)-orbit of an earlier one is
    skipped.  Every coset member is transitive, and the classes of a coset
    are the least Z(sigma_h)-conjugates of its members, each with
    |Aut| = 1.  Their number times |Stab(c)|, the y in Z(sigma_h) with
    y c y^-1 = c, must be the number of coset members, which holds iff
    every class has |Aut| = 1 (module docstring).

    Every class, tori included, is checked on bytes to have a vertex
    permutation of the stratum: one (2g-1)-cycle, the identity at g = 1
    (AssertionError naming the class if a check fails).
    """
    pairs = sorted((sh, sv) for sh, _, classes in _classes(g, n_squares) for sv in classes)
    aut = n_squares if g == 1 else 1
    return [(SquareTiledSurface(tuple(sh), tuple(sv)), aut) for sh, sv in pairs]


def _centralizer(sh: bytes) -> list[bytes]:
    """Every element of Z(sigma_h) as bytes, the identity first.

    z commutes with sigma_h iff it maps each row onto a row of the same
    length, at one of its rotations: per length, one ordering of the rows
    of that length and one rotation of each.  sigma_h = from_cycle_type(ctype)
    has its rows on consecutive blocks, longest first, so z is the
    concatenation of the images of the rows in order.
    """
    groups = [[bytes(row) for row in rows] for _, rows in groupby(_rows(sh)[0], len)]
    choices = [
        [
            b"".join(row[r:] + row[:r] for row, r in zip(order, shifts))
            for order in permutations(group)
            for shifts in product(range(len(group[0])), repeat=len(group))
        ]
        for group in groups
    ]
    return [b"".join(image) for image in product(*choices)]


def _conjugates(p: bytes, tables: Sequence[bytes], inverses: Sequence[bytes]) -> Iterator[bytes]:
    """y p y^-1 for each y, given by its translate table and its inverse, in order.

    The one place the census conjugates: y^-1 translated by the table of p
    is p y^-1, and that translated by the table of y is y p y^-1.
    """
    table = p + _IDENTITY[len(p):]
    return map(bytes.translate, map(bytes.translate, inverses, repeat(table)), tables)


def _coset_classes(g: int, n_squares: int) -> Iterator[_Coset]:
    """The classes at g >= 2, one coset at a time, unsorted.

    Each sigma_h gets one coset per Z(sigma_h)-orbit of c, yielded with
    its set of classes once the stratum check of each class and the orbit
    count have passed.  c, pi_0, sigma_v and Z(sigma_h) are bytes: p q is
    q translated by the table p + _IDENTITY[N:], and every conjugate goes
    through `_conjugates`.
    """
    table_tail = _IDENTITY[n_squares:]
    for ctype in partitions(n_squares):
        if len(ctype) > g:  # no height-one surface has more than g rows
            continue
        sh = bytes(from_cycle_type(ctype))
        sh_inv = _bytes_inverse(sh)
        centralizer = _centralizer(sh)
        tables = tuple(z + table_tail for z in centralizer)
        inverses = tuple(map(_bytes_inverse, centralizer))
        for first, *rest in _supports(sh, g):
            # Kept supports lie in distinct Z(sigma_h)-orbits, so only the
            # conjugates of this support's cycles can come up again.
            seen: set[bytes] = set()
            for tail in permutations(rest):
                cycle = bytes((first, *tail))
                c_table = bytes.maketrans(cycle, cycle[1:] + cycle[:1])
                c = c_table[:n_squares]
                if c in seen:
                    continue
                c_sh = sh.translate(c_table)
                if cycle_type(c_sh) != ctype:
                    continue
                images = list(_conjugates(c, tables, inverses))
                seen.update(images)
                pi_0 = bytes(conjugator(sh, c_sh)) + table_tail
                leasts = {
                    min(_conjugates(sv, tables, inverses))
                    for sv in map(bytes.translate, centralizer, repeat(pi_0))
                }
                for sv in leasts:
                    _in_stratum(g, ctype, sv, _commutator(sv, sh, sh_inv))
                # An automorphism fixes c = [sigma_v, sigma_h], so a class with
                # |Aut| = a meets the coset in |Stab(c)|/a of its |Z(sigma_h)|
                # members: the count below holds iff every class has |Aut| = 1.
                stab_order = images.count(c)
                if len(leasts) * stab_order != len(tables):
                    raise AssertionError(
                        f"census of sigma_h {tuple(sh)}, c {tuple(c)}: {len(leasts)} classes "
                        f"with |Stab(c)| = {stab_order} against {len(tables)} "
                        "transitive coset members"
                    )
                yield sh, ctype, leasts


@cache
def _class_counts(g: int, n_squares: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The height-one classes with n_squares squares as (widths, count) pairs.

    The widths of a class are the row lengths, the cycle type of sigma_h.
    Only these counts are cached, never a class.
    """
    counts: Counter[tuple[int, ...]] = Counter()
    for _, widths, classes in _classes(g, n_squares):
        counts[widths] += len(classes)
    return tuple(counts.items())


def _width_counts(g: int, n_max: int) -> Counter[tuple[int, ...]]:
    """The height-one classes with at most n_max squares, by sorted widths."""
    counts: Counter[tuple[int, ...]] = Counter()
    for n_squares in range(1, n_max + 1):
        counts.update(dict(_class_counts(g, n_squares)))
    return counts


def census(g: int, n_max: int) -> dict[tuple[int, int], tuple[int, Fraction]]:
    """Counts by (cylinder count n, squares N) for all N <= n_max.

    Values are (class count, 1/|Aut|-weighted class count), in order of N
    and then of n descending.  Each height-one class with sorted widths L
    stands for one class per height vector h >= 1 (module docstring), with
    len(L) cylinders and sum h_i L_i squares; the walk below lists those
    sums up to n_max.  A torus of N squares has N translations, so at
    g = 1 the weighted count is count / N; at g >= 2 it is the count,
    since the listing asserts |Aut| = 1.
    """
    cells: Counter[tuple[int, int]] = Counter()
    for widths, classes in _width_counts(g, n_max).items():
        areas = [0]
        for width in widths:
            areas = [a + h * width for a in areas for h in range(1, (n_max - a) // width + 1)]
        for area in areas:
            cells[len(widths), area] += classes
    return {
        (n_cyl, n_squares): (count, Fraction(count, n_squares if g == 1 else 1))
        for (n_cyl, n_squares), count in sorted(cells.items(), key=lambda c: (c[0][1], -c[0][0]))
    }


def _width_weights(g: int, n_max: int) -> dict[tuple[int, ...], Fraction]:
    """Right-hand side of the cylinder identity per width multiset L, sum L <= n_max.

    The n-cylinder height-one classes with sorted widths L number
    L_1 .. L_n * P^{g-n}_{n,n}(L; L) / prod m_i!, with m_i the
    multiplicities in L and the counting function evaluated exactly at the
    lattice point (walls included).  Every factor is symmetric in L
    (relabeling black and white vertices alike keeps the family count), so
    this is (1/n!) times the sum over the n! / prod m_i! orderings of L.
    Only the nonzero weights are listed.
    """
    weights = {}
    for length_sum in range(1, n_max + 1):
        for lengths in partitions(length_sum):
            n_cyl = len(lengths)
            if n_cyl > g:
                continue
            value = counting_function(g - n_cyl, n_cyl, n_cyl, PerimeterPair(lengths, lengths))
            if value:
                weights[lengths] = Fraction(prod(lengths), multiplicity_factorial(lengths)) * value
    return weights


def predicted_counts(
    weights: dict[tuple[int, ...], Fraction], n_max: int
) -> dict[tuple[int, int], Fraction]:
    """Right-hand side of the cylinder identity, by (cylinder count n, squares N).

    The n-cylinder classes with N squares number the sum, over the width
    multisets L of weights (from `_width_weights`) and the positive h
    with sum h_i L_i = N, of the weight of L.  The h-tuples of L, for every
    N <= n_max at once, are the coefficients of
    prod_i q^{L_i} / (1 - q^{L_i}).  Only the nonzero cells are listed.
    """
    cells: defaultdict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for lengths, weight in weights.items():
        h_tuples = [1] + [0] * n_max
        for length in lengths:
            shifted = [0] * (n_max + 1)  # times q^L / (1 - q^L)
            for m in range(length, n_max + 1):
                shifted[m] = h_tuples[m - length] + shifted[m - length]
            h_tuples = shifted
        for n_squares, count in enumerate(h_tuples):
            if count:
                cells[len(lengths), n_squares] += weight * count
    return {key: count for key, count in cells.items() if count}


def verify_cylinder_formula(g: int, n_max: int) -> bool:
    """Cross-check the census against the tree/metric counting route.

    First per width multiset L with sum L <= n_max: the height-one classes
    with sorted widths L must number the weight of L in `_width_weights`.
    Then for every n <= g and N <= n_max the unweighted number of
    n-cylinder classes with N squares must equal the exact lattice sum of
    the counting functions.
    """
    weights = _width_weights(g, n_max)
    if _width_counts(g, n_max) != weights:
        return False
    observed = {key: count for key, (count, _) in census(g, n_max).items()}
    return observed == predicted_counts(weights, n_max)

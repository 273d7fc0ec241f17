"""Command-line front end.

Subcommands
-----------

* ``volumes``   normalized contributions a_{g,n} and the volumes they scale to
* ``pnumbers``  the positive-tree counts with even indices up to a weight
* ``series``    coefficients of the bivariate generating function C(t,u)
* ``count``     one exact count: ``ribbon`` metrics, positive ``trees``, or
  the ``sts`` census of square-tiled surfaces
* ``verify``    one cross-validation suite, or ``all``; nonzero exit on any failure

Each command, each ``count`` kind and each ``verify`` suite is a leaf of
the parser tree.  A leaf declares ``--format`` and only the flags its
command reads, with their real defaults, and names the ``cmd_*`` function
that runs it.  A flag the leaf does not declare is argparse's
``unrecognized arguments`` error: a usage line and an error line on
stderr, exit 2.

All exact values are printed as rational strings; ``volumes --float``
adds a decimal column for display only.  Identical invocations produce
byte-identical output.

An input the parser accepts but a command refuses, such as a value past a
guard, exits with code 2 and a one-line ``error:`` message on stderr; every
such refusal is a check in this module.  A ``ValueError`` or
``AssertionError`` from the package on accepted input is a broken internal
invariant: it exits with code 3 and a one-line ``internal error:``
message, without a traceback.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import pnum, ribbon, sts, volumes
from .permutation import partitions
from .pnum import p_value
from .ribbon import PerimeterPair
from .scalars import format_rational

GMAX_LIMIT = 10
WEIGHT_LIMIT = 20
ORDER_LIMIT = 20
# Work cap of `count ribbon`.  At genus 0 the family sum tests each of the
# k^(l-1) l^(k-1) spanning trees of K_{k,l} once.  Above it the guard is
# graph classes * max(perimeter)^(2g), the lattice points a scan of every
# edge weight off a spanning tree would visit.  That formula and this value
# decide which inputs are accepted, but they do not bound the transfer of
# `ribbon._count_metrics`, whose states per edge multiset are at most
# prod_v (L_v + 1).  The slowest accepted inputs measured are the (1, 3, 4)
# and (1, 4, 3) families at perimeters <= 3, e.g. (3,2,3; 2,1,2,3): about
# 1.1 s end to end on a 2-vCPU x86 host, 0.2 s of it the count and most of
# the rest listing the 79,380 classes.
RIBBON_WORK_LIMIT = 10**6


class _Refused(Exception):
    """An input the CLI refuses; main prints it as one ``error:`` line."""


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree; each leaf declares only the flags its command reads.

    Cached: parsing leaves the parser unchanged, so every call shares one
    and no caller may change it.
    """
    parser = argparse.ArgumentParser(
        prog="stratavol",
        description="Exact cylinder-refined volume tables and verification suites.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_vol = _leaf(commands, "volumes", cmd_volumes, help="table of a_{g,n} and volumes")
    p_vol.add_argument("--gmax", type=int, default=4)
    p_vol.add_argument("--float", action="store_true", dest="with_float",
                       help="add a decimal display column")

    p_pn = _leaf(commands, "pnumbers", cmd_pnumbers,
                 help="even-index p-numbers up to a weight")
    p_pn.add_argument("--weight", type=int, default=8)

    p_ser = _leaf(commands, "series", cmd_series, help="coefficients of C(t,u)")
    p_ser.add_argument("--order", type=int, default=8)

    kinds = commands.add_parser("count", help="one exact count").add_subparsers(
        dest="kind", required=True
    )
    p_ribbon = _leaf(kinds, "ribbon", cmd_count_ribbon,
                     help="automorphism-weighted metric count of the (g,k,l) family")
    p_ribbon.add_argument("--genus", type=int, default=0)
    _add_perimeters(p_ribbon)
    _add_perimeters(_leaf(kinds, "trees", cmd_count_trees,
                          help="trees of the genus-0 family positive at a point"))
    p_sts = _leaf(kinds, "sts", cmd_count_sts, help="census of square-tiled surfaces")
    p_sts.add_argument("--genus", type=int, required=True)
    _add_max_squares(p_sts)

    suites = commands.add_parser("verify", help="run a verification suite").add_subparsers(
        dest="suite", required=True
    )
    for suite in (*VERIFY_CHECKS, "all"):
        p_suite = _leaf(suites, suite, cmd_verify)
        if suite in ("oracle-p", "all"):
            p_suite.add_argument("--seed", type=int, default=0)
        if suite in ("oracle-sts", "all"):
            _add_max_squares(p_suite)

    return parser


def _leaf(subparsers, name: str, run, **kwargs) -> argparse.ArgumentParser:
    """A command parser with ``--format`` that dispatches to ``run``."""
    leaf = subparsers.add_parser(name, **kwargs)
    leaf.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    leaf.set_defaults(run=run)
    return leaf


def _add_perimeters(leaf: argparse.ArgumentParser) -> None:
    leaf.add_argument("--black-perimeters", required=True,
                      help="comma-separated integers, e.g. 5,1")
    leaf.add_argument("--white-perimeters", required=True)


def _add_max_squares(leaf: argparse.ArgumentParser) -> None:
    leaf.add_argument("--max-squares", type=int, default=6)


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


def _emit_rows(args, header: list[str], rows: list[dict], out) -> None:
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True), file=out)
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([row[h] for h in header] for row in rows)
    else:
        widths = [
            max(len(h), *(len(str(row[h])) for row in rows)) if rows else len(h)
            for h in header
        ]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)), file=out)
        for row in rows:
            print(
                "  ".join(str(row[h]).ljust(w) for h, w in zip(header, widths)),
                file=out,
            )


def _parse_perimeters(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _Refused(f"{flag} must be comma-separated integers") from None


def _perimeter_point(args, genus: int) -> PerimeterPair:
    """The point of ``--black/white-perimeters``, within the edge bound at ``genus``."""
    black = _parse_perimeters(args.black_perimeters, "--black-perimeters")
    white = _parse_perimeters(args.white_perimeters, "--white-perimeters")
    if genus < 0:
        raise _Refused("need g >= 0, k >= 1, l >= 1")
    n_edges = len(black) + len(white) - 1 + 2 * genus
    if n_edges > ribbon.MAX_EDGES:
        raise _Refused(
            f"(g,k,l)=({genus},{len(black)},{len(white)}) needs {n_edges} edges; "
            f"bound is {ribbon.MAX_EDGES}"
        )
    return PerimeterPair(black, white)


def _check_ribbon_work(genus: int, black: tuple[int, ...], white: tuple[int, ...]) -> None:
    k, l = len(black), len(white)
    graphs = len(ribbon.enumerate_graphs(genus, k, l)) if genus else k ** (l - 1) * l ** (k - 1)
    work = graphs * max(1, *black, *white) ** (2 * genus)
    if work > RIBBON_WORK_LIMIT:
        raise _Refused(
            f"count ribbon would visit up to {work} lattice points; "
            f"the cap is {RIBBON_WORK_LIMIT}"
        )


def _check_max_squares(n: int) -> None:
    if n < 1:
        raise _Refused("--max-squares must be >= 1")
    if n > sts.MAX_SQUARES:
        raise _Refused(f"--max-squares is capped at {sts.MAX_SQUARES}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_volumes(args, out) -> int:
    if args.gmax < 1:
        raise _Refused("--gmax must be >= 1")
    if args.gmax > GMAX_LIMIT:
        raise _Refused(f"--gmax is capped at {GMAX_LIMIT}")
    rows = []
    header = ["g", "n", "a_gn"]
    if args.format == "json":
        header = ["g", "n", "a_gn", "vol"]
    if args.with_float:
        header = header + ["vol_float"]
    for g in range(1, args.gmax + 1):
        for n in range(1, g + 1):
            a = volumes.a_gn(g, n)
            vol = volumes.vol_n(g, n)
            row: dict[str, object] = {"g": g, "n": n, "a_gn": format_rational(a)}
            if "vol" in header:
                row["vol"] = vol.to_json()
            if args.with_float:
                row["vol_float"] = repr(vol.to_float())
            rows.append(row)
    _emit_rows(args, header, rows, out)
    return 0


def cmd_pnumbers(args, out) -> int:
    if args.weight < 2:
        raise _Refused("--weight must be >= 2")
    if args.weight > WEIGHT_LIMIT:
        raise _Refused(f"--weight is capped at {WEIGHT_LIMIT}")
    entries = []
    for weight in range(2, args.weight + 1, 2):
        for half in partitions(weight // 2):
            parts = [2 * x for x in half]
            entries.append({"parts": parts, "value": str(p_value(parts))})
    if args.format == "json":
        print(json.dumps(entries, sort_keys=True), file=out)
    else:
        rows = [
            {"parts": "+".join(str(p) for p in e["parts"]), "value": e["value"]}
            for e in entries
        ]
        _emit_rows(args, ["parts", "value"], rows, out)
    return 0


def cmd_series(args, out) -> int:
    if args.order > ORDER_LIMIT:
        raise _Refused(f"--order is capped at {ORDER_LIMIT}")
    if args.order < 2 or args.order % 2:
        raise _Refused("--order must be even and >= 2")
    series = volumes.c_series(args.order)
    rows = []
    for k in range(series.order + 1):
        upoly = series.coefficient(k)
        rows.append(
            {
                "t_power": k,
                "u_coeffs": [format_rational(c) for c in upoly.coeffs],
            }
        )
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True), file=out)
    else:
        flat = [
            {"t_power": r["t_power"], "coeff_of_u^j": " ".join(r["u_coeffs"]) or "0"}
            for r in rows
        ]
        _emit_rows(args, ["t_power", "coeff_of_u^j"], flat, out)
    return 0


def cmd_count_sts(args, out) -> int:
    if args.genus < 1:
        raise _Refused("--genus must be >= 1 for sts counts")
    _check_max_squares(args.max_squares)
    table = sts.census(args.genus, args.max_squares)
    rows = []
    cumulative = 0
    for (n_cyl, n_squares), (count, weighted) in sorted(table.items()):
        cumulative += count
        rows.append(
            {
                "g": args.genus,
                "N": n_squares,
                "n": n_cyl,
                "count": count,
                "weighted_count": format_rational(weighted),
            }
        )
    _emit_rows(args, ["g", "N", "n", "count", "weighted_count"], rows, out)
    if args.format == "pretty":
        print(f"total classes with N <= {args.max_squares}: {cumulative}", file=out)
    return 0


def cmd_count_ribbon(args, out) -> int:
    point = _perimeter_point(args, args.genus)
    black, white = point.black, point.white
    # counting_function gives 0 at an unbalanced point, or one with a
    # perimeter below 1, before it enumerates the family.
    if point.is_balanced() and min(black + white) >= 1:
        _check_ribbon_work(args.genus, black, white)
    value = ribbon.counting_function(args.genus, len(black), len(white), point)
    print(format_rational(value), file=out)
    return 0


def cmd_count_trees(args, out) -> int:
    point = _perimeter_point(args, 0)
    if not point.is_balanced():
        raise _Refused("perimeters must balance: sum L = sum L'")
    print(ribbon.count_positive_trees(len(point.black), len(point.white), point), file=out)
    return 0


def _oracle_p_check(seed: int) -> tuple[bool, str]:
    checked = 0
    for k in range(1, 5):
        for l in range(1, 5):
            for n in range(1, min(k, l) + 1):
                for b in pnum.compositions(k, n):
                    for w in pnum.compositions(l, n):
                        if ribbon.p0_oracle(b, w, seed=seed) != pnum.p_bw_value(b, w):
                            return False, f"mismatch at b={b}, w={w}"
                        checked += 1
    return True, f"{checked} block walls agree"


def _oracle_sts_check(max_squares: int) -> tuple[bool, str]:
    passed = all(sts.verify_cylinder_formula(g, max_squares) for g in (1, 2))
    return passed, f"g <= 2, N <= {max_squares}"


# Each suite's check, as (passed, detail) from the parsed arguments; the
# suite ``all`` runs them in this order.
VERIFY_CHECKS = {
    "bivariate": lambda args: (volumes.verify_bivariate_relation(6), "g <= 6"),
    "multivariate": lambda args: (pnum.verify_multivariate_relation(8, 8), "weight <= 8"),
    "walls": lambda args: (ribbon.verify_wall_constancy(), "cells of V_2, V_3"),
    "oracle-p": lambda args: _oracle_p_check(args.seed),
    "oracle-sts": lambda args: _oracle_sts_check(args.max_squares),
}


def cmd_verify(args, out) -> int:
    # refused before any suite runs; only the leaves that run oracle-sts have it
    if "max_squares" in args:
        _check_max_squares(args.max_squares)
    names = list(VERIFY_CHECKS) if args.suite == "all" else [args.suite]
    results = []
    all_passed = True
    for name in names:
        passed, detail = VERIFY_CHECKS[name](args)
        all_passed = all_passed and passed
        results.append({"check": name, "passed": passed, "detail": detail})
    if args.format == "json":
        print(json.dumps({"checks": results, "passed": all_passed}, sort_keys=True), file=out)
    elif args.format == "csv":
        _emit_rows(args, ["check", "passed", "detail"], results, out)
    else:
        for r in results:
            status = "ok" if r["passed"] else "FAIL"
            print(f"{status:4s} {r['check']}: {r['detail']}", file=out)
    return 0 if all_passed else 1


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, out)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands
-----------

* ``volumes``   normalized contributions a_{g,n} and the volumes they scale to
* ``pnumbers``  the positive-tree counts with even indices up to a weight
* ``series``    coefficients of the bivariate generating function C(t,u)
* ``count``     one exact count: ribbon metrics, positive trees, or surfaces
* ``verify``    the cross-validation suites; nonzero exit on any failure

All exact values are printed as rational strings; ``--float`` adds a
decimal column for display only.  Identical invocations produce
byte-identical output.

A broken internal invariant exits with code 3 and a one-line
``internal error:`` message on stderr, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pnum, ribbon, sts, volumes
from .pnum import p_value
from .ribbon import PerimeterPair
from .scalars import format_rational

GMAX_LIMIT = 10
WEIGHT_LIMIT = 20
ORDER_LIMIT = 20

VERIFY_SUITES = ("bivariate", "multivariate", "walls", "oracle-p", "oracle-sts", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratavol",
        description="Exact cylinder-refined volume tables and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vol = sub.add_parser("volumes", help="table of a_{g,n} and volumes")
    p_vol.add_argument("--gmax", type=int, default=4)
    _add_common(p_vol)

    p_pn = sub.add_parser("pnumbers", help="even-index p-numbers up to a weight")
    p_pn.add_argument("--weight", type=int, default=8)
    _add_common(p_pn)

    p_ser = sub.add_parser("series", help="coefficients of C(t,u)")
    p_ser.add_argument("--order", type=int, default=8)
    _add_common(p_ser)

    p_count = sub.add_parser("count", help="one exact count")
    p_count.add_argument("kind", choices=("ribbon", "trees", "sts"))
    p_count.add_argument("--genus", type=int, default=0)
    p_count.add_argument("--black-perimeters", type=str, default=None,
                         help="comma-separated integers, e.g. 5,1")
    p_count.add_argument("--white-perimeters", type=str, default=None)
    p_count.add_argument("--max-squares", type=int, default=6)
    _add_common(p_count)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=VERIFY_SUITES)
    p_ver.add_argument("--max-squares", type=int, default=6)
    p_ver.add_argument("--seed", type=int, default=0)
    _add_common(p_ver)

    return parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    sub.add_argument("--float", action="store_true", dest="with_float",
                     help="add a decimal display column")


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


def _emit_rows(args, header: list[str], rows: list[dict], out) -> None:
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True), file=out)
    elif args.format == "csv":
        print(",".join(header), file=out)
        for row in rows:
            print(",".join(str(row[h]) for h in header), file=out)
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


def _parse_perimeters(text: str | None, flag: str) -> tuple[int, ...]:
    if not text:
        raise SystemExit(f"error: {flag} is required for this count")
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SystemExit(f"error: {flag} must be comma-separated integers")
    if not values:
        raise SystemExit(f"error: {flag} must be non-empty")
    return values


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_volumes(args, out) -> int:
    if args.gmax > GMAX_LIMIT:
        raise SystemExit(f"error: --gmax is capped at {GMAX_LIMIT}")
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
    if args.weight > WEIGHT_LIMIT:
        raise SystemExit(f"error: --weight is capped at {WEIGHT_LIMIT}")
    entries = []
    for weight in range(2, args.weight + 1, 2):
        for parts in pnum.partitions_min2(weight):
            if any(part % 2 for part in parts):
                continue
            entries.append({"parts": list(parts), "value": str(p_value(parts))})
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
        raise SystemExit(f"error: --order is capped at {ORDER_LIMIT}")
    if args.order < 2 or args.order % 2:
        raise SystemExit("error: --order must be even and >= 2")
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


def cmd_count(args, out) -> int:
    if args.kind == "sts":
        if args.genus < 1:
            raise SystemExit("error: --genus must be >= 1 for sts counts")
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

    black = _parse_perimeters(args.black_perimeters, "--black-perimeters")
    white = _parse_perimeters(args.white_perimeters, "--white-perimeters")
    point = PerimeterPair(black, white)
    if args.kind == "ribbon":
        value = ribbon.counting_function(args.genus, len(black), len(white), point)
        print(format_rational(value), file=out)
    else:
        print(ribbon.count_positive_trees(len(black), len(white), point), file=out)
    return 0


def _oracle_p_check(seed: int) -> tuple[bool, str]:
    checked = 0
    for k in range(1, 5):
        for l in range(1, 5):
            for n in range(1, min(k, l) + 1):
                for b in pnum.compositions(k, n, 1):
                    for w in pnum.compositions(l, n, 1):
                        if ribbon.p0_oracle(b, w, seed=seed) != pnum.p_bw_value(b, w):
                            return False, f"mismatch at b={b}, w={w}"
                        checked += 1
    return True, f"{checked} block walls agree"


def cmd_verify(args, out) -> int:
    n_max = min(args.max_squares, sts.MAX_SQUARES)
    checks: list[tuple[str, object]] = []
    if args.suite in ("bivariate", "all"):
        checks.append(
            ("bivariate", lambda: (volumes.verify_bivariate_relation(6), "g <= 6"))
        )
    if args.suite in ("multivariate", "all"):
        checks.append(
            (
                "multivariate",
                lambda: (pnum.verify_multivariate_relation(8, 8), "weight <= 8"),
            )
        )
    if args.suite in ("walls", "all"):
        checks.append(
            ("walls", lambda: (ribbon.verify_wall_constancy(), "cells of V_2, V_3"))
        )
    if args.suite in ("oracle-p", "all"):
        checks.append(("oracle-p", lambda: _oracle_p_check(args.seed)))
    if args.suite in ("oracle-sts", "all"):
        checks.append(
            (
                "oracle-sts",
                lambda: (
                    sts.verify_cylinder_formula(1, n_max)
                    and sts.verify_cylinder_formula(2, n_max),
                    f"g <= 2, N <= {n_max}",
                ),
            )
        )

    results = []
    all_passed = True
    for name, run in checks:
        passed, detail = run()
        all_passed = all_passed and passed
        results.append({"check": name, "passed": passed, "detail": detail})
    if args.format == "json":
        print(json.dumps({"checks": results, "passed": all_passed}, sort_keys=True), file=out)
    else:
        for r in results:
            status = "ok" if r["passed"] else "FAIL"
            print(f"{status:4s} {r['check']}: {r['detail']}", file=out)
    return 0 if all_passed else 1


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "volumes":
            code = cmd_volumes(args, out)
        elif args.command == "pnumbers":
            code = cmd_pnumbers(args, out)
        elif args.command == "series":
            code = cmd_series(args, out)
        elif args.command == "count":
            code = cmd_count(args, out)
        else:
            code = cmd_verify(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

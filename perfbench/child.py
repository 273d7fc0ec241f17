"""One cold process of a stratavol benchmark workload.

run.py starts this file once per run, with the interpreter isolated from
the caller's environment and site packages, and with bytecode writing off:

    python3 -I -S -B perfbench/child.py SRC MODE WORKLOAD SEED SIZE

SRC is the checkout's source directory and SIZE is ``full`` or ``quick``.
MODE is one of:

* ``setup``: import the package and exit;
* ``ops``: run the workload's operations one after another, through the
  CLI (``stratavol.cli.main``) or names exported from ``stratavol``;
* ``trace``: call each layer's public functions from the bottom up, one
  span around each call, then re-run every CLI operation with all caches
  warm.

The child talks to run.py in JSON lines on its standard output: a
``ready`` line once the package is imported, one line per operation with
the SHA-256 of its exact output, and in trace mode a last line with the
spans and counts.  Whatever the package prints goes to standard error.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from math import factorial

SIZES = {
    "full": {"weight": 20, "gmax": 10, "order": 20, "squares": 8, "perimeter": 20, "total": 24},
    "quick": {"weight": 6, "gmax": 3, "order": 8, "squares": 5, "perimeter": 4, "total": 8},
}

# Sizes fixed inside `stratavol verify`; the traced run repeats that work.
BIVARIATE_GMAX = 6
MULTIVARIATE_SIZE = (8, 8)
ORACLE_STS_GENERA = (1, 2)
CENSUS_GENUS = 3

# Genus-1 `count ribbon` points per seed.  Their totals are fixed, so the
# cost of a run does not depend on the seed.
GENUS1_POINTS = 4


def compositions(total: int, n: int):
    """Ordered n-tuples of positive integers summing to total."""
    if n == 1:
        yield (total,)
        return
    for first in range(1, total - n + 2):
        for rest in compositions(total - first, n - 1):
            yield (first,) + rest


def length_tuples(n: int, budget: int):
    """Positive n-tuples with sum at most budget."""
    for total in range(n, budget + 1):
        yield from compositions(total, n)


def even_partitions(weight: int):
    """Partitions of weight into even parts, largest part first."""

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
        for part in range(min(remaining, largest), 1, -1):
            if part % 2 == 0:
                for rest in rec(remaining - part, part):
                    yield (part,) + rest

    return rec(weight, weight)


def oracle_walls(size: str) -> list:
    """Block walls (b, w) at which the ribbon workload runs the tree oracle.

    `verify oracle-p` checks every wall with k, l <= 4, and its 20 walls
    with k = l = 4 take 90% of its time.  The full size keeps the other
    walls and every fifth of those, so every tree family, up to 7 edges,
    is still tested, at a third of the cost: a run of the workload then
    fits several times into one benchmark run.  Quick mode takes one wall.
    """
    if size == "quick":
        return [((1, 1), (1, 1))]
    walls = [
        (b, w)
        for k in range(1, 5)
        for l in range(1, 5)
        for n in range(1, min(k, l) + 1)
        for b in compositions(k, n)
        for w in compositions(l, n)
    ]
    largest = [(b, w) for b, w in walls if sum(b) == sum(w) == 4]
    return [wall for wall in walls if wall not in largest] + largest[::5]


def genus1_points(seed: int, total: int) -> list:
    """Seeded perimeters for g = 1 and k = l = 2, each colour summing to total."""
    rng = random.Random(seed)
    points = []
    for _ in range(GENUS1_POINTS):
        a, b = rng.randint(1, total - 1), rng.randint(1, total - 1)
        points.append(((a, total - a), (b, total - b)))
    return points


def series_text(series) -> str:
    """Canonical text of a truncated series over Q[u]: one list per power of t."""
    rows = []
    for k in range(series.order + 1):
        coeffs = [str(c) for c in series.coefficient(k).coeffs]
        while coeffs and coeffs[-1] == "0":
            coeffs.pop()
        rows.append(coeffs)
    return json.dumps(rows)


def cli_op(*argv):
    """An operation run through `stratavol.cli.main`, keyed by its command line."""
    args = [str(a) for a in argv] + ["--format", "json"]

    def run(out):
        from stratavol import cli

        return cli.main(args, out=out)

    return "stratavol " + " ".join(args), run


def api_op(key: str, compute):
    """An operation run through names exported from `stratavol`."""

    def run(out):
        out.write(compute() + "\n")
        return 0

    return key, run


def workload_ops(workload: str, seed: int, size: str) -> list:
    """The (key, run) operations of one workload, in the order they run."""
    import stratavol

    s = SIZES[size]
    if workload == "tables":
        return [
            cli_op("pnumbers", "--weight", s["weight"]),
            cli_op("volumes", "--gmax", s["gmax"]),
            cli_op("series", "--order", s["order"]),
            cli_op("verify", "bivariate"),
            cli_op("verify", "multivariate"),
        ]
    if workload == "inversion":
        order = s["order"]
        return [
            api_op(
                f"c_series_inverse_route({order})",
                lambda: series_text(stratavol.c_series_inverse_route(order)),
            )
        ]
    if workload == "census":
        return [
            cli_op("verify", "oracle-sts", "--max-squares", s["squares"]),
            cli_op("count", "sts", "--genus", CENSUS_GENUS, "--max-squares", s["squares"]),
        ]
    if workload == "ribbon":
        walls = oracle_walls(size)

        def oracle():
            counts = [stratavol.p0_oracle(b, w, seed=seed) for b, w in walls]
            for (b, w), count in zip(walls, counts):
                if count != stratavol.p_bw_value(b, w):
                    raise ValueError(f"p0_oracle{(b, w)} = {count} is not the p-number")
            return json.dumps(counts)

        p = s["perimeter"]
        # The counts are p-numbers, the same at every sample seed, so the
        # key leaves the seed out and one pin checks every seed.
        ops = [
            api_op(f"p0_oracle at {len(walls)} block walls", oracle),
            cli_op("verify", "walls"),
            cli_op("count", "ribbon", "--genus", 2, "--black-perimeters", p, "--white-perimeters", p),
        ]
        for black, white in genus1_points(seed, s["total"]):
            ops.append(
                cli_op(
                    "count", "ribbon", "--genus", 1,
                    "--black-perimeters", ",".join(map(str, black)),
                    "--white-perimeters", ",".join(map(str, white)),
                )
            )
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def run_op(key: str, run) -> dict:
    """Run one operation into a buffer; report its exit code and output hash."""
    out = io.StringIO()
    code, error = None, None
    try:
        code = run(out)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the benchmark records the failure and carries on
        error = repr(exc)
    data = out.getvalue().encode()
    return {
        "op": key,
        "code": code,
        "error": error,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def public(name: str):
    """Resolve "module.attr[.attr]" inside the stratavol package."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"stratavol.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


class Tracer:
    """Spans, counts and checks of one traced run, kept until the run ends.

    A span whose public functions no longer exist, or whose input came
    from such a span, is recorded as absent and the run carries on.
    """

    def __init__(self, emit) -> None:
        self.emit = emit
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0

    def _call(self, name, needs, body, inputs):
        if any(x is None for x in inputs):
            self.absent.append(name)
            return None, None
        try:
            functions = [public(n) for n in needs]
        except (ImportError, AttributeError):
            self.absent.append(name)
            return None, None
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = body(*functions, *inputs)
        except Exception as exc:  # recorded as a failed operation
            self.failures.append(f"{name}: {exc!r}")
            return None, None
        return result, start

    def span(self, name, needs, body, *inputs, check=False):
        """Time body(*public functions, *inputs) as span `name`.

        With check=True, a result other than True is a failure.
        """
        result, start = self._call(name, needs, body, inputs)
        if start is not None:
            self.spans.append(
                {"name": name, "parent": "trace", "start": start, "end": time.perf_counter()}
            )
            if check and result is not True:
                self.failures.append(f"{name}: returned {result!r}")
        return result

    def verify(self, name, needs, body, *inputs) -> None:
        """Run an untimed check; anything but True is a failure."""
        result, start = self._call(name, needs, body, inputs)
        if start is not None and result is not True:
            self.failures.append(f"{name}: returned {result!r}")

    def count(self, name, result, measure) -> None:
        if result is None:
            self.absent.append(name)
        else:
            self.counts[name] = measure(result)

    def output(self, key: str, text: str | None) -> None:
        """Report a result that an untraced operation also prints, for hashing."""
        if text is not None:
            self.emit(run_op(*api_op(key, lambda: text)))


def trace_tables(t: Tracer, s: dict, seed: int, size: str) -> None:
    keys = [(g, n) for g in range(1, s["gmax"] + 1) for n in range(1, g + 1)]
    t.span(
        "scalars.bernoulli_s", ["scalars.bernoulli"],
        lambda bernoulli: [bernoulli(m) for m in range(2 * s["gmax"] + 1)],
    )
    values = t.span(
        "pnum.table_s", ["pnum.p_value"],
        lambda p_value: [
            p_value(parts)
            for weight in range(2, s["weight"] + 1, 2)
            for parts in even_partitions(weight)
        ],
    )
    t.count("pnum.values", values, len)
    t.span(
        "pnum.multivariate_s", ["pnum.verify_multivariate_relation"],
        lambda verify: verify(*MULTIVARIATE_SIZE), check=True,
    )
    t.span("volumes.a_gn_s", ["volumes.a_gn"], lambda a_gn: [a_gn(g, n) for g, n in keys])
    t.span("volumes.vol_n_s", ["volumes.vol_n"], lambda vol_n: [vol_n(g, n) for g, n in keys])
    t.span("volumes.c_series_s", ["volumes.c_series"], lambda c_series: c_series(s["order"]))
    t.span(
        "volumes.bivariate_s", ["volumes.verify_bivariate_relation"],
        lambda verify: verify(BIVARIATE_GMAX), check=True,
    )


def trace_inversion(t: Tracer, s: dict, seed: int, size: str) -> None:
    # The inputs c_series_inverse_route builds on its way to the inverse.
    order = s["order"]
    work = order + 1
    quotient = t.span("series.sine_quotient_s", ["series.sine_quotient"], lambda f: f(work))
    powers = t.span("series.pow_u_s", ["series.series_pow_u"], lambda f, x: f(x), quotient)
    q = t.span(
        "series.exp_s", ["series.series_exp", "series.TruncatedSeries"],
        lambda exp, series, b: exp(
            series.from_dict(
                work,
                {k: b.coefficient(k) * Fraction(factorial(k - 1)) for k in range(1, work + 1)},
            )
        ).shift_up(),
        powers,
    )
    t.span("series.lagrange_invert_s", ["series.lagrange_invert"], lambda f, x: f(x), q)
    # The series layer keeps no memo, so this span repeats the work above.
    route = t.span(
        "volumes.inverse_route_s", ["volumes.c_series_inverse_route"],
        lambda f: series_text(f(order)),
    )
    t.output(f"c_series_inverse_route({order})", route)


def trace_census(t: Tracer, s: dict, seed: int, size: str) -> None:
    squares = s["squares"]
    # The lattice points at which verify_cylinder_formula(g, squares) counts.
    points = [
        (g - n, n, lengths)
        for g in ORACLE_STS_GENERA
        for n in range(1, g + 1)
        for lengths in length_tuples(n, squares)
    ]
    values = t.span(
        "ribbon.counting_function_s", ["ribbon.counting_function", "ribbon.PerimeterPair"],
        lambda count, pair: [count(h, n, n, pair(lengths, lengths)) for h, n, lengths in points],
    )
    t.count("ribbon.counting_calls", values, len)
    genera = ORACLE_STS_GENERA + (CENSUS_GENUS,)
    classes = t.span(
        "sts.enumerate_s", ["sts.enumerate_sts"],
        lambda enumerate_sts: [
            enumerate_sts(g, n) for g in genera for n in range(1, squares + 1)
        ],
    )
    t.count("sts.classes", classes, lambda lists: sum(map(len, lists)))
    t.span("sts.census_s", ["sts.census"], lambda census: [census(g, squares) for g in genera])
    t.span(
        "sts.verify_s", ["sts.verify_cylinder_formula"],
        lambda verify: all(verify(g, squares) for g in ORACLE_STS_GENERA), check=True,
    )


def trace_ribbon(t: Tracer, s: dict, seed: int, size: str) -> None:
    walls = oracle_walls(size)
    points = genus1_points(seed, s["total"])
    p = s["perimeter"]
    # Tree families of the oracle and of `verify walls`, then the families
    # of the `count ribbon` points.
    families = sorted(
        {(0, sum(b), sum(w)) for b, w in walls} | {(0, k, k) for k in (1, 2, 3)}
        | {(2, 1, 1), (1, 2, 2)}
    )
    graphs = t.span(
        "ribbon.enumerate_s", ["ribbon.enumerate_graphs"],
        lambda enumerate_graphs: [enumerate_graphs(*family) for family in families],
    )
    t.count("ribbon.graph_classes", graphs, lambda lists: sum(map(len, lists)))
    samples = t.span(
        "ribbon.wall_sample_s", ["ribbon.Wall", "ribbon.wall_sample_point"],
        lambda wall, sample: [sample(wall.partition_wall(b, w), seed=seed) for b, w in walls],
    )
    t.count("ribbon.wall_samples", samples, len)
    trees = t.span(
        "ribbon.positive_trees_s", ["ribbon.count_positive_trees"],
        lambda count, pts: [count(sum(b), sum(w), x) for (b, w), x in zip(walls, pts)],
        samples,
    )
    # Computed from the family sizes: each call tests every tree of its family.
    if graphs is not None:
        size_of = {family: len(found) for family, found in zip(families, graphs)}
        t.count(
            "ribbon.trees_tested", trees,
            lambda _: sum(size_of[(0, sum(b), sum(w))] for b, w in walls),
        )
    else:
        t.absent.append("ribbon.trees_tested")
    # The oracle's other route: every count is the p-number of its wall.
    t.verify(
        "ribbon.p0_oracle", ["pnum.p_bw_value"],
        lambda p_bw, found: found == [p_bw(b, w) for b, w in walls],
        trees,
    )
    values = t.span(
        "ribbon.counting_function_s", ["ribbon.counting_function", "ribbon.PerimeterPair"],
        lambda count, pair: [count(2, 1, 1, pair((p,), (p,)))]
        + [count(1, 2, 2, pair(black, white)) for black, white in points],
    )
    t.count("ribbon.counting_calls", values, len)


TRACE_PLANS = {
    "tables": trace_tables,
    "inversion": trace_inversion,
    "census": trace_census,
    "ribbon": trace_ribbon,
}


def traced_run(workload: str, seed: int, size: str, ops: list, emit) -> dict:
    """The workload's layers from the bottom up, then its CLI operations warm.

    Lower-layer caches are warm when an upper layer runs, so each span
    approximates that layer's self time.  `permutation` is called only
    from inside `sts` and `ribbon`, so its cost lands in their spans.
    """
    t = Tracer(emit)
    start = time.perf_counter()
    TRACE_PLANS[workload](t, SIZES[size], seed, size)
    # Every CLI operation again, all caches warm.
    for key, run in ops:
        if key.startswith("stratavol "):
            begin = time.perf_counter()
            result = run_op(key, run)
            t.spans.append(
                {"name": "cli.main_warm_s", "parent": "trace", "start": begin,
                 "end": time.perf_counter()}
            )
            t.counts["cli.stdout_bytes"] = t.counts.get("cli.stdout_bytes", 0) + result["bytes"]
            emit(result)
    t.spans.append({"name": "trace", "parent": None, "start": start, "end": time.perf_counter()})
    return {
        "spans": t.spans,
        "counts": t.counts,
        "absent": t.absent,
        "failures": t.failures,
        "attempted": t.attempted,
    }


def main(argv: list[str]) -> int:
    src, mode, workload, seed, size = argv
    seed = int(seed)
    protocol = sys.stdout
    sys.stdout = sys.stderr

    def emit(message: dict) -> None:
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    sys.path.insert(0, src)
    import stratavol
    import stratavol.cli  # noqa: F401  (part of set-up: every run uses it)

    setup_cpu = time.process_time()
    ops = workload_ops(workload, seed, size) if mode != "setup" else []
    emit({"ready": stratavol.__file__, "ops": len(ops), "setup_cpu": setup_cpu})
    if mode == "ops":
        for key, run in ops:
            emit(run_op(key, run))
    elif mode == "trace":
        emit(traced_run(workload, seed, size, ops, emit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

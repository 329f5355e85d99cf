"""End-to-end benchmark of the query engine: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload job --seed 0 --seconds 20 --trace 0

``--trace 0`` sets up, then runs about ``--seconds`` worth of timed
rounds of the workload (at least one) and prints every end-to-end
metric.  ``--trace 1`` runs one untraced and one traced round and prints
the per-layer metrics derived from the traced round's spans; the spans
themselves go to ``.perfbench-out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 0 only when every correctness check passed.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
#: Set-ups timed per run; ``setup_s`` reports their median.
SETUPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("job", "tpch_drift", "served"))
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the drift stream and the query order")
    parser.add_argument("--data-seed", type=int, default=0,
                        help="shifts the seeds of the database and query "
                             "stream generators")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values, q: float, grid: int = 50_000) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A Beta-weighted mean of every order statistic rather than an
    interpolation between the two nearest ones: a latency tail with a gap
    near p95 (a few heavy queries) otherwise jumps by half from run to
    run.  The Beta CDF is integrated numerically on ``grid`` cells.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < 2:
        return float(x[0]) if n else 0.0
    p = q / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mids = (np.arange(grid) + 0.5) / grid
    log_pdf = (a - 1) * np.log(mids) + (b - 1) * np.log1p(-mids)
    mass = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(mass))) / mass.sum()
    weights = np.diff(np.interp(np.arange(n + 1) / n,
                                np.arange(grid + 1) / grid, cdf))
    return float(weights @ x)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_rev() -> str:
    """The checked-out commit, read from ``.git`` (no subprocess)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment(args, seeds, workload) -> dict:
    import numpy as np
    return {
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "data_seed": args.data_seed,
        "seeds": vars(seeds),
        "workload": args.workload,
        "sizes": workload.sizes(),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _end_to_end(stats_list, setup_s: float) -> dict[str, tuple[float, str]]:
    from workloads import peak_rss_mb

    median = statistics.median
    latencies = [v for s in stats_list for v in s.latencies_ms]
    served = [v for s in stats_list for v in s.served_latencies_ms]
    completed = sum(s.served_completed for s in stats_list)
    served_wall = sum(s.served_wall for s in stats_list)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median([s.wall for s in stats_list]), "s"),
        "querysplit_s": (median([s.algorithm_s["QuerySplit"]
                                 for s in stats_list]), "s"),
        "default_s": (median([s.algorithm_s["Default"]
                              for s in stats_list]), "s"),
        "reopt_s": (median([s.algorithm_s["Reopt"] for s in stats_list]), "s"),
        "paper_s": (median([s.paper_s for s in stats_list]), "s"),
        "query_p50_ms": (_percentile(latencies, 50), "ms"),
        "query_p95_ms": (_percentile(latencies, 95), "ms"),
        "served_qps": (completed / served_wall, "queries/s"),
        "served_p50_ms": (_percentile(served, 50), "ms"),
        "peak_rss_mb": (next((s.peak_rss_mb for s in stats_list
                              if s.peak_rss_mb is not None), peak_rss_mb()),
                        "MB"),
    }


def _unit(name: str) -> str:
    if name.endswith(("_frac", "_rate", "per_execution")) or "qerror" in name:
        return "ratio"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def _per_layer(stats, spans, build_s, generate_s, overhead) -> dict:
    from tracing import layer_metrics

    qs, reopt = stats.reports["QuerySplit"], stats.reports["Reopt"]
    lookups = stats.cache_lookups
    values = {
        "workloads.build_s": build_s,
        "workloads.generate_s": generate_s,
        **layer_metrics(spans),
        "core.iterations": qs["iterations"],
        "core.materializations": qs["materializations"],
        "core.materialized_bytes": qs["materialized_bytes"],
        "reopt.iterations": reopt["iterations"],
        "reopt.replans": reopt["replans"],
        "reopt.materializations": reopt["materializations"],
        "executor.cache_hit_rate":
            stats.cache_hits / lookups if lookups else 0.0,
        "dynamic.qerror_mean": stats.qerror_mean,
        "serving.queue_wait_p50_ms": _percentile(stats.queue_wait_ms, 50),
        "serving.queue_wait_p95_ms": _percentile(stats.queue_wait_ms, 95),
        "serving.service_p50_ms": _percentile(stats.service_ms, 50),
        "serving.service_p95_ms": _percentile(stats.service_ms, 95),
        "serving.max_queue_depth": stats.max_queue_depth,
        "serving.shed": stats.shed,
        "trace.overhead_frac": overhead,
    }
    return {name: (value, _unit(name)) for name, value in values.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {SOURCE}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, Gate, RoundStats, Seeds

    seeds = Seeds.from_args(args.seed, args.data_seed)
    workload = WORKLOADS[args.workload](seeds)
    gate = Gate()

    # Set-up: build (and ANALYZE) the database and generate the inputs
    # SETUPS times, then run one warm-up pass; setup_s counts both.
    builds, generates = [], []
    for _ in range(SETUPS):
        build_s, generate_s = workload.build()
        builds.append(build_s)
        generates.append(generate_s)
    start = time.perf_counter()
    workload.warm_up()
    warm_up_s = time.perf_counter() - start

    if args.trace == 0:
        # A fixed number of rounds for a given --seconds, so the work
        # measured never depends on how fast the host happens to be.
        rounds = []
        for _ in range(max(1, round(args.seconds / workload.nominal_round_s))):
            fresh = workload.prepare_round()
            if fresh:
                builds.append(fresh[0])
                generates.append(fresh[1])
            rounds.append(RoundStats())
            workload.run_round(rounds[-1], gate)
        setup_s = statistics.median(map(sum, zip(builds, generates)))
        metrics = _end_to_end(rounds, setup_s + warm_up_s)
    else:
        from tracing import Tracer, install

        rounds = [RoundStats(), RoundStats()]
        workload.prepare_round()
        workload.run_round(rounds[0], gate)
        workload.prepare_round()
        tracer = Tracer()
        install(tracer)
        try:
            workload.run_round(rounds[1], gate)
        finally:
            tracer.uninstall()
        metrics = _per_layer(rounds[1], tracer.spans,
                             statistics.median(builds),
                             statistics.median(generates),
                             rounds[1].wall / rounds[0].wall - 1.0)

    attempted = sum(s.attempted for s in rounds)
    failed = sum(s.failed for s in rounds)
    env = _environment(args, seeds, workload)
    print(json.dumps({"environment": env}))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    # Printed beside the metrics but not in the result: a healthy run can
    # read 0 for the last two, and the served tail swings by a third from
    # run to run (see README.md).
    served = [v for s in rounds for v in s.served_latencies_ms]
    for name, value, unit in (
            ("rounds", len(rounds), "count"),
            ("served_p95_ms", _percentile(served, 95), "ms"),
            ("mutate_s", statistics.median(s.mutate_s for s in rounds), "s"),
            ("failed_frac", failed / max(attempted, 1), "fraction")):
        print(f"{name:34s} {value:14.4f} {unit}")
    for problem, times in Counter(gate.problems).items():
        print(f"CORRECTNESS ({times}x): {problem}")
    if args.trace == 1:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"environment": env,
                           "metrics": {k: v for k, (v, _) in metrics.items()}})
        print(f"trace written to {path.relative_to(ROOT)}")
    correct = not gate.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

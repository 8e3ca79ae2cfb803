"""End-to-end benchmark of the reproduction: one workload, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig14-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the workload's traced pass and reports the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the details (the workload's
definition, the seed, the tail percentile, the deterministic work counters
and any counter drift).  Details, and in traced runs every span, are also
written to ``.perfbench/`` in the checkout.

Exits 2 without a result when the checkout lacks the package or goldens.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def load_checkout(root: Path) -> dict:
    """``BENCHMARK.json`` of a checkout that holds the package and its
    goldens; raises ``SystemExit(2)`` otherwise."""
    missing = [
        name for name in ("BENCHMARK.json", "src/repro/__init__.py", "results/fig14.txt")
        if not (root / name).is_file()
    ]
    if missing:
        print(f"perfbench: not a checkout of the package, missing {missing}",
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads((root / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    declared = load_checkout(root)
    src = root / "src"
    # The goldens are made with the package defaults: no shared store,
    # quick PageRank.  The benchmark's processes must not inherit either.
    for name in ("REPRO_CACHE_DIR", "REPRO_BENCH_FULL"):
        os.environ.pop(name, None)
    sys.path[:0] = [str(HERE), str(src)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))

    import benchlib
    from workloads import WORKLOADS, Context

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    ctx = Context(root=root, work=work, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), env=env)
    try:
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = dict(outcome.metrics, peak_rss_mb=benchlib.peak_rss_mb())

    fingerprint = benchlib.code_fingerprint(src, HERE)
    drift_key = f"{fingerprint}:{workload.name}:seed={args.seed}:seconds={args.seconds}"
    drift = benchlib.counter_drift(out / "counters.json", drift_key, outcome.counters)
    ctx.tally.record(not drift, f"work counters {drift} drifted on unchanged code")

    section = "per_layer" if args.trace else "end_to_end"
    report = {}
    for metric in declared[section]:
        if metric["name"] not in metrics:
            raise KeyError(f"workload {workload.name} did not measure {metric['name']}")
        report[metric["name"]] = {"value": metrics[metric["name"]], "unit": metric["unit"]}
    details = {
        "workload": workload.name, "why": workload.why, "loads": workload.loads,
        "seed": args.seed, "seed_note": workload.seed_note,
        "seconds": args.seconds, "trace": args.trace,
        "host": f"{platform.system().lower()}-{platform.machine()}-"
                f"py{sys.version_info.major}.{sys.version_info.minor}-"
                f"{os.cpu_count()}cpu",
        "code": fingerprint, "counters": outcome.counters,
        "counter_drift": drift, "failures": ctx.tally.notes[:50],
        **outcome.details,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record = dict(details, metrics=metrics)
    if args.trace:
        record["spans"] = ctx.tracer.to_json()
    (out / name).write_text(json.dumps(record, indent=1, default=str))
    print("perfbench details: " + json.dumps(details, default=str))
    print(json.dumps({
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

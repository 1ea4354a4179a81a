"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Imports ``repro`` only from that
checkout's ``src/`` and stops with an error if it would resolve anywhere
else.  One process, serial, default (stat-free, auto-engine) simulator
path.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Everything else (code identity, every applicable metric,
failures, digest, and the spans of a traced run) is written under
``.perfbench/`` in the checkout.  README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
#: set-up is measured this many times per run; setup_s is the median
SETUP_PROBES = 5

#: exact results of the modelled design, also reported per layer (0 where
#: a workload has none: no simulation, or not the paper grid)
MODEL_METRICS = (
    "sim_cycles", "model_exec_us_geomean", "model_luts_geomean",
    "paper_lut_err_pts", "paper_ff_err_pts", "paper_exec_err_pts",
)


def metric_units(section: str) -> dict:
    """BENCHMARK.json's ``end_to_end`` or ``per_layer`` list: name -> unit.

    ``wall_s`` is printed but not gated: on a shared host it can drift
    10-20% between runs of identical work; ``wall_ref_s`` cancels that.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def load_repro() -> Path:
    """Import ``repro`` from this checkout's ``src/``, or stop.

    Every number must come from the code being judged, never from an
    installed copy or another checkout on ``sys.path``.
    """
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    path = Path(repro.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise SystemExit(
            f"perfbench: repro resolves to {path}, outside {SRC}; refusing "
            "to measure code other than this checkout's"
        )
    return path


def code_identity(repro_file: Path) -> dict:
    """Which code ran: repro's path, a hash of src/, and git state if any."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    identity = {
        "repro_file": str(repro_file),
        "src_sha256": digest.hexdigest(),
        "commit": None,
        "dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True,
                text=True, timeout=60, check=True,
            ).stdout.strip()

        identity["commit"] = git("rev-parse", "HEAD")
        identity["dirty"] = bool(git("status", "--porcelain", "--", "src"))
    return identity


def measure_setup(workload: str, seed: int) -> float:
    """Median time from interpreter start until the inputs are ready.

    Each probe is a fresh interpreter running this file in probe mode:
    imports (guarded as above) plus input generation, then one line.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait(timeout=170)
        if code != 0 or not line.startswith("ready"):
            raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
        samples.append(elapsed)
    return statistics.median(samples)


def per_layer(wl, run, tracer, traced_wall: float, overhead: float) -> dict:
    from repro.dataflow import plan_cache_stats
    from spans import LAYER_SPANS

    self_times = tracer.self_times()
    metrics = {
        metric: self_times.get(span, 0.0) for span, metric in LAYER_SPANS.items()
    }
    covered = sum(metrics.values())
    counts = tracer.counts
    simulate_s = metrics["dataflow.simulate_s"]
    cycles = counts["dataflow.cycles"]
    done = [o for o in run.outcomes if o.counters]

    def total(counter):
        return sum(o.counters[counter] for o in done)

    metrics.update({
        "compile.components": counts["compile.components"],
        "dataflow.plan_misses": counts["dataflow.plan_misses"],
        "dataflow.plan_hits": counts["dataflow.plan_hits"],
        "dataflow.plans_cached": plan_cache_stats()["misses"],
        "dataflow.cycles_per_s": cycles / simulate_s if simulate_s else 0.0,
        "dataflow.evals_per_cycle":
            counts["dataflow.evals"] / cycles if cycles else 0.0,
        "dataflow.transfers": counts["dataflow.transfers"],
        "dataflow.fallback_results": counts["dataflow.fallback_results"],
        "prevv.squashes": total("squashes"),
        "prevv.squashed_iterations": total("squashed_iterations"),
        "prevv.benign_reorders": total("benign_reorders"),
        "prevv.fake_tokens": total("fake_tokens"),
        "prevv.queue_full_stalls": total("queue_full_stalls"),
        "prevv.queue_max_occupancy": max(
            (o.counters["queue_max_occupancy"] for o in done), default=0),
        "lsq.alloc_stalls": total("lsq_alloc_stalls"),
        "analysis.warnings": sum(o.warnings for o in run.outcomes),
        "bench.traced_wall_s": traced_wall,
        "bench.uncovered_frac": (traced_wall - covered) / traced_wall,
        "bench.tracing_overhead_s": overhead,
    })
    model = {k: v for k, (v, _unit) in wl.model_metrics(run).items()}
    if run.workload == "paper_grid":
        model.update(wl.paper_fit(run))
    metrics.update({name: model.get(name, 0) for name in MODEL_METRICS})
    return metrics


def traced_run(wl, workload: str, seed: int, make_tasks):
    """Untraced, traced, untraced sections of the same work.

    Each section generates the inputs and runs them.  The overhead is
    the traced section minus the mean of its two neighbours, which
    cancels warm-up drift.  Returns ``(runs, per-layer metrics, tracer)``.
    """
    from spans import NULL_TRACER, Tracer

    def section(tracer):
        started = time.perf_counter()
        done = wl.run_tasks(workload, seed, make_tasks(seed, tracer), tracer)
        return done, time.perf_counter() - started

    before, before_s = section(NULL_TRACER)
    tracer = Tracer()
    tracer.install()
    try:
        run, traced_s = section(tracer)
    finally:
        tracer.uninstall()
    after, after_s = section(NULL_TRACER)

    def scaled(done, seconds):  # host-speed scaled, as wall_ref_s
        return seconds * done.reference_rate / wl.REFERENCE_RATE

    overhead = scaled(run, traced_s) - (
        scaled(before, before_s) + scaled(after, after_s)) / 2
    layer = per_layer(wl, run, tracer, traced_s, overhead)
    return [before, run, after], layer, tracer


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="untraced: measure whole passes of the "
                        "workload's fixed work until this many seconds have "
                        "been timed (a traced run always makes three)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)

    repro_file = load_repro()
    sys.path.insert(0, str(HERE))
    import workloads as wl

    if ns.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {ns.workload!r}; "
                     f"choose from {', '.join(wl.WORKLOADS)}")
    make_tasks = wl.WORKLOADS[ns.workload]
    if ns.setup_probe:
        print("ready", len(make_tasks(ns.seed)), flush=True)
        return 0

    identity = code_identity(repro_file)
    print(f"== code: {identity}")
    if not ns.trace:
        setup_s = measure_setup(ns.workload, ns.seed)
        tasks = make_tasks(ns.seed)
        runs = [wl.run_tasks(ns.workload, ns.seed, tasks)]
        while sum(r.wall_s for r in runs) < ns.seconds:
            runs.append(wl.run_tasks(ns.workload, ns.seed, tasks))
        run = runs[0]
        metrics = wl.end_to_end(runs)
        metrics["setup_s"] = (setup_s, "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
        reported = {name: metrics[name] for name in metric_units("end_to_end")}
        title = f"end-to-end (untraced, {len(runs)} pass(es))"
    else:
        runs, layer, tracer = traced_run(wl, ns.workload, ns.seed, make_tasks)
        run = runs[1]
        metrics = {name: (layer[name], unit)
                   for name, unit in metric_units("per_layer").items()}
        reported = metrics
        title = "per-layer (traced)"
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{ns.workload}-seed{ns.seed}.json"
        spans_file.write_text(json.dumps(tracer.to_records()))

    # every pass must reproduce the same outputs, traced or not
    correct = run.correct and len({r.digest for r in runs}) == 1
    failures = [
        {"workload": ns.workload, "seed": ns.seed,
         "index": o.task.spec_index, "kernel": o.task.kernel.name,
         "config": o.task.config_name, "kind": o.failure, "detail": o.detail}
        for o in run.failures
    ]
    print(f"== {ns.workload} seed={ns.seed}: {len(run.outcomes)} results, "
          f"{len(failures)} failed, digest {run.digest[:16]}, "
          f"output check {'passed' if correct else 'FAILED'}")
    for failure in failures:
        print("  FAILED " + " ".join(f"{k}={v}" for k, v in failure.items()))
    print_table(title, metrics)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    out.write_text(json.dumps({
        "workload": ns.workload, "seed": ns.seed, "trace": ns.trace,
        "identity": identity, "digest": run.digest, "correct": correct,
        "attempted": len(run.outcomes), "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Simulator performance tracking: ``python -m repro.bench``.

Times the seed kernels under all four hardware configurations with the
stat-free simulator fast path and writes ``BENCH_simulator.json`` so the
performance trajectory of the cycle-accurate engine is tracked from PR
to PR.  ``--check`` compares a fresh run against a committed baseline
and fails on regression (used by the CI bench smoke job).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence

from ..compile import compile_function
from ..dataflow import ENGINES, make_simulator
from ..eval.configs import ALL_CONFIGS
from ..eval.runner import make_done_condition
from ..kernels import PAPER_KERNELS, QUICK_SIZES, get_kernel

#: Allowed slow-down per point before ``--check`` fails.
REGRESSION_TOLERANCE = 0.25


def _instrument_attribution(circuit) -> Dict[str, Dict]:
    """Wrap every component's ``propagate`` with a per-class meter.

    The engine looks ``comp.propagate`` up at call time (never pre-bound),
    so an instance-level wrapper attributes evaluation count and wall
    time to the component's class without changing a single signal.  The
    timing overhead inflates the *point's* wall clock — profile runs are
    for attribution, not for absolute throughput numbers.
    """
    attribution: Dict[str, Dict] = {}
    perf = time.perf_counter

    def wrap(comp, slot):
        inner = comp.propagate

        def metered():
            t0 = perf()
            inner()
            slot["propagate_s"] += perf() - t0
            slot["propagate_calls"] += 1

        comp.propagate = metered

    for comp in circuit.components:
        slot = attribution.setdefault(
            type(comp).__name__,
            {"instances": 0, "propagate_calls": 0, "propagate_s": 0.0},
        )
        slot["instances"] += 1
        wrap(comp, slot)
    return attribution


def bench_point(kernel_name: str, config, sizes: Optional[Dict[str, int]],
                max_cycles: int = 2_000_000, profile: bool = False,
                engine: str = "levelized") -> Dict:
    """Time one (kernel, config, engine) point with the stat-free path.

    Profile runs install instance-level propagate wrappers, which the
    codegen compiler (rightly) declines, so they force the interpreted
    engine regardless of ``engine``.  The point records both the engine
    *requested* and the engine actually used — a compiled request that
    fell back to the interpreter must be visible in the JSON, not buried
    in an implausible throughput number.
    """
    kernel = get_kernel(kernel_name, **(sizes or {}))
    fn = kernel.build_ir()
    build = compile_function(fn, config, args=kernel.args)
    build.memory.initialize(kernel.memory_init)
    attribution = (
        _instrument_attribution(build.circuit) if profile else None
    )
    sim = make_simulator(
        build.circuit,
        engine="levelized" if profile else engine,
        max_cycles=max_cycles,
    )
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    started = time.perf_counter()
    stats = sim.run(make_done_condition(build))
    wall = time.perf_counter() - started
    point = {
        "kernel": kernel_name,
        "config": config.name,
        "engine": sim.engine_name,
        "engine_requested": engine,
        "wall_s": round(wall, 4),
        "cycles": stats.cycles,
        "cycles_per_sec": round(stats.cycles / wall) if wall > 0 else None,
        "propagate_calls": stats.propagate_calls,
        "propagate_calls_per_cycle": round(
            stats.propagate_calls / max(1, stats.cycles), 3
        ),
        "evals_per_sec": (
            round(stats.propagate_calls / wall) if wall > 0 else None
        ),
    }
    if attribution is not None:
        total_s = sum(s["propagate_s"] for s in attribution.values())
        cycles = max(1, stats.cycles)
        point["profile"] = {
            cls: {
                "instances": slot["instances"],
                "propagate_calls": slot["propagate_calls"],
                "calls_per_cycle": round(
                    slot["propagate_calls"] / cycles, 3
                ),
                "wall_s": round(slot["propagate_s"], 4),
                "wall_pct": round(
                    100.0 * slot["propagate_s"] / total_s, 1
                ) if total_s > 0 else 0.0,
            }
            for cls, slot in sorted(
                attribution.items(),
                key=lambda kv: kv[1]["propagate_s"],
                reverse=True,
            )
        }
    return point


def _bench_worker(args):
    return bench_point(*args)


def run_bench(quick: bool = True, jobs: int = 1,
              kernels: Optional[Sequence[str]] = None,
              configs: Optional[Sequence[str]] = None,
              profile: bool = False,
              engines: Optional[Sequence[str]] = None) -> Dict:
    """Run the full grid; returns the BENCH_simulator.json payload.

    ``configs`` filters the hardware-configuration axis by name (e.g.
    ``["prevv16", "prevv64"]`` for the PreVV-only CI gate); ``profile``
    adds per-component-class propagate time/eval attribution to every
    point (and inflates wall clocks — see ``_instrument_attribution``).
    ``engines`` adds an engine axis: one point per engine per (kernel,
    config), so cross-engine comparisons live in one report.
    """
    knames = list(kernels or PAPER_KERNELS)
    grid_configs = ALL_CONFIGS
    if configs is not None:
        known = {c.name: c for c in ALL_CONFIGS}
        unknown = [name for name in configs if name not in known]
        if unknown:
            raise ValueError(
                f"unknown config(s) {unknown}; choose from {sorted(known)}"
            )
        grid_configs = [known[name] for name in configs]
    engine_axis = list(engines or ("levelized",))
    bad = [e for e in engine_axis if e not in ENGINES]
    if bad:
        raise ValueError(f"unknown engine(s) {bad}; choose from {ENGINES}")
    if profile and any(e == "compiled" for e in engine_axis):
        raise ValueError(
            "--profile instruments propagate per instance, which the "
            "compiled engine cannot honour; drop --profile or bench an "
            "interpreted engine"
        )
    work = [
        (kname, cfg, QUICK_SIZES.get(kname) if quick else None,
         2_000_000, profile, eng)
        for kname in knames
        for cfg in grid_configs
        for eng in engine_axis
    ]
    started = time.perf_counter()
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            points: List[Dict] = list(pool.map(_bench_worker, work))
    else:
        points = [_bench_worker(w) for w in work]
    total = time.perf_counter() - started
    serial = round(sum(p["wall_s"] for p in points), 3)
    return {
        "bench": "simulator",
        "quick": quick,
        "jobs": jobs,
        "configs": [c.name for c in grid_configs],
        "engines": engine_axis,
        "profile": profile,
        "total_wall_s": round(total, 3),
        "serial_wall_s": serial,
        "points": points,
    }


def check_against_baseline(result: Dict, baseline: Dict,
                           tolerance: float = REGRESSION_TOLERANCE):
    """Compare a fresh run to a committed baseline; returns error strings.

    Points are keyed by (kernel, config, engine actually used), and a
    point with no baseline row is an error: a gate that compares nothing
    must not pass.  Cycle counts must match exactly (the engine is meant
    to be bit-identical); per-cycle evaluation effort may not regress by
    more than ``tolerance``.  Raw wall-clock is *not* compared — CI
    machines vary too much — ``propagate_calls_per_cycle`` is the stable
    proxy.
    """
    errors: List[str] = []
    base_points = {
        (p["kernel"], p["config"], p["engine"]): p
        for p in baseline.get("points", [])
    }
    for point in result["points"]:
        key = (point["kernel"], point["config"], point["engine"])
        tag = f"{key[0]}/{key[1]}/{key[2]}"
        base = base_points.get(key)
        if base is None:
            errors.append(f"{tag}: no baseline row to compare against")
            continue
        if point["cycles"] != base["cycles"]:
            errors.append(
                f"{tag}: cycles {point['cycles']} != baseline "
                f"{base['cycles']}"
            )
        limit = base["propagate_calls_per_cycle"] * (1.0 + tolerance)
        if point["propagate_calls_per_cycle"] > limit:
            errors.append(
                f"{tag}: propagate_calls/cycle "
                f"{point['propagate_calls_per_cycle']} > "
                f"{limit:.3f} (baseline {base['propagate_calls_per_cycle']} "
                f"+{tolerance:.0%})"
            )
    return errors


def dump_emitted_source(path: str,
                        kernel_name: Optional[str] = None,
                        configs: Optional[Sequence[str]] = None,
                        quick: bool = True) -> None:
    """Write the compiled engine's generated step source to ``path``.

    Defaults to the first kernel of the bench grid under the first
    selected config — the CI smoke job uploads this as a build artifact
    so a compiled-engine failure can be debugged from the emitted code
    alone.
    """
    from ..dataflow import emitted_source

    kname = kernel_name or PAPER_KERNELS[0]
    cfg_name = (configs or [ALL_CONFIGS[0].name])[0]
    config = next(c for c in ALL_CONFIGS if c.name == cfg_name)
    sizes = QUICK_SIZES.get(kname) if quick else None
    kernel = get_kernel(kname, **(sizes or {}))
    build = compile_function(kernel.build_ir(), config, args=kernel.args)
    with open(path, "w") as handle:
        handle.write(emitted_source(build.circuit))


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time the simulator over the kernel x config grid.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="reduced kernel sizes (CI smoke run)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the grid")
    parser.add_argument("--out", default="BENCH_simulator.json",
                        help="output JSON path")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline JSON; non-zero "
                        "exit on cycle mismatch, >25%% effort regression "
                        "or a point missing from the baseline")
    parser.add_argument("--configs", metavar="NAMES",
                        help="comma-separated config names to bench "
                        "(e.g. prevv16,prevv64); default: all")
    parser.add_argument("--profile", action="store_true",
                        help="attribute propagate time/evals per "
                        "component class (inflates wall clocks)")
    parser.add_argument("--engine", metavar="NAMES",
                        default="levelized",
                        help="comma-separated engine axis (one bench "
                        "point per engine): auto, compiled, levelized, "
                        "reference; default: levelized")
    parser.add_argument("--dump-source", metavar="PATH",
                        help="write the compiled engine's emitted step "
                        "source for the first (kernel, config) point to "
                        "PATH (debug artifact)")
    opts = parser.parse_args(argv)

    configs = opts.configs.split(",") if opts.configs else None
    engines = [e.strip() for e in opts.engine.split(",") if e.strip()]
    result = run_bench(quick=opts.quick, jobs=opts.jobs,
                       configs=configs, profile=opts.profile,
                       engines=engines)
    with open(opts.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    if opts.dump_source:
        dump_emitted_source(opts.dump_source, configs=configs,
                            quick=opts.quick)
        print(f"wrote emitted step source to {opts.dump_source}")
    for point in result["points"]:
        print(
            f"{point['kernel']:12s} {point['config']:10s} "
            f"{point['engine']:11s} "
            f"{point['wall_s']:8.3f}s  {point['cycles']:>8d} cyc  "
            f"{point['cycles_per_sec']:>8d} cyc/s  "
            f"{point['propagate_calls_per_cycle']:>8.3f} evals/cyc"
        )
        if opts.profile:
            for cls, slot in list(point["profile"].items())[:4]:
                print(
                    f"    {cls:20s} x{slot['instances']:<3d} "
                    f"{slot['calls_per_cycle']:>8.3f} evals/cyc  "
                    f"{slot['wall_s']:>7.3f}s ({slot['wall_pct']:.1f}%)"
                )
    print(
        f"total {result['total_wall_s']:.2f}s "
        f"(serial {result['serial_wall_s']:.2f}s); wrote {opts.out}"
    )
    if opts.check:
        with open(opts.check) as handle:
            baseline = json.load(handle)
        errors = check_against_baseline(result, baseline)
        if errors:
            for err in errors:
                print("REGRESSION:", err)
            return 1
        print(f"no regression vs {opts.check}")
    return 0

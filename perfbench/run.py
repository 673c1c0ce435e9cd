"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload recursion --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout: it evaluates ``src/vecspin`` there, in
this one process, with ``threads=1`` and BLAS pinned to one thread.  The
workload's tasks run back to back (closed loop, one caller) in passes over
the task list until ``--seconds`` have passed, and at least MIN_PASSES
whole passes; every pass gets freshly built inputs, and every result is
checked.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer metrics, from one traced pass between two untraced ones.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file with the run record goes to
``perfbench/results/``.  Without ``src/vecspin`` and ``configs`` next to
this directory the script exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
from runrecord import BLAS_PIN

os.environ.update(BLAS_PIN)  # before numpy loads, here and in every child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ("sk_ising.yaml", "heisenberg_like.yaml", "fe_small.yaml")

#: Fresh ``-X importtime`` interpreters per traced run; medians are reported.
IMPORT_REPEATS = 3

#: Whole passes a run makes however long they take; after them, a pass
#: stops at the first task that would start past ``--seconds``.
MIN_PASSES = 3

#: Fresh-interpreter ``setup_s`` probes per run, spread evenly over the
#: ``--seconds`` window; their median is reported.
SETUP_PROBES = 8

#: The tail percentile leaves at least this many task executions beyond
#: it in MIN_PASSES passes.
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("rss_peak_mb", "MB"),
)

#: (label, report calls, report self time) for the traced functions.  The
#: ``phi_star`` and ``optimize`` ones are reported for ``solve`` only, the
#: one workload that calls them.
SOLVE_SPANS = (
    ("parisi.phi_star", True, True),
    ("parisi.optimize", False, True),
)
LAYER_SPANS = (
    ("parisi.increments", True, True),
    ("mixing.xi_prime_matrix", True, False),
    ("parisi.eval_phi", True, True),
    ("parisi.phi_grad_lambda", True, True),
    ("parisi.eval_parisi", False, True),
    ("rpc.simulate_phi", True, True),
    ("rpc.sample_cascade", True, True),
    ("rpc.simulate_y_functional", False, True),
    ("system.enumerate_configs", True, True),
    ("system.sample_disorder", True, True),
    ("system.hamiltonian_batch", True, True),
    ("system.perturbation_h", True, True),
    ("system.gg_discrepancy", False, True),
    ("prior.build_modifier", True, True),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_layout() -> None:
    if not (SRC / "vecspin" / "__init__.py").is_file():
        fail(f"no src/vecspin under {ROOT}; run from the root of a checkout")
    missing = [c for c in CONFIGS if not (ROOT / "configs" / c).is_file()]
    if missing:
        fail(f"missing configs: {', '.join(missing)}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def run_child(args: list[str], timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout, check=True)


def measure_setup(workload: str, seed: int) -> float:
    probe = str(HERE / "setup_probe.py")
    return float(run_child([probe, workload, str(seed)]).stdout.strip().splitlines()[-1])


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds of ``vecspin.cli`` and ``scipy.optimize``."""
    samples: dict[str, list[float]] = {"vecspin.cli": [], "scipy.optimize": []}
    for _ in range(IMPORT_REPEATS):
        err = run_child(["-X", "importtime", "-c", "import vecspin.cli"]).stderr
        for line in err.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(4) in samples:
                samples[m.group(4)].append(int(m.group(2)) * 1e-6)
    return {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}


@dataclass
class PassResult:
    latencies: dict = field(default_factory=dict)  # task key -> seconds
    failures: list = field(default_factory=list)
    stat_checks: list = field(default_factory=list)  # (task key, Check)

    @property
    def task_s(self) -> float:
        return sum(self.latencies.values())


def run_pass(wl, references: dict, tracer=None, before=None, deadline=None) -> PassResult:
    """Run and check the tasks in order.  ``before``, if given, is called
    before each task.  With a ``deadline`` (a ``time.perf_counter`` value)
    the pass stops at the first task that would start after it."""
    out = PassResult()
    for task in wl.tasks:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if before is not None:
            before()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = task.fn()
            else:
                with tracer.recording():
                    result = task.fn()
        except Exception:
            out.latencies[task.key] = time.perf_counter() - t0
            out.failures.append({"task": task.key, "error": traceback.format_exc(limit=3)})
            continue
        out.latencies[task.key] = time.perf_counter() - t0
        try:
            checks = task.check(result, references.get(task.key))
        except Exception:
            out.failures.append({"task": task.key, "check_error": traceback.format_exc(limit=3)})
            continue
        bad = [c for c in checks if c.exact and not c.ok]
        if bad:
            out.failures.append({"task": task.key,
                                 "checks": [f"{c.name}: {c.detail}" for c in bad]})
        out.stat_checks += [(task.key, c) for c in checks if not c.exact]
    return out


def tail(latencies: list[float], tasks: int) -> tuple[float, float, int]:
    """(value, percentile, executions beyond), nearest rank over every
    execution, at the percentile that leaves TAIL_BEYOND executions beyond
    it in MIN_PASSES passes over ``tasks`` tasks.  The percentile depends
    on the task list alone, not on how many passes the run made, so it
    stays at the same place among the tasks from run to run."""
    q = max(0.0, 1.0 - TAIL_BEYOND / (MIN_PASSES * tasks))
    xs = sorted(latencies)
    k = min(len(xs) - 1, max(0, math.ceil(q * len(xs)) - 1))
    return xs[k], 100.0 * q, len(xs) - 1 - k


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setup: list[float], passes: list[PassResult]) -> tuple[dict, dict]:
    """Each task's latency is its median over the run's passes; the wall
    time is the sum of those and the median is taken over them.  The tail
    is taken over every task execution of the run, and set-up is the
    median of its probes.  The first pass is whole; the last may stop
    early, so a task is taken over the passes that ran it.

    The machines this runs on are shared: their speed changes by up to 2x
    from second to second, and in phases of minutes.  A median over five
    or more passes spread over the run averages the fast and slow seconds;
    the fastest pass would pick the luckiest moment, which varies more
    from run to run.  The tail needs the executions themselves: with a few
    dozen tasks, a tail over the per-task values would be a low percentile.
    """
    runs = {key: [p.latencies[key] for p in passes if key in p.latencies]
            for key in passes[0].latencies}
    typical = {key: statistics.median(v) for key, v in runs.items()}
    best = {key: min(v) for key, v in runs.items()}
    lat = list(typical.values())
    every = [v for p in passes for v in p.latencies.values()]
    tail_value, tail_pct, beyond = tail(every, len(lat))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(lat),
        "task_p50_ms": 1e3 * statistics.median(lat),
        "task_tail_ms": 1e3 * tail_value,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"tasks": len(lat), "passes": len(passes), "executions": len(every),
              "tail_percentile": tail_pct, "tail_beyond": beyond,
              "setup_samples_s": setup, "pass_task_s": [p.task_s for p in passes],
              "task_best_ms": {key: 1e3 * v for key, v in best.items()},
              # A cache that outlives one pass shows as a first pass far
              # slower than the best; every pass gets fresh inputs.
              "first_to_best": {key: passes[0].latencies[key] / best[key] for key in best}}
    return {name: metric(values[name], unit) for name, unit in END_TO_END}, detail


def cascade_check_pass_frac(passes: list[PassResult]) -> float:
    """Share of the 3-s.e. checks on the cascade estimators that pass."""
    checks = [c for p in passes for key, c in p.stat_checks
              if key.split("/", 1)[1].startswith("simulate")]
    return sum(c.ok for c in checks) / len(checks) if checks else 0.0


def per_layer(span_list, imports: dict, untraced: PassResult, traced: PassResult,
              failed_frac: float, solve: bool = False) -> dict:
    stats = spans.summarize(span_list)
    m = {
        "cli.import_s": metric(imports["vecspin.cli"], "s"),
        "cli.import.scipy_optimize_s": metric(imports["scipy.optimize"], "s"),
    }
    for label, calls, self_s in LAYER_SPANS + (SOLVE_SPANS if solve else ()):
        st = stats.get(label)
        if calls:
            m[f"{label}.calls"] = metric(st.calls if st else 0, "count")
        if self_s:
            m[f"{label}.self_s"] = metric(st.self_s if st else 0.0, "s")

    def infos(label):
        return [s.info for s in span_list if s.label == label]

    points = sum(p for p in infos("parisi.eval_phi") if p)
    phi_self = stats["parisi.eval_phi"].self_s if "parisi.eval_phi" in stats else 0.0
    m["parisi.eval_phi.ns_per_point"] = metric(1e9 * phi_self / points if points else 0.0,
                                               "ns/point")
    if solve:
        stars = infos("parisi.phi_star")
        inner = (spans.count_within(span_list, "parisi.eval_phi", "parisi.phi_star")
                 + spans.count_within(span_list, "parisi.phi_grad_lambda", "parisi.phi_star"))
        m["parisi.phi_star.iterations"] = metric(sum(it for it, _ in stars), "count")
        m["parisi.phi_star.evals_per_call"] = metric(inner / len(stars) if stars else 0.0,
                                                     "evals/call")
        m["parisi.phi_star.converged_frac"] = metric(
            sum(c for _, c in stars) / len(stars) if stars else 0.0, "ratio")
        m["parisi.optimize.phi_star_calls"] = metric(
            spans.count_within(span_list, "parisi.phi_star", "parisi.optimize"), "count")
        m["parisi.optimize.eval_phi_calls"] = metric(
            spans.count_within(span_list, "parisi.eval_phi", "parisi.optimize"), "count")
        values = infos("parisi.optimize")
        m["parisi.optimize.value"] = metric(values[-1] if values else 0.0, "1")
    ses = infos("rpc.simulate_phi")
    m["rpc.simulate_phi.se_median"] = metric(statistics.median(ses) if ses else 0.0, "1")
    m["rpc.sample_cascade.leaves"] = metric(sum(infos("rpc.sample_cascade")), "count")
    m["rpc.check_pass_frac"] = metric(cascade_check_pass_frac([traced]), "ratio")
    m["trace.overhead_s"] = metric(traced.task_s - untraced.task_s, "s")
    covered = spans.root_time(span_list)
    m["trace.coverage"] = metric(covered / traced.task_s if traced.task_s else 0.0, "ratio")
    m["run.failed_frac"] = metric(failed_frac, "ratio")
    return m


def print_summary(name: str, seed: int, metrics: dict, detail: dict, attempted: int,
                  failed: int) -> None:
    print(f"workload {name}, seed {seed}: {detail.get('passes', 0)} pass(es), "
          f"{detail.get('tasks', attempted)} tasks, BLAS threads pinned to 1")
    for key, m in metrics.items():
        note = ""
        if key == "task_p50_ms":
            note = f"(n={detail['tasks']} tasks, each its median of {detail['passes']} passes)"
        elif key == "wall_s":
            note = f"(sum of the tasks' medians of {detail['passes']} passes)"
        elif key == "task_tail_ms":
            note = (f"(p{detail['tail_percentile']:.1f} of {detail['executions']} task "
                    f"executions, {detail['tail_beyond']} beyond)")
        elif key == "setup_s":
            note = f"(median of {len(detail['setup_samples_s'])} fresh interpreters)"
        print(f"  {key:34s} {m['value']:.6g} {m['unit']} {note}".rstrip())
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if "first_to_best" in detail:
        ratios = detail["first_to_best"].values()
        print(f"  first pass / fastest pass, per task: median "
              f"{statistics.median(ratios):.3g}, max {max(ratios):.3g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("recursion", "solve", "oracles"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and waits
    # for a set-up probe that is still running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    check_layout()
    sys.path.insert(0, str(SRC))
    import vecspin

    if Path(vecspin.__file__).resolve().parent != (SRC / "vecspin").resolve():
        fail(f"imported vecspin from {vecspin.__file__}, not from {SRC}")
    import runrecord
    import workloads

    def fresh():
        """The workload's inputs, built anew: objects never outlive a pass."""
        return workloads.build(args.workload, args.seed, ROOT)

    wl = fresh()
    references = workloads.load_references(HERE)[args.workload][str(wl.pool_index)]

    if args.trace:
        imports = import_breakdown()
        # Untraced passes before and after the traced one; the overhead is
        # taken against the faster, as the first pass of a process runs slower.
        before = run_pass(wl, references)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run_pass(fresh(), references, tracer)
        after = run_pass(fresh(), references)
        untraced = min(before, after, key=lambda p: p.task_s)
        passes = [before, traced, after]
    else:
        setup, passes = [], []
        start = time.perf_counter()
        deadline = start + args.seconds
        probe_at = [start + args.seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]

        def probe():
            """Take the next ``setup_s`` sample once its time has come."""
            if len(setup) < SETUP_PROBES and time.perf_counter() >= probe_at[len(setup)]:
                setup.append(measure_setup(args.workload, args.seed))

        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(run_pass(wl if not passes else fresh(), references, before=probe,
                                   deadline=deadline if len(passes) >= MIN_PASSES else None))
        while len(setup) < SETUP_PROBES:  # probes a slow pass overran
            setup.append(measure_setup(args.workload, args.seed))
        passes = [p for p in passes if p.latencies]

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]  # at most one per task run
    failed = len(failures)
    if args.trace:
        metrics = per_layer(tracer.spans, imports, untraced, traced, failed / attempted,
                            solve=args.workload == "solve")
        detail = {"passes": len(passes), "tasks": len(wl.tasks), "spans": len(tracer.spans)}
    else:
        metrics, detail = end_to_end(setup, passes)
    detail["rpc_check_pass_frac"] = cascade_check_pass_frac(passes)
    detail["stat_checks_failed"] = sorted({f"{k}: {c.name} {c.detail}"
                                           for p in passes for k, c in p.stat_checks
                                           if not c.ok})
    detail["task_median_ms"] = {
        t.key: 1e3 * statistics.median(p.latencies[t.key] for p in passes
                                       if t.key in p.latencies)
        for t in wl.tasks}

    results = {
        "record": runrecord.record(ROOT, args.workload, args.seed, bool(args.trace)),
        "pool_index": wl.pool_index,
        "seconds": args.seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "detail": detail,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1) + "\n")

    print_summary(args.workload, args.seed, metrics, detail, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

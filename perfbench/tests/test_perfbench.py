"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

They check the harness, not ``vecspin``: the exact checks reject values
perturbed past their tolerance, the span wrapper computes self time and
restores what it patched, instances depend on the seed alone, the solve
instances are feasible, and the metric names match ``BENCHMARK.json``.
"""
import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from vecspin import parisi, prior  # noqa: E402

SEED = 5


def _tasks(name, seed=SEED):
    wl = workloads.build(name, seed, ROOT)
    refs = workloads.load_references(HERE)[name][str(wl.pool_index)]
    return {t.key: t for t in wl.tasks}, refs


def _exact_ok(checks):
    return all(c.ok for c in checks if c.exact)


# ---------------------------------------------------------------------------
# exact checks reject perturbed values


@pytest.mark.parametrize("check, tol, floor", [
    (workloads.check_same, workloads.TOL_SAME, 1.0),
    (workloads.check_ref, workloads.TOL_REF, 1.0),
    (workloads.check_enum, workloads.TOL_ENUM, 0.0),
])
@pytest.mark.parametrize("want", [0.73, -2.5, 41.0])
def test_close_checks_reject_past_tolerance(check, tol, floor, want):
    step = tol * max(floor, abs(want))
    assert check("c", want + 0.5 * step, want).ok
    assert not check("c", want + 2.0 * step, want).ok
    assert not check("c", want - 2.0 * step, want).ok
    assert not check("c", float("nan"), want).ok


def test_infimum_check_rejects_values_above_record():
    ref = 0.0563
    step = workloads.TOL_REF
    assert workloads.check_not_above("c", ref - 0.3, ref).ok
    assert workloads.check_not_above("c", ref + 0.5 * step, ref).ok
    assert not workloads.check_not_above("c", ref + 2.0 * step, ref).ok


def test_missing_reference_fails():
    assert not workloads.check_ref("c", 1.0, None).ok
    assert not workloads.check_enum("c", 1.0, None).ok
    assert not workloads.check_not_above("c", 1.0, None).ok


def test_recursion_task_checks_reject_perturbed_results():
    tasks, refs = _tasks("recursion")
    slot = workloads.RECURSION_SLOTS[0]
    phi_t, grad_t, parisi_t = (tasks[f"{slot}/{c}"] for c in
                               ("eval_phi", "phi_grad_lambda", "eval_parisi"))
    phi = phi_t.fn()
    grad = grad_t.fn()
    res = parisi_t.fn()
    assert _exact_ok(phi_t.check(phi, refs[phi_t.key]))
    assert _exact_ok(grad_t.check(grad, refs[grad_t.key]))
    assert _exact_ok(parisi_t.check(res, refs[parisi_t.key]))

    same = 2.0 * workloads.TOL_SAME * max(1.0, abs(phi[0]))
    # the gradient task's value must equal eval_phi's; parisi's phi too
    assert not _exact_ok(grad_t.check((grad[0] + same, grad[1]),
                                      [grad[0] + same, *grad[1]]))
    assert not _exact_ok(parisi_t.check(replace(res, phi=res.phi + same), res.value))
    assert not _exact_ok(parisi_t.check(
        replace(res, theta_term=res.theta_term + 1e-9), res.value))
    ref_step = 2.0 * workloads.TOL_REF * max(1.0, abs(phi[0]))
    assert not _exact_ok(phi_t.check((phi[0] + ref_step, 0.0), refs[phi_t.key]))
    phi_t.check(phi, refs[phi_t.key])  # restore the slot's eval_phi value
    bad_grad = grad[1].copy()
    bad_grad[0] += 2.0 * workloads.TOL_REF * max(1.0, abs(bad_grad[0]))
    assert not _exact_ok(grad_t.check((grad[0], bad_grad), refs[grad_t.key]))
    assert not _exact_ok(parisi_t.check(replace(res, value=res.value + ref_step),
                                        refs[parisi_t.key]))

    for call in ("eval_phi", "eval_parisi"):
        t = tasks[f"sk_ising/{call}"]
        out = t.fn()
        assert _exact_ok(t.check(out, None))
        if call == "eval_phi":
            out = (out[0] + 2.0 * workloads.TOL_SAME, 0.0)
        else:
            out = replace(out, value=out.value + 2.0 * workloads.TOL_SAME)
        assert not _exact_ok(t.check(out, None))


def test_solve_task_checks_reject_perturbed_results():
    tasks, refs = _tasks("solve")
    t = tasks[f"{workloads.SOLVE_SLOTS[0][0]}/phi_star"]
    res = t.fn()
    assert _exact_ok(t.check(res, refs[t.key]))
    scale = max(1.0, abs(res.value))
    assert not _exact_ok(t.check(replace(res, value=res.value + 2e-10 * scale), refs[t.key]))
    assert not _exact_ok(t.check(res, res.value - 2e-6 * scale))


def _fails(task, result) -> bool:
    try:
        return not _exact_ok(task.check(result, None))
    except Exception:
        return True  # run.py counts a check that raises as a failure


def test_optimize_checks_reject_inconsistent_results():
    from vecspin import cli

    tasks, _ = _tasks("solve")
    t = tasks["heisenberg_like/optimize"]
    # a consistent result assembled by hand from the config's path
    cfg = workloads._load_config(ROOT, "heisenberg_like.yaml")
    model = cli.build_model(cfg)
    pr = cli.build_prior(cfg, model.kappa)
    path = cli.build_path(cfg, model.kappa)
    spec = cli.build_eval_spec(cfg, workloads._cli_args())
    lam = np.array([0.1, 0.0, -0.2])
    value = parisi.eval_parisi(model, pr, lam, path.endpoint, path, spec).value
    w = np.full(4, 0.25)
    good = parisi.OptimizeResult(value, path.endpoint.copy(), lam, path, w, True, {})
    assert not _fails(t, good)
    assert _fails(t, replace(good, value=value + 2e-10))
    assert _fails(t, replace(good, hull_weights=np.array([0.5, 0.5, 0.5, -0.5])))
    assert _fails(t, replace(good, hull_weights=w * 1.001))
    assert _fails(t, replace(good, d=path.endpoint + 1e-3 * np.eye(2)))


def test_enumeration_checks_reject_perturbed_results():
    tasks, refs = _tasks("oracles")
    for key in ("fe_small_n8/exact_free_energy", "fe_small_n8/constrained_free_energy",
                "fe_small_n6_rep2/gg_discrepancy"):
        t = tasks[key]
        res = t.fn()
        assert _exact_ok(t.check(res, refs[key]))
        if hasattr(res, "delta"):
            bad = replace(res, delta=res.delta * (1 + 2 * workloads.TOL_ENUM))
        else:
            bad = replace(res, value=res.value * (1 + 2 * workloads.TOL_ENUM))
        assert not _exact_ok(t.check(bad, refs[key]))


def test_statistical_checks_never_fail_a_task():
    assert not workloads.check_stat("s", 1.0, 0.0, 0.1).exact


# ---------------------------------------------------------------------------
# the span wrapper


def _toy_package():
    pkg = types.ModuleType("toypkg")
    a = types.ModuleType("toypkg.a")
    b = types.ModuleType("toypkg.b")
    exec(
        "import time\n"
        "def inner(d):\n    time.sleep(d)\n    return d\n"
        "def outer():\n    time.sleep(0.01)\n    return inner(0.02) + inner(0.03)\n",
        a.__dict__,
    )
    b.inner = a.inner  # a second namespace binding the same function
    pkg.a, pkg.b = a, b
    return {"toypkg": pkg, "toypkg.a": a, "toypkg.b": b}


def test_span_self_time_on_nested_calls(monkeypatch):
    mods = _toy_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    a, b = mods["toypkg.a"], mods["toypkg.b"]
    inner, outer = a.inner, a.outer
    tracer = spans.Tracer(
        {"a.outer": ("toypkg.a", "outer", None),
         "a.inner": ("toypkg.a", "inner", lambda args, kw, res: res)},
        package="toypkg",
    )
    with tracer.installed():
        assert b.inner is not inner and a.inner is not inner
        a.outer()  # not recording: no spans
        with tracer.recording():
            a.outer()
            b.inner(0.001)
    assert a.inner is inner and b.inner is inner and a.outer is outer

    labels = [s.label for s in tracer.spans]
    assert labels == ["a.outer", "a.inner", "a.inner", "a.inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1]
    assert [s.info for s in tracer.spans[1:]] == [0.02, 0.03, 0.001]
    stats = spans.summarize(tracer.spans)
    root = tracer.spans[0]
    children = tracer.spans[1].duration + tracer.spans[2].duration
    assert stats["a.outer"].calls == 1 and stats["a.inner"].calls == 3
    assert stats["a.outer"].self_s == pytest.approx(root.duration - children, abs=1e-12)
    assert 0.009 <= stats["a.outer"].self_s < children
    assert stats["a.inner"].self_s == pytest.approx(stats["a.inner"].total_s, abs=1e-12)
    assert spans.count_within(tracer.spans, "a.inner", "a.outer") == 2
    assert spans.root_time(tracer.spans) == pytest.approx(
        root.duration + tracer.spans[3].duration, abs=1e-12)


def test_span_wrapper_restores_after_an_error(monkeypatch):
    mods = _toy_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    a = mods["toypkg.a"]
    inner = a.inner
    tracer = spans.Tracer({"a.inner": ("toypkg.a", "inner", None)}, package="toypkg")
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            with tracer.recording():
                a.inner(0.0)
                1 / 0
    assert a.inner is inner and mods["toypkg.b"].inner is inner
    assert not tracer.enabled


def test_tracer_targets_exist_and_restore():
    import vecspin
    from vecspin import rpc

    before = (parisi.increments, rpc.increments, vecspin.eval_phi)
    with spans.Tracer().installed():
        assert rpc.increments is parisi.increments
        assert parisi.increments is not before[0]
        assert vecspin.eval_phi is parisi.eval_phi
    assert (parisi.increments, rpc.increments, vecspin.eval_phi) == before


# ---------------------------------------------------------------------------
# workload generation


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for o in obj for a in _arrays(o)]
    if isinstance(obj, dict):
        return [a for k in sorted(obj) for a in _arrays(obj[k])]
    if hasattr(obj, "__dataclass_fields__"):
        return [a for f in obj.__dataclass_fields__ for a in _arrays(getattr(obj, f))]
    return [np.asarray(obj, dtype=float)] if isinstance(obj, (int, float)) else []


@pytest.mark.parametrize("make, slots", [
    (workloads.recursion_instance, workloads.RECURSION_SLOTS),
    (workloads.solve_instance, workloads.SOLVE_SLOTS),
    (workloads.cascade_instance, workloads.CASCADE_SLOTS),
])
def test_instances_depend_on_the_seed_alone(make, slots):
    for i in range(len(slots)):
        first, again = _arrays(make(i, 3)), _arrays(make(i, 3))
        assert len(first) == len(again) > 0
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
        other = _arrays(make(i, 4))
        assert not all(np.array_equal(x, y) for x, y in zip(first, other)
                       if x.shape == y.shape)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_build_is_deterministic(name):
    a = workloads.build(name, 21, ROOT)
    b = workloads.build(name, 21, ROOT)
    assert a.pool_index == b.pool_index == 21 % workloads.POOL
    assert [t.key for t in a.tasks] == [t.key for t in b.tasks]
    assert len({t.key for t in a.tasks}) == len(a.tasks)
    assert len(a.tasks) > run.TAIL_BEYOND


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_fresh_builds_share_no_inputs(name):
    """Each pass gets new input objects, so a cache keyed on them misses."""
    a = workloads.build(name, 21, ROOT)
    b = workloads.build(name, 21, ROOT)
    for ta, tb in zip(a.tasks, b.tasks):
        cells_a = [c.cell_contents for c in ta.fn.__closure__ or ()]
        cells_b = [c.cell_contents for c in tb.fn.__closure__ or ()]
        shared = [x for x, y in zip(cells_a, cells_b)
                  if x is y and not isinstance(x, (int, float, str, type(None)))]
        assert not shared, (ta.key, shared)


def test_every_solve_instance_is_feasible():
    for i in range(len(workloads.SOLVE_SLOTS)):
        for pool in range(workloads.POOL):
            _, _, hull, d, path = workloads.solve_instance(i, pool)
            assert prior.hull_membership(hull, d).feasible
            assert np.array_equal(path.endpoint, d)


def test_references_cover_every_pool_instance():
    refs = workloads.load_references(HERE)
    for name in workloads.WORKLOADS:
        for pool in range(workloads.POOL):
            wl = workloads.build(name, pool, ROOT)
            want = {t.key for t in wl.tasks if t.reference is not None}
            assert set(refs[name][str(pool)]) == want


# ---------------------------------------------------------------------------
# reported metrics


def test_tail_percentile_rule():
    n = run.MIN_PASSES * 20  # 20 tasks, the fewest passes
    value, pct, beyond = run.tail(list(range(n)), 20)
    assert (value, beyond) == (n - 11, 10) and pct == pytest.approx(100 * (1 - 10 / n))
    # More passes keep the percentile, and so the place among the tasks.
    value, pct, beyond = run.tail(list(range(2 * n)), 20)
    assert (value, beyond) == (2 * n - 21, 20) and pct == pytest.approx(100 * (1 - 10 / n))
    value, pct, beyond = run.tail([3.0, 1.0, 2.0], 1)
    assert (value, pct, beyond) == (1.0, 0.0, 2)


def test_tail_is_taken_over_every_execution():
    fast = run.PassResult(latencies={f"t{i}": 0.001 * (i + 1) for i in range(12)})
    slow = run.PassResult(latencies={k: 3 * v for k, v in fast.latencies.items()})
    passes = [slow] + [fast] * (run.MIN_PASSES - 1)  # the median pass is fast
    e2e, detail = run.end_to_end([0.5], passes)
    assert detail["executions"] == 12 * len(passes)
    assert detail["tail_beyond"] == run.TAIL_BEYOND
    every = sorted(v for p in passes for v in p.latencies.values())
    assert e2e["task_tail_ms"]["value"] == pytest.approx(1e3 * every[-1 - run.TAIL_BEYOND])
    assert e2e["task_p50_ms"]["value"] == pytest.approx(6.5)
    assert e2e["wall_s"]["value"] == pytest.approx(fast.task_s)
    assert detail["first_to_best"] == pytest.approx({k: 3.0 for k in fast.latencies})


def test_wall_is_the_sum_of_each_tasks_median_over_passes():
    a = run.PassResult(latencies={"x": 1.0, "y": 4.0})
    b = run.PassResult(latencies={"x": 2.0, "y": 3.0})
    c = run.PassResult(latencies={"x": 9.0, "y": 3.5})
    e2e, detail = run.end_to_end([0.5, 0.4, 0.9], [a, b, c])
    assert e2e["wall_s"]["value"] == pytest.approx(2.0 + 3.5)
    assert e2e["setup_s"]["value"] == pytest.approx(0.5)
    assert detail["task_best_ms"] == pytest.approx({"x": 1e3, "y": 3e3})


def test_pass_stops_at_the_deadline_and_calls_before_each_task():
    order = []
    wl = workloads.Workload("toy", 0, [
        workloads.Task("s", f"t{i}", lambda i=i: order.append(i), lambda res, ref: [])
        for i in range(5)])
    whole = run.run_pass(wl, {}, before=lambda: order.append("b"))
    assert order == ["b", 0, "b", 1, "b", 2, "b", 3, "b", 4] and len(whole.latencies) == 5
    order.clear()
    late = run.run_pass(wl, {}, before=lambda: order.append("b"), deadline=0.0)
    assert order == [] and late.latencies == {}


def test_a_partial_last_pass_counts_only_the_tasks_it_ran():
    first = run.PassResult(latencies={"x": 2.0, "y": 3.0})
    last = run.PassResult(latencies={"x": 1.0})
    e2e, detail = run.end_to_end([0.5], [first, last])
    assert e2e["wall_s"]["value"] == pytest.approx(1.5 + 3.0)
    assert detail["executions"] == 3


def test_solve_only_metrics_are_reported_for_solve():
    p = run.PassResult(latencies={"t": 0.001})
    imports = {"vecspin.cli": 0.9, "scipy.optimize": 0.7}
    plain = run.per_layer([], imports, p, p, 0.0)
    solve = run.per_layer([], imports, p, p, 0.0, solve=True)
    extra = set(solve) - set(plain)
    assert "parisi.phi_star.converged_frac" in extra and "parisi.optimize.value" in extra
    assert not any(k.startswith(("parisi.phi_star", "parisi.optimize")) for k in plain)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = run.PassResult(latencies={f"t{i}": 0.001 * (i + 1) for i in range(12)})
    e2e, _ = run.end_to_end([0.5, 0.6, 0.7], [p, p])
    assert [(k, v["unit"]) for k, v in e2e.items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = run.per_layer([], {"vecspin.cli": 0.9, "scipy.optimize": 0.7}, p, p, 0.0)
    assert sorted((k, v["unit"]) for k, v in layer.items()) == sorted(
        (m["name"], m["unit"]) for m in spec["per_layer"])
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)

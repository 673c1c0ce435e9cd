"""Seeded task lists for the three benchmark workloads, with their checks.

A workload is a list of tasks.  A task is one public ``vecspin`` call on
inputs generated here; the program receives only those inputs.  Every
random instance belongs to a slot (a fixed size class and level
structure) and a pool index.  The workload seed picks the pool index, so
one seed always gives the same inputs, and ``references.json`` holds the
values this revision computed for every pool instance.

Why each workload exists (see README.md for the ROADMAP items):

* ``recursion``: few large evaluations of the Gaussian recursion.  The
  bottom layer (scores plus log-sum-exp over atoms) dominates, so the level
  plan and partial-sum DP work shows here, and so does peak memory.  Some
  slots carry x = 0, repeated x and x = 1 levels (a merged level plan
  saves work); the others carry distinct interior x (it saves none).
* ``solve``: thousands of millisecond evaluations inside ``phi_star`` and
  ``optimize``; per-call set-up and the lambda solve dominate.
* ``oracles``: cascade sampling and enumeration; the recursion appears
  only as the untimed reference of the cascade checks.

Calls go through module attributes (``parisi.eval_phi``), never through
names bound at import, so the tracer in ``spans.py`` sees them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np
import yaml

from vecspin import cli, mixing, parisi, prior, rpc, system
from vecspin.rng import spawn_rng

WORKLOADS = ("recursion", "solve", "oracles")

#: Instances per slot; the workload seed selects one by ``seed % POOL``.
POOL = 16

#: Root of every instance seed, so pool instances never collide with the
#: seeds the test suite uses.
INSTANCE_SEED = 1512_04441

#: Same quantity through two entry points, or a closed form: equal up to
#: floating-point reordering.
TOL_SAME = 1e-10

#: Recursion values against this revision's record, scaled by max(1, |ref|).
#: A differently discretised evaluator meeting ROADMAP item 4's accuracy
#: (2e-8 to 6e-7 against the tensor grid) passes; a wrong level plan,
#: which moves values by 1e-3 or more, does not.
TOL_REF = 1e-6

#: Exact enumeration results against this revision's record, relative.
#: Enumeration involves no discretisation, only summation order.
TOL_ENUM = 1e-9

#: Width of the statistical (cascade and covariance Monte Carlo) checks in
#: standard errors.  They are counted in ``rpc.check_pass_frac``, never as
#: failures: their false-alarm rate is ROADMAP item 2's subject.
STAT_SE = 3.0


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    exact: bool  # an exact check that fails makes the task fail
    detail: str = ""


def check_close(name: str, got, want, tol: float, scale_floor: float = 1.0) -> Check:
    """|got - want| <= tol * max(scale_floor, |want|), entrywise."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return Check(name, False, True, f"shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    allowed = tol * np.maximum(scale_floor, np.abs(want))
    ok = bool(np.all(np.isfinite(got)) and np.all(err <= allowed))
    return Check(name, ok, True, f"max err {float(np.max(err, initial=0.0)):.3e}")


def check_same(name: str, got, want) -> Check:
    return check_close(name, got, want, TOL_SAME)


def check_ref(name: str, got, ref) -> Check:
    if ref is None:
        return Check(name, False, True, "no reference recorded")
    return check_close(name, got, ref, TOL_REF)


def check_enum(name: str, got, ref) -> Check:
    if ref is None:
        return Check(name, False, True, "no reference recorded")
    return check_close(name, got, ref, TOL_ENUM, scale_floor=0.0)


def check_not_above(name: str, got: float, ref) -> Check:
    """An infimum may improve on the record but not exceed it."""
    if ref is None:
        return Check(name, False, True, "no reference recorded")
    limit = ref + TOL_REF * max(1.0, abs(ref))
    ok = bool(math.isfinite(got) and got <= limit)
    return Check(name, ok, True, f"{got!r} vs record {ref!r}")


def check_stat(name: str, got: float, want: float, se: float) -> Check:
    ok = bool(abs(got - want) <= STAT_SE * se + 1e-12)
    z = (got - want) / se if se > 0 else float("inf")
    return Check(name, ok, False, f"z = {z:+.2f}")


@dataclass
class Task:
    """One timed call.

    ``reference`` maps the call's result to the JSON value recorded in
    ``references.json`` (None when the call is not compared to the record).
    ``check`` maps (result, recorded value) to checks; it may read and
    write ``ctx``, which the tasks of one slot share, in task order.
    """

    slot: str
    call: str
    fn: Callable[[], Any]
    check: Callable[[Any, Any], list[Check]]
    reference: Callable[[Any], Any] | None = None

    @property
    def key(self) -> str:
        return f"{self.slot}/{self.call}"


@dataclass
class Workload:
    name: str
    pool_index: int
    tasks: list[Task] = field(default_factory=list)


def _cli_args():
    return SimpleNamespace(backend=None, seed=None, threads=1)


def _load_config(root: FsPath, name: str) -> dict:
    with open(root / "configs" / name, "rb") as fh:
        return yaml.safe_load(fh)


# ---------------------------------------------------------------------------
# random instances


def _model(rng, kappa: int):
    return mixing.MixedModel(
        kappa, {p: rng.uniform(0.05, 0.5, size=kappa) for p in (2, 4)}
    )


def _prior(rng, kappa: int, n_atoms: int):
    pts = rng.uniform(-1.0, 1.0, size=(n_atoms, kappa))
    w = rng.uniform(0.2, 1.0, size=n_atoms)
    return prior.SpinPrior(pts, w / w.sum())


def _distinct_x(rng, r: int, lo: float, hi: float) -> np.ndarray:
    x = np.sort(rng.uniform(lo, hi, size=r))
    while np.any(np.diff(x) < 1e-2):
        x = np.sort(rng.uniform(lo, hi, size=r))
    return x


def _merged_x(rng, r: int) -> np.ndarray:
    """x_0 = 0, x_{r-1} = 1, interior values repeated in pairs (r >= 2)."""
    interior = r - 2
    mid = np.repeat(_distinct_x(rng, (interior + 1) // 2, 0.1, 0.9), 2)[:interior]
    return np.concatenate([[0.0], mid, [1.0]])


def _full_rank_gammas(rng, kappa: int, r: int) -> np.ndarray:
    """Strictly increasing Gram matrices: every increment has full rank, so
    the tensor grid has exactly nodes**(kappa*r) points."""
    g = np.zeros((kappa, kappa))
    out = []
    for _ in range(r):
        v = rng.standard_normal((kappa, kappa)) * 0.6 / math.sqrt(r)
        g = g + v @ v.T / kappa + 1e-3 * np.eye(kappa)
        out.append(g.copy())
    return np.array(out)


# ---------------------------------------------------------------------------
# recursion

#: (kappa, r, nodes per level, atoms, level structure).  The deep kappa = 1
#: paths come in both structures at equal size, so a level plan that merges
#: levels shows as a gap between the two.
RECURSION_CLASSES = (
    (1, 2, 16, 2, "distinct"),
    (2, 2, 16, 4, "merged"),
    (2, 3, 8, 4, "distinct"),
    (3, 2, 10, 8, "merged"),
    (2, 2, 16, 64, "distinct"),
    (1, 4, 32, 2, "merged"),
    (1, 4, 32, 2, "distinct"),
    (1, 5, 16, 2, "distinct"),
    (1, 5, 16, 2, "merged"),
    (1, 6, 12, 2, "merged"),
    (1, 6, 12, 2, "distinct"),
)
RECURSION_SLOTS = tuple(f"k{k}r{r}n{n}a{a}-{shape}"
                        for k, r, n, a, shape in RECURSION_CLASSES)


def recursion_instance(slot_index: int, pool_index: int):
    kappa, r, nodes, atoms, shape = RECURSION_CLASSES[slot_index]
    rng = spawn_rng(INSTANCE_SEED, 1, slot_index, pool_index)
    model = _model(rng, kappa)
    pr = _prior(rng, kappa, atoms)
    x = _distinct_x(rng, r, 0.05, 0.95) if shape == "distinct" else _merged_x(rng, r)
    path = parisi.Path(x, _full_rank_gammas(rng, kappa, r))
    lam = rng.uniform(-0.3, 0.3, size=kappa * (kappa + 1) // 2)
    return model, pr, path, lam, parisi.EvalSpec(nodes_per_level=nodes)


def _recursion_tasks(slot: str, model, pr, path, lam, spec) -> list[Task]:
    ctx: dict = {}
    d = path.endpoint

    def check_phi(res, ref):
        ctx["phi"] = res[0]
        return [check_ref("phi_vs_record", res[0], ref)]

    def check_grad(res, ref):
        value, grad = res
        out = [check_ref("value_and_grad_vs_record", [value, *grad], ref)]
        if "phi" in ctx:
            out.append(check_same("value_equals_eval_phi", value, ctx["phi"]))
        return out

    def check_parisi(res, ref):
        out = [check_ref("parisi_vs_record", res.value, ref),
               check_same("theta_rearranged", res.theta_term, res.theta_term_rearranged)]
        if "phi" in ctx:
            out.append(check_same("phi_equals_eval_phi", res.phi, ctx["phi"]))
        return out

    return [
        Task(slot, "eval_phi", lambda: parisi.eval_phi(model, pr, lam, path, spec),
             check_phi, reference=lambda res: res[0]),
        Task(slot, "phi_grad_lambda",
             lambda: parisi.phi_grad_lambda(model, pr, lam, path, spec),
             check_grad, reference=lambda res: [res[0], *map(float, res[1])]),
        Task(slot, "eval_parisi",
             lambda: parisi.eval_parisi(model, pr, lam, d, path, spec),
             check_parisi, reference=lambda res: res.value),
    ]


def _sk_ising_tasks(root: FsPath) -> list[Task]:
    """The sk_ising config: Phi = log 2 + 1/4 and P = Phi - 1/8 in closed form."""
    cfg = _load_config(root, "sk_ising.yaml")
    model = cli.build_model(cfg)
    pr = cli.build_prior(cfg, model.kappa)
    path = cli.build_path(cfg, model.kappa)
    lam = cli.build_lambda(cfg, model.kappa)
    spec = cli.build_eval_spec(cfg, _cli_args())
    d = np.asarray(cfg["constraint"]["d"], dtype=float)
    phi_closed = math.log(2.0) + 0.25
    return [
        Task("sk_ising", "eval_phi",
             lambda: parisi.eval_phi(model, pr, lam, path, spec),
             lambda res, ref: [check_same("closed_form", res[0], phi_closed)]),
        Task("sk_ising", "eval_parisi",
             lambda: parisi.eval_parisi(model, pr, lam, d, path, spec),
             lambda res, ref: [check_same("closed_form", res.value, phi_closed - 0.125)]),
    ]


def recursion(seed: int, root: FsPath) -> Workload:
    wl = Workload("recursion", seed % POOL)
    for i, slot in enumerate(RECURSION_SLOTS):
        wl.tasks += _recursion_tasks(slot, *recursion_instance(i, wl.pool_index))
    wl.tasks += _sk_ising_tasks(root)
    return wl


# ---------------------------------------------------------------------------
# solve

#: (slot, kappa, r) of the random feasible Legendre-transform instances,
#: 16 each with kappa = 1 (r = 1 or 2), 2 and 3.  The transforms cost more
#: as kappa grows, so the workload's median task falls among the kappa = 2
#: transforms and its tail task among the kappa = 3 ones, not on a boundary
#: between groups.
SOLVE_SLOTS = tuple(
    (f"phistar{j:02d}_k{k}r{r}", k, r)
    for j, (k, r) in enumerate(((1, 1), (1, 2), (2, 1), (2, 1), (3, 1), (3, 1)) * 8)
)

#: Iteration budget of the random transforms and of the transforms inside
#: ``optimize``, an eighth of the default, so the workload fits in a run.
#: At this revision most kappa >= 2 transforms use all of it (the Armijo
#: stall of ROADMAP item 3).
SOLVE_MAX_ITER = 60

#: Reduced budget for the one ``optimize`` task.  It keeps every stage,
#: the outer hull step included; the shipped config's budget takes 942 s.
OPTIMIZE_BUDGET = dict(multistarts=1, alternations=1, path_steps=2, outer_iters=1,
                       max_iter=SOLVE_MAX_ITER)

SOLVE_NODES = 10


def solve_instance(slot_index: int, pool_index: int):
    """A feasible instance: D is drawn inside the constraint hull and the
    path is t_j * D, so the Legendre transform is bounded."""
    _, kappa, r = SOLVE_SLOTS[slot_index]
    rng = spawn_rng(INSTANCE_SEED, 2, slot_index, pool_index)
    model = _model(rng, kappa)
    pr = _prior(rng, kappa, 2 * kappa)
    hull = prior.ConstraintHull.from_prior(pr)
    d = hull.combine(rng.dirichlet(np.ones(hull.n_generators)))
    t = np.append(np.sort(rng.uniform(0.2, 0.9, size=r - 1)), 1.0)
    path = parisi.Path(_distinct_x(rng, r, 0.1, 0.9), t[:, None, None] * d)
    return model, pr, hull, d, path


def _phi_star_task(slot, model, pr, d, path, spec, opt) -> Task:
    def check(res, ref):
        phi, _ = parisi.eval_phi(model, pr, res.lam, path, spec)
        return [
            check_same("value_is_phi_minus_pairing", res.value,
                       phi - parisi.lambda_pairing(res.lam, d)),
            check_not_above("not_above_record", res.value, ref),
        ]

    return Task(slot, "phi_star", lambda: parisi.phi_star(model, pr, d, path, spec, opt),
                check, reference=lambda res: res.value)


def solve(seed: int, root: FsPath) -> Workload:
    """Three blocks of random transforms around the two config tasks, so the
    short tasks sample the whole pass rather than one stretch of it."""
    wl = Workload("solve", seed % POOL)
    cfg = _load_config(root, "heisenberg_like.yaml")
    args = _cli_args()
    model = cli.build_model(cfg)
    pr = cli.build_prior(cfg, model.kappa)
    path = cli.build_path(cfg, model.kappa)
    spec = cli.build_eval_spec(cfg, args)
    d = np.asarray(cfg["constraint"]["d"], dtype=float)
    heisenberg = _phi_star_task("heisenberg_like", model, pr, d, path, spec,
                                cli.build_optimizer_spec(cfg, args))

    opt = parisi.OptimizerSpec(**OPTIMIZE_BUDGET)
    levels = int(cfg["optimize"]["levels"])

    def check_optimize(res, ref):
        again = parisi.eval_parisi(model, pr, res.lam, res.d, res.path, spec)
        w = res.hull_weights
        simplex = bool(np.all(w >= -1e-12) and abs(float(w.sum()) - 1.0) <= TOL_SAME)
        return [
            check_same("value_is_eval_parisi", res.value, again.value),
            check_same("path_ends_at_d", res.path.endpoint, res.d),
            Check("hull_weights_on_simplex", simplex, True, f"sum {float(w.sum())!r}"),
        ]

    optimize = Task("heisenberg_like", "optimize",
                    lambda: parisi.optimize(model, pr, levels, spec, opt), check_optimize)

    rspec = parisi.EvalSpec(nodes_per_level=SOLVE_NODES)
    ropt = parisi.OptimizerSpec(max_iter=SOLVE_MAX_ITER)
    transforms = []
    for i, (slot, *_rest) in enumerate(SOLVE_SLOTS):
        model_i, pr_i, _, d_i, path_i = solve_instance(i, wl.pool_index)
        transforms.append(_phi_star_task(slot, model_i, pr_i, d_i, path_i, rspec, ropt))
    third = len(transforms) // 3
    wl.tasks = (transforms[:third] + [heisenberg] + transforms[third:2 * third]
                + [optimize] + transforms[2 * third:])
    return wl


# ---------------------------------------------------------------------------
# oracles

#: (slot, kappa, r, level structure) of the cascade instances.  ``near1``
#: puts the last level at x in [0.9, 0.97], where per-replication values are
#: heavy-tailed (ROADMAP item 2).
CASCADE_SLOTS = (
    ("k1r1", 1, 1, "interior"),
    ("k1r2_near1", 1, 2, "near1"),
    ("k2r1", 2, 1, "interior"),
)
FANOUTS = (128, 256)
REPLICATIONS = 200
Y_SITES = 20
ENUM_SITES = (8, 10)
GG_SITES = 6
GG_REPLICAS = (2, 3)
#: Disorder draws of the GG discrepancy, half the config's 200: the
#: per-draw work is unchanged, and a shorter pass fits four passes in a run.
GG_DRAWS = 100
COV_SITES = 6
COV_DRAWS = 20000


def cascade_instance(slot_index: int, pool_index: int):
    _, kappa, r, shape = CASCADE_SLOTS[slot_index]
    rng = spawn_rng(INSTANCE_SEED, 3, slot_index, pool_index)
    model = _model(rng, kappa)
    pr = _prior(rng, kappa, 3)
    if shape == "near1":
        x = np.array([rng.uniform(0.2, 0.6), rng.uniform(0.9, 0.97)])
    else:
        x = _distinct_x(rng, r, 0.2, 0.85)
    path = parisi.Path(x, _full_rank_gammas(rng, kappa, r))
    lam = rng.uniform(-0.3, 0.3, size=kappa * (kappa + 1) // 2)
    return model, pr, path, lam


def _cascade_tasks(slot, slot_index, pool_index, model, pr, path, lam) -> list[Task]:
    """The cascade estimators.  Their recursion reference is computed in the
    check, untimed: in this workload the recursion is only a reference."""
    ctx: dict = {}
    closed_y = rpc.y_functional_closed_form(model, path)
    seed = int(spawn_rng(INSTANCE_SEED, 4, slot_index, pool_index).integers(2**31))

    def check_sim(res, ref):
        if "phi" not in ctx:
            ctx["phi"] = parisi.eval_phi(model, pr, lam, path, parisi.EvalSpec())[0]
        value, se = res
        return [Check("finite_with_error", bool(math.isfinite(value) and se > 0), True),
                check_stat("cascade_vs_recursion", value, ctx["phi"], se)]

    def check_y(res, ref):
        value, se = res
        return [Check("finite_with_error", bool(math.isfinite(value) and se > 0), True),
                check_stat("y_vs_closed_form", value, closed_y, se)]

    tasks = []
    for f in FANOUTS:
        tasks.append(Task(
            slot, f"simulate_phi_f{f}",
            lambda f=f: rpc.simulate_phi(model, pr, lam, path, fanout=f,
                                         replications=REPLICATIONS, seed=seed),
            check_sim))
        tasks.append(Task(
            slot, f"simulate_y_functional_f{f}",
            lambda f=f: rpc.simulate_y_functional(model, path, Y_SITES, fanout=f,
                                                  replications=REPLICATIONS,
                                                  seed=seed + 1),
            check_y))
    return tasks


def _gg_functional(rn):
    """The CLI's ``entry_00`` functional: R_{1,2}(0, 0) on the tuple grid."""
    return rn[..., 0, 1, 0, 0]


def _system_tasks(root: FsPath, pool_index: int) -> list[Task]:
    cfg = _load_config(root, "fe_small.yaml")
    model = cli.build_model(cfg)
    pr = cli.build_prior(cfg, model.kappa)
    n_disorder = int(cfg["system"]["n_disorder"])
    d = np.asarray(cfg["constraint"]["d"], dtype=float)
    eps = float(cfg["constraint"]["epsilon"])
    pspec = cli.build_perturbation(cfg)
    rng = spawn_rng(INSTANCE_SEED, 5, pool_index)
    seed = int(rng.integers(2**31))
    tasks = []

    def enum_check(res, ref):
        return [check_enum("vs_record", [res.value, res.std_error, res.hit_fraction], ref)]

    def enum_ref(res):
        return [res.value, res.std_error, res.hit_fraction]

    for n in ENUM_SITES:
        tasks.append(Task(
            f"fe_small_n{n}", "exact_free_energy",
            lambda n=n: system.exact_free_energy(model, pr, n, n_disorder, seed),
            enum_check, reference=enum_ref))
        tasks.append(Task(
            f"fe_small_n{n}", "constrained_free_energy",
            lambda n=n: system.constrained_free_energy(model, pr, n, d, eps,
                                                       n_disorder, seed),
            enum_check, reference=enum_ref))
    for reps in GG_REPLICAS:
        tasks.append(Task(
            f"fe_small_n{GG_SITES}_rep{reps}", "gg_discrepancy",
            lambda reps=reps: system.gg_discrepancy(
                model, pr, pspec, GG_SITES, d, eps, reps, _gg_functional,
                pspec.terms[0], GG_DRAWS, seed),
            lambda res, ref: [check_enum("vs_record", [res.delta, res.std_error], ref)],
            reference=lambda res: [res.delta, res.std_error]))

    config_a = pr.points[rng.integers(pr.n_atoms, size=COV_SITES)]
    config_b = pr.points[rng.integers(pr.n_atoms, size=COV_SITES)]
    exact_cov = COV_SITES * mixing.hamiltonian_covariance(
        model, prior.overlap(config_a, config_b))

    def check_cov(res, ref):
        return [check_stat("vs_exact_covariance", res[0], exact_cov, res[1])]

    tasks.append(Task(
        f"fe_small_n{COV_SITES}", "hamiltonian_covariance_mc",
        lambda: system.hamiltonian_covariance_mc(model, config_a, config_b,
                                                 COV_DRAWS, seed),
        check_cov))
    return tasks


def oracles(seed: int, root: FsPath) -> Workload:
    wl = Workload("oracles", seed % POOL)
    for i, (slot, *_rest) in enumerate(CASCADE_SLOTS):
        wl.tasks += _cascade_tasks(slot, i, wl.pool_index,
                                   *cascade_instance(i, wl.pool_index))
    wl.tasks += _system_tasks(root, wl.pool_index)
    return wl


_BUILDERS = {"recursion": recursion, "solve": solve, "oracles": oracles}

REFERENCES = "references.json"


def load_references(directory: FsPath) -> dict:
    """{workload: {pool index: {task key: recorded value}}}."""
    with open(FsPath(directory) / REFERENCES) as fh:
        return json.load(fh)


def build(name: str, seed: int, root: FsPath) -> Workload:
    """The task list of workload ``name`` for ``seed``; inputs only, no calls."""
    return _BUILDERS[name](seed, FsPath(root))

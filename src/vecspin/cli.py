"""Command line front end: config ingestion, dispatch, JSON reports.

Configs are YAML with one section per concern (model, prior, path, eval,
...); matrices are nested row-major lists.  Every command echoes the seed,
the config digest and the backend it ran, so a report identifies its run
exactly.  Exit codes: 0 ok, 2 parse failure, 3 validation failure,
4 budget or infeasibility, 5 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time

import numpy as np
import yaml

from . import parisi, rpc, system
from .errors import BudgetError, InfeasibleError, NumericalError, ValidationError, as_int
from .mixing import MixedModel, hamiltonian_covariance, validate_gram
from .prior import ConstraintHull, SpinPrior, hull_membership
from .rng import check_threads, spawn_rng

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_NUMERICAL = 5

COMMANDS = (
    "validate", "phi", "parisi", "phistar", "optimize", "rpc-check",
    "fe", "fe-constrained", "cov-check", "gg",
)


class ConfigError(ValidationError):
    """Config is syntactically fine but fails a field-level requirement."""


def _section(cfg: dict, name: str, required: bool = True) -> dict:
    if name not in cfg:
        if required:
            raise ConfigError(f"config section '{name}' is missing")
        return {}
    sec = cfg[name]
    if not isinstance(sec, dict):
        raise ConfigError(f"config section '{name}' must be a mapping")
    return sec


def _get(sec: dict, name: str, where: str, default=None, required: bool = False,
         cast=None):
    """``sec[name]`` converted by ``cast``; a missing or null value is ``default``.

    A value that ``cast`` rejects raises ConfigError naming ``where.name``.
    """
    key = f"{where}.{name}".lstrip(".")
    value = sec.get(name)
    if value is None:
        if required:
            raise ConfigError(f"'{key}' is required")
        return default
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{key}' is malformed: {exc}") from None


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _read(cls, cfg: dict, section: str, **fixed):
    """Dataclass ``cls`` from a config section; ``fixed`` fields come from elsewhere.

    Each other field the section sets is converted to the type of the
    field's default; an unset field keeps that default.
    """
    sec = _section(cfg, section, required=False)
    return cls(**fixed, **{
        f.name: _get(sec, f.name, section, f.default,
                     cast=as_int if type(f.default) is int else type(f.default))
        for f in dataclasses.fields(cls) if f.name not in fixed
    })


def build_model(cfg: dict) -> MixedModel:
    sec = _section(cfg, "model")
    kappa = _get(sec, "kappa", "model", required=True, cast=as_int)
    coeffs = _get(sec, "coefficients", "model", default={}, cast=lambda raw: {
        as_int(p): _floats(v) for p, v in dict(raw).items()})
    return MixedModel(kappa, coeffs)


def build_prior(cfg: dict, kappa: int) -> SpinPrior:
    sec = _section(cfg, "prior")
    atoms = _get(sec, "atoms", "prior", required=True)
    try:
        prior = SpinPrior.from_atoms(
            [(a["point"], a["weight"]) for a in atoms]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed 'prior.atoms': {exc!r}") from None
    if prior.kappa != kappa:
        raise ConfigError(
            f"prior atoms have dimension {prior.kappa}, model has kappa={kappa}"
        )
    return prior


def build_path(cfg: dict, kappa: int) -> parisi.Path:
    sec = _section(cfg, "path")
    x = _get(sec, "x", "path", required=True, cast=_floats)
    gammas = _get(sec, "gammas", "path", required=True, cast=_floats)
    path = parisi.Path(x, gammas)
    if path.kappa != kappa:
        raise ConfigError(f"path matrices are {path.kappa}x{path.kappa}, kappa={kappa}")
    return path


def build_lambda(cfg: dict, kappa: int) -> np.ndarray:
    lam = _get(cfg, "lambda", "", cast=_floats)
    if lam is None:
        return parisi.lambda_zero(kappa)
    return parisi.lambda_validate(lam, kappa)


def build_eval_spec(cfg: dict, args) -> parisi.EvalSpec:
    backend = {"backend": args.backend} if args.backend else {}
    return _read(parisi.EvalSpec, cfg, "eval", seed=_resolve_seed(cfg, args),
                 threads=args.threads, **backend)


def build_optimizer_spec(cfg: dict, args) -> parisi.OptimizerSpec:
    return _read(parisi.OptimizerSpec, cfg, "optimize", seed=_resolve_seed(cfg, args))


def build_perturbation(cfg: dict) -> system.PerturbationSpec:
    sec = _section(cfg, "perturbation", required=False)
    try:
        terms = tuple(
            system.PerturbationTerm(p=raw["p"], ns=raw["ns"], lambdas=_floats(raw["lambdas"]))
            for raw in _get(sec, "terms", "perturbation", default=[])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed 'perturbation.terms': {exc!r}") from None
    u = _get(sec, "u", "perturbation", default=[1.5] * len(terms),
             cast=lambda raw: [float(v) for v in raw])
    return _read(system.PerturbationSpec, cfg, "perturbation", terms=terms, u=u)


def _resolve_seed(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else _get(cfg, "seed", "", 0, cast=as_int)
    if seed < 0:
        raise ConfigError(f"'seed' must be >= 0, got {seed}")
    return seed


def _constraint(cfg: dict, path: parisi.Path | None = None):
    sec = _section(cfg, "constraint", required=False)
    d = _get(sec, "d", "constraint", cast=_floats)
    if d is None:
        if path is None:
            raise ConfigError("'constraint.d' is required for this command")
        d = path.endpoint
    eps = _get(sec, "epsilon", "constraint", default=0.1, cast=float)
    return d, eps


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _check(name: str, lhs: float, rhs: float, tol: float) -> dict:
    return {
        "name": name,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "tol": float(tol),
        "pass": bool(abs(lhs - rhs) <= tol),
    }


# ---------------------------------------------------------------------------
# command bodies


def _cmd_validate(cfg, args):
    model = build_model(cfg)
    warnings = []
    components = {"model": {"kappa": model.kappa, "p_values": model.p_values}}
    if "prior" in cfg:
        prior = build_prior(cfg, model.kappa)
        warnings += model.coefficient_warnings(prior.support_bound)
        if not prior.is_normalized:
            warnings.append(
                f"prior mass is {prior.total_mass:g}, not 1; functionals shift by log mass"
            )
        components["prior"] = {"n_atoms": prior.n_atoms,
                               "support_bound": prior.support_bound}
        if "path" in cfg:
            path = build_path(cfg, model.kappa)
            components["path"] = {"levels": path.r}
            hull = ConstraintHull.from_prior(prior)
            member = hull_membership(hull, path.endpoint)
            if not member.feasible:
                warnings.append(
                    "path endpoint is outside the constraint hull "
                    f"(violation {member.max_violation:.3g} at entry {member.worst_entry})"
                )
    if "lambda" in cfg:
        build_lambda(cfg, model.kappa)
    if _section(cfg, "constraint", required=False).get("d") is not None:
        d, _ = _constraint(cfg)
        validate_gram(d, "constraint matrix D", kappa=model.kappa)
    if "perturbation" in cfg:
        build_perturbation(cfg)
    return {"value": None, "components": components, "warnings": warnings}


def _recursion_inputs(cfg, args):
    """(model, prior, path, lambda, eval spec) of a config, built in that order."""
    model = build_model(cfg)
    return (model, build_prior(cfg, model.kappa), build_path(cfg, model.kappa),
            build_lambda(cfg, model.kappa), build_eval_spec(cfg, args))


def _cmd_phi(cfg, args):
    model, prior, path, lam, spec = _recursion_inputs(cfg, args)
    value, se = parisi.eval_phi(model, prior, lam, path, spec)
    return {"value": value, "std_error": se, "backend": spec.backend}


def _cmd_parisi(cfg, args):
    model, prior, path, lam, spec = _recursion_inputs(cfg, args)
    d, _ = _constraint(cfg, path)
    res = parisi.eval_parisi(model, prior, lam, d, path, spec)
    comp = res.to_dict()
    return {"value": res.value, "std_error": res.std_error,
            "components": comp, "backend": spec.backend}


def _cmd_phistar(cfg, args):
    model = build_model(cfg)
    prior = build_prior(cfg, model.kappa)
    path = build_path(cfg, model.kappa)
    spec = build_eval_spec(cfg, args)
    opt = build_optimizer_spec(cfg, args)
    d, _ = _constraint(cfg, path)
    res = parisi.phi_star(model, prior, d, path, spec, opt)
    warnings = [] if res.converged else [f"lambda solve stopped: {res.stop_reason}"]
    return {
        "value": res.value,
        "std_error": 0.0 if spec.is_quadrature else None,
        "components": {"lambda": res.lam.tolist(), "iterations": res.iterations,
                       "grad_norm": res.grad_norm, "converged": res.converged,
                       "stop_reason": res.stop_reason},
        "warnings": warnings,
        "backend": spec.backend,
    }


def _cmd_optimize(cfg, args):
    model = build_model(cfg)
    prior = build_prior(cfg, model.kappa)
    spec = build_eval_spec(cfg, args)
    opt = build_optimizer_spec(cfg, args)
    sec = _section(cfg, "optimize", required=False)
    levels = _get(sec, "levels", "optimize", default=2, cast=as_int)
    res = parisi.optimize(model, prior, levels, spec, opt)
    return {"value": res.value, "components": res.to_dict(), "backend": spec.backend}


def _cmd_rpc_check(cfg, args):
    model, prior, path, lam, spec = _recursion_inputs(cfg, args)
    sec = _section(cfg, "rpc", required=False)
    fanout = _get(sec, "fanout", "rpc", default=128, cast=as_int)
    reps = _get(sec, "replications", "rpc", default=200, cast=as_int)
    m_sites = _get(sec, "m_sites", "rpc", default=20, cast=as_int)
    seed = _resolve_seed(cfg, args)

    quad = parisi.eval_phi(model, prior, lam, path, spec)
    sim = rpc.simulate_phi(model, prior, lam, path, fanout=fanout,
                           replications=reps, seed=seed, threads=args.threads)
    closed = rpc.y_functional_closed_form(model, path)
    ysim = rpc.simulate_y_functional(model, path, m_sites, fanout=fanout,
                                     replications=reps, seed=seed + 1,
                                     threads=args.threads)
    checks = [
        _check("simulate_phi_vs_recursion", sim[0], quad[0],
               3.0 * (sim[1] + quad[1]) + 1e-12),
        _check("y_functional_vs_closed_form", ysim[0], closed,
               3.0 * ysim[1] + 1e-12),
    ]
    levels_x = parisi.level_plan(model, path).x
    # share T/(H+T) of a level's Poisson-Dirichlet mass lost by keeping the top
    # `fanout` arrivals: H sums the kept i^(-1/x), T is the expected tail
    tail = levels_x * float(fanout) ** (1.0 - 1.0 / levels_x) / (1.0 - levels_x)
    head = (np.arange(1, fanout + 1)[:, None] ** (-1.0 / levels_x)).sum(axis=0)
    trunc = tail / (head + tail)
    comp = {
        "phi_recursion": quad[0], "phi_recursion_se": quad[1],
        "phi_cascade": sim[0], "phi_cascade_se": sim[1],
        "y_closed_form": closed, "y_cascade": ysim[0], "y_cascade_se": ysim[1],
        "fanout": fanout, "replications": reps, "m_sites": m_sites,
        "levels_x": levels_x, "truncated_mass": trunc,
    }
    return {"value": sim[0], "std_error": sim[1], "components": comp,
            "checks": checks, "backend": spec.backend}


def _system_params(cfg):
    sec = _section(cfg, "system")
    n_sites = _get(sec, "n_sites", "system", required=True, cast=as_int)
    if n_sites < 1:
        raise ConfigError(f"'system.n_sites' must be >= 1, got {n_sites}")
    n_disorder = _get(sec, "n_disorder", "system", default=200, cast=as_int)
    return sec, n_sites, n_disorder


def _cmd_fe(cfg, args):
    model = build_model(cfg)
    prior = build_prior(cfg, model.kappa)
    _, n_sites, n_disorder = _system_params(cfg)
    res = system.exact_free_energy(model, prior, n_sites, n_disorder,
                                   _resolve_seed(cfg, args), threads=args.threads)
    return {"value": res.value, "std_error": res.std_error,
            "components": res.to_dict()}


def _cmd_fe_constrained(cfg, args):
    model = build_model(cfg)
    prior = build_prior(cfg, model.kappa)
    _, n_sites, n_disorder = _system_params(cfg)
    d, eps = _constraint(cfg)
    res = system.constrained_free_energy(model, prior, n_sites, d, eps,
                                         n_disorder, _resolve_seed(cfg, args),
                                         threads=args.threads)
    return {"value": res.value, "std_error": res.std_error,
            "components": res.to_dict()}


def _cmd_cov_check(cfg, args):
    model = build_model(cfg)
    prior = build_prior(cfg, model.kappa)
    _, n_sites, n_disorder = _system_params(cfg)
    seed = _resolve_seed(cfg, args)
    rng = spawn_rng(seed, 999)
    idx_a = rng.integers(prior.n_atoms, size=n_sites)
    idx_b = rng.integers(prior.n_atoms, size=n_sites)
    config_a = prior.points[idx_a]
    config_b = prior.points[idx_b]
    from .prior import overlap

    r12 = overlap(config_a, config_b)
    exact = n_sites * hamiltonian_covariance(model, r12)
    emp, se = system.hamiltonian_covariance_mc(model, config_a, config_b,
                                               n_disorder, seed)
    checks = [_check("hamiltonian_covariance", emp, exact, 3.0 * se + 1e-12)]
    comp = {"overlap": r12.tolist(), "empirical": emp, "exact": exact,
            "std_error": se, "n_disorder": n_disorder}
    pspec = build_perturbation(cfg)
    if pspec.terms:
        term = pspec.terms[0]
        emp_t, se_t = system.perturbation_covariance_mc(term, config_a, config_b,
                                                        n_disorder, seed + 1)
        exact_t = term.covariance(r12)
        checks.append(_check("perturbation_covariance", emp_t, exact_t,
                             3.0 * se_t + 1e-12))
        comp["perturbation_empirical"] = emp_t
        comp["perturbation_exact"] = exact_t
    return {"value": emp, "std_error": se, "components": comp, "checks": checks}


_GG_FUNCTIONALS = {
    "const": lambda rn: np.ones(rn.shape[:-4]),
    "entry_00": lambda rn: rn[..., 0, 1, 0, 0],
    "entry_00_squared": lambda rn: rn[..., 0, 1, 0, 0] ** 2,
    "mean_abs": lambda rn: np.mean(np.abs(rn[..., 0, 1, :, :]), axis=(-2, -1)),
}


def _cmd_gg(cfg, args):
    model = build_model(cfg)
    prior = build_prior(cfg, model.kappa)
    _, n_sites, n_disorder = _system_params(cfg)
    d, eps = _constraint(cfg)
    pspec = build_perturbation(cfg)
    sec = _section(cfg, "gg", required=False)
    n_replicas = _get(sec, "n_replicas", "gg", default=2, cast=as_int)
    fname = _get(sec, "functional", "gg", default="entry_00", cast=str)
    if fname not in _GG_FUNCTIONALS:
        raise ConfigError(f"gg.functional must be one of {sorted(_GG_FUNCTIONALS)}")
    terms = pspec.terms or (
        system.PerturbationTerm(p=1, ns=(1,), lambdas=np.ones((1, model.kappa))),)
    term_index = _get(sec, "term_index", "gg", default=0, cast=as_int)
    if not 0 <= term_index < len(terms):
        raise ConfigError(f"gg.term_index must lie in [0, {len(terms)}), got {term_index}")
    res = system.gg_discrepancy(model, prior, pspec, n_sites, d, eps,
                                n_replicas, _GG_FUNCTIONALS[fname], terms[term_index],
                                n_disorder, _resolve_seed(cfg, args),
                                threads=args.threads)
    return {"value": res.delta, "std_error": res.std_error,
            "components": res.components}


_HANDLERS = {
    "validate": _cmd_validate,
    "phi": _cmd_phi,
    "parisi": _cmd_parisi,
    "phistar": _cmd_phistar,
    "optimize": _cmd_optimize,
    "rpc-check": _cmd_rpc_check,
    "fe": _cmd_fe,
    "fe-constrained": _cmd_fe_constrained,
    "cov-check": _cmd_cov_check,
    "gg": _cmd_gg,
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vecspin",
        description="Variational free energy computations for vector-spin glasses",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True, help="YAML run configuration")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    ap.add_argument("--backend", choices=["quadrature", "monte_carlo"],
                    default=None, help="override eval.backend")
    ap.add_argument("--out", default=None, help="write the JSON report here")
    ap.add_argument("--threads", type=int, default=1)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        with open(args.config, "rb") as fh:
            raw_bytes = fh.read()
        cfg = yaml.safe_load(raw_bytes)
        if not isinstance(cfg, dict):
            raise yaml.YAMLError("top level of the config must be a mapping")
    except (OSError, yaml.YAMLError) as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        check_threads(args.threads)
        seed = _resolve_seed(cfg, args)
        result = _HANDLERS[args.command](cfg, args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (BudgetError, InfeasibleError) as exc:
        print(f"budget or feasibility error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    # a schema-stable report: every key is present, with a default if unset
    report = _jsonable({
        "command": args.command, "config_digest": hashlib.sha256(raw_bytes).hexdigest(),
        "seed": seed, "backend": None, "value": None, "std_error": None, "components": {},
        "checks": [], "warnings": [], **result,
        "runtime_ms": round(1000.0 * (time.perf_counter() - t0), 3),
    })
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if any(not c["pass"] for c in report["checks"]):
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vecspin.cli import main

SK_CONFIG = """
seed: 99
model:
  kappa: 1
  coefficients:
    2: [0.5]
prior:
  atoms:
    - point: [1.0]
      weight: 1.0
    - point: [-1.0]
      weight: 1.0
path:
  x: [1.0]
  gammas:
    - [[1.0]]
lambda: [0.0]
constraint:
  d: [[1.0]]
  epsilon: 0.1
eval:
  backend: quadrature
  nodes_per_level: 16
"""

RPC_CONFIG = """
seed: 7
model:
  kappa: 1
  coefficients:
    2: [0.5]
prior:
  atoms:
    - point: [1.0]
      weight: 1.0
    - point: [-1.0]
      weight: 1.0
path:
  x: [0.5]
  gammas:
    - [[1.0]]
rpc:
  fanout: 64
  replications: 60
  m_sites: 20
"""

FE_CONFIG = """
seed: 3
model:
  kappa: 1
  coefficients:
    2: [0.3]
prior:
  atoms:
    - point: [1.0]
      weight: 0.5
    - point: [-1.0]
      weight: 0.5
constraint:
  d: [[1.0]]
  epsilon: 0.5
system:
  n_sites: 4
  n_disorder: 40
perturbation:
  terms:
    - p: 1
      ns: [1]
      lambdas: [[1.0]]
  u: [1.5]
gg:
  n_replicas: 2
  functional: entry_00
"""


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# key named in the message (and a case label after "-") -> (command, config,
# text to replace, replacement, extra arguments); each case must exit 3
MALFORMED = {
    "seed": ("fe", FE_CONFIG, "seed: 3", "seed: abc", ()),
    "model.kappa": ("validate", SK_CONFIG, "kappa: 1", "kappa: abc", ()),
    "eval.nodes_per_level": ("phi", SK_CONFIG, "nodes_per_level: 16",
                             "nodes_per_level: abc", ()),
    "optimize.levels": ("optimize", SK_CONFIG + "optimize:\n  levels: abc\n", "", "", ()),
    "rpc.fanout": ("rpc-check", RPC_CONFIG, "fanout: 64", "fanout: abc", ()),
    "system.n_disorder": ("fe", FE_CONFIG, "n_disorder: 40", "n_disorder: abc", ()),
    "constraint.epsilon": ("fe-constrained", FE_CONFIG, "epsilon: 0.5", "epsilon: abc", ()),
    "perturbation.strength_exponent": ("validate", FE_CONFIG, "u: [1.5]",
                                       "u: [1.5]\n  strength_exponent: abc", ()),
    "perturbation.terms-p": ("validate", FE_CONFIG, "- p: 1", "- p: abc", ()),
    "seed-negative-fe": ("fe", FE_CONFIG, "seed: 3", "seed: -5", ()),
    "seed-negative-gg": ("gg", FE_CONFIG, "seed: 3", "seed: -5", ()),
    "seed-flag-negative-fe": ("fe", FE_CONFIG, "", "", ("--seed", "-1")),
    "seed-flag-negative-gg": ("gg", FE_CONFIG, "", "", ("--seed", "-1")),
    "path.x": ("phi", SK_CONFIG, "x: [1.0]", "x: [abc]", ()),
    "lambda": ("phi", SK_CONFIG, "lambda: [0.0]", "lambda: [abc]", ()),
    "constraint.d": ("fe-constrained", FE_CONFIG, "d: [[1.0]]", "d: [[abc]]", ()),
    "perturbation.u": ("validate", FE_CONFIG, "u: [1.5]", "u: [abc]", ()),
    "prior.atoms-weight": ("validate", SK_CONFIG, "weight: 1.0", "weight: abc", ()),
    "model.coefficients": ("validate", SK_CONFIG, "2: [0.5]", "x: [0.5]", ()),
    "prior.atoms-ragged": ("validate", SK_CONFIG, "point: [-1.0]", "point: [-1.0, 0.0]", ()),
    "perturbation.terms-no-p": ("validate", FE_CONFIG, "- p: 1\n      ns", "- ns", ()),
    "perturbation.terms-ns": ("validate", FE_CONFIG, "ns: [1]", "ns: 1", ()),
    "gg.functional": ("gg", FE_CONFIG, "functional: entry_00", "functional: [1]", ()),
    "system.n_sites-fe": ("fe", FE_CONFIG, "n_sites: 4", "n_sites: 0", ()),
    "system.n_sites-cov-check": ("cov-check", FE_CONFIG, "n_sites: 4", "n_sites: 0", ()),
    "seed-fraction": ("fe", FE_CONFIG, "seed: 3", "seed: 1.9", ()),
    "model.coefficients-fraction": ("validate", SK_CONFIG, "2: [0.5]", "2.5: [0.5]", ()),
    "eval.nodes_per_level-fraction": ("phi", SK_CONFIG, "nodes_per_level: 16",
                                      "nodes_per_level: 3.7", ()),
    "perturbation.terms-p-fraction": ("validate", FE_CONFIG, "- p: 1", "- p: 1.5", ()),
}

# every command each shipped config serves, except the long optimize run
SHIPPED = [
    ("sk_ising", ("validate", "phi", "parisi", "phistar")),
    ("heisenberg_like", ("validate", "phistar")),
    ("rpc_check", ("rpc-check",)),
    ("fe_small", ("fe", "fe-constrained", "cov-check", "gg")),
]


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestValidateAndParisi:
    def test_validate_ok(self, tmp_path, capsys):
        code, report = run(capsys, "validate", "--config", write(tmp_path, SK_CONFIG))
        assert code == 0
        assert report["command"] == "validate"
        assert any("summability" in w for w in report["warnings"])

    def test_validate_warns_off_hull_endpoint(self, tmp_path, capsys):
        # sigma_1 sigma_2 = 0 on both axis atoms, so D_12 = 0.1 is off the hull
        text = """
model:
  kappa: 2
  coefficients:
    2: [0.2, 0.2]
prior:
  atoms:
    - point: [1.0, 0.0]
      weight: 0.5
    - point: [0.0, 1.0]
      weight: 0.5
path:
  x: [1.0]
  gammas:
    - [[0.5, 0.1], [0.1, 0.5]]
"""
        code, report = run(capsys, "validate", "--config", write(tmp_path, text))
        assert code == 0
        assert report["warnings"] == ["path endpoint is outside the constraint hull "
                                      "(violation 0.1 at entry (0, 1))"]

    def test_parisi_value(self, tmp_path, capsys):
        code, report = run(capsys, "parisi", "--config", write(tmp_path, SK_CONFIG))
        assert code == 0
        assert report["value"] == pytest.approx(math.log(2) + 0.25 - 0.125, abs=1e-9)
        assert report["std_error"] == 0.0
        assert report["components"]["theta_term"] == pytest.approx(0.125, abs=1e-12)

    def test_phi_and_phistar(self, tmp_path, capsys):
        cfg = write(tmp_path, SK_CONFIG)
        code, report = run(capsys, "phi", "--config", cfg)
        assert code == 0
        assert report["value"] == pytest.approx(math.log(2) + 0.25, abs=1e-9)
        code, report = run(capsys, "phistar", "--config", cfg)
        assert code == 0
        # sigma^2 = 1 makes the objective flat in lambda, equal to phi(0) - D
        assert report["value"] == pytest.approx(math.log(2) + 0.25, abs=1e-9)
        assert report["components"]["converged"]


class TestImport:
    def test_cli_import_defers_scipy_optimize(self):
        import vecspin

        src = os.path.dirname(os.path.dirname(vecspin.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, vecspin.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.strip() == "False"


class TestChecksAndReports:
    def test_rpc_check_passes(self, tmp_path, capsys):
        code, report = run(capsys, "rpc-check", "--config", write(tmp_path, RPC_CONFIG))
        assert code == 0
        names = {c["name"] for c in report["checks"]}
        assert names == {"simulate_phi_vs_recursion", "y_functional_vs_closed_form"}
        assert all(c["pass"] for c in report["checks"])
        comp = report["components"]
        assert len(comp["truncated_mass"]) == len(comp["levels_x"]) >= 1
        assert all(0.0 < t < 1.0 for t in comp["truncated_mass"])
        # near x = 1 the tail is heavy: a share of the level's mass, falling with fanout
        shares = []
        for fanout in (128, 256):
            cfg = (RPC_CONFIG.replace("x: [0.5]", "x: [0.95]")
                   .replace("fanout: 64", f"fanout: {fanout}")
                   .replace("replications: 60", "replications: 4"))
            _, near1 = run(capsys, "rpc-check", "--config", write(tmp_path, cfg))
            shares.append(near1["components"]["truncated_mass"][0])
        assert 0.0 < shares[1] < shares[0] < 1.0
        assert shares[0] == pytest.approx(0.7515, abs=1e-4)

    def test_fe_and_cov_and_gg(self, tmp_path, capsys):
        cfg = write(tmp_path, FE_CONFIG)
        code, report = run(capsys, "fe", "--config", cfg)
        assert code == 0
        assert report["std_error"] > 0
        code, report = run(capsys, "fe-constrained", "--config", cfg)
        assert code == 0
        assert report["components"]["hit_fraction"] == pytest.approx(1.0)
        code, report = run(capsys, "cov-check", "--config", cfg)
        assert code == 0
        assert all(c["pass"] for c in report["checks"])
        code, report = run(capsys, "gg", "--config", cfg)
        assert code == 0
        assert report["value"] >= 0.0

    def test_report_schema(self, tmp_path, capsys):
        code, report = run(capsys, "parisi", "--config", write(tmp_path, SK_CONFIG))
        assert set(report) == {
            "command", "config_digest", "seed", "backend", "value", "std_error",
            "components", "checks", "warnings", "runtime_ms",
        }

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["parisi", "--config", write(tmp_path, SK_CONFIG),
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["command"] == "parisi"


class TestDeterminism:
    def test_threads_do_not_change_output(self, tmp_path, capsys):
        cfg = write(tmp_path, FE_CONFIG)
        reports = []
        for threads in ("1", "8"):
            code, report = run(capsys, "fe", "--config", cfg, "--threads", threads)
            assert code == 0
            report.pop("runtime_ms")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_seed_override_changes_digest_not_schema(self, tmp_path, capsys):
        cfg = write(tmp_path, FE_CONFIG)
        _, r1 = run(capsys, "fe", "--config", cfg, "--seed", "123")
        _, r2 = run(capsys, "fe", "--config", cfg, "--seed", "123")
        r1.pop("runtime_ms")
        r2.pop("runtime_ms")
        assert r1 == r2
        assert r1["seed"] == 123


class TestShippedConfigs:
    @pytest.mark.parametrize("name,commands", SHIPPED, ids=[n for n, _ in SHIPPED])
    def test_commands_pass(self, name, commands, capsys):
        for command in commands:
            code, report = run(capsys, command, "--config", str(CONFIGS / f"{name}.yaml"))
            assert code == 0, command
            assert all(c["pass"] for c in report["checks"]), command

    def test_phistar_heisenberg_like_converges(self, capsys):
        code, report = run(capsys, "phistar", "--config",
                           str(CONFIGS / "heisenberg_like.yaml"))
        assert code == 0
        comp = report["components"]
        assert comp["converged"] and comp["stop_reason"] == "gradient"
        assert comp["iterations"] <= 10
        assert report["value"] == pytest.approx(0.056330775193568, rel=0.0, abs=1e-12)
        assert report["warnings"] == []

    def test_phistar_off_hull_reports_unbounded(self, tmp_path, capsys):
        # every heisenberg_like atom has sigma_1 sigma_2 = 0, so D_12 = 0.1 is
        # out of reach and the objective falls linearly along lambda_12
        text = (CONFIGS / "heisenberg_like.yaml").read_text()
        off = text.replace("[[0.5, 0.0], [0.0, 0.5]]", "[[0.5, 0.1], [0.1, 0.5]]").replace(
            "[[0.25, 0.0], [0.0, 0.25]]", "[[0.25, 0.05], [0.05, 0.25]]")
        assert off.count("0.1], [0.1") == 2
        code, report = run(capsys, "phistar", "--config", write(tmp_path, off))
        assert code == 0
        comp = report["components"]
        assert not comp["converged"] and comp["stop_reason"] == "unbounded"
        assert comp["iterations"] <= 2
        assert report["warnings"] == ["lambda solve stopped: unbounded"]

    def test_gg_report_on_fe_small(self, capsys):
        code, report = run(capsys, "gg", "--config", str(CONFIGS / "fe_small.yaml"))
        assert code == 0
        assert report["value"] == pytest.approx(0.09685511955603325, rel=1e-12, abs=0.0)
        assert report["std_error"] == pytest.approx(5.068466124292983e-4, rel=1e-12, abs=0.0)


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["validate", "--config", "/no/such/file.yaml"]) == 2

    def test_unparsable(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("model: [unclosed")
        assert main(["validate", "--config", str(p)]) == 2

    def test_validation_failure(self, tmp_path, capsys):
        bad = SK_CONFIG.replace("2: [0.5]", "3: [0.5]")
        assert main(["validate", "--config", write(tmp_path, bad, "bad.yaml")]) == 3

    def test_budget_failure(self, tmp_path, capsys):
        big = FE_CONFIG.replace("n_sites: 4", "n_sites: 28")
        assert main(["fe", "--config", write(tmp_path, big, "big.yaml")]) == 4

    def test_infeasible_constraint(self, tmp_path, capsys):
        bad = FE_CONFIG.replace("d: [[1.0]]", "d: [[0.0]]")
        assert main(["fe-constrained", "--config", write(tmp_path, bad, "inf.yaml")]) == 4

    @pytest.mark.parametrize("command,config,d", [
        ("phistar", SK_CONFIG, "[[1.0, 0.0], [0.0, 1.0]]"),
        ("fe-constrained", FE_CONFIG, "[[1.0, 0.0], [0.0, 1.0]]"),
        ("gg", FE_CONFIG, "[[1.0, 0.0], [0.0, 1.0]]"),
        ("fe-constrained", FE_CONFIG, "[[.nan]]"),
        ("gg", FE_CONFIG, "[[-1.0]]"),
        ("validate", FE_CONFIG, "[[1.0, 0.0], [0.0, 1.0]]"),
        ("validate", FE_CONFIG, "[[-1.0]]"),
    ], ids=["phistar-2x2", "fe-constrained-2x2", "gg-2x2", "fe-constrained-nan", "gg-negative",
            "validate-2x2", "validate-negative"])
    def test_malformed_constraint_matrix(self, command, config, d, tmp_path, capsys):
        bad = write(tmp_path, config.replace("d: [[1.0]]", f"d: {d}"), "d.yaml")
        assert main([command, "--config", bad]) == 3
        assert "constraint matrix D" in capsys.readouterr().err

    def test_validate_reads_constraint_matrix(self, tmp_path, capsys):
        # validate refuses the D that fe-constrained refuses on the shipped config
        text = (CONFIGS / "fe_small.yaml").read_text()
        assert "d: [[1.0]]" in text
        bad = write(tmp_path, text.replace("d: [[1.0]]", "d: [[1.0, 0.0], [0.0, 1.0]]"))
        for command in ("validate", "fe-constrained"):
            assert main([command, "--config", bad]) == 3, command
            assert "must have shape (1, 1), got (2, 2)" in capsys.readouterr().err
        # and every shipped config, D and all, still validates
        for path in sorted(CONFIGS.glob("*.yaml")):
            code, report = run(capsys, "validate", "--config", str(path))
            assert code == 0, path.name
            assert report["command"] == "validate"

    @pytest.mark.parametrize("command,config", [
        ("phi", SK_CONFIG), ("fe", FE_CONFIG), ("rpc-check", RPC_CONFIG),
        ("validate", SK_CONFIG), ("cov-check", FE_CONFIG)],
        ids=["phi", "fe", "rpc-check", "validate", "cov-check"])
    def test_threads_below_one(self, command, config, tmp_path, capsys):
        cfg = write(tmp_path, config)
        for threads in ("0", "-3"):
            assert main([command, "--config", cfg, "--threads", threads]) == 3, threads
            assert "threads must be >= 1" in capsys.readouterr().err

    def test_zero_disorder_draws(self, tmp_path, capsys):
        cfg = write(tmp_path, FE_CONFIG.replace("n_disorder: 40", "n_disorder: 0"))
        for command in ("fe", "fe-constrained", "cov-check", "gg"):
            assert main([command, "--config", cfg]) == 3, command

    def test_gg_term_index_out_of_range(self, tmp_path, capsys):
        for index in (1, 3, -1):
            bad = FE_CONFIG + f"  term_index: {index}\n"
            assert main(["gg", "--config", write(tmp_path, bad, "idx.yaml")]) == 3, index

    @pytest.mark.parametrize("field,value", [
        ("multistarts", 0), ("multistarts", -2), ("path_steps", 0), ("path_steps", -1),
        ("alternations", -1), ("outer_iters", -1), ("max_iter", -1)])
    def test_optimizer_budget_out_of_range(self, field, value, tmp_path, capsys):
        # an atom at 0 makes the hull non-degenerate, so every budget is read
        text = SK_CONFIG.replace("  atoms:\n", "  atoms:\n    - point: [0.0]\n      weight: 1.0\n")
        budgets = {"multistarts": 1, "alternations": 1, "path_steps": 1, "outer_iters": 0,
                   "max_iter": 1, field: value}
        text += "optimize:\n" + "".join(f"  {k}: {v}\n" for k, v in budgets.items())
        cfg = write(tmp_path, text, "bad.yaml")
        assert main(["optimize", "--config", cfg]) == 3
        assert f"optimize.{field}" in capsys.readouterr().err

    def test_rpc_fanout_below_two(self, tmp_path, capsys):
        # x = 1 only: no cascade level, so only the fanout check refuses it
        for fanout in (0, 1):
            text = (RPC_CONFIG.replace("x: [0.5]", "x: [1.0]")
                    .replace("fanout: 64", f"fanout: {fanout}"))
            assert main(["rpc-check", "--config", write(tmp_path, text)]) == 3, fanout
            assert "fanout" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(MALFORMED))
    def test_malformed_value(self, key, tmp_path, capsys):
        command, text, old, new, extra = MALFORMED[key]
        assert old in text
        cfg = write(tmp_path, text.replace(old, new, 1), "bad.yaml")
        assert main([command, "--config", cfg, *extra]) == 3
        assert key.split("-")[0] in capsys.readouterr().err

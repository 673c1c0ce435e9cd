import os
import subprocess
import sys

import numpy as np
import pytest

from vecspin import (
    ConstraintHull,
    SpinPrior,
    ValidationError,
    build_modifier,
    hull_membership,
    ising_prior,
    modifier_lipschitz_ratio,
    overlap,
    self_overlap,
    truncate_constraint,
)
from vecspin.rng import spawn_rng


class TestSpinPrior:
    def test_needs_positive_weights(self):
        with pytest.raises(ValidationError):
            SpinPrior(np.array([[1.0]]), np.array([0.0]))

    def test_support_bound(self):
        prior = SpinPrior.from_atoms([([1.0, -2.5], 0.5), ([0.3, 0.1], 0.5)])
        assert prior.support_bound == 2.5

    def test_mass_and_normalization(self):
        assert ising_prior(1).total_mass == 2.0
        assert not ising_prior(1).is_normalized
        assert ising_prior(2, normalized=True).is_normalized

    def test_from_atoms_shapes(self):
        prior = SpinPrior.from_atoms([([1.0, 0.0], 1.0), ([0.0, 1.0], 1.0)])
        assert prior.kappa == 2
        assert prior.n_atoms == 2


class TestOverlaps:
    def test_single_spin(self):
        got = self_overlap(np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(got, [[1.0, 0.0], [0.0, 0.0]])

    def test_ising_pair(self):
        got = self_overlap(np.array([[1.0], [-1.0]]))
        np.testing.assert_array_equal(got, [[1.0]])

    def test_orthogonal_pair(self):
        got = self_overlap(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(got, [[0.5, 0.0], [0.0, 0.5]])

    def test_overlap_reduces_to_self(self):
        rng = spawn_rng(3)
        cfg = rng.standard_normal((5, 2))
        np.testing.assert_allclose(overlap(cfg, cfg), self_overlap(cfg), atol=1e-15)

    def test_ising_half_agreements(self):
        a = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        b = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        np.testing.assert_array_equal(overlap(a, b), [[0.0]])

    def test_orthogonal_configs(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(overlap(a, b), [[0.0, 1.0], [0.0, 0.0]])

    def test_self_overlap_always_psd(self):
        rng = spawn_rng(4)
        for _ in range(50):
            cfg = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 4))))
            assert np.linalg.eigvalsh(self_overlap(cfg))[0] >= -1e-12


class TestHullMembership:
    def test_ising_point(self):
        hull = ConstraintHull.from_prior(ising_prior(1))
        assert hull_membership(hull, [[1.0]]).feasible
        res = hull_membership(hull, [[0.5]])
        assert not res.feasible
        assert res.worst_entry == (0, 0)
        assert res.max_violation == pytest.approx(0.5, abs=1e-6)

    def test_single_generator(self):
        prior = SpinPrior.from_atoms([([0.7, -0.2], 1.0), ([0.1, 0.4], 1.0)])
        hull = ConstraintHull.from_prior(prior)
        res = hull_membership(hull, hull.generators[0])
        assert res.feasible
        np.testing.assert_allclose(res.weights, [1.0, 0.0], atol=1e-7)
        assert abs(res.weights.sum() - 1.0) <= 1e-12

    def test_two_axis_atoms(self):
        prior = SpinPrior.from_atoms([([1.0, 0.0], 0.5), ([0.0, 1.0], 0.5)])
        hull = ConstraintHull.from_prior(prior)
        res = hull_membership(hull, np.diag([0.5, 0.5]))
        assert res.feasible
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-7)
        assert abs(res.weights.sum() - 1.0) <= 1e-12

    def test_just_off_an_entry_every_atom_fixes(self):
        # every atom has sigma_2^2 = 1, so D_22 = 1 + 9e-8 is off the hull by
        # 9e-8 in that entry, while (D_11, D_12) is inside it; weights that
        # reach D exactly must leave the simplex
        prior = SpinPrior.from_atoms([([1.0, -1.0], 1.0), ([1.0, 1.0], 1.0),
                                      ([0.0, -1.0], 1.0)])
        d = np.array([[0.99587174, 0.24235458], [0.24235458, 1.0 + 9e-8]])
        res = hull_membership(ConstraintHull.from_prior(prior), d)
        assert not res.feasible
        assert res.worst_entry == (1, 1)
        assert abs(res.max_violation - 9e-8) <= 1e-9
        assert abs(res.weights.sum() - 1.0) <= 1e-12 and np.all(res.weights >= 0.0)

    def test_loads_no_scipy(self):
        import vecspin

        src = os.path.dirname(os.path.dirname(vecspin.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys; from vecspin.prior import ConstraintHull, hull_membership, "
                "ising_prior; hull_membership(ConstraintHull.from_prior(ising_prior(2)), "
                "[[1.0, 0.0], [0.0, 1.0]]); print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.strip() == "[]"


class TestTruncateConstraint:
    def test_identity_untouched(self):
        d_eps, m = truncate_constraint(np.eye(2), 0.04)
        np.testing.assert_allclose(d_eps, np.eye(2), atol=1e-12)
        assert m == 2

    def test_small_eigenvalue_dropped(self):
        d_eps, m = truncate_constraint(np.diag([1.0, 0.01]), 0.04)
        np.testing.assert_allclose(d_eps, np.diag([1.0, 0.0]), atol=1e-12)
        assert m == 1

    def test_zero_matrix(self):
        d_eps, m = truncate_constraint(np.zeros((3, 3)), 0.04)
        np.testing.assert_array_equal(d_eps, np.zeros((3, 3)))
        assert m == 0

    def test_sup_norm_bound_and_domination(self):
        rng = spawn_rng(5)
        for _ in range(30):
            kappa = int(rng.integers(1, 5))
            f = rng.standard_normal((kappa, kappa))
            d = f @ f.T / kappa
            eps = float(rng.uniform(0.01, 0.2))
            d_eps, _ = truncate_constraint(d, eps)
            assert np.max(np.abs(d - d_eps)) <= kappa * np.sqrt(eps) + 1e-12
            assert np.linalg.eigvalsh(d - d_eps)[0] >= -1e-10

    def test_idempotent(self):
        rng = spawn_rng(6)
        f = rng.standard_normal((3, 3))
        d = f @ f.T / 3
        eps = 0.05
        d_eps, m = truncate_constraint(d, eps)
        again, m2 = truncate_constraint(d_eps, eps)
        np.testing.assert_allclose(again, d_eps, atol=1e-12)
        assert m2 == m


def _sample_near(rng, d, eps, margin=0.5):
    """Symmetric PSD perturbation of d with sup-norm under margin*eps."""
    kappa = d.shape[0]
    for _ in range(100):
        s = rng.standard_normal((kappa, kappa))
        s = (s + s.T) / 2.0
        s *= margin * eps / max(np.max(np.abs(s)), 1e-12)
        r = d + s
        if np.linalg.eigvalsh(r)[0] >= 0.0:
            return r
    raise AssertionError("could not sample a PSD neighbour")


class TestModifier:
    def test_identity_when_spectrum_clear(self):
        d = np.diag([1.0, 0.5])
        mod = build_modifier(d, d, 0.04)
        np.testing.assert_allclose(mod.a, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(mod.target, d, atol=1e-12)

    def test_scalar_closed_form(self):
        mod = build_modifier([[1.1]], [[1.0]], 0.04)
        assert mod.a[0, 0] == pytest.approx(1.0 / np.sqrt(1.1), abs=1e-12)
        assert mod.residual <= 1e-12

    def test_rank_zero(self):
        d = np.diag([0.01, 0.0])
        mod = build_modifier(np.diag([0.02, 0.005]), d, 0.04)
        assert mod.kept_rank == 0
        np.testing.assert_array_equal(mod.a, np.zeros((2, 2)))

    def test_random_pairs_hit_target(self):
        rng = spawn_rng(7)
        for _ in range(100):
            kappa = int(rng.integers(1, 4))
            f = rng.standard_normal((kappa, kappa))
            d = f @ f.T / kappa + 0.05 * np.eye(kappa)
            eps = float(rng.uniform(0.02, 0.1))
            r = _sample_near(rng, d, eps)
            mod = build_modifier(r, d, eps)
            assert mod.residual <= 1e-9

    def test_distortion_shrinks_with_eps(self):
        rng = spawn_rng(8)
        grid = [0.1, 0.05, 0.01, 0.005]
        traces = []
        for eps in grid:
            acc = 0.0
            for rep in range(40):
                local = spawn_rng(8, rep)
                f = local.standard_normal((3, 3))
                d = f @ f.T / 3 + 0.3 * np.eye(3)
                r = _sample_near(local, d, eps)
                acc += build_modifier(r, d, eps).distortion_trace
            traces.append(acc / 40)
        assert all(a >= b - 1e-9 for a, b in zip(traces[:-1], traces[1:]))

    def test_lipschitz_ratio_errors_on_equal(self):
        d = np.eye(1)
        with pytest.raises(ValidationError):
            modifier_lipschitz_ratio([[1.05]], [[1.05]], d, 0.04)

    def test_lipschitz_ratio_scalar_calculus(self):
        # A(R) = R^{-1/2} for the scalar unit target, so a tiny perturbation
        # has ratio eps * |dA/dR| = eps * R^{-3/2} / 2
        d = np.eye(1)
        eps = 0.04
        r0 = 1.03
        got = modifier_lipschitz_ratio([[r0]], [[r0 + 1e-7]], d, eps)
        want = eps * 0.5 * r0 ** (-1.5)
        assert got == pytest.approx(want, rel=1e-5)

    def test_lipschitz_ratio_finite(self):
        rng = spawn_rng(9)
        d = np.diag([1.0, 0.6])
        eps = 0.05
        for _ in range(20):
            r1 = _sample_near(rng, d, eps)
            r2 = _sample_near(rng, d, eps)
            if np.max(np.abs(r1 - r2)) < 1e-12:
                continue
            assert np.isfinite(modifier_lipschitz_ratio(r1, r2, d, eps))

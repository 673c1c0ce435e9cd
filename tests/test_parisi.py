import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from vecspin import (
    BudgetError,
    EvalSpec,
    MixedModel,
    OptimizerSpec,
    Path,
    SpinPrior,
    ValidationError,
    eval_inner,
    eval_parisi,
    eval_phi,
    eval_phi_smoothed,
    guerra_bound,
    ising_prior,
    lambda_zero,
    optimize,
    path_distance,
    phi_grad_lambda,
    phi_star,
    simulate_phi,
    simulate_y_functional,
)
from vecspin.mixing import theta_matrix, xi_matrix, xi_prime_matrix
from vecspin.parisi import (
    BLOCK_ENTRIES,
    SEPARABLE_SPREAD,
    _atom_base,
    _atom_pair_products,
    _bottom,
    _bottom_separable,
    _fold,
    _grow,
    _logsumexp,
    _Prepared,
    _prior_plan,
    _quad_levels,
    _shared_nodes,
    increments,
    level_plan,
    lambda_indices,
    lambda_pairing,
    project_simplex,
    theta_correction,
    theta_correction_rearranged,
)
from vecspin.rng import parallel_map, spawn_rng

from conftest import (
    random_lambda,
    random_model,
    random_monotone_gammas,
    random_path,
    random_prior,
)

QUAD = EvalSpec()
SK_HALF = MixedModel(1, {2: [0.5]})
COUNTING_ISING = ising_prior(1)
PROB_ISING = ising_prior(1, normalized=True)
UNIT_PATH = Path([1.0], [[[1.0]]])
# configs/heisenberg_like.yaml
HEIS_MODEL = MixedModel(2, {2: [0.4, 0.25], 4: [0.1, 0.0]})
HEIS_PRIOR = SpinPrior.from_atoms([([1.0, 0.0], 0.25), ([-1.0, 0.0], 0.25),
                                   ([0.0, 1.0], 0.25), ([0.0, -1.0], 0.25)])
HEIS_PATH = Path([0.4, 0.8], [0.25 * np.eye(2), 0.5 * np.eye(2)])


def gh(n=80):
    z, w = np.polynomial.hermite.hermgauss(n)
    return z * math.sqrt(2.0), w / math.sqrt(math.pi)


def whole_grid(model, prior, lam, path, nodes, field=None, extra=0.0):
    """Reference recursion on the whole tensor grid at once, points x atoms:
    (value, lambda gradient), levels folded innermost first."""
    plan, bonus = _prior_plan(model, prior, path)
    x_seq, factors = np.append(0.0, plan.x), plan.factors
    z1, w1 = gh(nodes)
    z, lws = np.zeros((1, prior.kappa)), []
    for f in factors:
        d = f.shape[1]
        offs = np.array(list(itertools.product(z1, repeat=d))).reshape(nodes ** d, d) @ f.T
        z = (z[:, None, :] + offs[None, :, :]).reshape(-1, prior.kappa)
        lws.append(np.array([sum(t) for t in itertools.product(np.log(w1), repeat=d)]))
    iu = np.triu_indices(prior.kappa)
    pair = prior.points[:, iu[0]] * prior.points[:, iu[1]]
    h = np.zeros(prior.kappa) if field is None else np.asarray(field)
    scores = (z + h) @ prior.points.T + pair @ lam + np.log(prior.weights)
    scores = scores + (0.0 if bonus is None else bonus)
    v = logsumexp(scores, axis=1)
    g = np.exp(scores - v[:, None]) @ pair
    v = v + extra
    for lw, x in zip(reversed(lws), reversed(x_seq)):
        v, g = v.reshape(-1, lw.size), g.reshape(-1, lw.size, pair.shape[1])
        if x < 1e-8:
            s = np.broadcast_to(np.exp(lw), v.shape)
            v = np.sum(s * v, axis=1)
        else:
            ls = logsumexp(x * v + lw, axis=1)
            s = np.exp(x * v + lw - ls[:, None])
            v = ls / x
        g = np.einsum("pn,pnc->pc", s, g)
    return float(v[0]), g[0], z.shape[0]


class TestPathValidation:
    def test_decreasing_x_rejected(self):
        with pytest.raises(ValidationError):
            Path([0.7, 0.3], [[[0.5]], [[1.0]]])

    def test_x_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            Path([1.2], [[[1.0]]])

    def test_non_monotone_gammas_rejected(self):
        with pytest.raises(ValidationError, match="monotone"):
            Path([0.3, 0.7], [[[1.0]], [[0.5]]])

    def test_boundary_x_values_allowed(self):
        Path([0.0, 1.0], [[[0.3]], [[1.0]]])

    def test_endpoint(self):
        p = Path([0.4, 0.9], [np.diag([0.2, 0.1]), np.diag([0.6, 0.5])])
        np.testing.assert_array_equal(p.endpoint, np.diag([0.6, 0.5]))

    def test_value_at_steps(self):
        p = Path([0.5], [[[1.0]]])
        np.testing.assert_array_equal(p.value_at(0.3), [[0.0]])
        np.testing.assert_array_equal(p.value_at(0.5), [[0.0]])
        np.testing.assert_array_equal(p.value_at(0.7), [[1.0]])
        two = Path([0.4, 0.8], [[[0.5]], [[1.0]]])
        np.testing.assert_array_equal(two.value_at(1.0), [[1.0]])
        for t in (1.5, -0.5, math.nan):
            with pytest.raises(ValidationError, match="t must lie"):
                two.value_at(t)

    def test_round_trip_dict(self):
        p = Path([0.4, 0.9], [np.diag([0.2, 0.1]), np.diag([0.6, 0.5])])
        q = Path.from_dict(p.to_dict())
        np.testing.assert_array_equal(p.x, q.x)
        np.testing.assert_array_equal(p.gammas, q.gammas)


class TestIncrements:
    def test_single_level(self):
        got = increments(SK_HALF, UNIT_PATH)
        np.testing.assert_allclose(got, [[[0.5]]], atol=1e-15)

    def test_constant_segment_gives_zero(self):
        path = Path([0.3, 0.7], [[[1.0]], [[1.0]]])
        got = increments(SK_HALF, path)
        np.testing.assert_array_equal(got[1], [[0.0]])

    def test_two_coordinate_example(self):
        m = MixedModel(2, {2: [1.0, 0.5]})
        path = Path([1.0], [np.array([[1.0, 0.5], [0.5, 1.0]])])
        np.testing.assert_allclose(
            increments(m, path), [[[2.0, 0.5], [0.5, 0.5]]], atol=1e-15
        )


class TestEvalInner:
    def test_zero_field_probability_ising(self):
        assert eval_inner(PROB_ISING, lambda_zero(1), [0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_lambda_and_field(self):
        got = eval_inner(PROB_ISING, np.array([0.3]), [1.2])
        assert got == pytest.approx(0.3 + math.log(math.cosh(1.2)), abs=1e-12)

    def test_single_atom_exact(self):
        prior = SpinPrior.from_atoms([([0.7, -0.4], 1.0)])
        lam = np.array([0.2, -0.5, 0.1])
        z = np.array([0.9, -0.3])
        want = 0.7 * 0.9 + 0.4 * 0.3
        want += 0.2 * 0.49 - 0.5 * 0.7 * (-0.4) + 0.1 * 0.16
        assert eval_inner(prior, lam, z) == pytest.approx(want, abs=1e-12)

    def test_external_field(self):
        got = eval_inner(PROB_ISING, lambda_zero(1), [0.0], external_field=[1.2])
        assert got == pytest.approx(math.log(math.cosh(1.2)), abs=1e-12)

    def test_overflow_safe(self):
        assert np.isfinite(eval_inner(PROB_ISING, lambda_zero(1), [1000.0]))


class TestEvalPhi:
    def test_gaussian_mgf_closed_form(self):
        value, se = eval_phi(SK_HALF, COUNTING_ISING, lambda_zero(1), UNIT_PATH, QUAD)
        assert se == 0.0
        assert value == pytest.approx(math.log(2.0) + 0.25, abs=1e-9)

    def test_prior_mass_shift(self):
        # unnormalized prior shifts the value by exactly log mass
        v_counting, _ = eval_phi(SK_HALF, COUNTING_ISING, lambda_zero(1), UNIT_PATH, QUAD)
        v_prob, _ = eval_phi(SK_HALF, PROB_ISING, lambda_zero(1), UNIT_PATH, QUAD)
        assert v_counting - v_prob == pytest.approx(math.log(2.0), abs=1e-12)

    def test_free_model_reduces_to_lambda(self):
        m0 = MixedModel(1, {})
        value, _ = eval_phi(m0, PROB_ISING, np.array([0.3]), UNIT_PATH, QUAD)
        assert value == pytest.approx(0.3, abs=1e-14)

    def test_expectation_branch_vs_monte_carlo(self):
        path = Path([0.0], [[[1.0]]])
        vq, _ = eval_phi(SK_HALF, COUNTING_ISING, lambda_zero(1), path,
                         EvalSpec(nodes_per_level=40))
        z, w = gh()
        want = float(np.sum(w * np.log(2.0 * np.cosh(np.sqrt(0.5) * z))))
        assert vq == pytest.approx(want, abs=1e-9)
        mc = EvalSpec(backend="monte_carlo", samples_per_level=200_000,
                      replications=8, seed=21)
        vm, se = eval_phi(SK_HALF, COUNTING_ISING, lambda_zero(1), path, mc)
        assert abs(vm - vq) <= 3.0 * se

    def test_backend_equivalence_random(self):
        rng = spawn_rng(22)
        for i in range(10):
            kappa = int(rng.integers(1, 3))
            m = random_model(rng, kappa)
            prior = random_prior(rng, kappa)
            path = random_path(rng, kappa, int(rng.integers(1, 3)))
            lam = random_lambda(rng, kappa)
            vq, _ = eval_phi(m, prior, lam, path, QUAD)
            mc = EvalSpec(backend="monte_carlo", samples_per_level=300,
                          replications=12, seed=1000 + i)
            vm, se = eval_phi(m, prior, lam, path, mc)
            assert abs(vm - vq) <= 3.0 * se + 1e-3

    def test_dim_cap_guard(self):
        m = random_model(spawn_rng(23), 4)
        prior = random_prior(spawn_rng(23), 4)
        path = random_path(spawn_rng(23), 4, 3)
        with pytest.raises(BudgetError):
            eval_phi(m, prior, lambda_zero(4), path, QUAD)

    def test_redundant_level_invariance(self):
        lam = np.array([0.2])
        base_a = Path([0.3], [[[1.0]]])
        dup_a = Path([0.3, 0.7], [[[1.0]], [[1.0]]])
        va, _ = eval_phi(SK_HALF, COUNTING_ISING, lam, base_a, QUAD)
        vda, _ = eval_phi(SK_HALF, COUNTING_ISING, lam, dup_a, QUAD)
        assert vda == pytest.approx(va, abs=1e-10)
        base_b = Path([0.7], [[[1.0]]])
        dup_b = Path([0.3, 0.7], [[[0.0]], [[1.0]]])
        vb, _ = eval_phi(SK_HALF, COUNTING_ISING, lam, base_b, QUAD)
        vdb, _ = eval_phi(SK_HALF, COUNTING_ISING, lam, dup_b, QUAD)
        assert vdb == pytest.approx(vb, abs=1e-10)
        # kappa = 2: repeated x = 0, interior and x = 1 levels collapse
        rng = spawn_rng(24)
        m = random_model(rng, 2)
        prior = random_prior(rng, 2)
        lam2 = random_lambda(rng, 2)
        g = random_monotone_gammas(rng, 2, 6)
        long = Path([0.0, 0.0, 0.45, 0.45, 1.0, 1.0], g)
        short = Path([0.0, 0.45, 1.0], g[1::2])
        for fn in (eval_phi, phi_grad_lambda):
            (vl, gl), (vs, gs) = (fn(m, prior, lam2, p, QUAD) for p in (long, short))
            assert vl == pytest.approx(vs, abs=1e-12)
            np.testing.assert_allclose(gl, gs, rtol=0, atol=1e-12)
        sl, ss = (eval_phi_smoothed(m, prior, lam2, p, QUAD, 0.2)[0] for p in (long, short))
        assert sl == pytest.approx(ss, abs=1e-12)
        sims = [simulate_phi(m, prior, lam2, p, fanout=16, replications=8, seed=5)
                for p in (long, short)]
        ys = [simulate_y_functional(m, p, 10, fanout=16, replications=8, seed=6)
              for p in (long, short)]
        np.testing.assert_allclose(sims[0], sims[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(ys[0], ys[1], rtol=0, atol=1e-12)

    def test_budget_counts_points_times_atoms(self):
        import tracemalloc

        # 16^12 grid points, and 16^5 = 2^20 points x 32 atoms = 2^25 entries
        wide = Path([0.5], [np.eye(12)])
        deep = Path([0.1, 0.3, 0.5, 0.7, 0.9], np.linspace(0.2, 1.0, 5)[:, None, None])
        cases = [(MixedModel(12, {2: np.full(12, 0.3)}), random_prior(spawn_rng(25), 12), wide),
                 (SK_HALF, random_prior(spawn_rng(25), 1, n_atoms=32), deep)]
        for m, prior, path in cases:
            tracemalloc.start()
            with pytest.raises(BudgetError):
                eval_phi(m, prior, lambda_zero(prior.kappa), path, QUAD)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 1 << 20

    def test_blocks_match_whole_grid(self, monkeypatch):
        rng = spawn_rng(27)
        cases = ((1, 16), (1, 16), (2, 8), (2, 8), (3, 5), (3, 5), (2, 8, "repeat"))
        for kappa, nodes, *repeat in cases:
            m = random_model(rng, kappa)
            prior = random_prior(rng, kappa, n_atoms=10)
            lam = random_lambda(rng, kappa)
            field = rng.uniform(-0.5, 0.5, size=kappa)
            a, b = np.sort(rng.uniform(0.1, 0.9, size=2))
            if repeat:
                # a repeated gamma: the level at x = b has zero variance
                x = [0.0, a, b, 1.0]
                g = random_monotone_gammas(rng, kappa, 3)
                path = Path(x, g[[0, 1, 1, 2]])
            else:
                # lead x = 0 levels, merged interior levels, an x = 1 trail
                x = [0.0, 0.0, a, a, b, 1.0] if kappa == 1 else [0.0, a, a, 1.0]
                path = Path(x, random_monotone_gammas(rng, kappa, len(x)))
            spec = EvalSpec(nodes_per_level=nodes)
            v, g, points = whole_grid(m, prior, lam, path, nodes)
            assert points * prior.n_atoms > 2 * BLOCK_ENTRIES
            assert eval_phi(m, prior, lam, path, spec)[0] == pytest.approx(v, abs=1e-13)
            gv, gg = phi_grad_lambda(m, prior, lam, path, spec)
            assert gv == pytest.approx(v, abs=1e-13)
            np.testing.assert_allclose(gg, g, rtol=0, atol=1e-13)
            z1, w1 = gh(nodes)
            shift = sum(math.log(np.sum(w1 * np.exp(lc * math.sqrt(0.2) * z1))) for lc in lam)
            want = whole_grid(m, prior, lam, path, nodes, extra=shift)[0]
            got = eval_phi_smoothed(m, prior, lam, path, spec, 0.2)[0]
            assert got == pytest.approx(want, abs=1e-13)
            want = whole_grid(m, prior, lam, path, nodes, field=field)[0]
            got = eval_phi(m, prior, lam, path, spec, external_field=field)[0]
            assert got == pytest.approx(want, abs=1e-13)
        # node-major prefixes: kappa = 1, 2 atoms, 5 distinct interior levels
        # at 8 nodes (32,768 points).  At BLOCK_ENTRIES one level is a prefix
        # level; at 2^11 entries two are, and a block holds 2 of 64 prefixes.
        m = random_model(rng, 1)
        prior = random_prior(rng, 1, n_atoms=2)
        lam = random_lambda(rng, 1)
        path = random_path(rng, 1, 5, x_lo=0.05, x_hi=0.95)
        spec = EvalSpec(nodes_per_level=8)
        v, g, points = whole_grid(m, prior, lam, path, 8)
        assert points == 8 ** 5
        for block in (BLOCK_ENTRIES, 1 << 11):
            monkeypatch.setattr("vecspin.parisi.BLOCK_ENTRIES", block)
            assert eval_phi(m, prior, lam, path, spec)[0] == pytest.approx(v, abs=1e-13)
            gv, gg = phi_grad_lambda(m, prior, lam, path, spec)
            assert gv == pytest.approx(v, abs=1e-13)
            np.testing.assert_allclose(gg, g, rtol=0, atol=1e-13)
        # kappa = 1 scores skip BLAS, with the same numbers as the product
        z = rng.normal(0.0, 2.0, size=(1000, 1))
        base = _atom_base(prior, lam)
        want = _logsumexp(prior.points @ z.T + base[:, None], axis=0)
        assert np.array_equal(_bottom(prior.points, base, z)[0], want)
        # the separable innermost level, every block's children one product:
        # 1 atom (4 to 64 blocks a call) and 64 atoms at kappa = 2 (1 to 8)
        calls = []
        real = _bottom_separable

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr("vecspin.parisi._bottom_separable", spy)

        def matches_whole_grid(m, prior, lam, path, nodes):
            calls.clear()
            v, g, _ = whole_grid(m, prior, lam, path, nodes)
            spec = EvalSpec(nodes_per_level=nodes)
            assert eval_phi(m, prior, lam, path, spec)[0] == pytest.approx(v, rel=1e-13)
            gv, gg = phi_grad_lambda(m, prior, lam, path, spec)
            assert gv == pytest.approx(v, rel=1e-13)
            np.testing.assert_allclose(gg, g, rtol=1e-13, atol=0)
            return gv, gg

        for kappa, atoms, r, nodes in ((1, 1, 4, 16), (2, 64, 2, 8)):
            m = random_model(rng, kappa)
            prior = random_prior(rng, kappa, n_atoms=atoms)
            lam = random_lambda(rng, kappa)
            path = random_path(rng, kappa, r)
            for block in (BLOCK_ENTRIES, 1 << 11):
                monkeypatch.setattr("vecspin.parisi.BLOCK_ENTRIES", block)
                monkeypatch.setattr("vecspin.parisi.SEPARABLE_SPREAD", SEPARABLE_SPREAD)
                v, g = matches_whole_grid(m, prior, lam, path, nodes)
                assert calls
                # the limit at 0: the walk grows every level instead
                monkeypatch.setattr("vecspin.parisi.SEPARABLE_SPREAD", 0.0)
                gv, gg = matches_whole_grid(m, prior, lam, path, nodes)
                assert not calls
                assert gv == pytest.approx(v, rel=1e-13)
                np.testing.assert_allclose(gg, g, rtol=1e-13, atol=0)
        monkeypatch.setattr("vecspin.parisi.BLOCK_ENTRIES", BLOCK_ENTRIES)
        monkeypatch.setattr("vecspin.parisi.SEPARABLE_SPREAD", SEPARABLE_SPREAD)
        # a large field (D = 1, 3 atoms, 4 levels at 16 nodes): the walk's
        # bound on the spread stays below the limit at beta = 18.8 and reaches
        # it at beta = 19 and 20, where every level grows; so it does at 18.8
        # once lambda + 5 widens the atoms' constant term by 4.8
        prior = SpinPrior(np.array([[-1.0], [0.2], [1.0]]), np.array([0.3, 0.3, 0.4]))
        path = Path(np.linspace(0.2, 0.8, 4), np.linspace(0.25, 1.0, 4)[:, None, None])
        lam = random_lambda(rng, 1)
        for beta, shift, separable in ((20.0, 0.0, False), (18.8, 0.0, True),
                                       (19.0, 0.0, False), (18.8, 5.0, False)):
            matches_whole_grid(MixedModel(1, {2: [beta]}), prior, lam + shift, path, 16)
            assert bool(calls) == separable

    def test_quadrature_memory_is_one_block(self):
        import tracemalloc

        # 12^6 = 2,985,984 grid points; the whole grid's scores alone are 48 MB;
        # and 64 atoms at kappa = 2 on 16^4 = 65,536 points: 32 MiB of scores
        rng = spawn_rng(26)
        for kappa, atoms, r, nodes in ((1, 2, 6, 12), (2, 64, 2, 16)):
            m = random_model(rng, kappa)
            prior = random_prior(rng, kappa, n_atoms=atoms)
            path = random_path(rng, kappa, r, x_lo=0.05, x_hi=0.95)
            lam = random_lambda(rng, kappa)
            for fn in (eval_phi, phi_grad_lambda):
                tracemalloc.start()
                fn(m, prior, lam, path, EvalSpec(nodes_per_level=nodes))
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < 16 << 20

    def test_separable_gradient_memory_is_a_few_blocks(self):
        import tracemalloc

        # kappa = 1, 6 distinct levels at 12 nodes, 2 atoms: separable.  Each
        # of the 12^5 parents takes max(2 atoms, 12 nodes, 1 slot) entries, so
        # a block is 9 prefixes of 12^2 parents each, and there are 12^3 prefix
        # points, each with 1 coordinate and 1 value and 1 gradient, listed
        # and then concatenated.  The peak is a few block arrays beyond them
        rng = spawn_rng(29)
        m = random_model(rng, 1)
        prior = random_prior(rng, 1, n_atoms=2)
        path = random_path(rng, 1, 6, x_lo=0.05, x_hi=0.95)
        lam = random_lambda(rng, 1)
        spec = EvalSpec(nodes_per_level=12)
        assert level_plan(m, path).x.size == 6
        phi_grad_lambda(m, prior, lam, path, spec)
        tracemalloc.start()
        phi_grad_lambda(m, prior, lam, path, spec)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        prefixes = 12 ** 3 * (1 + 2 * (1 + 1)) * 8
        assert peak < 6 * BLOCK_ENTRIES * 8 + prefixes

    def test_monte_carlo_memory_is_one_block(self, monkeypatch):
        import tracemalloc

        # 2048^2 = 4,194,304 leaves; the whole tree's scores alone are 64 MiB
        path = Path([0.3, 0.7], [[[0.5]], [[1.0]]])
        spec = EvalSpec(backend="monte_carlo", samples_per_level=2048, replications=1)
        for fn in (eval_phi, phi_grad_lambda):
            tracemalloc.start()
            fn(SK_HALF, COUNTING_ISING, lambda_zero(1), path, spec)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 16 << 20
        # two sampled levels, the inner one split over blocks: the same draws
        rng = spawn_rng(28)
        m = random_model(rng, 2)
        prior = random_prior(rng, 2, n_atoms=4)
        path = random_path(rng, 2, 2)
        lam = random_lambda(rng, 2)
        spec = EvalSpec(backend="monte_carlo", samples_per_level=64, replications=3, seed=5)
        whole = eval_phi(m, prior, lam, path, spec), phi_grad_lambda(m, prior, lam, path, spec)
        monkeypatch.setattr("vecspin.parisi.BLOCK_ENTRIES", 64 * 4 * 2)
        split = eval_phi(m, prior, lam, path, spec), phi_grad_lambda(m, prior, lam, path, spec)
        assert whole[0] == split[0]
        assert whole[1][0] == split[1][0]
        np.testing.assert_array_equal(whole[1][1], split[1][1])

    @pytest.mark.parametrize("field", [[0.3, 0.1], 0.3, [np.nan]],
                             ids=["wrong_length", "scalar", "nan"])
    def test_external_field_validated(self, field):
        path = Path([0.5], [[[1.0]]])
        lam = lambda_zero(1)
        mc = EvalSpec(backend="monte_carlo", samples_per_level=8, replications=2)
        calls = [
            lambda: eval_inner(COUNTING_ISING, lam, [0.0], external_field=field),
            lambda: eval_phi(SK_HALF, COUNTING_ISING, lam, path, QUAD, external_field=field),
            lambda: eval_phi(SK_HALF, COUNTING_ISING, lam, path, mc, external_field=field),
            lambda: phi_grad_lambda(SK_HALF, COUNTING_ISING, lam, path, QUAD,
                                    external_field=field),
            lambda: simulate_phi(SK_HALF, COUNTING_ISING, lam, path, fanout=4,
                                 replications=2, external_field=field),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="external_field"):
                call()

    @pytest.mark.parametrize("kappa, z_sum", [(1, [0.0, 1.0]), (2, 0.3), (1, [np.nan])],
                             ids=["wrong_length", "scalar", "nan"])
    def test_z_sum_validated(self, kappa, z_sum):
        with pytest.raises(ValidationError, match="z_sum"):
            eval_inner(ising_prior(kappa), lambda_zero(kappa), z_sum)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            EvalSpec(backend="monte_carlo", seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            spawn_rng(-1, 0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValidationError, match="threads"):
            EvalSpec(threads=threads)
        with pytest.raises(ValidationError, match="threads"):
            EvalSpec(backend="monte_carlo", threads=threads)
        # also where a single task would run without a pool
        for tasks in (1, 4):
            with pytest.raises(ValidationError, match="threads"):
                parallel_map(lambda i: i, tasks, threads)
        assert parallel_map(lambda i: i * i, 4, 2) == [0, 1, 4, 9]

    def test_mc_determinism_across_threads(self):
        spec1 = EvalSpec(backend="monte_carlo", samples_per_level=64,
                         replications=8, seed=77, threads=1)
        spec8 = EvalSpec(backend="monte_carlo", samples_per_level=64,
                         replications=8, seed=77, threads=8)
        path = random_path(spawn_rng(9), 2, 2)
        m = random_model(spawn_rng(9), 2)
        prior = random_prior(spawn_rng(9), 2)
        v1 = eval_phi(m, prior, lambda_zero(2), path, spec1)
        v8 = eval_phi(m, prior, lambda_zero(2), path, spec8)
        assert v1 == v8


class TestSeparableKernel:
    @pytest.mark.parametrize("kappa", [1, 2])
    @pytest.mark.parametrize("atoms", [1, 2, 64])
    def test_matches_grown_level_folded(self, kappa, atoms):
        # the fused kernel against growing the innermost level, scoring it
        # with _bottom and folding it with _fold, on random parents.  Values
        # are compared at 1e-13 of max(1, |value|), gradients at 1e-13 of the
        # largest pair product: both can sit near 0, where the sums they
        # come from are O(1).  At x = 1e-4 both forms divide a log by x and
        # amplify its rounding 1e4 times, so that case allows 1e-10.
        rng = spawn_rng(32, kappa, atoms)
        prior = random_prior(rng, kappa, n_atoms=atoms)
        pair = _atom_pair_products(prior)
        for _ in range(3):
            factor = rng.normal(0.0, 0.7, size=(kappa, kappa))
            level = _quad_levels([factor], 8 if kappa == 1 else 5)
            nodes, spread = _shared_nodes(prior.points, level)
            (offs, lw), = level
            z = rng.normal(0.0, 1.5, size=(37, kappa))
            base = rng.uniform(-2.0, 2.0, size=atoms)
            assert spread + np.ptp(base) < SEPARABLE_SPREAD
            v, g = _bottom(prior.points, base, _grow(z, offs), pair)
            for x, tol in ((0.0, 1e-13), (0.05, 1e-13), (0.5, 1e-13), (0.97, 1e-13),
                           (1e-4, 1e-10)):
                want, want_g = _fold(v, [lw], [x], g)
                got, got_g = _bottom_separable(prior.points, base, z, nodes, lw, x, pair)
                assert got.shape == (37,) and got_g.shape == (37, pair.shape[1])
                np.testing.assert_array_less(
                    np.abs(got - want), tol * np.maximum(1.0, np.abs(want)))
                np.testing.assert_allclose(got_g, want_g, rtol=0,
                                           atol=1e-13 * np.abs(pair).max())
                alone, none = _bottom_separable(prior.points, base, z, nodes, lw, x)
                assert none is None
                np.testing.assert_array_equal(alone, got)


def prepared_cases(rng):
    """(model, prior, path, nodes): kappa 1-3 with distinct x, with lead x = 0,
    merged interior and x = 1 trail levels, and with a zero-variance
    increment; then the large field of ``test_blocks_match_whole_grid``."""
    out = []
    for kappa, nodes in ((1, 8), (2, 5), (3, 3)):
        m = random_model(rng, kappa)
        prior = random_prior(rng, kappa, n_atoms=4)
        out.append((m, prior, random_path(rng, kappa, 2), nodes))
        out.append((m, prior, Path([0.0, 0.4, 0.4, 1.0],
                                   random_monotone_gammas(rng, kappa, 4)), nodes))
        g = random_monotone_gammas(rng, kappa, 2)
        out.append((m, prior, Path([0.3, 0.6, 0.8], g[[0, 1, 1]]), nodes))
    prior = SpinPrior(np.array([[-1.0], [0.2], [1.0]]), np.array([0.3, 0.3, 0.4]))
    path = Path(np.linspace(0.2, 0.8, 4), np.linspace(0.25, 1.0, 4)[:, None, None])
    out.append((MixedModel(1, {2: [18.8]}), prior, path, 16))
    return out


class TestPreparedRecursion:
    def test_one_pass_plan_matches_level_loop(self):
        # the stacked xi', theta and batched eigh give the per-level numbers
        rng = spawn_rng(30)
        for m, _, path, _ in prepared_cases(rng):
            full = path.gammas_full()
            prev, covs = xi_prime_matrix(m, full[0]), []
            for g in full[1:]:
                cur = xi_prime_matrix(m, g)
                vals, vecs = np.linalg.eigh(((cur - prev) + (cur - prev).T) / 2.0)
                covs.append((vecs * np.clip(vals, 0.0, None)) @ vecs.T)
                prev = cur
            np.testing.assert_array_equal(increments(m, path), covs)
            plan = level_plan(m, path)
            np.testing.assert_array_equal(
                plan.theta, [float(np.sum(theta_matrix(m, g))) for g in full])
            for cov, f in zip([plan.lead, *plan.covs], plan.factors):
                vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
                keep = vals > 1e-12 * max(float(vals[-1]), 1.0)
                np.testing.assert_array_equal(f, vecs[:, keep] * np.sqrt(vals[keep]))

    def test_one_object_matches_fresh_calls(self, monkeypatch):
        calls = []
        real = _bottom_separable

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr("vecspin.parisi._bottom_separable", spy)
        rng = spawn_rng(31)
        for m, prior, path, nodes in prepared_cases(rng):
            kappa = prior.kappa
            # the last lambda widens the atoms' constant term: on the large
            # field, the walk is separable at the first two and not at it
            lams = [random_lambda(rng, kappa), random_lambda(rng, kappa),
                    random_lambda(rng, kappa) + 5.0]
            field = rng.uniform(-0.5, 0.5, size=kappa)
            mc = EvalSpec(backend="monte_carlo", samples_per_level=5, replications=2, seed=4)
            for spec in (EvalSpec(nodes_per_level=nodes), mc):
                rec = _Prepared(m, prior, path, spec)
                for lam in lams:
                    for h in (None, field):
                        calls.clear()
                        value = rec.value(lam, h)
                        separable = bool(calls)
                        assert value == eval_phi(m, prior, lam, path, spec, external_field=h)
                        v, g = rec.value_and_grad(lam, h)
                        fv, fg = phi_grad_lambda(m, prior, lam, path, spec, external_field=h)
                        assert v == fv
                        np.testing.assert_array_equal(g, fg)
                        if nodes == 16 and h is None and spec.is_quadrature:
                            assert separable == (lam is not lams[-1])

    def test_phi_star_builds_one_plan(self, monkeypatch):
        plans = []

        def spy(*args):
            plans.append(1)
            return level_plan(*args)

        monkeypatch.setattr("vecspin.parisi.level_plan", spy)
        prior = SpinPrior.from_atoms([([1.0], 0.4), ([-1.0], 0.4), ([0.0], 0.2)])
        d = np.array([[0.5]])
        res = phi_star(MixedModel(1, {2: [0.4]}), prior, d, Path([0.3, 0.7], [0.5 * d, d]),
                       QUAD)
        assert res.iterations > 2
        assert len(plans) == 1

    def test_plan_errors_unchanged(self):
        # xi' falls by 1e-6 at the second level, below -PSD_TOL; and a gamma
        # falling by 1e-11 at 100 keeps xi' within it but lowers the theta sum
        steep = (MixedModel(1, {2: [100.0]}), Path([0.3, 0.7], [[[1.0]], [[1.0 - 5e-11]]]),
                 "covariance increment 2 is not PSD (min eigenvalue -1.000e-06)")
        far = (MixedModel(1, {2: [1.0]}), Path([0.3, 0.7], [[[100.0]], [[100.0 - 1e-11]]]),
               "theta sums decrease along the path")
        lam = lambda_zero(1)
        for m, path, message in (steep, far):
            for call in (lambda: level_plan(m, path),
                         lambda: eval_phi(m, COUNTING_ISING, lam, path, QUAD),
                         lambda: phi_grad_lambda(m, COUNTING_ISING, lam, path, QUAD),
                         lambda: eval_parisi(m, COUNTING_ISING, lam, path.endpoint, path, QUAD),
                         lambda: simulate_phi(m, COUNTING_ISING, lam, path, fanout=4,
                                              replications=2)):
                with pytest.raises(ValidationError) as err:
                    call()
                assert str(err.value) == message


class TestEvalParisi:
    def test_sk_point(self):
        res = eval_parisi(SK_HALF, COUNTING_ISING, lambda_zero(1),
                          np.array([[1.0]]), UNIT_PATH, QUAD)
        assert res.value == pytest.approx(math.log(2.0) + 0.25 - 0.125, abs=1e-9)
        assert res.theta_term == pytest.approx(0.125, abs=1e-15)

    def test_free_model_lambda_cancels(self):
        m0 = MixedModel(1, {})
        for lam in ([0.0], [0.4], [-1.3]):
            res = eval_parisi(m0, PROB_ISING, np.array(lam), np.array([[1.0]]),
                              UNIT_PATH, QUAD)
            assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_replica_symmetric_closed_form(self):
        # two levels, x = (0, 1): independent one-dimensional quadrature oracle
        beta, q = 0.5, 0.3
        m = MixedModel(1, {2: [beta]})
        xi_p = lambda t: 2 * beta**2 * t
        theta = lambda t: beta**2 * t**2
        z, w = gh()
        closed = float(np.sum(w * np.log(2 * np.cosh(np.sqrt(xi_p(q)) * z))))
        closed += (xi_p(1) - xi_p(q)) / 2 - (theta(1) - theta(q)) / 2
        path = Path([0.0, 1.0], [[[q]], [[1.0]]])
        res = eval_parisi(m, COUNTING_ISING, lambda_zero(1), np.array([[1.0]]),
                          path, QUAD)
        assert res.value == pytest.approx(closed, abs=1e-9)

    def test_endpoint_mismatch(self):
        with pytest.raises(ValidationError):
            eval_parisi(SK_HALF, COUNTING_ISING, lambda_zero(1),
                        np.array([[0.9]]), UNIT_PATH, QUAD)

    def test_rearrangement_random(self):
        rng = spawn_rng(31)
        for _ in range(50):
            kappa = int(rng.integers(1, 4))
            m = random_model(rng, kappa, p_set=(2, 4, 6))
            path = random_path(rng, kappa, int(rng.integers(1, 5)))
            a = theta_correction(m, path)
            b = theta_correction_rearranged(m, path)
            assert abs(a - b) <= 1e-10

    def test_parisi_value_invariant_under_redundant_level(self):
        lam = np.array([0.1])
        base = eval_parisi(SK_HALF, COUNTING_ISING, lam, np.array([[1.0]]),
                           Path([0.4], [[[1.0]]]), QUAD)
        dup = eval_parisi(SK_HALF, COUNTING_ISING, lam, np.array([[1.0]]),
                          Path([0.4, 0.8], [[[1.0]], [[1.0]]]), QUAD)
        assert dup.value == pytest.approx(base.value, abs=1e-10)


class TestSmoothing:
    def test_identity_both_deltas(self):
        rng = spawn_rng(32)
        m = random_model(rng, 2)
        prior = random_prior(rng, 2)
        path = random_path(rng, 2, 2)
        lam = random_lambda(rng, 2, scale=0.6)
        base, _ = eval_phi(m, prior, lam, path, QUAD)
        for delta in (0.1, 1.0):
            smoothed, _ = eval_phi_smoothed(m, prior, lam, path, QUAD, delta)
            assert smoothed - base == pytest.approx(
                delta / 2 * float(np.sum(lam**2)), abs=1e-8
            )

    def test_requires_quadrature(self):
        mc = EvalSpec(backend="monte_carlo")
        with pytest.raises(ValidationError):
            eval_phi_smoothed(SK_HALF, PROB_ISING, lambda_zero(1), UNIT_PATH, mc, 0.1)


class TestGradient:
    def test_exact_vs_central_differences(self):
        # a fixed seed fixes the Monte Carlo draws, so its estimate is smooth in lambda
        mc = EvalSpec(backend="monte_carlo", samples_per_level=64, replications=4, seed=33)
        rng = spawn_rng(33)
        for _ in range(5):
            kappa = int(rng.integers(1, 3))
            m = random_model(rng, kappa)
            prior = random_prior(rng, kappa)
            path = random_path(rng, kappa, int(rng.integers(1, 3)))
            lam = random_lambda(rng, kappa)
            for spec in (QUAD, mc):
                _, grad = phi_grad_lambda(m, prior, lam, path, spec)
                h = 1e-5
                for c in range(lam.size):
                    lp, lm = lam.copy(), lam.copy()
                    lp[c] += h
                    lm[c] -= h
                    vp, _ = eval_phi(m, prior, lp, path, spec)
                    vm, _ = eval_phi(m, prior, lm, path, spec)
                    assert grad[c] == pytest.approx((vp - vm) / (2 * h), abs=1e-6)


class TestPathDistance:
    def test_identical(self):
        p = Path([0.4], [[[1.0]]])
        assert path_distance(p, p) == 0.0

    def test_constant_paths(self):
        # both jump at the same tiny x, so they differ on almost all of [0,1]
        g1 = np.array([[[0.8, 0.1], [0.1, 0.6]]])
        g2 = np.array([[[0.5, -0.1], [-0.1, 0.9]]])
        p1 = Path([0.0], g1)
        p2 = Path([0.0], g2)
        assert path_distance(p1, p2) == pytest.approx(
            float(np.sum(np.abs(g1 - g2))), abs=1e-12
        )

    def test_half_interval(self):
        gamma = np.array([[1.0]])
        p1 = Path([0.5], [gamma])  # 0 on (0, 1/2], 1 after
        p2 = Path([0.0], [gamma])  # 1 on all of (0, 1]
        assert path_distance(p1, p2) == pytest.approx(0.5, abs=1e-12)


class TestPathLipschitz:
    def test_ratio_bounded(self):
        rng = spawn_rng(34)
        spec = EvalSpec(nodes_per_level=8)
        worst = 0.0
        for _ in range(100):
            kappa = int(rng.integers(1, 3))
            m = random_model(rng, kappa)
            prior = random_prior(rng, kappa)
            r = int(rng.integers(2, 4)) if kappa == 1 else 2
            p1 = random_path(rng, kappa, r)
            # second path with the same endpoint but different interior ramp
            x2 = np.sort(rng.uniform(0.1, 0.9, size=r))
            gam = [t * p1.gammas[-1] for t in np.sort(rng.uniform(0, 1, size=r - 1))]
            gam.append(p1.gammas[-1])
            p2 = Path(x2, np.array(gam))
            lam = random_lambda(rng, kappa)
            dist = path_distance(p1, p2)
            if dist < 1e-6:
                continue
            v1, _ = eval_phi(m, prior, lam, p1, spec)
            v2, _ = eval_phi(m, prior, lam, p2, spec)
            worst = max(worst, abs(v1 - v2) / dist)
        # recorded constant: stays far below a generous global cap
        assert worst < 50.0


class TestLambdaIndices:
    def test_cached_read_only(self):
        for k in (1, 2, 3, 5):
            iu = lambda_indices(k)
            assert iu is lambda_indices(k)
            for got, want in zip(iu, np.triu_indices(k)):
                np.testing.assert_array_equal(got, want)
                assert not got.flags.writeable


class TestPhiStar:
    def test_free_model_constant_objective(self):
        m0 = MixedModel(1, {})
        res = phi_star(m0, PROB_ISING, np.array([[1.0]]), Path([0.5], [[[1.0]]]), QUAD)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.converged

    def test_single_atom_cancellation(self):
        m0 = MixedModel(2, {})
        a = np.array([0.8, -0.5])
        prior = SpinPrior.from_atoms([(a, 1.0)])
        d = np.outer(a, a)
        path = Path([0.5], [d])
        res = phi_star(m0, prior, d, path, QUAD)
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_stationarity_interior_constraint(self):
        # prior with a third atom at the origin puts D = 0.5 inside the hull
        prior = SpinPrior.from_atoms([([1.0], 0.4), ([-1.0], 0.4), ([0.0], 0.2)])
        m = MixedModel(1, {2: [0.4]})
        d = np.array([[0.5]])
        path = Path([0.5], [d])
        res = phi_star(m, prior, d, path, QUAD)
        assert res.converged
        _, grad = phi_grad_lambda(m, prior, res.lam, path, QUAD)
        np.testing.assert_allclose(grad, [0.5], atol=1e-6)

    def test_off_hull_stops_unbounded(self):
        # sigma_1 sigma_2 = 0 on every atom, so D_12 = 0.1 cannot be reached:
        # the objective is linear in lambda_12 and its infimum is -inf
        d = np.array([[0.5, 0.1], [0.1, 0.5]])
        res = phi_star(HEIS_MODEL, HEIS_PRIOR, d, Path([0.4, 0.8], [0.5 * d, d]),
                       EvalSpec(nodes_per_level=10))
        assert not res.converged and res.stop_reason == "unbounded"
        assert res.iterations <= 2
        assert math.isfinite(res.value)

    def test_outside_convex_hull_stops_unbounded(self):
        # D on the atoms' affine hull but outside their convex hull: lambda
        # runs off until the Gibbs weights sit on one atom and no curvature is
        # left, beyond one atom (kappa = 1) and beyond a face of three atoms
        # of norm 1 (kappa = 2)
        three = SpinPrior.from_atoms([([1.0], 0.4), ([-1.0], 0.4), ([0.0], 0.2)])
        face = SpinPrior.from_atoms([([1.0, 0.0], 0.3), ([0.0, 1.0], 0.3),
                                     ([0.6, 0.8], 0.2), ([0.0, 0.0], 0.2)])
        for m, prior, d in ((MixedModel(1, {2: [0.4]}), three, np.array([[1.5]])),
                            (MixedModel(2, {2: [0.3, 0.35]}), face, np.diag([0.6, 0.6]))):
            res = phi_star(m, prior, d, Path([0.5], [d]), EvalSpec(nodes_per_level=10))
            assert not res.converged and res.stop_reason == "unbounded"
            assert res.iterations <= 10 and math.isfinite(res.value)

    def test_hull_boundary_converges(self):
        # D = 1 is the top of the hull [0, 1]: the infimum is approached as
        # lambda -> inf and the gradient decays below GRAD_TOL on the way; the
        # limit is Phi(0) of the +-1 atoms alone
        m, path = MixedModel(1, {2: [0.4]}), Path([0.5], [[[1.0]]])
        prior = SpinPrior.from_atoms([([1.0], 0.4), ([-1.0], 0.4), ([0.0], 0.2)])
        res = phi_star(m, prior, np.array([[1.0]]), path, QUAD)
        assert res.converged and res.stop_reason == "gradient"
        limit, _ = eval_phi(m, SpinPrior.from_atoms([([1.0], 0.4), ([-1.0], 0.4)]),
                            lambda_zero(1), path, QUAD)
        assert 0.0 < res.value - limit < 1e-7

    def test_thin_hull_converges(self):
        # the last atom's norm is 1 + 1e-5, so the pair products lie within
        # 1e-5 of a plane: D inside this thin hull has a finite infimum, at
        # |lambda| ~ 1e5, and no direction of lambda is exactly flat
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.8, -0.6]])
        pts[3] *= 1.0 + 1e-5
        prior = SpinPrior.from_atoms([(p, 0.25) for p in pts])
        d = sum(w * np.outer(p, p) for w, p in zip([0.1, 0.2, 0.3, 0.4], pts))
        m = MixedModel(2, {2: [0.3, 0.35], 4: [0.4, 0.5]})
        res = phi_star(m, prior, d, Path([0.5], [d]), EvalSpec(nodes_per_level=10))
        assert res.converged and res.stop_reason == "gradient"

    def test_interior_point_not_stalled_by_rounding(self):
        # D = 1.663 is interior (weights 0.6 / 0.3 / 0.1); near the optimum
        # f's decrease is below its rounding while |g| ~ 1e-8 still falls, and
        # that step must be taken rather than end the solve as "no_descent"
        prior = SpinPrior.from_atoms([([0.7], 1.0), ([-2.0], 1.0), ([-1.3], 1.0)])
        d = np.array([[1.663]])
        for m in (MixedModel(1), MixedModel(1, {2: [0.3]})):
            res = phi_star(m, prior, d, Path([1.0], [d]), QUAD)
            assert res.converged and res.stop_reason == "gradient"

    def test_annealed_closed_form(self):
        # on x = 1 the transform is the Cramer dual of the prior's
        # self-overlap; on heisenberg_like's atoms, D = diag(t, 1 - t) has
        # I(D) = KL((t, 1 - t) | (1/2, 1/2)), so the free model gives -I(D)
        # and the full functional at the solve gives (1/2) Sum xi(D) - I(D)
        for t in (0.2, 0.5, 0.5136191738, 0.8):
            d = np.diag([t, 1.0 - t])
            path = Path([1.0], [d])
            rate = t * math.log(2.0 * t) + (1.0 - t) * math.log(2.0 * (1.0 - t))
            free = phi_star(MixedModel(2), HEIS_PRIOR, d, path, QUAD)
            assert abs(free.value + rate) <= 1e-12
            res = phi_star(HEIS_MODEL, HEIS_PRIOR, d, path, QUAD)
            value = eval_parisi(HEIS_MODEL, HEIS_PRIOR, res.lam, d, path, QUAD).value
            assert abs(value - (0.5 * xi_matrix(HEIS_MODEL, d).sum() - rate)) <= 1e-12

    def test_iteration_budget_reason(self):
        prior = SpinPrior.from_atoms([([1.0], 0.4), ([-1.0], 0.4), ([0.0], 0.2)])
        d = np.array([[0.5]])
        res = phi_star(MixedModel(1, {2: [0.4]}), prior, d, Path([0.5], [d]), QUAD,
                       OptimizerSpec(max_iter=1))
        assert not res.converged and res.stop_reason == "iterations"
        assert res.iterations == 1

    def test_monte_carlo_backend(self):
        # the draws are fixed per seed, so the Hessian differences one sampled tree
        spec = EvalSpec(backend="monte_carlo", samples_per_level=64, replications=4, seed=3)
        d = 0.5 * np.eye(2)
        res = phi_star(HEIS_MODEL, HEIS_PRIOR, d, HEIS_PATH, spec)
        assert res.converged
        phi, _ = eval_phi(HEIS_MODEL, HEIS_PRIOR, res.lam, HEIS_PATH, spec)
        assert res.value == pytest.approx(phi - lambda_pairing(res.lam, d), rel=0.0,
                                          abs=1e-12)

    def test_malformed_constraint_rejected(self):
        path = Path([0.5], [[[1.0]]])
        for d in (np.eye(2), [[math.nan]], [[-1.0]], [1.0]):
            with pytest.raises(ValidationError, match="constraint matrix D"):
                phi_star(SK_HALF, PROB_ISING, d, path, QUAD)


class TestGuerraBound:
    def test_eps_zero_reduces_to_parisi(self):
        lam = np.array([0.2])
        d = np.array([[1.0]])
        got = guerra_bound(SK_HALF, COUNTING_ISING, d, 0.0, lam, UNIT_PATH, QUAD)
        want = eval_parisi(SK_HALF, COUNTING_ISING, lam, d, UNIT_PATH, QUAD).value
        assert got == want

    def test_lambda_zero(self):
        d = np.array([[1.0]])
        got = guerra_bound(SK_HALF, COUNTING_ISING, d, 0.3, lambda_zero(1),
                           UNIT_PATH, QUAD)
        want = eval_parisi(SK_HALF, COUNTING_ISING, lambda_zero(1), d,
                           UNIT_PATH, QUAD).value
        assert got == want


class TestProjectSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex([0.2, 0.8]), [0.2, 0.8], atol=1e-12)

    def test_projection_properties(self):
        rng = spawn_rng(35)
        for _ in range(50):
            v = rng.standard_normal(int(rng.integers(1, 6)))
            w = project_simplex(v)
            assert np.all(w >= 0)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-9)


class TestOptimize:
    def test_free_model_vanishes(self):
        m0 = MixedModel(1, {})
        opt = OptimizerSpec(multistarts=1, alternations=2, path_steps=15, seed=2)
        res = optimize(m0, PROB_ISING, 1, QUAD, opt)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_high_temperature_sk_fast(self):
        m = MixedModel(1, {2: [0.3]})
        opt = OptimizerSpec(multistarts=1, alternations=3, path_steps=30, seed=4)
        res = optimize(m, COUNTING_ISING, 1, QUAD, opt)
        rs = math.log(2.0) + 0.3**2 / 2
        assert res.value == pytest.approx(rs, abs=5e-3)
        assert set(res.ordering_values) == {"lambda_first", "path_first"}
        assert res.to_dict()["stop_reason"] == "degenerate_hull"

    def test_budgets_out_of_range(self):
        for field, value in (("multistarts", 0), ("multistarts", -2), ("path_steps", 0),
                             ("path_steps", -1), ("alternations", -1), ("outer_iters", -1),
                             ("max_iter", -1)):
            with pytest.raises(ValidationError, match=f"optimize.{field}"):
                OptimizerSpec(**{field: value})
        OptimizerSpec(max_iter=0, multistarts=1, alternations=0, path_steps=1, outer_iters=0)

    def test_outer_budget_is_not_convergence(self):
        prior = SpinPrior.from_atoms([([1.0], 0.4), ([-1.0], 0.4), ([0.0], 0.2)])
        opt = OptimizerSpec(multistarts=1, alternations=1, path_steps=5,
                            outer_iters=0, seed=6)
        res = optimize(MixedModel(1, {2: [0.3]}), prior, 1, QUAD, opt)
        assert res.stop_reason == "outer_iterations"
        assert not res.converged

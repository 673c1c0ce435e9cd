import math
import tracemalloc

import numpy as np
import pytest

import vecspin.parisi
import vecspin.rpc
from vecspin import (
    BudgetError,
    EvalSpec,
    MixedModel,
    Path,
    SpinPrior,
    ValidationError,
    ancestor_depth,
    eval_inner,
    eval_phi,
    ising_prior,
    lambda_zero,
    log_sum_split_check,
    sample_cascade,
    sample_fields,
    simulate_phi,
    simulate_y_functional,
    y_functional_closed_form,
)
from vecspin.parisi import _grow, _logsumexp, _prior_plan, _sampled_levels, _scores, level_plan
from vecspin.rng import mean_and_se, spawn_rng
from vecspin.rpc import _scalar_factors

from conftest import (
    random_lambda,
    random_model,
    random_monotone_gammas,
    random_path,
    random_prior,
)

SK_HALF = MixedModel(1, {2: [0.5]})
COUNTING_ISING = ising_prior(1)


class TestCascade:
    def test_two_children_normalized(self):
        tree = sample_cascade([0.5], 2, seed=1)
        assert tree.n_leaves == 2
        assert tree.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(tree.weights > 0)

    def test_same_seed_same_tree(self):
        t1 = sample_cascade([0.3, 0.6], 4, seed=9)
        t2 = sample_cascade([0.3, 0.6], 4, seed=9)
        np.testing.assert_array_equal(t1.log_weights, t2.log_weights)

    def test_rejects_boundary_parameters(self):
        for bad in ([0.0], [1.0], [0.5, 0.5], [0.6, 0.4]):
            with pytest.raises(ValidationError):
                sample_cascade(bad, 4, seed=1)

    def test_weights_sorted_within_family(self):
        # arrivals are generated largest first, so the first child dominates
        tree = sample_cascade([0.5], 64, seed=3)
        w = tree.weights
        assert w[0] == w.max()

    def test_pd_second_moment(self):
        x0 = 0.5
        vals = []
        for rep in range(600):
            t = sample_cascade([x0], 256, spawn_rng(77, rep))
            vals.append(float(np.sum(t.weights**2)))
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - (1.0 - x0)) <= 3.0 * se

    def test_leaf_coordinates(self):
        tree = sample_cascade([0.3, 0.6], 3, seed=2)
        assert tree.leaf_coordinates(0) == (0, 0)
        # node-major: leaf 5 = 2 + 3 * 1 is child 1 of the root's child 2
        assert tree.leaf_coordinates(5) == (2, 1)
        assert tree.leaf_coordinates(8) == (2, 2)
        for leaf in (9, -1):
            with pytest.raises(ValidationError, match="leaf"):
                tree.leaf_coordinates(leaf)

    def test_tree_budget_refused_before_drawing(self, monkeypatch):
        # 64^2 = 4,096 leaves against a budget of 1,000: refused before the
        # 32 KiB second level is drawn
        monkeypatch.setattr(vecspin.parisi, "MAX_ENTRIES", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="cascade tree"):
                sample_cascade([0.3, 0.6], 64, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 64**2 // 2


class TestAncestorDepth:
    def test_equal_gives_depth(self):
        assert ancestor_depth((1, 1, 2), (1, 1, 2)) == 3

    def test_first_coordinate_differs(self):
        assert ancestor_depth((2, 1, 1), (1, 1, 1)) == 0

    def test_partial_prefix(self):
        assert ancestor_depth((1, 1, 2), (1, 1, 3)) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ancestor_depth((1, 2), (1, 2, 3))


class TestFields:
    def test_covariance_by_shared_depth(self):
        m = MixedModel(1, {2: [0.5]})
        path = Path([0.3, 0.7], [[[0.4]], [[1.0]]])
        tree = sample_cascade(path.x, 2, seed=5)
        reps = 20000
        z = np.empty((reps, tree.n_leaves))
        y = np.empty((reps, tree.n_leaves))
        for rep in range(reps):
            f = sample_fields(tree, m, path, spawn_rng(6, rep))
            z[rep] = f.z[:, 0]
            y[rep] = f.y
        # a leaf sharing depth 1 with leaf 0 and one sharing only the root
        shared = {ancestor_depth(tree.leaf_coordinates(0), tree.leaf_coordinates(a)): a
                  for a in range(tree.n_leaves)}
        sib, far = shared[1], shared[0]
        xi_p = lambda t: 2 * 0.25 * t
        theta_sum = lambda t: 0.25 * t**2
        checks = [
            (np.mean(z[:, 0] * z[:, sib]), xi_p(0.4)),
            (np.mean(z[:, 0] * z[:, 0]), xi_p(1.0)),
            (np.mean(z[:, 0] * z[:, far]), 0.0),
            (np.mean(y[:, 0] * y[:, sib]), theta_sum(0.4)),
            (np.mean(y[:, 0] * y[:, 0]), theta_sum(1.0)),
        ]
        for got, want in checks:
            se = 3.0 / math.sqrt(reps)  # crude bound; fourth moments are O(1)
            assert abs(got - want) <= 3.0 * se

    def test_depth_mismatch(self):
        m = MixedModel(1, {2: [0.5]})
        path = Path([0.3, 0.7], [[[0.4]], [[1.0]]])
        tree = sample_cascade([0.3], 2, seed=5)
        with pytest.raises(ValidationError):
            sample_fields(tree, m, path, 1)


class TestSimulatePhi:
    def test_folded_top_level_is_exact(self):
        path = Path([1.0], [[[1.0]]])
        value, se = simulate_phi(SK_HALF, COUNTING_ISING, lambda_zero(1), path,
                                 replications=4, seed=1)
        assert value == pytest.approx(math.log(2.0) + 0.25, abs=1e-12)
        assert se <= 1e-12

    def test_free_model_no_variance(self):
        m0 = MixedModel(1, {})
        lam = np.array([0.35])
        path = Path([0.5], [[[1.0]]])
        value, se = simulate_phi(m0, COUNTING_ISING, lam, path,
                                 fanout=16, replications=6, seed=2)
        want = eval_inner(COUNTING_ISING, lam, np.zeros(1))
        assert value == pytest.approx(want, abs=1e-12)
        assert se <= 1e-12

    def test_matches_recursion_on_random_instances(self):
        rng = spawn_rng(40)
        for i in range(6):
            kappa = int(rng.integers(1, 3))
            m = random_model(rng, kappa)
            prior = random_prior(rng, kappa)
            path = random_path(rng, kappa, int(rng.integers(1, 3)), x_hi=0.85)
            lam = random_lambda(rng, kappa)
            vq, _ = eval_phi(m, prior, lam, path, EvalSpec())
            vsim, se = simulate_phi(m, prior, lam, path, fanout=128,
                                    replications=160, seed=500 + i)
            assert abs(vsim - vq) <= 3.0 * se + 1e-3

    def test_leading_zero_level_sampled_once(self):
        # x = (0, 0.6): the first level is a shared draw, still unbiased
        m = SK_HALF
        path = Path([0.0, 0.6], [[[0.5]], [[1.0]]])
        vq, _ = eval_phi(m, COUNTING_ISING, lambda_zero(1), path, EvalSpec())
        vsim, se = simulate_phi(m, COUNTING_ISING, lambda_zero(1), path,
                                fanout=128, replications=400, seed=8)
        assert abs(vsim - vq) <= 3.0 * se

    def test_negative_seed_rejected(self):
        path = Path([0.5], [[[1.0]]])
        with pytest.raises(ValidationError, match="seed"):
            simulate_phi(SK_HALF, COUNTING_ISING, lambda_zero(1), path,
                         fanout=4, replications=2, seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            simulate_y_functional(SK_HALF, path, 4, fanout=4, replications=2, seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            sample_cascade([0.5], 4, seed=-1)

    def test_fanout_below_two_rejected(self):
        # x = (0, 1): no cascade level, so sample_cascade never sees the fanout
        path = Path([0.0, 1.0], [[[0.5]], [[1.0]]])
        for fanout in (0, 1):
            with pytest.raises(ValidationError, match="fanout"):
                simulate_phi(SK_HALF, COUNTING_ISING, lambda_zero(1), path,
                             fanout=fanout, replications=2)
            with pytest.raises(ValidationError, match="fanout"):
                simulate_y_functional(SK_HALF, path, 4, fanout=fanout, replications=2)

    def test_replication_memory_is_a_few_leaf_arrays(self):
        # two levels at fanout 256, three atoms: 65,536 leaves.  A replication
        # holds its (3, leaves) scores and at most three leaf arrays beside
        # them: the weights, the field and its last level's draws
        prior = SpinPrior.from_atoms([([1.0], 1.0), ([-1.0], 1.0), ([0.5], 2.0)])
        path = Path([0.4, 0.8], [[[0.5]], [[1.0]]])
        args = (SK_HALF, prior, lambda_zero(1), path)
        simulate_phi(*args, fanout=256, replications=2, seed=1)
        tracemalloc.start()
        simulate_phi(*args, fanout=256, replications=2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        leaf_array = 256**2 * 8
        assert peak < (prior.n_atoms + 3) * leaf_array

    def test_threads_do_not_change_values(self):
        path = Path([0.5], [[[1.0]]])
        a = simulate_phi(SK_HALF, COUNTING_ISING, lambda_zero(1), path,
                         fanout=32, replications=12, seed=3, threads=1)
        b = simulate_phi(SK_HALF, COUNTING_ISING, lambda_zero(1), path,
                         fanout=32, replications=12, seed=3, threads=8)
        assert a == b


def cascade_reference(x, factors, points, base, fanout, replications, seed):
    """The cascade replication with every tree drawn by the public
    ``sample_cascade``, which validates x per tree."""
    vals = []
    for rep in range(replications):
        rng = spawn_rng(seed, rep)
        lead, *core = factors
        z = rng.standard_normal((1, lead.shape[1])) @ lead.T
        logw = sample_cascade(x, fanout, rng).log_weights if len(x) else np.zeros(1)
        for offs, _ in _sampled_levels(core, fanout, rng):
            z = _grow(z, offs)
        scores = _scores(points, z) + base[:, None] + logw
        vals.append(float(_logsumexp(scores.reshape(-1))))
    return mean_and_se(vals)


class TestOneValidationPerCall:
    def cases(self):
        rng = spawn_rng(41)
        for kappa, x in ((1, [0.3, 0.6]), (2, [0.0, 0.4, 0.7, 1.0]), (1, [0.2, 0.5, 0.5, 1.0])):
            yield (random_model(rng, kappa), random_prior(rng, kappa),
                   Path(x, random_monotone_gammas(rng, kappa, len(x))), random_lambda(rng, kappa))

    def test_draws_match_public_sample_cascade(self):
        for x in ([0.5], [0.3, 0.6], [0.2, 0.5, 0.9]):
            want = sample_cascade(x, 5, spawn_rng(3)).log_weights
            got = vecspin.rpc._tree_log_weights(np.array(x), 5, spawn_rng(3))
            np.testing.assert_array_equal(got, want)
        for m, prior, path, lam in self.cases():
            plan, bonus = _prior_plan(m, prior, path)
            base = vecspin.parisi._atom_base(prior, lam, None, bonus)
            want = cascade_reference(plan.x, plan.factors, prior.points, base, 6, 5, 9)
            assert simulate_phi(m, prior, lam, path, fanout=6, replications=5, seed=9) == want
            plan = level_plan(m, path)
            want = cascade_reference(plan.x, _scalar_factors([plan.y_lead, *plan.y]),
                                     np.array([[math.sqrt(20)]]),
                                     np.array([0.5 * 20 * plan.y_trail]), 6, 5, 9)
            got = simulate_y_functional(m, path, 20, fanout=6, replications=5, seed=9)
            assert got == (want[0] / 20, want[1] / 20)

    def test_x_validated_once_per_call(self, monkeypatch):
        calls = []
        real = vecspin.rpc._validate_cascade_x

        def spy(x):
            calls.append(1)
            return real(x)

        monkeypatch.setattr(vecspin.rpc, "_validate_cascade_x", spy)
        for m, prior, path, lam in self.cases():
            calls.clear()
            simulate_phi(m, prior, lam, path, fanout=4, replications=7, seed=1)
            assert len(calls) == 1
            calls.clear()
            simulate_y_functional(m, path, 4, fanout=4, replications=7, seed=1)
            assert len(calls) == 1


class TestYFunctional:
    def test_closed_form_value(self):
        path = Path([0.5], [[[1.0]]])
        assert y_functional_closed_form(SK_HALF, path) == pytest.approx(0.0625, abs=1e-15)

    def test_zero_mixture_exact(self):
        m0 = MixedModel(1, {})
        path = Path([0.5], [[[1.0]]])
        value, se = simulate_y_functional(m0, path, 20, fanout=32,
                                          replications=8, seed=4)
        # only weight-normalization roundoff survives
        assert abs(value) <= 1e-15
        assert se <= 1e-15

    def test_simulation_matches_closed_form(self):
        path = Path([0.5], [[[1.0]]])
        value, se = simulate_y_functional(SK_HALF, path, 20, fanout=128,
                                          replications=300, seed=11)
        assert abs(value - 0.0625) <= 3.0 * se

    def test_trail_level_is_exact(self):
        # x = (1,): no tree and no lead draw; the trail term is the whole value
        path = Path([1.0], [[[1.0]]])
        value, se = simulate_y_functional(SK_HALF, path, 20, fanout=32,
                                          replications=6, seed=12)
        assert value == pytest.approx(y_functional_closed_form(SK_HALF, path), abs=1e-15)
        assert se == 0.0

    def test_lead_interior_and_trail_levels(self):
        """x = (0, 0.5, 1): the lead draw, one tree level and the trail term.

        A 3-s.e. check on 400 replications: its nominal false-alarm rate is
        0.27% (normal tails), before the fanout's truncation bias."""
        path = Path([0.0, 0.5, 1.0], [[[0.3]], [[0.6]], [[1.0]]])
        value, se = simulate_y_functional(SK_HALF, path, 20, fanout=128,
                                          replications=400, seed=13)
        assert se > 0.0
        assert abs(value - y_functional_closed_form(SK_HALF, path)) <= 3.0 * se

    def test_x_to_one_trend(self):
        # closed form rises toward Sum(theta(D))/2 as the single x grows
        d = np.array([[1.0]])
        vals = [y_functional_closed_form(SK_HALF, Path([x], [d]))
                for x in (0.2, 0.5, 0.8, 0.95)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.125

    def test_rejects_bad_m(self):
        with pytest.raises(ValidationError):
            simulate_y_functional(SK_HALF, Path([0.5], [[[1.0]]]), 0)


class TestLogSumSplit:
    def test_single_part_equality(self):
        path = Path([0.5], [[[1.0]]])
        res = log_sum_split_check(SK_HALF, path, [lambda f: np.exp(f.y)],
                                  fanout=64, replications=40, seed=5)
        assert res.lhs == pytest.approx(res.rhs, abs=1e-12)
        assert res.log_n_over_x0 == 0.0

    def test_identical_parts(self):
        path = Path([0.5], [[[1.0]]])
        part = lambda f: np.exp(f.y)
        res = log_sum_split_check(SK_HALF, path, [part, part],
                                  fanout=64, replications=40, seed=6)
        # lhs exceeds the single-part mean by exactly log 2 <= (log 2)/x_0
        assert res.log_n_over_x0 == pytest.approx(math.log(2.0) / 0.5, abs=1e-12)
        assert res.holds

    def test_smooth_halfspace_split(self):
        path = Path([0.4], [[[1.0]]])

        def upper(f):
            return np.exp(f.y) / (1.0 + np.exp(-8.0 * f.y))

        def lower(f):
            return np.exp(f.y) / (1.0 + np.exp(8.0 * f.y))

        res = log_sum_split_check(SK_HALF, path, [upper, lower],
                                  fanout=64, replications=200, seed=7)
        assert res.holds

    def test_requires_interior_x(self):
        path = Path([1.0], [[[1.0]]])
        with pytest.raises(ValidationError):
            log_sum_split_check(SK_HALF, path, [lambda f: np.exp(f.y)])

    def test_rejects_zero_replications(self):
        path = Path([0.5], [[[1.0]]])
        with pytest.raises(ValidationError):
            log_sum_split_check(SK_HALF, path, [lambda f: np.exp(f.y)], replications=0)

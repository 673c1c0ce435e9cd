import itertools
import math

import numpy as np
import pytest

from vecspin import (
    BudgetError,
    DisorderSample,
    InfeasibleError,
    MixedModel,
    PerturbationSpec,
    PerturbationTerm,
    SpinPrior,
    ValidationError,
    constrained_free_energy,
    exact_free_energy,
    gg_discrepancy,
    hamiltonian,
    hamiltonian_covariance,
    hamiltonian_covariance_mc,
    ising_prior,
    overlap,
    perturbation_covariance_mc,
    perturbation_h,
    perturbation_h_theta,
    sample_disorder,
)
from vecspin import system
from vecspin.parisi import BLOCK_ENTRIES
from vecspin.system import (
    _constrained_configs,
    _modified_configs,
    enumerate_configs,
    hamiltonian_batch,
    perturbation_variance_check,
    sample_perturbation_disorder,
)
from vecspin.rng import spawn_rng

from conftest import random_model, random_prior

PROB_ISING = ising_prior(1, normalized=True)
COUNTING_ISING = ising_prior(1)


class TestHamiltonian:
    def test_single_site_p2(self):
        m = MixedModel(1, {2: [0.7]})
        dis = sample_disorder(m, 1, seed=1)
        g = float(dis.couplings[2][0, 0])
        for s in (-1.0, 1.0):
            assert hamiltonian(m, [[s]], dis) == pytest.approx(0.7 * g * s * s, abs=1e-15)

    def test_zero_couplings(self):
        m = MixedModel(1, {2: [0.5]})
        dis = DisorderSample(0, 3, {2: np.zeros((3, 3))})
        assert hamiltonian(m, [[1.0], [-1.0], [1.0]], dis) == 0.0

    def test_batch_matches_single(self):
        rng = spawn_rng(2)
        m = MixedModel(2, {2: [0.4, 0.2], 4: [0.1, 0.3]})
        dis = sample_disorder(m, 4, seed=3)
        configs = rng.choice([-1.0, 1.0], size=(10, 4, 2))
        batch = hamiltonian_batch(m, configs, dis)
        for i in range(10):
            assert batch[i] == pytest.approx(hamiltonian(m, configs[i], dis), abs=1e-12)

    def test_covariance_against_formula(self):
        m = MixedModel(2, {2: [0.4, 0.25], 4: [0.15, 0.1]})
        rng = spawn_rng(4)
        a = rng.choice([-1.0, 1.0], size=(3, 2))
        b = rng.choice([-1.0, 1.0], size=(3, 2))
        emp, se = hamiltonian_covariance_mc(m, a, b, 30000, seed=5)
        exact = 3 * hamiltonian_covariance(m, overlap(a, b))
        assert abs(emp - exact) <= 3.0 * se

    def test_equal_spins_pair_covariance(self):
        m = MixedModel(1, {2: [0.5]})
        a = np.ones((2, 1))
        emp, se = hamiltonian_covariance_mc(m, a, a, 30000, seed=6)
        assert abs(emp - 0.5) <= 3.0 * se

    def test_covariance_mc_draws_rows_from_one_stream_per_chunk(self, monkeypatch):
        # 36 coefficients: row blocks of 455 draws, which straddle the chunk
        # boundaries at 1000; the draws are those of one whole (take, 36)
        # matrix per chunk generator
        m = MixedModel(1, {2: [0.3]})
        rng = spawn_rng(7)
        a = rng.choice([-1.0, 1.0], size=(6, 1))
        b = rng.choice([-1.0, 1.0], size=(6, 1))
        monkeypatch.setattr(system, "COV_CHUNK", 1000)
        n_draws = 2500
        ca = system._hamiltonian_coefficients(m, a)
        cb = system._hamiltonian_coefficients(m, b)
        g = np.concatenate([spawn_rng(11, k).standard_normal((min(1000, n_draws - lo), 36))
                            for k, lo in enumerate(range(0, n_draws, 1000))])
        ha, hb = g @ ca, g @ cb
        prod = (ha - ha.mean()) * (hb - hb.mean())
        emp, se = hamiltonian_covariance_mc(m, a, b, n_draws, seed=11)
        assert emp == pytest.approx(prod.mean(), rel=1e-14, abs=0.0)
        assert se == pytest.approx(prod.std(ddof=1) / math.sqrt(n_draws), rel=1e-14, abs=0.0)

    def test_covariance_mc_memory_is_draw_vectors_and_a_row_block(self):
        import tracemalloc

        # N = 6, p = 2: one (20000, 36) draw matrix alone is 5.5 MiB.  The
        # estimator keeps two per-draw vectors and forms a few more for the
        # product and its s.e., with one row block of BLOCK_ENTRIES normals
        m = MixedModel(1, {2: [0.3]})
        rng = spawn_rng(8)
        a = rng.choice([-1.0, 1.0], size=(6, 1))
        b = rng.choice([-1.0, 1.0], size=(6, 1))
        n_draws = 20000
        hamiltonian_covariance_mc(m, a, b, n_draws, seed=9)
        tracemalloc.start()
        hamiltonian_covariance_mc(m, a, b, n_draws, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * n_draws * 8 + BLOCK_ENTRIES * 8


class TestExactFreeEnergy:
    def test_free_model_zero(self):
        m0 = MixedModel(1, {})
        res = exact_free_energy(m0, PROB_ISING, 3, 5, seed=7)
        assert res.value == pytest.approx(0.0, abs=1e-14)
        assert res.std_error == pytest.approx(0.0, abs=1e-14)

    def test_single_site_mean_zero(self):
        m = MixedModel(1, {2: [0.4]})
        res = exact_free_energy(m, PROB_ISING, 1, 400, seed=8)
        assert abs(res.value) <= 3.0 * res.std_error

    def test_brute_force_per_draw(self):
        m = MixedModel(1, {2: [0.3]})
        res = exact_free_energy(m, PROB_ISING, 2, 5, seed=13)
        for draw in range(5):
            dis = sample_disorder(m, 2, int(spawn_rng(13, draw).integers(2**63)))
            g = dis.couplings[2]
            z = 0.0
            for s1 in (-1.0, 1.0):
                for s2 in (-1.0, 1.0):
                    s = (s1, s2)
                    h = 0.3 * 2 ** (-0.5) * sum(
                        g[i, j] * s[i] * s[j] for i in range(2) for j in range(2)
                    )
                    z += 0.25 * math.exp(h)
            assert res.per_draw[draw] == pytest.approx(math.log(z) / 2, abs=1e-12)

    def test_enumeration_budget(self):
        with pytest.raises(BudgetError):
            enumerate_configs(PROB_ISING, 30)

    def test_concentration_trend(self):
        # per-draw spread of the free energy shrinks with the system size
        m = MixedModel(1, {2: [0.3]})
        sds = []
        for n in (4, 6, 8):
            res = exact_free_energy(m, PROB_ISING, n, 300, seed=14)
            sds.append(res.per_draw.std(ddof=1))
        assert sds[0] > sds[1] > sds[2]


class TestConstrainedFreeEnergy:
    def test_ising_constraint_vacuous(self):
        m = MixedModel(1, {2: [0.3]})
        d = np.array([[1.0]])
        free = exact_free_energy(m, PROB_ISING, 4, 20, seed=15)
        constrained = constrained_free_energy(m, PROB_ISING, 4, d, 0.5, 20, seed=15)
        np.testing.assert_allclose(constrained.per_draw, free.per_draw, atol=1e-14)
        assert constrained.hit_fraction == pytest.approx(1.0, abs=1e-12)

    def test_empty_constraint_set(self):
        m = MixedModel(1, {2: [0.3]})
        d = np.array([[0.0]])
        with pytest.raises(InfeasibleError):
            constrained_free_energy(m, PROB_ISING, 4, d, 0.5, 5, seed=1)
        term = PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.0]]))
        with pytest.raises(InfeasibleError):
            gg_discrepancy(m, PROB_ISING, PerturbationSpec(), 4, d, 0.5, 2,
                           lambda rn: rn[..., 0, 1, 0, 0], term, 5, seed=1)

    def test_malformed_constraint_rejected(self):
        m = MixedModel(1, {2: [0.3]})
        term = PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.0]]))
        for d in (np.eye(2), np.array([[math.nan]]), np.array([[-1.0]])):
            with pytest.raises(ValidationError, match="constraint matrix D"):
                constrained_free_energy(m, PROB_ISING, 4, d, 0.5, 5, seed=1)
            with pytest.raises(ValidationError, match="constraint matrix D"):
                gg_discrepancy(m, PROB_ISING, PerturbationSpec(), 4, d, 0.5, 2,
                               lambda rn: rn[..., 0, 1, 0, 0], term, 5, seed=1)

    def test_restriction_never_gains(self):
        m = MixedModel(2, {2: [0.3, 0.2]})
        prior = SpinPrior.from_atoms([([1.0, 0.0], 0.5), ([0.0, 1.0], 0.5)])
        d = np.diag([0.5, 0.5])
        free = exact_free_energy(m, prior, 4, 30, seed=16)
        constrained = constrained_free_energy(m, prior, 4, d, 0.3, 30, seed=16)
        assert constrained.hit_fraction < 1.0
        assert np.all(constrained.per_draw <= free.per_draw + 1e-12)


class TestPerturbation:
    def test_linear_field_case(self):
        term = PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.0]]))
        config = np.array([[1.0], [-1.0], [1.0]])
        g = sample_perturbation_disorder(term, 3, seed=17)
        got = perturbation_h_theta(term, config, g)
        want = 3 ** (-0.5) * float(g[0] - g[1] + g[2])
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_couplings(self):
        term = PerturbationTerm(p=2, ns=(1, 2), lambdas=np.array([[0.5], [1.0]]))
        config = np.array([[1.0], [-1.0]])
        assert perturbation_h_theta(term, config, np.zeros(2 ** (2 * 3))) == 0.0

    def test_covariance_against_product_formula(self):
        term = PerturbationTerm(p=2, ns=(1, 1), lambdas=np.array([[1.0, 0.5],
                                                                  [0.2, -0.4]]))
        rng = spawn_rng(18)
        a = rng.choice([-1.0, 1.0], size=(3, 2))
        b = rng.choice([-1.0, 1.0], size=(3, 2))
        emp, se = perturbation_covariance_mc(term, a, b, 30000, seed=19)
        exact = term.covariance(overlap(a, b))
        assert abs(emp - exact) <= 3.0 * se

    def test_empty_family_is_zero(self):
        spec = PerturbationSpec()
        assert perturbation_h(spec, PROB_ISING, np.ones((2, 1)), []) == 0.0

    def test_single_term_scaling(self):
        term = PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.0]]))
        spec = PerturbationSpec(terms=(term,), u=(1.5,))
        config = np.ones((2, 1))
        g = sample_perturbation_disorder(term, 2, seed=20)
        w = spec.term_weight(0, PROB_ISING.support_bound)
        want = w * perturbation_h_theta(term, config, g)
        assert perturbation_h(spec, PROB_ISING, config, [g]) == pytest.approx(want, abs=1e-15)
        # j(theta) = p + n + j0 + 22m = 1 + 1 + 1 + 22, b_p = kappa * c^p = 1
        assert w == pytest.approx(2.0**-25 * 1.5, abs=1e-18)

    def test_variance_bound_holds(self):
        term = PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.0]]))
        spec = PerturbationSpec(terms=(term,), u=(2.0,))
        var, se = perturbation_variance_check(spec, PROB_ISING, np.ones((3, 1)),
                                              200, seed=21)
        assert var <= 1.0

    def test_variance_check_needs_two_draws(self):
        term = PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.0]]))
        spec = PerturbationSpec(terms=(term,), u=(2.0,))
        for n_draws in (0, 1):
            with pytest.raises(ValidationError):
                perturbation_variance_check(spec, PROB_ISING, np.ones((3, 1)),
                                            n_draws, seed=21)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            PerturbationTerm(p=0, ns=(1,), lambdas=np.array([[1.0]]))
        with pytest.raises(ValidationError):
            PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.5]]))
        term = PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.0]]))
        with pytest.raises(ValidationError):
            PerturbationSpec(terms=(term,), u=(0.5,))
        with pytest.raises(ValidationError):
            PerturbationSpec(terms=(term,), u=(1.5,), strength_exponent=0.6)

    def test_rejects_non_integral_degree_and_counts(self):
        lam = np.array([[1.0]])
        with pytest.raises(ValidationError):
            PerturbationTerm(p=1.5, ns=(1,), lambdas=lam)
        with pytest.raises(ValidationError):
            PerturbationTerm(p=1, ns=(2.7,), lambdas=lam)
        term = PerturbationTerm(p=2.0, ns=(np.int64(2),), lambdas=lam)
        assert (term.p, term.ns) == (2, (2,))
        assert type(term.p) is int and type(term.ns[0]) is int


F_CONST = lambda rn: np.ones(rn.shape[:-4])
F_ENTRY = lambda rn: rn[..., 0, 1, 0, 0]
F_ENTRY_SQ = lambda rn: rn[..., 0, 1, 0, 0] ** 2
ODD_TERM = PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.0]]))


class TestGGDiscrepancy:
    def test_constant_functional_is_structural_zero(self):
        m = MixedModel(1, {2: [0.3]})
        res = gg_discrepancy(m, COUNTING_ISING, PerturbationSpec(), 4,
                             np.array([[1.0]]), 0.5, 2, F_CONST, ODD_TERM,
                             20, seed=22)
        assert res.delta <= 1e-14

    def test_iid_spin_flip_symmetry_zero(self):
        # no couplings, no perturbation, even functional, odd-parity pattern:
        # every term vanishes by the sigma -> -sigma symmetry
        m0 = MixedModel(1, {})
        res = gg_discrepancy(m0, COUNTING_ISING, PerturbationSpec(), 4,
                             np.array([[1.0]]), 0.5, 2, F_ENTRY_SQ, ODD_TERM,
                             5, seed=23)
        assert res.delta <= 1e-14
        assert res.std_error <= 1e-14

    @pytest.mark.parametrize("n_replicas, n_sites", [(2, 4), (3, 4), (9, 1)])
    def test_iid_odd_functional_matches_direct_count(self, n_replicas, n_sites):
        # for independent uniform spins only E<R12 C_{1,2}> = E[R12^2] = 1/N
        # survives, so the residual is 1/(n N)
        m0 = MixedModel(1, {})
        res = gg_discrepancy(m0, COUNTING_ISING, PerturbationSpec(), n_sites,
                             np.array([[1.0]]), 0.5, n_replicas, F_ENTRY, ODD_TERM,
                             3, seed=24)
        assert res.delta == pytest.approx(1.0 / (n_replicas * n_sites), abs=1e-12)

    def test_three_replica_terms_match_tuple_sums(self):
        # no disorder and no perturbation: the Gibbs measure is the prior on
        # {-1, 1}^2, C_{a,b} = R_ab, and each term is a sum over replica tuples
        prior = SpinPrior.from_atoms([([1.0], 1.0), ([-1.0], 3.0)])
        n_sites = 2
        res = gg_discrepancy(
            MixedModel(1, {}), prior, PerturbationSpec(), n_sites, np.array([[1.0]]),
            0.5, 3, lambda rn: rn[..., 0, 1, 0, 0] + 2 * rn[..., 1, 2, 0, 0]
            + rn[..., 0, 2, 0, 0] ** 2, ODD_TERM, 2, seed=27)
        configs, logw = enumerate_configs(prior, n_sites)
        probs = np.exp(logw) / np.exp(logw).sum()
        r = configs[:, :, 0] @ configs[:, :, 0].T / n_sites

        def gibbs(g, n):
            return sum(np.prod(probs[list(t)]) * g(*t)
                       for t in itertools.product(range(probs.size), repeat=n))

        def f(a, b, c):
            return r[a, b] + 2 * r[b, c] + r[a, c] ** 2

        t1 = gibbs(lambda a, b, c, e: f(a, b, c) * r[a, e], 4)
        f_mean = gibbs(f, 3)
        c_mean = gibbs(lambda a, b: r[a, b], 2)
        t3 = [gibbs(lambda a, b, c: f(a, b, c) * r[a, b], 3),
              gibbs(lambda a, b, c: f(a, b, c) * r[a, c], 3)]
        comp = res.components
        assert comp["t1"] == pytest.approx(t1, abs=1e-14)
        assert comp["f_mean"] == pytest.approx(f_mean, abs=1e-14)
        assert comp["c_mean"] == pytest.approx(c_mean, abs=1e-14)
        assert comp["t3"] == pytest.approx(t3, abs=1e-14)
        delta = abs(t1 - f_mean * c_mean / 3 - sum(t3) / 3)
        assert delta > 0.01
        assert res.delta == pytest.approx(delta, abs=1e-14)
        assert res.std_error == 0.0

    @pytest.mark.parametrize("f", [
        lambda rn: (rn[..., 0, 1, 0, 0] + 2 * rn[..., 2, 3, 0, 0]
                    + rn[..., 0, 2, 0, 0] ** 2 - 3 * rn[..., 1, 3, 0, 0] * rn[..., 0, 1, 0, 0]),
        lambda rn: rn[..., 1, 3, 0, 0],
    ], ids=["four-pairs", "strided-view"])
    def test_four_replica_terms_match_tuple_sums(self, f):
        # as at n = 3: the Gibbs measure is the prior, and C_{a,b} = R_ab
        prior = SpinPrior.from_atoms([([1.0], 1.0), ([-1.0], 3.0)])
        n_sites = 2
        res = gg_discrepancy(MixedModel(1, {}), prior, PerturbationSpec(), n_sites,
                             np.array([[1.0]]), 0.5, 4, f, ODD_TERM, 2, seed=28)
        configs, logw = enumerate_configs(prior, n_sites)
        probs = np.exp(logw) / np.exp(logw).sum()
        r = configs[:, :, 0] @ configs[:, :, 0].T / n_sites
        n_cfg = probs.size
        # f on every 4-tuple, through an explicit (4, 4, 1, 1) overlap array each
        f_tuple = {}
        for t in itertools.product(range(n_cfg), repeat=4):
            rn = np.array([[[[r[a, b]]] for b in t] for a in t])
            f_tuple[t] = float(f(rn))

        def gibbs(g, n):
            return sum(np.prod(probs[list(t)]) * g(*t)
                       for t in itertools.product(range(n_cfg), repeat=n))

        def fr(*t):
            return f_tuple[t]

        t1 = gibbs(lambda a, b, c, e, x: fr(a, b, c, e) * r[a, x], 5)
        f_mean = gibbs(fr, 4)
        t3 = [gibbs(lambda *t, ell=ell: fr(*t) * r[t[0], t[ell]], 4) for ell in (1, 2, 3)]
        comp = res.components
        assert comp["t1"] == pytest.approx(t1, abs=1e-14)
        assert comp["f_mean"] == pytest.approx(f_mean, abs=1e-14)
        assert comp["c_mean"] == pytest.approx(gibbs(lambda a, b: r[a, b], 2), abs=1e-14)
        assert comp["t3"] == pytest.approx(t3, abs=1e-14)
        assert res.delta == pytest.approx(
            abs(t1 - f_mean * comp["c_mean"] / 4 - sum(t3) / 4), abs=1e-14)

    def test_active_perturbation_family_matches_reference(self):
        # kappa = 2, unequal radii (so the modifier moves every configuration),
        # and two perturbation terms, one with two directions; the family
        # moves these values by about 1e-8 relative, far above the tolerance
        model = MixedModel(2, {2: [0.7, 0.5], 4: [0.3, 0.2]})
        prior = SpinPrior.from_atoms([([1.0, 0.9], 1.0), ([-1.0, 0.9], 2.0),
                                      ([0.9, -1.0], 1.0), ([-0.7, -1.0], 3.0)])
        spec = PerturbationSpec(
            terms=(PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.0, -0.5]])),
                   PerturbationTerm(p=2, ns=(1, 2), lambdas=np.array([[0.5, 1.0],
                                                                      [-1.0, 0.3]]))),
            u=(2.0, 1.2))
        d = np.array([[0.825, 0.0], [0.0, 0.905]])
        n_sites, eps, n_draws, seed = 2, 0.4, 6, 29

        def f(rn):
            return (rn[..., 0, 1, 0, 0] + rn[..., -1, 1, 1, 0] ** 2
                    + 0.3 * rn[..., 0, -1, 1, 1] * rn[..., 0, 1, 0, 1])

        configs, _, _ = _constrained_configs(prior, n_sites, d, eps)
        assert np.abs(_modified_configs(configs, d, eps) - configs).max() > 0.1
        for n_replicas, term in itertools.product((2, 3), spec.terms):
            res = gg_discrepancy(model, prior, spec, n_sites, d, eps, n_replicas, f,
                                 term, n_draws, seed)
            want = _reference_gg(model, prior, spec, n_sites, d, eps, n_replicas, f,
                                 term, n_draws, seed)
            comp = res.components
            got = [res.delta, res.std_error, comp["t1"], comp["f_mean"],
                   comp["c_mean"], *comp["t3"]]
            assert len(got) == len(want)
            assert min(abs(v) for v in want) > 1e-4
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_budget_counts_the_values_and_one_slab(self, monkeypatch):
        # kappa = 2, 16 configurations, n = 2: 16^2 values of f, and one slab
        # of all 16 first-replica configurations (BLOCK_ENTRIES allows 64)
        # with 16 second-replica ones and 2 x 2 replica pairs of 2 x 2
        # overlaps, 4096 entries: 4352 in all
        prior = SpinPrior.from_atoms([([1.0, 0.5], 1.0), ([-1.0, 0.5], 2.0),
                                      ([0.6, -0.8], 1.0), ([-0.6, -0.8], 3.0)])
        term = PerturbationTerm(p=1, ns=(1,), lambdas=np.array([[1.0, 1.0]]))
        d = np.array([[0.68, 0.0], [0.0, 0.445]])
        args = (MixedModel(2, {}), prior, PerturbationSpec(), 2, d, 0.51, 2, F_ENTRY,
                term, 2)
        monkeypatch.setattr(system, "BUDGET", 4351)
        with pytest.raises(BudgetError):
            gg_discrepancy(*args, seed=30)
        monkeypatch.setattr(system, "BUDGET", 4352)
        assert gg_discrepancy(*args, seed=30).components["n_configs"] == 16

    def test_budget_admits_ising_at_seven_sites_and_three_replicas(self, monkeypatch):
        # 2^7 configurations, n = 3: 128^3 values of f and a slab of one
        # first-replica configuration (BLOCK_ENTRIES allows less) with
        # 128^2 tuples of 3 x 3 overlaps, 2,244,608 entries in all; the grid
        # of overlaps, 128^3 x 9 entries, is never built
        assert BLOCK_ENTRIES < 128**2 * 9
        args = (MixedModel(1, {2: [0.3]}), COUNTING_ISING, PerturbationSpec(), 7,
                np.array([[1.0]]), 0.5, 3, F_ENTRY, ODD_TERM, 1)
        monkeypatch.setattr(system, "BUDGET", 128**3 + 128**2 * 9 - 1)
        with pytest.raises(BudgetError):
            gg_discrepancy(*args, seed=31)
        monkeypatch.setattr(system, "BUDGET", 128**3 + 128**2 * 9)
        assert gg_discrepancy(*args, seed=31).components["n_configs"] == 128

    def test_budget_counts_the_perturbation_coefficients(self, monkeypatch):
        # 4 configurations and a term over 2^(2 * 3) coupling entries: a
        # 4 x 64 coefficient matrix, larger than the 4^2 * 2^2 tuple grid
        spec = PerturbationSpec(
            terms=(PerturbationTerm(p=2, ns=(3,), lambdas=np.array([[1.0]])),), u=(1.5,))
        args = (MixedModel(1, {}), COUNTING_ISING, spec, 2, np.array([[1.0]]), 0.5, 2,
                F_ENTRY, ODD_TERM, 2)
        monkeypatch.setattr(system, "BUDGET", 255)
        with pytest.raises(BudgetError):
            gg_discrepancy(*args, seed=31)
        monkeypatch.setattr(system, "BUDGET", 256)
        assert np.isfinite(gg_discrepancy(*args, seed=31).delta)

    def test_functional_of_the_wrong_shape_names_the_grid(self):
        m = MixedModel(1, {2: [0.3]})
        args = (m, COUNTING_ISING, PerturbationSpec(), 2, np.array([[1.0]]), 0.5)
        # 4 configurations at N = 2: one slab holds the whole (4, 4) grid
        with pytest.raises(ValidationError, match=r"to shape \(4, 4\).* gave \(4,\)"):
            gg_discrepancy(*args, 2, lambda rn: rn[..., 0, 1, 0, 0].sum(axis=-1),
                           ODD_TERM, 2, seed=1)
        # 64 configurations at N = 6, n = 3: a functional that returns the
        # whole grid's shape does not act tuple by tuple on a (1, 64, 64) slab
        with pytest.raises(ValidationError, match=r"to shape \(64, 64, 64\)"):
            gg_discrepancy(m, COUNTING_ISING, PerturbationSpec(), 6, np.array([[1.0]]),
                           0.5, 3, lambda rn: np.zeros((64, 64, 64)), ODD_TERM, 2, seed=1)

    def test_tuple_grid_memory_is_f_vals_and_a_slab(self):
        import tracemalloc

        # 64 configurations at N = 6, n = 3: the whole (64^3, 3, 3, 1, 1)
        # overlap grid would be 19 MiB.  f_vals is 64^3 floats (2 MiB) and a
        # slab one first-replica configuration, 64^2 tuples of 3 x 3 overlaps
        # (288 KiB); three slabs more leave room for the configurations, the
        # field's coefficients and the per-draw arrays
        m = MixedModel(1, {2: [0.3]})
        args = (m, COUNTING_ISING, PerturbationSpec(), 6, np.array([[1.0]]), 0.5, 3,
                F_ENTRY, ODD_TERM, 2)
        gg_discrepancy(*args, seed=32)
        tracemalloc.start()
        res = gg_discrepancy(*args, seed=32)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert res.components["n_configs"] == 64
        f_vals, slab = 64**3 * 8, 64**2 * 3**2 * 8
        assert peak < f_vals + 4 * slab

    def test_three_replicas_run(self):
        m = MixedModel(1, {2: [0.3]})
        res = gg_discrepancy(m, COUNTING_ISING, PerturbationSpec(), 3,
                             np.array([[1.0]]), 0.5, 3, F_ENTRY, ODD_TERM,
                             10, seed=25)
        assert np.isfinite(res.delta)

    def test_rejects_single_replica(self):
        m = MixedModel(1, {2: [0.3]})
        with pytest.raises(ValidationError):
            gg_discrepancy(m, COUNTING_ISING, PerturbationSpec(), 3,
                           np.array([[1.0]]), 0.5, 1, F_ENTRY, ODD_TERM, 5, seed=1)

    def test_modified_configs_flow_through(self):
        # a two-atom kappa=1 prior with unequal radii exercises the modifier
        m = MixedModel(1, {2: [0.3]})
        prior = SpinPrior.from_atoms([([1.0], 1.0), ([0.6], 1.0)])
        d = np.array([[0.8]])
        res = gg_discrepancy(m, prior, PerturbationSpec(), 3, d, 0.9, 2,
                             F_ENTRY, ODD_TERM, 10, seed=26)
        assert np.isfinite(res.delta)


def _reference_gg(model, prior, spec, n_sites, d, eps, n_replicas, f, term,
                  n_disorder, seed):
    """The identity's discrepancy computed the long way: the perturbation
    field term by term for each configuration and draw, and the (1, l)
    marginals summed out of the explicit weighted tuple tensor f * p x ... x p.

    Returns [delta, s.e., t1, f_mean, c_mean, t3 for l = 2..n].
    """
    configs, logw, _ = _constrained_configs(prior, n_sites, d, eps)
    modified = _modified_configs(configs, d, eps)
    n_cfg = configs.shape[0]
    pair = np.einsum("aik,bil->abkl", modified, modified) / n_sites
    c_matrix = np.ones((n_cfg, n_cfg))
    for n_j, lam in zip(term.ns, term.lambdas):
        c_matrix *= np.einsum("abkl,k,l->ab", pair**term.p, lam, lam) ** n_j
    grid = np.indices((n_cfg,) * n_replicas, sparse=True)
    rn = np.empty((n_cfg,) * n_replicas + (n_replicas, n_replicas) + pair.shape[2:])
    for i, gi in enumerate(grid):
        for j, gj in enumerate(grid):
            rn[..., i, j, :, :] = pair[gi, gj]
    f_vals = np.asarray(f(rn), dtype=float)
    s_n = spec.strength(n_sites)
    rows = []
    for draw in range(n_disorder):
        dis = sample_disorder(model, n_sites, int(spawn_rng(seed, draw, 0).integers(2**63)))
        ds = [sample_perturbation_disorder(t, n_sites,
                                           int(spawn_rng(seed, draw, 1 + i).integers(2**63)))
              for i, t in enumerate(spec.terms)]
        field = np.zeros(n_cfg)
        for c in range(n_cfg):
            for i, t in enumerate(spec.terms):
                field[c] += (spec.term_weight(i, prior.support_bound)
                             * perturbation_h_theta(t, modified[c], ds[i]))
        h = hamiltonian_batch(model, configs, dis) + s_n * field
        logits = logw + h
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        fw = f_vals.copy()
        for g in grid:
            fw = fw * probs[g]
        marginals = [fw.sum(axis=tuple(k for k in range(1, n_replicas) if k != ell))
                     for ell in range(1, n_replicas)]
        rows.append([marginals[0].sum(axis=1) @ (c_matrix @ probs), fw.sum(),
                     probs @ c_matrix @ probs, *[np.sum(m * c_matrix) for m in marginals]])
    rows = np.array(rows)
    t1, af, bc, *t3 = rows.mean(axis=0)
    n_inv = 1.0 / n_replicas
    delta = abs(t1 - n_inv * af * bc - n_inv * sum(t3))
    grad = np.array([1.0, -n_inv * bc, -n_inv * af] + [-n_inv] * len(t3))
    se = float(np.std(rows @ grad, ddof=1)) / math.sqrt(n_disorder)
    return [delta, se, t1, af, bc, *t3]

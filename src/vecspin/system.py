"""Finite-size systems: Hamiltonians, exact free energies, perturbations.

Everything here is desk scale and exact where it can be.  Disorder is a set
of i.i.d. standard Gaussian coupling tensors, one per interaction degree p,
shared across the spin coordinates (that sharing is what produces the
cross-coordinate covariances).  Partition sums enumerate atom
configurations outright instead of sampling them, so Gibbs averages per
disorder draw carry no sampler bias; only the disorder average is Monte
Carlo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InfeasibleError, ValidationError, as_int
from .mixing import MixedModel, validate_gram
from .parisi import BLOCK_ENTRIES
from .prior import SpinPrior, build_modifier, self_overlap
from .rng import check_replications, mean_and_se, parallel_map, spawn_rng

#: Largest coupling tensor, configuration count or replica-tuple values plus
#: one slab of their overlaps the exact computations handle; beyond it they
#: raise BudgetError first.
BUDGET = 10**7

#: Disorder draws per generator of the covariance Monte Carlo (chunk k draws
#: from ``spawn_rng(seed, k)``), taken from it in row blocks of BLOCK_ENTRIES.
COV_CHUNK = 20000


# ---------------------------------------------------------------------------
# disorder and the Hamiltonian


@dataclass(frozen=True)
class DisorderSample:
    """Realized couplings g per degree p, each an (N,)*p tensor."""

    seed: int
    n_sites: int
    couplings: dict[int, np.ndarray]


def sample_disorder(model: MixedModel, n_sites: int, seed: int) -> DisorderSample:
    if n_sites < 1:
        raise ValidationError("n_sites must be >= 1")
    couplings = {}
    for p in model.p_values:
        if n_sites**p > BUDGET:
            raise BudgetError(
                f"coupling tensor for p={p} needs {n_sites**p} entries, over budget"
            )
        rng = spawn_rng(seed, p)
        couplings[p] = rng.standard_normal((n_sites,) * p)
    return DisorderSample(seed, n_sites, couplings)


def _as_config(config) -> np.ndarray:
    config = np.asarray(config, dtype=float)
    if config.ndim == 1:
        config = config[:, None]
    if config.ndim != 2:
        raise ValidationError("a configuration is an (N, kappa) array")
    return config


def _contract_all(tensor: np.ndarray, vec: np.ndarray) -> float:
    t = tensor
    for _ in range(tensor.ndim):
        t = np.tensordot(t, vec, axes=([-1], [0]))
    return float(t)


def hamiltonian(model: MixedModel, config, disorder: DisorderSample) -> float:
    """H(sigma) = sum_k sum_p beta_p(k) N^{-(p-1)/2} <g_p, sigma(k)^{tensor p}>.

    All index tuples are summed, diagonals included.
    """
    config = _as_config(config)
    n = config.shape[0]
    if n != disorder.n_sites:
        raise ValidationError("configuration size does not match the disorder")
    total = 0.0
    for p, beta in model.coefficients.items():
        g = disorder.couplings[p]
        scale = n ** (-(p - 1) / 2.0)
        for k in range(model.kappa):
            if beta[k] == 0.0:
                continue
            total += beta[k] * scale * _contract_all(g, config[:, k])
    return total


def hamiltonian_batch(model: MixedModel, configs, disorder: DisorderSample) -> np.ndarray:
    """Vectorized Hamiltonian over configs of shape (n_cfg, N, kappa)."""
    configs = np.asarray(configs, dtype=float)
    n_cfg, n, kappa = configs.shape
    out = np.zeros(n_cfg)
    for p, beta in model.coefficients.items():
        g = disorder.couplings[p]
        scale = n ** (-(p - 1) / 2.0)
        for k in range(kappa):
            if beta[k] == 0.0:
                continue
            v = configs[:, :, k]
            t = np.tensordot(g, v, axes=([p - 1], [1]))  # (N,)* (p-1) + (n_cfg,)
            for _ in range(p - 1):
                t = np.einsum("i...a,ai->...a", t, v)
            out += beta[k] * scale * t
    return out


def _tensor_power_sum(config: np.ndarray, weights, p: int) -> np.ndarray:
    """Flattened sum_k w_k sigma(k)^{tensor p} over the spin coordinates k,
    where sigma(k) is column k of the (N, kappa) configuration."""
    n = config.shape[0]
    out = np.zeros((n,) * p)
    for k, w in enumerate(weights):
        if w == 0.0:
            continue
        t = np.array(1.0)
        for _ in range(p):
            t = np.multiply.outer(t, config[:, k])
        out += w * t
    return out.ravel()


def _hamiltonian_coefficients(model: MixedModel, config: np.ndarray) -> np.ndarray:
    """Flattened coefficients of H(sigma) as a linear form in the couplings."""
    n = config.shape[0]
    parts = [n ** (-(p - 1) / 2.0) * _tensor_power_sum(config, beta, p)
             for p, beta in sorted(model.coefficients.items())]
    return np.concatenate(parts) if parts else np.zeros(0)


def _linear_covariance_mc(coeff_a: np.ndarray, coeff_b: np.ndarray,
                          n_disorder: int, seed: int) -> tuple[float, float]:
    """Empirical covariance of two linear Gaussian forms over fresh draws."""
    check_replications(n_disorder)
    ha = np.empty(n_disorder)
    hb = np.empty(n_disorder)
    rows = max(1, BLOCK_ENTRIES // max(1, coeff_a.size))
    for start in range(0, n_disorder, COV_CHUNK):
        rng = spawn_rng(seed, start // COV_CHUNK)
        end = min(start + COV_CHUNK, n_disorder)
        for lo in range(start, end, rows):
            g = rng.standard_normal((min(rows, end - lo), coeff_a.size))
            ha[lo:lo + len(g)] = g @ coeff_a
            hb[lo:lo + len(g)] = g @ coeff_b
    return mean_and_se((ha - ha.mean()) * (hb - hb.mean()))


def hamiltonian_covariance_mc(model: MixedModel, config_a, config_b,
                              n_disorder: int, seed: int) -> tuple[float, float]:
    """Monte Carlo Cov(H(sigma^1), H(sigma^2)) over disorder, with its s.e.

    Independent oracle for N * Sum(xi(R_12)); the Hamiltonian is linear in
    the couplings, so each draw is a dot product.
    """
    a = _as_config(config_a)
    b = _as_config(config_b)
    return _linear_covariance_mc(
        _hamiltonian_coefficients(model, a),
        _hamiltonian_coefficients(model, b),
        n_disorder, seed,
    )


def _perturbation_coefficients(term: "PerturbationTerm",
                               config: np.ndarray) -> np.ndarray:
    n = config.shape[0]
    t = np.array(1.0)
    for n_j, lam in zip(term.ns, term.lambdas):
        u = _tensor_power_sum(config, lam, term.p)
        for _ in range(n_j):
            t = np.multiply.outer(t, u)
    return t.ravel() * n ** (-term.p * term.total_n / 2.0)


def perturbation_covariance_mc(term: "PerturbationTerm", config_a, config_b,
                               n_disorder: int, seed: int) -> tuple[float, float]:
    """Monte Carlo Cov(h_term(sigma^1), h_term(sigma^2)) with its s.e.

    Independent oracle for ``term.covariance`` of the cross overlap.
    """
    a = _as_config(config_a)
    b = _as_config(config_b)
    return _linear_covariance_mc(
        _perturbation_coefficients(term, a),
        _perturbation_coefficients(term, b),
        n_disorder, seed,
    )


# ---------------------------------------------------------------------------
# exact free energies


def enumerate_configs(prior: SpinPrior, n_sites: int):
    """All atom configurations in lexicographic order, with log prior masses."""
    n_cfg = prior.n_atoms**n_sites
    if n_cfg > BUDGET:
        raise BudgetError(
            f"{n_cfg} configurations exceed the enumeration budget {BUDGET}; "
            "use a sampling estimator instead"
        )
    idx = np.stack(
        np.meshgrid(*([np.arange(prior.n_atoms)] * n_sites), indexing="ij"),
        axis=-1,
    ).reshape(-1, n_sites)
    configs = prior.points[idx]  # (n_cfg, N, kappa)
    logw = np.log(prior.weights)[idx].sum(axis=1)
    return configs, logw


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    return m + math.log(float(np.sum(np.exp(a - m))))


def _constrained_configs(prior: SpinPrior, n_sites: int, d: np.ndarray, eps: float):
    """Configurations whose self-overlap is within eps of ``d`` in sup norm.

    Returns (configs, log prior masses, hit fraction), the last the share of
    the prior mass the constraint keeps; raises ValidationError unless ``d``
    is kappa x kappa Gram, InfeasibleError when no configuration qualifies.
    """
    d = validate_gram(d, name="constraint matrix D", kappa=prior.kappa)
    configs, logw = enumerate_configs(prior, n_sites)
    overlaps = np.einsum("aik,ail->akl", configs, configs) / n_sites
    mask = np.max(np.abs(overlaps - d), axis=(1, 2)) < eps
    if not np.any(mask):
        raise InfeasibleError(
            f"no configuration of {n_sites} sites has self-overlap within "
            f"{eps:g} of the target; the constraint set is empty"
        )
    hit = math.exp(_logsumexp(logw[mask]) - _logsumexp(logw))
    return configs[mask], logw[mask], hit


@dataclass(frozen=True)
class FreeEnergyResult:
    value: float
    std_error: float
    per_draw: np.ndarray
    hit_fraction: float = 1.0

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_disorder": int(self.per_draw.size),
            "hit_fraction": self.hit_fraction,
        }


def _free_energy(model: MixedModel, configs: np.ndarray, logw: np.ndarray,
                 n_disorder: int, seed: int, threads: int, hit: float) -> FreeEnergyResult:
    """Disorder average of (1/N) log sum_configs w(sigma) exp H(sigma)."""
    check_replications(n_disorder)
    n_sites = configs.shape[1]

    def one(draw: int) -> float:
        dis = sample_disorder(model, n_sites, spawn_rng(seed, draw).integers(2**63))
        h = hamiltonian_batch(model, configs, dis)
        return _logsumexp(logw + h) / n_sites

    per_draw = np.array(parallel_map(one, n_disorder, threads))
    value, se = mean_and_se(per_draw)
    return FreeEnergyResult(value, se, per_draw, hit)


def exact_free_energy(model: MixedModel, prior: SpinPrior, n_sites: int,
                      n_disorder: int, seed: int, threads: int = 1) -> FreeEnergyResult:
    """(1/N) E log sum_configs w(sigma) exp H(sigma), exact per draw."""
    configs, logw = enumerate_configs(prior, n_sites)
    return _free_energy(model, configs, logw, n_disorder, seed, threads, 1.0)


def constrained_free_energy(model: MixedModel, prior: SpinPrior, n_sites: int,
                            d, eps: float, n_disorder: int, seed: int,
                            threads: int = 1) -> FreeEnergyResult:
    """Free energy restricted to self-overlaps within eps of ``d`` in sup norm.

    ``hit_fraction`` is the prior mass the constraint retains.
    """
    configs, logw, hit = _constrained_configs(prior, n_sites, d, eps)
    return _free_energy(model, configs, logw, n_disorder, seed, threads, hit)


# ---------------------------------------------------------------------------
# the perturbation family


@dataclass(frozen=True)
class PerturbationTerm:
    """One interaction pattern: degree p, repetition counts, direction vectors.

    ``lambdas`` is (m, kappa) with entries in [-1, 1]; ``ns`` gives how many
    index blocks each direction receives.  ``p`` and ``ns`` are stored as
    ints; a number that ``int`` would change raises ValidationError.
    """

    p: int
    ns: tuple[int, ...]
    lambdas: np.ndarray

    def __post_init__(self):
        p = as_int(self.p)
        if p < 1:
            raise ValidationError("perturbation degree p must be >= 1")
        ns = tuple(as_int(n) for n in self.ns)
        if len(ns) < 1 or any(n < 1 for n in ns):
            raise ValidationError("repetition counts must be positive")
        lam = np.atleast_2d(np.asarray(self.lambdas, dtype=float))
        if lam.shape[0] != len(ns):
            raise ValidationError("one direction vector per repetition count")
        if np.any(np.abs(lam) > 1.0):
            raise ValidationError("direction entries must lie in [-1, 1]")
        lam = lam.copy()
        lam.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "lambdas", lam)

    @property
    def m(self) -> int:
        return len(self.ns)

    @property
    def total_n(self) -> int:
        return sum(self.ns)

    def covariance(self, overlap_matrix):
        """prod_j (overlap^{hadamard p} lambda_j, lambda_j)^{n_j}: a float for
        one kappa x kappa overlap, an array over the leading axes of a stack
        (..., kappa, kappa)."""
        rp = np.asarray(overlap_matrix, dtype=float) ** self.p
        out = 1.0
        for n_j, lam in zip(self.ns, self.lambdas):
            out = out * np.einsum("...kl,k,l->...", rp, lam, lam) ** n_j
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class PerturbationSpec:
    """Finite family of terms with fixed mixing scalars u in [1, 2].

    ``strength_exponent`` sets s_N = N^exponent; the spectral weights
    2^{-j(theta)} b_p^{-sum n} keep the conditional variance below one.
    The direction-vector injection behind j(theta) enumerates distinct
    vectors in order of first appearance.
    """

    terms: tuple[PerturbationTerm, ...] = ()
    u: tuple[float, ...] = ()
    strength_exponent: float = 0.45

    def __post_init__(self):
        terms = tuple(self.terms)
        u = tuple(float(v) for v in self.u)
        if len(u) != len(terms):
            raise ValidationError("one u scalar per term required")
        if any(not (1.0 <= v <= 2.0) for v in u):
            raise ValidationError("u scalars must lie in [1, 2]")
        if not (0.25 < self.strength_exponent < 0.5):
            raise ValidationError("strength exponent must lie in (1/4, 1/2)")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "u", u)

    def _lambda_injection(self) -> dict[bytes, int]:
        seen: dict[bytes, int] = {}
        for term in self.terms:
            for lam in term.lambdas:
                key = lam.tobytes()
                if key not in seen:
                    seen[key] = len(seen) + 1
        return seen

    def term_weight(self, index: int, support_bound: float) -> float:
        """2^{-j(theta)} b_p^{-sum n} u_theta for the term at ``index``."""
        if support_bound <= 0:
            raise ValidationError("the prior support bound must be positive")
        term = self.terms[index]
        inj = self._lambda_injection()
        j = term.p + term.total_n + 22 * term.m
        j += sum(inj[lam.tobytes()] for lam in term.lambdas)
        b_p = term.lambdas.shape[1] * support_bound**term.p
        return 2.0**-j * b_p**-term.total_n * self.u[index]

    def strength(self, n_sites: int) -> float:
        return float(n_sites) ** self.strength_exponent


def sample_perturbation_disorder(term: PerturbationTerm, n_sites: int,
                                 seed: int) -> np.ndarray:
    """Gaussian tensor over the combined index blocks of one term."""
    size = n_sites ** (term.p * term.total_n)
    if size > BUDGET:
        raise BudgetError(
            f"perturbation tensor needs {size} entries, over budget {BUDGET}"
        )
    return spawn_rng(seed).standard_normal(size)


def perturbation_h_theta(term: PerturbationTerm, config,
                         disorder_theta: np.ndarray) -> float:
    """Exact contraction of one perturbation term with its couplings."""
    config = _as_config(config)
    expected = config.shape[0] ** (term.p * term.total_n)
    if disorder_theta.size != expected:
        raise ValidationError(
            f"disorder tensor has {disorder_theta.size} entries, expected {expected}"
        )
    return float(_perturbation_coefficients(term, config) @ disorder_theta)


def _perturbation_field(spec: PerturbationSpec, prior: SpinPrior, configs: np.ndarray):
    """The family's field over a batch of (N, kappa) configurations, as a
    function of the per-term couplings.

    Term i's weight w_i and its (n_cfg, N^(p sum n)) coefficient matrix K_i
    are built once here; each call is then sum_i w_i (K_i @ g_i).  Raises
    BudgetError before building a matrix of more than BUDGET entries.
    """
    n_cfg, n_sites = configs.shape[:2]
    c = prior.support_bound
    weighted = []
    for i, term in enumerate(spec.terms):
        size = n_cfg * n_sites ** (term.p * term.total_n)
        if size > BUDGET:
            raise BudgetError(
                f"perturbation coefficients need {size} entries, over budget {BUDGET}"
            )
        k = np.stack([_perturbation_coefficients(term, config) for config in configs])
        weighted.append((spec.term_weight(i, c), k))

    def field(disorders: list[np.ndarray]) -> np.ndarray:
        if len(disorders) != len(spec.terms):
            raise ValidationError("one disorder tensor per term required")
        total = np.zeros(n_cfg)
        for (w, k), g in zip(weighted, disorders):
            if g.size != k.shape[1]:
                raise ValidationError(
                    f"disorder tensor has {g.size} entries, expected {k.shape[1]}"
                )
            total += w * (k @ g)
        return total

    return field


def perturbation_h(spec: PerturbationSpec, prior: SpinPrior, config,
                   disorders: list[np.ndarray]) -> float:
    """Weighted sum of the family's terms; zero for an empty family."""
    config = _as_config(config)
    return float(_perturbation_field(spec, prior, config[None])(disorders)[0])


def perturbation_variance_check(spec: PerturbationSpec, prior: SpinPrior,
                                config, n_draws: int, seed: int) -> tuple[float, float]:
    """Empirical Var h(sigma) over disorder; raises if it exceeds 1 + 3 s.e.

    A sample variance needs at least two draws; fewer raise ValidationError.
    """
    check_replications(n_draws)
    if n_draws < 2:
        raise ValidationError(f"the variance check needs at least two draws, got {n_draws}")
    config = _as_config(config)
    n = config.shape[0]
    vals = np.empty(n_draws)
    for draw in range(n_draws):
        ds = [
            sample_perturbation_disorder(t, n, int(spawn_rng(seed, draw, i).integers(2**63)))
            for i, t in enumerate(spec.terms)
        ]
        vals[draw] = perturbation_h(spec, prior, config, ds)
    var = float(vals.var(ddof=1))
    se = var * math.sqrt(2.0 / (n_draws - 1))
    if var > 1.0 + 3.0 * se:
        raise ValidationError(
            f"perturbation variance {var:.3g} exceeds 1 + 3 s.e. = {1 + 3 * se:.3g}"
        )
    return var, se


# ---------------------------------------------------------------------------
# identity discrepancy for the perturbed constrained Gibbs measure


@dataclass(frozen=True)
class GGResult:
    delta: float
    std_error: float
    components: dict


def _modified_configs(configs: np.ndarray, d: np.ndarray, eps: float) -> np.ndarray:
    """Apply the overlap-fixing modifier to every configuration.

    The modifier depends on a configuration only through its self-overlap,
    so equal overlaps share one matrix.
    """
    out = np.empty_like(configs)
    cache: dict[bytes, np.ndarray] = {}
    n = configs.shape[1]
    for i in range(configs.shape[0]):
        r = self_overlap(configs[i])
        key = r.tobytes()
        a = cache.get(key)
        if a is None:
            a = build_modifier(r, d, eps).a
            cache[key] = a
        out[i] = configs[i] @ a.T
    return out


def _pair_marginals(f_vals: np.ndarray, probs: np.ndarray) -> list[np.ndarray]:
    """The (1, l) marginals of f_vals * p x ... x p for l = 2..n, in that order.

    The weighted tuple tensor is never formed.  The replicas after l are
    contracted from the last axis in, each step reusing the one before; those
    between 1 and l meet one flattened weight p x ... x p; the marginal then
    takes replica 1's and replica l's weights.  ``f_vals`` must be C-contiguous
    so that every reshape here is a view.
    """
    n_cfg, n = probs.size, f_vals.ndim
    between = [np.ones(1)]
    for _ in range(n - 2):
        between.append(np.multiply.outer(between[-1], probs).ravel())
    pair = np.multiply.outer(probs, probs)
    marginals = []
    g = f_vals
    for ell in range(n - 1, 0, -1):
        marginals.append(pair * (between[ell - 1] @ g.reshape(n_cfg, -1, n_cfg)))
        if ell > 1:
            g = g @ probs
    return marginals[::-1]


def gg_discrepancy(model: MixedModel, prior: SpinPrior, spec: PerturbationSpec,
                   n_sites: int, d, eps: float, n_replicas: int, f,
                   term: PerturbationTerm, n_disorder: int, seed: int,
                   threads: int = 1) -> GGResult:
    """Discrepancy of the replica identity for one covariance pattern.

    Replicas come from the Gibbs measure with Hamiltonian
    H + s_N h(modified sigma) restricted to self-overlaps within eps of
    ``d``; averages over replicas are exact enumerations per disorder draw,
    and only the disorder (and nothing else) is sampled.  ``f`` must be a
    vectorized functional of the (n, n, kappa, kappa) modified-overlap
    array.  It is applied to slabs of the tuple grid, one run of first-replica
    configurations at a time, so it must act tuple by tuple.  Estimates

        | E<f C_{1,n+1}> - (1/n) E<f> E<C_{1,2}>
          - (1/n) sum_{l=2..n} E<f C_{1,l}> |

    with a delta-method standard error across draws.
    """
    if n_replicas < 2:
        raise ValidationError("the identity needs n >= 2 replicas")
    check_replications(n_disorder)
    configs, logw, _ = _constrained_configs(prior, n_sites, d, eps)
    n_cfg, _, kappa = configs.shape
    rest, width = n_cfg ** (n_replicas - 1), (n_replicas * kappa) ** 2
    run = max(1, BLOCK_ENTRIES // (rest * width))
    if n_cfg * rest + min(n_cfg, run) * rest * width > BUDGET:  # f_vals and one slab
        raise BudgetError(
            f"the values and overlaps of {n_cfg}^{n_replicas} replica tuples exceed the "
            "budget; reduce n_sites or n_replicas"
        )
    modified = _modified_configs(configs, d, eps)
    field = _perturbation_field(spec, prior, modified)
    pair_overlap = np.einsum("aik,bil->abkl", modified, modified) / n_sites
    c_matrix = term.covariance(pair_overlap)

    # f evaluated once (draw independent) into the contiguous f_vals, one slab
    # of first-replica configurations at a time: the whole grid is never built
    shape = (n_cfg,) * n_replicas
    f_vals = np.empty(shape)
    grid = np.indices(shape, sparse=True)
    for start in range(0, n_cfg, run):
        part = f_vals[start:start + run]
        slab = [grid[0][start:start + run], *grid[1:]]
        rn = np.empty(part.shape + (n_replicas, n_replicas) + pair_overlap.shape[2:])
        for i, gi in enumerate(slab):
            for j, gj in enumerate(slab):
                rn[..., i, j, :, :] = pair_overlap[gi, gj]
        out = np.asarray(f(rn), dtype=float)
        if out.shape != part.shape:
            raise ValidationError(
                f"functional must map the tuple grid to shape {shape}, tuple by tuple; "
                f"a slab of shape {part.shape} gave {out.shape}")
        part[...] = out

    s_n = spec.strength(n_sites)

    def one(draw: int) -> list[float]:
        """(E<f C_{1,n+1}>, E<f>, E<C_{1,2}>, E<f C_{1,l}> for l = 2..n) of one draw."""
        dis = sample_disorder(model, n_sites, int(spawn_rng(seed, draw, 0).integers(2**63)))
        ds = [
            sample_perturbation_disorder(
                t, n_sites, int(spawn_rng(seed, draw, 1 + i).integers(2**63))
            )
            for i, t in enumerate(spec.terms)
        ]
        h = hamiltonian_batch(model, configs, dis) + s_n * field(ds)
        logits = logw + h
        probs = np.exp(logits - _logsumexp(logits))
        marginals = _pair_marginals(f_vals, probs)
        # E<f> is the sum of the (1, 2) marginal; summing it over replica 2
        # leaves replica 1's, which meets the fresh replica n + 1 through C @ probs
        cbar = c_matrix @ probs
        t3 = [float(np.sum(m * c_matrix)) for m in marginals]
        return [float(marginals[0].sum(axis=1) @ cbar), float(marginals[0].sum()),
                float(probs @ c_matrix @ probs), *t3]

    rows = np.array(parallel_map(one, n_disorder, threads))  # (draws, n + 2)
    t1, af, bc, *t3 = rows.mean(axis=0)
    n_inv = 1.0 / n_replicas
    delta = abs(float(t1 - n_inv * af * bc - n_inv * sum(t3)))
    # delta method: the sample variance of the linearised rows is grad.Cov.grad
    grad = np.array([1.0, -n_inv * bc, -n_inv * af] + [-n_inv] * len(t3))
    se = mean_and_se(rows @ grad)[1]
    components = {
        "t1": float(t1),
        "f_mean": float(af),
        "c_mean": float(bc),
        "t3": [float(v) for v in t3],
        "n_configs": int(n_cfg),
        "strength": s_n,
    }
    return GGResult(delta, se, components)

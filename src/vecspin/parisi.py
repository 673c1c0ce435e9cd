"""Discrete-path free energy functionals and the sup-inf optimizer.

A discrete path with r levels is a pair of sequences

    0 <= x_0 <= ... <= x_{r-1} <= x_r = 1,
    0 = gamma_0 <= gamma_1 <= ... <= gamma_r = D   (PSD order),

and induces independent Gaussian vectors z_j with covariance
xi'(gamma_j) - xi'(gamma_{j-1}).  The base functional is the recursion

    X_r = log int exp( <sigma, z_1 + ... + z_r> + sum_{k<=k'} lam_{k,k'}
          sigma(k) sigma(k') ) dmu(sigma),
    X_j = (1/x_j) log E_j exp(x_j X_{j+1}),     E_j over z_{j+1},

with X_j = E_j X_{j+1} when x_j = 0, and Phi = X_0.  The full functional
subtracts the Lagrange pairing and a correction built from theta,

    P = Phi - sum_{k<=k'} lam_{k,k'} D_{k,k'}
        - (1/2) sum_{j<r} x_j Sum(theta(gamma_{j+1}) - theta(gamma_j)),

whose theta term can equivalently be written as (1/2) Sum(theta(D)) minus
(1/2) the integral of Sum(theta(pi(x))) over [0,1]; both forms are computed
and must agree.

The recursion depends on a path only through its distinct x values, and
every evaluator reads it through one level plan (``level_plan``): leading
x = 0 levels sum into one "lead" covariance, a plain expectation; interior
levels with equal x merge (covariances add); trailing x = 1 levels sum into
one "trail" covariance C, integrated in closed form, since
E exp(<sigma, z>) = exp(sigma^T C sigma / 2) moves into each atom's weight
(``_quad_bonus``).  The plan also carries the theta sums, their matching
variances and the level factors.  It is built in one pass and is free of
lambda, so the recursion is prepared once per path (``_Prepared``).

Two evaluation backends share one walk.  A level is a pair (offsets,
log-weights).  Quadrature gives every parent one tensor Gauss-Hermite
grid, through a factor of the level's covariance (``_quad_levels``), so
its offsets are one (n, 1, kappa) array, and it is exact.  Monte Carlo
draws n fresh children of weight 1/n per parent when the walk asks
(``_sampled_levels``), so its offsets are a callable, ``offsets(parents)``
of shape (n, parents, kappa), and it reports a standard error across
independent replications.  Levels of zero variance are dropped (there
X_j = X_{j+1}).  Points grow by ``_grow``, node-major: child c of parent p
is point c * parents + p, so the innermost level's child index runs
slowest.  They are scored by one atom-major bottom-layer kernel
(``_bottom``) and collapse by one fold, which reduces each level as the
leading axis of a contiguous (n, rest) view (``_fold``); the cascade
estimator in ``rpc`` shares ``_grow``, ``_sampled_levels`` and ``_scores``.

The innermost quadrature level is not grown: the field enters linearly,
so atom a at child c of parent q scores A[a, q] + B[a, c], B from the
offsets all parents share, and a block's atom sums are one product
S = exp(B)^T exp(A), which the same kernel folds over that level, with no
value per child: a power of S per parent, and one more product for the
lambda gradient (``_bottom_separable``).  Sampled levels give each parent
its own offsets, so Monte Carlo and the cascades have no shared B and grow
every level; so does a quadrature walk whose product could underflow, as
one bound taken from its levels decides (``_shared_nodes``).

Work and memory are bounded as ``EvalSpec`` describes.  Monte Carlo draws
follow the walk (``_Prepared``), the outer levels whole and then each
block's inner levels, each level parent by parent in the node-major order
of its parents; so splitting more than the innermost level over blocks
changes the draws.

Lambda coefficients are stored as a flat vector over the upper triangle in
row-major order: (0,0), (0,1), ..., (0,kappa-1), (1,1), ...
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetError, NumericalError, ValidationError
from .mixing import (
    PSD_TOL,
    MixedModel,
    theta_matrix,
    validate_gram,
    xi_prime_matrix,
)
from .prior import ConstraintHull, SpinPrior, newton_dual
from .rng import check_replications, check_threads, mean_and_se, parallel_map, spawn_rng

#: Below this, an x value is treated as exactly zero (plain expectation branch).
X_TINY = 1e-8

#: Above this, an x value is folded analytically as x = 1.
X_NEAR_ONE = 1.0 - 1e-9

#: Work budget of either backend: grid or tree points times the widest
#: per-point array (atoms, kappa, or lambda slots in the gradient).
MAX_ENTRIES = 1 << 24

#: Entries in one block of the walk; it bounds the memory of both backends:
#: points times that width, or, for a separable quadrature walk, parents
#: times the widest of exp(A)'s atoms, their children's atom sums and their
#: lambda gradients.  A block's arrays then stay in cache at 128 KiB per
#: float array; in sweeps of 2^12..2^18 on grown blocks, 2^14..2^16 ran
#: close and no size was fastest in every round.
BLOCK_ENTRIES = 1 << 14

#: Limit on a walk's bound of the spread (max - min over atoms) of A for one
#: parent plus that of B for one node: below it, each term of the product in
#: ``_bottom_separable`` exceeds the smallest normal float, so none
#: underflows, and the walk is separable (``_shared_nodes``).
SEPARABLE_SPREAD = -math.log(np.finfo(float).tiny)

#: First step of the outer hull ascent in ``optimize``; halved on each
#: rejected step, which stops the ascent below 1e-4.
OUTER_STEP = 0.25


# ---------------------------------------------------------------------------
# lambda coefficient helpers


def lambda_size(kappa: int) -> int:
    return kappa * (kappa + 1) // 2


@functools.lru_cache(maxsize=8)
def lambda_indices(kappa: int):
    """Upper-triangle index pair arrays matching the flat lambda layout (read-only)."""
    iu = np.triu_indices(kappa)
    iu[0].flags.writeable = iu[1].flags.writeable = False
    return iu


def lambda_zero(kappa: int) -> np.ndarray:
    return np.zeros(lambda_size(kappa))


def lambda_validate(lam, kappa: int) -> np.ndarray:
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape != (lambda_size(kappa),):
        raise ValidationError(
            f"lambda must have {lambda_size(kappa)} entries for kappa={kappa}"
        )
    if not np.all(np.isfinite(lam)):
        raise ValidationError("lambda entries must be finite")
    return lam


def lambda_pairing(lam, d) -> float:
    """sum_{k<=k'} lam_{k,k'} d_{k,k'}."""
    return float(np.asarray(lam, dtype=float) @ upper_entries(d))


def lambda_norm1(lam) -> float:
    return float(np.sum(np.abs(lam)))


def upper_entries(d) -> np.ndarray:
    """Upper-triangle entries of a symmetric matrix in the lambda layout."""
    d = np.asarray(d, dtype=float)
    return d[lambda_indices(d.shape[0])]


def _atom_pair_products(prior: SpinPrior) -> np.ndarray:
    """Per-atom products sigma(k) sigma(k') over upper pairs, (n_atoms, C)."""
    iu = lambda_indices(prior.kappa)
    return prior.points[:, iu[0]] * prior.points[:, iu[1]]


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class Path:
    """Discrete monotone path: x holds (x_0..x_{r-1}), gammas (gamma_1..gamma_r).

    gamma_0 = 0 and x_r = 1 are implicit.  The x values must be
    non-decreasing in [0, 1]; every gamma increment must be PSD within
    ``PSD_TOL``.  The endpoint D is ``gammas[-1]``.
    """

    x: np.ndarray
    gammas: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        if x.size < 1:
            raise ValidationError("a path needs at least one level")
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValidationError("x values must lie in [0, 1]")
        if np.any(np.diff(x) < 0):
            raise ValidationError("x values must be non-decreasing")
        gam = np.asarray(self.gammas, dtype=float)
        if gam.ndim == 2:
            gam = gam[None, :, :]
        if gam.ndim != 3 or gam.shape[0] != x.size or gam.shape[1] != gam.shape[2]:
            raise ValidationError(
                f"gammas must be (r, kappa, kappa) with r={x.size}, got {gam.shape}"
            )
        for j in range(gam.shape[0]):
            validate_gram(gam[j], name=f"gamma_{j + 1}")
            step = gam[j] - (gam[j - 1] if j else 0.0)
            lo = float(np.linalg.eigvalsh((step + step.T) / 2.0)[0])
            if lo < -PSD_TOL:
                raise ValidationError(
                    f"path is not monotone: increment {j + 1} has eigenvalue {lo:.3e}")
        x, gam = x.copy(), gam.copy()
        x.flags.writeable = gam.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "gammas", gam)

    @property
    def r(self) -> int:
        return self.x.size

    @property
    def kappa(self) -> int:
        return self.gammas.shape[1]

    @property
    def endpoint(self) -> np.ndarray:
        return self.gammas[-1]

    def gammas_full(self) -> np.ndarray:
        """(r+1, kappa, kappa) including the implicit gamma_0 = 0."""
        return np.concatenate([np.zeros((1, self.kappa, self.kappa)), self.gammas])

    def value_at(self, t: float) -> np.ndarray:
        """Left-continuous step value pi(t) for t in [0, 1]."""
        if not 0.0 <= t <= 1.0:
            raise ValidationError(f"t must lie in [0, 1], got {t}")
        j = int(np.searchsorted(self.x, t, side="left"))
        return self.gammas_full()[j]

    def to_dict(self) -> dict:
        return {"x": self.x.tolist(), "gammas": self.gammas.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Path":
        return cls(np.asarray(data["x"]), np.asarray(data["gammas"]))


def path_distance(path_a: Path, path_b: Path) -> float:
    """Integral over [0,1] of the entrywise l1 distance between the steps."""
    if path_a.kappa != path_b.kappa:
        raise ValidationError("paths must share the spin dimension")
    bps = np.unique(np.concatenate([[0.0], path_a.x, path_b.x, [1.0]]))
    total = 0.0
    for a, b in zip(bps[:-1], bps[1:]):  # unique, so a < b
        t = 0.5 * (a + b)
        total += (b - a) * float(
            np.sum(np.abs(path_a.value_at(t) - path_b.value_at(t)))
        )
    return total


def _increments(model: MixedModel, path: Path) -> np.ndarray:
    """``increments`` as one array: one xi' pass, one batched eigh."""
    diff = np.diff(xi_prime_matrix(model, path.gammas_full()), axis=0)
    vals, vecs = np.linalg.eigh((diff + diff.swapaxes(1, 2)) / 2.0)
    bad = vals[:, 0] < -PSD_TOL
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValidationError(
            f"covariance increment {j + 1} is not PSD (min eigenvalue {vals[j, 0]:.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals[:, None, :]) @ vecs.swapaxes(1, 2)


def increments(model: MixedModel, path: Path) -> list[np.ndarray]:
    """Covariances xi'(gamma_j) - xi'(gamma_{j-1}) for j = 1..r.

    Eigenvalues in [-PSD_TOL, 0) are clipped to zero; anything lower means
    the path is not monotone for this model and raises.
    """
    return list(_increments(model, path))


def _psd_factors(covs) -> list[np.ndarray]:
    """Factors F F^T = cov of a stack of covariances, keeping only
    non-negligible directions; one batched eigh."""
    covs = np.asarray(covs, dtype=float)
    vals, vecs = np.linalg.eigh((covs + covs.swapaxes(1, 2)) / 2.0)
    cuts = 1e-12 * np.maximum(vals[:, -1], 1.0)
    return [v[:, keep] * np.sqrt(w[keep])
            for v, w, keep in zip(vecs, vals, vals > cuts[:, None])]


def theta_sums(model: MixedModel, path: Path) -> np.ndarray:
    """Sum(theta(gamma_j)) for j = 0..r, including gamma_0 = 0."""
    return theta_matrix(model, path.gammas_full()).sum(axis=(1, 2))


def theta_increments(model: MixedModel, path: Path) -> np.ndarray:
    """Variance increments Sum(theta(gamma_j)) - Sum(theta(gamma_{j-1}))."""
    return _theta_steps(theta_sums(model, path))


def _theta_steps(sums: np.ndarray) -> np.ndarray:
    diffs = np.diff(sums)
    if np.any(diffs < -1e-10):
        raise ValidationError("theta sums decrease along the path")
    return np.clip(diffs, 0.0, None)


@dataclass(frozen=True)
class LevelPlan:
    """Summed x = 0 (``lead``) and x = 1 (``trail``) covariances, merged
    interior levels ``x`` and ``covs``, their theta-sum variances ``y_*``,
    the path's ``theta_sums`` and the lead and interior ``factors``."""

    lead: np.ndarray
    x: np.ndarray
    covs: list
    trail: np.ndarray
    y_lead: float
    y: np.ndarray
    y_trail: float
    theta: np.ndarray
    factors: list


def level_plan(model: MixedModel, path: Path) -> LevelPlan:
    """Collapse the levels of ``path`` as the module docstring describes, in
    one pass: xi' and theta over the stacked gammas, one batched eigh for the
    increments and one for the factors.  Free of lambda: built once per path.
    """
    covs = _increments(model, path)
    theta = theta_sums(model, path)
    yv = _theta_steps(theta)
    lead, trail = np.zeros((2, path.kappa, path.kappa))
    y_lead = y_trail = 0.0
    xs, zs, ys = [], [], []
    for xj, cz, cy in zip(path.x, covs, yv):
        if xj < X_TINY:
            lead += cz
            y_lead += cy
        elif xj > X_NEAR_ONE:
            trail += cz
            y_trail += cy
        elif xs and abs(xs[-1] - xj) < 1e-12:
            zs[-1] = zs[-1] + cz
            ys[-1] = ys[-1] + cy
        else:
            xs.append(float(xj))
            zs.append(cz)
            ys.append(cy)
    return LevelPlan(lead, np.array(xs), zs, trail, y_lead, np.array(ys), y_trail,
                     theta, _psd_factors([lead, *zs]))


def _quad_bonus(prior: SpinPrior, cov: np.ndarray) -> np.ndarray | None:
    """Per-atom bonus (1/2) sigma^T cov sigma from analytically folded levels."""
    if not np.any(cov):
        return None
    return 0.5 * np.einsum("ak,kl,al->a", prior.points, cov, prior.points)


def _prior_plan(model, prior, path):
    """(level plan, x = 1 bonus) of ``path`` for the atoms of ``prior``."""
    if prior.kappa != path.kappa:
        raise ValidationError("prior and path disagree on kappa")
    plan = level_plan(model, path)
    return plan, _quad_bonus(prior, plan.trail)


def _check_budget(points: int, width: int, what: str) -> None:
    if points * width > MAX_ENTRIES:
        raise BudgetError(
            f"{what} of {points} points x {width} entries exceeds the budget of "
            f"{MAX_ENTRIES} entries; reduce nodes, samples, levels or atoms"
        )


# ---------------------------------------------------------------------------
# evaluation specs


@dataclass(frozen=True)
class EvalSpec:
    """How to evaluate the Gaussian recursion.

    quadrature: tensorized Gauss-Hermite with ``nodes_per_level`` nodes per
    scalar dimension of each plan level; exact, std_error 0.  monte_carlo:
    ``samples_per_level`` child draws per node, ``replications`` independent
    trees for the standard error.  Either is refused beyond ``MAX_ENTRIES``,
    a bound on work; the memory of either is a few arrays of one block,
    ``BLOCK_ENTRIES`` entries each, plus the walk's outer points with their
    values and lambda gradients.  A block that grows every level (Monte
    Carlo, or a quadrature walk that is not separable) holds at least one
    innermost level; a separable quadrature walk folds that level per
    parent, and holds its exp(B), n_atoms times its nodes.
    """

    backend: str = "quadrature"
    nodes_per_level: int = 16
    samples_per_level: int = 512
    replications: int = 8
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.backend not in ("quadrature", "monte_carlo"):
            raise ValidationError(f"unknown backend {self.backend!r}")
        if self.nodes_per_level < 1 or self.samples_per_level < 1:
            raise ValidationError("node and sample counts must be positive")
        check_replications(self.replications)
        check_threads(self.threads)
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    @property
    def is_quadrature(self) -> bool:
        return self.backend == "quadrature"


@dataclass(frozen=True)
class OptimizerSpec:
    """Budgets for the Legendre transform and the sup-inf."""

    max_iter: int = 500
    multistarts: int = 8
    alternations: int = 6
    path_steps: int = 60
    outer_iters: int = 25
    seed: int = 0

    def __post_init__(self):
        for name, low in (("max_iter", 0), ("multistarts", 1), ("alternations", 0),
                          ("path_steps", 1), ("outer_iters", 0)):
            if getattr(self, name) < low:
                raise ValidationError(
                    f"optimize.{name} must be >= {low}, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# inner integral: the bottom layer


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log sum exp along ``axis``, with a max shift so large entries are safe."""
    m = a.max(axis=axis, keepdims=True)
    e = a - m
    return np.squeeze(m, axis) + np.log(np.exp(e, out=e).sum(axis=axis))


def _field(h, kappa: int, name: str) -> np.ndarray:
    """``h`` as a float array, which must have shape (kappa,) and finite entries."""
    h = np.asarray(h, dtype=float)
    if h.shape != (kappa,):
        raise ValidationError(f"{name} must have shape ({kappa},), got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValidationError(f"{name} entries must be finite")
    return h


def _atom_base(prior: SpinPrior, lam, external_field=None, quad_bonus=None,
               pair=None) -> np.ndarray:
    """Per-atom constant of the inner integrand, (n_atoms,): the lambda term
    (``pair``, the atom pair products, if given), the log weight, the x = 1
    bonus and the external field term <sigma, h>; the field h must have
    shape (kappa,) and finite entries."""
    pair = _atom_pair_products(prior) if pair is None else pair
    base = pair @ lambda_validate(lam, prior.kappa)
    base = base + prior.log_weights()
    if quad_bonus is not None:
        base = base + quad_bonus
    if external_field is not None:
        base = base + prior.points @ _field(external_field, prior.kappa, "external_field")
    return base


def _scores(points: np.ndarray, z: np.ndarray) -> np.ndarray:
    """<sigma, z> for every atom and field value z (P, kappa), (n_atoms, P)."""
    # a kappa = 1 field only scales: BLAS is slow at inner dimension 1
    return points * z[:, 0] if z.shape[1] == 1 else points @ z.T


def _bottom(points: np.ndarray, base: np.ndarray, z: np.ndarray, pair=None):
    """The bottom layer over field values z (P, kappa), atom-major.

    Scores <sigma, z> + base form an (n_atoms, P) array that is reduced
    along axis 0 into the per-point log of the weighted atom sum.  With
    ``pair`` (n_atoms, C) it also returns the per-point Gibbs averages of
    the pair products, (P, C), the bottom of the lambda gradient; else None.
    It scores grown points: Monte Carlo trees, ``eval_inner``'s field, and
    quadrature walks that are not separable.
    """
    # in place: with fewer (n_atoms, P) temporaries, a block's freed memory stays
    # under the allocator's trim threshold, and the next block reuses it
    scores = _scores(points, z)
    scores += base[:, None]
    values = _logsumexp(scores, axis=0)
    if pair is None:
        return values, None
    scores -= values
    return values, np.exp(scores, out=scores).T @ pair


def _shared_nodes(points: np.ndarray, levels):
    """((exp(B - m_B), m_B), spread) of the quadrature ``levels``: B =
    <sigma, o_c> (n_atoms, n) at the innermost level's offsets o_c, which
    every parent shares, and m_B its column maxima.  A parent's A = base +
    <sigma, z> sums one offset per outer level, so its spread over atoms plus
    B's is at most spread(base) plus ``spread``: per level, the largest spread
    of <sigma, o_c> over its nodes.  The walk is separable while that bound
    is below ``SEPARABLE_SPREAD``; only spread(base) depends on lambda."""
    scores = [_scores(points, offs[:, 0]) for offs, _ in levels]
    highs = [s.max(axis=0) for s in scores]
    spread = sum(float(np.max(h - s.min(axis=0))) for h, s in zip(highs, scores))
    return (np.exp(scores[-1] - highs[-1]), highs[-1]), spread


def _bottom_separable(points: np.ndarray, base: np.ndarray, z: np.ndarray, nodes,
                      lw: np.ndarray, x: float, pair=None):
    """The bottom layer over the children of parents z (Q, kappa) at shared
    offsets o_c, folded over them with log-weights ``lw`` at ``x``, without
    growing them; ``nodes`` is ``_shared_nodes(...)[0]``.

    Child c of parent q scores A[a, q] + B[a, c], with A = <sigma, z> + base
    (n_atoms, Q).  Shifted by column maxima, the atom sums are one product
    S = exp(B)^T exp(A), and child c's value is log S + m_B + m_A.  With
    k = x m_B + lw, top = max k and u = exp(k - top), a parent's value is
    m_A + (top + log(u @ S^x)) / x, or w @ (log S + m_B + m_A) below
    ``X_TINY`` (w = exp(lw)), (Q,).  With ``pair`` (n_atoms, C) it also
    returns the lambda gradient, (Q, C), as one product (exp(A) * (exp(B) @
    W))^T pair with W = u S^x / (u @ S^x) / S, or w / S below ``X_TINY``.

    Nothing underflows to zero or overflows: the walk calls it only when
    ``_shared_nodes``' bound finds it separable, so every term of S, and so
    S, exceeds the smallest normal float; u <= 1, S^x <= n_atoms, and the
    top child (u = 1) has S^x >= min(S, 1), so u @ S^x is at least that
    float, and W at most 1 / S.
    """
    eb, m_b = nodes
    a = _scores(points, z)
    a += base[:, None]
    m_a = a.max(axis=0)
    a -= m_a
    ea = np.exp(a, out=a)
    sums = eb.T @ ea
    logs = np.log(sums)
    if x < X_TINY:
        # child values first: near 0, w @ log S and w @ m_B cancel m_A
        w = np.exp(lw)
        values = w @ (logs + m_b[:, None] + m_a)
        weights = w[:, None]
    else:
        k = x * m_b + lw
        top = k.max()
        u = np.exp(k - top)
        logs *= x
        weights = np.exp(logs, out=logs)
        total = u @ weights
        values = m_a + (top + np.log(total)) / x
        if pair is not None:
            weights *= u[:, None] / total
    if pair is None:
        return values, None
    return values, (ea * (eb @ (weights / sums))).T @ pair


def eval_inner(prior: SpinPrior, lam, z_sum, external_field=None) -> float:
    """log of the weighted atom sum of exp(<sigma, z> + quadratic lambda term).

    Computed with a max shift, so large fields are safe.  ``z_sum``, like
    ``external_field``, must have shape (kappa,) and finite entries.
    """
    z = _field(z_sum, prior.kappa, "z_sum")[None, :]
    return float(_bottom(prior.points, _atom_base(prior, lam, external_field), z)[0][0])


# ---------------------------------------------------------------------------
# the recursion, shared fold


def _fold(values, level_logw, x_seq, grads=None):
    """Collapse the innermost levels of a grid, innermost first.

    ``values`` has one entry per grid point, laid out node-major (the
    innermost level's child index slowest, as ``_grow`` lays it out), and
    ``level_logw`` / ``x_seq`` describe its innermost levels; the index of
    the points outside them runs fastest and stays.  So each level is the
    leading axis of a contiguous (n, rest) view, and the fold reduces it.
    Level i is folded with x_seq[i]; the x = 0 branch is a plain weighted
    mean.  Gradients ``grads`` (points, C), if given, fold with the
    normalized exp(x X) reweighting of the same levels.  Returns (values,
    grads) over the remaining outer points.
    """
    v = values
    g = grads
    for lw, x in zip(reversed(level_logw), reversed(x_seq)):
        n = lw.size
        v = v.reshape(n, -1)
        if g is not None:
            g = g.reshape(n, v.shape[1], -1)
        if x < X_TINY:
            w = np.exp(lw)
            if g is not None:
                g = np.tensordot(w, g, 1)
            v = w @ v
        else:
            a = x * v + lw[:, None]
            ls = _logsumexp(a, axis=0)
            if g is not None:
                a -= ls
                g = np.einsum("nr,nrc->rc", np.exp(a, out=a), g)
            v = ls / x
    return v, g


@functools.lru_cache(maxsize=32)
def _gh_nodes(n: int):
    """Nodes and weights for expectations against a standard normal (read-only)."""
    z, w = np.polynomial.hermite.hermgauss(n)
    z = z * math.sqrt(2.0)
    w = w / math.sqrt(math.pi)
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


@functools.lru_cache(maxsize=32)
def _gh_grid(n: int, d: int):
    """Nodes (n^d, d) and log-weights of the tensor grid in d dimensions."""
    z1, w1 = _gh_nodes(n)
    pts = np.stack([g.ravel() for g in np.meshgrid(*[z1] * d, indexing="ij")], axis=1)
    lw = np.sum([g.ravel() for g in np.meshgrid(*[np.log(w1)] * d, indexing="ij")], axis=0)
    pts.flags.writeable = lw.flags.writeable = False
    return pts, lw


def _quad_levels(factors, n_nodes):
    """Per level: (offsets, log-weights) of one tensor Gauss-Hermite grid
    that every parent shares, so ``offsets`` is one (n, 1, kappa) array."""
    levels = []
    for f in factors:
        pts, lw = _gh_grid(n_nodes, f.shape[1])
        levels.append(((pts @ f.T)[:, None, :], lw))
    return levels


def _sampled_levels(factors, n, rng):
    """Per level: (offsets, log-weights) of n fresh children per parent, each
    of weight 1/n; ``offsets(parents)`` draws them from ``rng`` when called,
    parent-major as (parents, n, d), and returns a child-major view, (n,
    parents, kappa)."""
    logw = np.full(n, -math.log(n))

    def offsets(parents, f):
        u = rng.standard_normal((parents, n, f.shape[1]))
        # a rank-1 factor only scales: BLAS is slow at inner dimension 1
        return (u * f[:, 0] if f.shape[1] == 1 else u @ f.T).swapaxes(0, 1)

    return [(functools.partial(offsets, f=f), logw) for f in factors]


def _grow(z, offsets):
    """Every point of z plus each offset of its children, node-major: point
    c * len(z) + p is child c of parent p, (n * len(z), kappa).  ``offsets``
    is a level's: an array of shape (n, 1, kappa) that every parent shares,
    or (n, parents, kappa) with offsets per parent (``rpc.sample_cascade``'s
    log-weights), or a callable that draws (n, parents, kappa)."""
    offs = offsets(z.shape[0]) if callable(offsets) else offsets
    # C order: sampled offsets are a transposed view, and reshaping a
    # transposed sum would copy it far more slowly
    return np.add(offs, z, order="C").reshape(-1, z.shape[1])


class _Prepared:
    """The recursion on one path and spec, prepared once for any lambda and
    external field: the level plan, the x = 1 bonus, the levels with
    variance and, for quadrature, their Gauss-Hermite levels and
    ``_shared_nodes``.  The budget is checked before any level is built, and
    per call at its width.  Monte Carlo draws its trees per call from
    ``spec.seed`` and averages their values and gradients.

    A walk's grown levels (all of them, or all but the innermost when
    separable) split into an outer prefix and the longest inner suffix whose
    entries fit one block: points x width, or parents x the widest
    per-parent array when separable.  A block is a run of prefix points with
    their whole suffix subtrees: it is grown, scored, reduced over atoms and
    folded over the suffix levels (when separable, the innermost with the
    scores); the prefix levels fold last.
    """

    def __init__(self, model, prior, path, spec: EvalSpec):
        self.plan, self.bonus = _prior_plan(model, prior, path)
        self.prior, self.spec = prior, spec
        keep = [j for j, f in enumerate(self.plan.factors) if f.shape[1]]
        self.x_seq = np.append(0.0, self.plan.x)[keep]
        self.factors = [self.plan.factors[j] for j in keep]
        self.points = (spec.nodes_per_level ** sum(f.shape[1] for f in self.factors)
                       if spec.is_quadrature else spec.samples_per_level ** len(self.factors))
        self.what = "quadrature grid" if spec.is_quadrature else "sampling tree"
        _check_budget(self.points, max(prior.n_atoms, prior.kappa), self.what)
        self.pair = _atom_pair_products(prior)
        if spec.is_quadrature:
            self.levels = _quad_levels(self.factors, spec.nodes_per_level)
            self.nodes, self.spread = (_shared_nodes(prior.points, self.levels)
                                       if self.levels else (None, 0.0))

    def value(self, lam, external_field=None) -> tuple[float, float]:
        """(value, std_error) at ``lam`` and ``external_field``."""
        return self._run(lam, external_field, False)[:2]

    def value_and_grad(self, lam, external_field=None) -> tuple[float, np.ndarray]:
        """(value, lambda gradient) at ``lam`` and ``external_field``."""
        value, _, grad = self._run(lam, external_field, True)
        return value, grad

    def _run(self, lam, external_field, want_grad):
        kappa = self.prior.kappa
        width = max(self.prior.n_atoms, kappa, lambda_size(kappa) if want_grad else 0)
        _check_budget(self.points, width, self.what)
        base = _atom_base(self.prior, lam, external_field, self.bonus, self.pair)
        spec = self.spec
        if spec.is_quadrature:
            # shared offsets let a separable walk score the innermost level
            # without growing it; sampled offsets differ per parent
            nodes = self.nodes
            if nodes is not None and not np.ptp(base) + self.spread < SEPARABLE_SPREAD:
                nodes = None
            value, grad = self._walk(self.levels, base, nodes, want_grad, width)
            return value, 0.0, grad
        trees = parallel_map(
            lambda rep: self._walk(_sampled_levels(self.factors, spec.samples_per_level,
                                                   spawn_rng(spec.seed, rep)),
                                   base, None, want_grad, width),
            spec.replications, spec.threads)
        value, se = mean_and_se([v for v, _ in trees])
        return value, se, (np.mean([g for _, g in trees], axis=0) if want_grad else None)

    def _walk(self, levels, base, nodes, want_grad, width):
        points, kappa = self.prior.points, self.prior.kappa
        pair = self.pair if want_grad else None
        if nodes is None:
            grown, unit = levels, width
        else:
            # entries per parent: exp(A), its children's atom sums, its gradient
            grown, unit = levels[:-1], max(width, levels[-1][1].size)
        # a grown block holds at least one whole innermost level
        cut, inner = len(grown), 1
        while cut > 0 and (cut == len(levels)
                           or inner * grown[cut - 1][1].size * unit <= BLOCK_ENTRIES):
            cut -= 1
            inner *= grown[cut][1].size
        prefixes = np.zeros((1, kappa))
        for offs, _ in grown[:cut]:
            prefixes = _grow(prefixes, offs)
        logws = [lw for _, lw in levels]
        step = max(1, BLOCK_ENTRIES // (inner * unit))

        vals, grads = [], []
        for start in range(0, prefixes.shape[0], step):
            z = prefixes[start:start + step]
            for offs, _ in grown[cut:]:
                z = _grow(z, offs)
            if nodes is None:
                v, g = _bottom(points, base, z, pair)
            else:
                v, g = _bottom_separable(points, base, z, nodes, logws[-1],
                                         self.x_seq[-1], pair)
            v, g = _fold(v, logws[cut:len(grown)], self.x_seq[cut:len(grown)], g)
            vals.append(v)
            grads.append(g)
        v, g = _fold(np.concatenate(vals), logws[:cut], self.x_seq[:cut],
                     np.concatenate(grads) if want_grad else None)
        return float(v[0]), (g[0] if want_grad else None)


def eval_phi(model: MixedModel, prior: SpinPrior, lam, path: Path,
             spec: EvalSpec, external_field=None) -> tuple[float, float]:
    """Evaluate the recursion; returns (value, std_error).

    Quadrature is exact up to node truncation and reports std_error 0.
    Monte Carlo averages ``spec.replications`` independent sampling trees.
    """
    return _Prepared(model, prior, path, spec).value(lam, external_field)


def eval_phi_smoothed(model, prior, lam, path, spec: EvalSpec,
                      delta: float) -> tuple[float, float]:
    """Recursion value with an independent N(0, delta) blur on each lambda slot.

    The blur multiplies the inner integrand by exp(sum_c lam_c g_c) with
    independent centered Gaussians g_c; its contribution is integrated here
    by one-dimensional Gauss-Hermite per component (quadrature backend
    only), shifting the value by (delta/2) sum_c lam_c^2.
    """
    if not spec.is_quadrature:
        raise ValidationError("the smoothed functional is quadrature-only")
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    lam = lambda_validate(lam, prior.kappa)
    z1, w1 = _gh_nodes(spec.nodes_per_level)
    shift = sum(float(np.log(np.sum(w1 * np.exp(lc * math.sqrt(delta) * z1)))) for lc in lam)
    # the fold commutes with a constant, so the shift is added to its value
    return _Prepared(model, prior, path, spec).value(lam)[0] + shift, 0.0


def phi_grad_lambda(model, prior, lam, path, spec: EvalSpec,
                    external_field=None) -> tuple[float, np.ndarray]:
    """Value and gradient of the recursion in the lambda coefficients.

    Both backends differentiate through the recursion exactly: the bottom
    gradient is the inner Gibbs average of sigma(k) sigma(k'), and each fold
    reweights by the normalized exp(x_j X_{j+1}).  Monte Carlo returns the
    exact gradient of its estimate for the draws of ``spec.seed``, averaged
    over the replications.
    """
    lam = lambda_validate(lam, prior.kappa)
    return _Prepared(model, prior, path, spec).value_and_grad(lam, external_field)


# ---------------------------------------------------------------------------
# the full functional


def _theta_terms(x, sums) -> tuple[float, float]:
    """Both forms of the theta correction of a path with x values ``x`` and
    theta sums ``sums`` (``theta_correction`` and its rearrangement)."""
    fullx = np.concatenate([[0.0], x, [1.0]])
    integral = float(np.sum(np.diff(fullx) * sums))
    return 0.5 * float(np.sum(x * np.diff(sums))), 0.5 * (sums[-1] - integral)


def theta_correction(model: MixedModel, path: Path) -> float:
    """(1/2) sum_j x_j Sum(theta(gamma_{j+1}) - theta(gamma_j))."""
    return _theta_terms(path.x, theta_sums(model, path))[0]


def theta_correction_rearranged(model: MixedModel, path: Path) -> float:
    """Same correction via (1/2)[Sum(theta(D)) - int Sum(theta(pi(x))) dx]."""
    return _theta_terms(path.x, theta_sums(model, path))[1]


@dataclass(frozen=True)
class ParisiResult:
    value: float
    std_error: float
    phi: float
    lagrange_term: float
    theta_term: float
    theta_term_rearranged: float

    def to_dict(self) -> dict:
        return asdict(self)


def eval_parisi(model, prior, lam, d, path: Path, spec: EvalSpec,
                external_field=None) -> ParisiResult:
    """Full functional P = Phi - lambda pairing - theta correction.

    The declared constraint ``d`` must equal the path endpoint.  Both forms
    of the deterministic theta term are computed and must agree to 1e-10.
    """
    if not np.array_equal(d, path.endpoint):
        raise ValidationError("constraint matrix D must equal the path endpoint")
    rec = _Prepared(model, prior, path, spec)
    t_direct, t_re = _theta_terms(path.x, rec.plan.theta)
    if abs(t_direct - t_re) > 1e-10:
        raise NumericalError(
            f"theta-term rearrangement mismatch: {t_direct!r} vs {t_re!r}"
        )
    phi, se = rec.value(lam, external_field)
    pair = lambda_pairing(lam, d)
    return ParisiResult(phi - pair - t_direct, se, phi, pair, t_direct, t_re)


def guerra_bound(model, prior, d, eps: float, lam, path: Path,
                 spec: EvalSpec) -> float:
    """eps * |lambda|_1 + P(lambda, D, path), the interpolation upper bound.

    The constant L*eps slack of the bound is not computable and is left to
    the caller's tolerance.
    """
    if eps < 0:
        raise ValidationError("eps must be >= 0")
    res = eval_parisi(model, prior, lam, d, path, spec)
    return eps * lambda_norm1(lam) + res.value


# ---------------------------------------------------------------------------
# Legendre transform over lambda


@dataclass(frozen=True)
class PhiStarResult:
    value: float
    lam: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float
    stop_reason: str  # "gradient", "iterations", "no_descent" or "unbounded"


def phi_star(model, prior, d, path: Path, spec: EvalSpec,
             opt: OptimizerSpec | None = None, lam0=None) -> PhiStarResult:
    """inf over lambda of -<lambda, D> + Phi(lambda), by damped Newton steps.

    The solve is ``prior.newton_dual``, the routine of ``hull_membership``,
    on the prepared recursion.  ``stop_reason`` is its stop: "gradient",
    "iterations" (``max_iter``), "no_descent" or "unbounded" (D off the
    atoms' hull; inf = -inf).
    """
    opt = opt or OptimizerSpec()
    d = validate_gram(d, name="constraint matrix D", kappa=prior.kappa)
    d_upper = upper_entries(d)
    lam = lambda_zero(prior.kappa) if lam0 is None else lambda_validate(lam0, prior.kappa)
    rec = _Prepared(model, prior, path, spec)

    def value_and_grad(l):
        v, g = rec.value_and_grad(l)
        return v - float(l @ d_upper), g - d_upper

    lam, f, g, it, reason = newton_dual(value_and_grad, rec.pair, lam, opt.max_iter)
    return PhiStarResult(f, lam, reason == "gradient", it, float(np.max(np.abs(g))), reason)


# ---------------------------------------------------------------------------
# sup over the hull, inf over lambda and the path


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    a = -np.sort(-v)
    cums = (np.cumsum(a) - 1.0) / np.arange(1, v.size + 1)
    k = np.nonzero(a > cums)[0][-1]
    return np.maximum(v - cums[k], 0.0)


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _path_from_params(xs_raw, fs, d) -> Path:
    """Monotone path hitting D from free parameters.

    Raw x values are clipped to [0, 1] and sorted; raw increments F_i F_i^T
    are accumulated and the whole ramp is conjugated so the last value is D
    exactly.
    """
    kappa = d.shape[0]
    x = np.sort(np.clip(np.asarray(xs_raw, dtype=float), 0.0, 1.0))
    r = x.size
    cums = []
    g = np.zeros((kappa, kappa))
    for f in fs:
        g = g + f @ f.T
    total = g
    vals, vecs = np.linalg.eigh((total + total.T) / 2.0)
    if float(vals[-1]) <= 1e-12:
        # collapsed ramp: jump straight to the endpoint at the last level
        gammas = np.concatenate(
            [np.zeros((r - 1, kappa, kappa)), d[None, :, :]], axis=0
        )
        return Path(x, gammas)
    floor = 1e-12 * float(vals[-1])
    inv_sqrt = (vecs / np.sqrt(np.clip(vals, floor, None))) @ vecs.T
    m = _sqrt_psd(d) @ inv_sqrt
    g = np.zeros((kappa, kappa))
    gammas = []
    for f in fs:
        g = g + f @ f.T
        gammas.append(m @ g @ m.T)
    gammas[-1] = d
    return Path(x, np.array(gammas))


@dataclass(frozen=True)
class OptimizeResult:
    value: float
    d: np.ndarray
    lam: np.ndarray
    path: Path
    hull_weights: np.ndarray
    converged: bool
    ordering_values: dict
    stop_reason: str | None = None  # why the winning start's outer ascent stopped

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "d": self.d.tolist(),
            "lambda": self.lam.tolist(),
            "path": self.path.to_dict(),
            "hull_weights": self.hull_weights.tolist(),
            "converged": self.converged,
            "ordering_values": self.ordering_values,
            "stop_reason": self.stop_reason,
        }


def _inner_minimize(model, prior, d, r, spec, opt, rng, order: str):
    """inf over (lambda, path in Pi_D), alternating descent in one ordering."""
    kappa = d.shape[0]
    xs = np.sort(rng.uniform(0.2, 0.95, size=r))
    fs = rng.standard_normal((r, kappa, kappa)) * 0.3
    scale = math.sqrt(max(float(np.trace(d)), 1e-3) / max(r, 1))
    fs = fs * scale
    lam = lambda_zero(kappa)

    def unpack(vec):
        return vec[:r], vec[r:].reshape(r, kappa, kappa)

    def path_objective(vec):
        xs_v, fs_v = unpack(vec)
        try:
            path = _path_from_params(xs_v, fs_v, d)
            return eval_parisi(model, prior, lam, path.endpoint, path, spec).value
        except (ValidationError, NumericalError, np.linalg.LinAlgError):
            return np.inf

    def lam_step(path):
        return phi_star(model, prior, d, path, spec, opt, lam0=lam)

    from scipy.optimize import minimize  # deferred: slow to import, only Powell needs it

    vec = np.concatenate([xs, fs.ravel()])
    for round_idx in range(opt.alternations):
        path = _path_from_params(*unpack(vec), d)
        if order == "lambda_first" or round_idx > 0:
            lam = lam_step(path).lam
        res = minimize(
            path_objective,
            vec,
            method="Powell",
            options={"maxfev": opt.path_steps * (vec.size + 1), "xtol": 1e-6,
                     "ftol": 1e-10},
        )
        if np.isfinite(res.fun):
            vec = res.x
    path = _path_from_params(*unpack(vec), d)
    final = lam_step(path)
    value = eval_parisi(model, prior, final.lam, path.endpoint, path, spec).value
    return value, final.lam, path, final.converged


def optimize(model: MixedModel, prior: SpinPrior, r: int, spec: EvalSpec,
             opt: OptimizerSpec | None = None) -> OptimizeResult:
    """sup over the constraint hull of the inf over (lambda, path).

    The outer variable is a weight vector on the hull generators
    (simplex-projected ascent with a finite-difference gradient); the inner
    problem alternates the Newton lambda solve with derivative-free path
    descent, run in both orderings, keeping the smaller value.  Degenerate
    hulls (all generators equal) skip the outer loop.  ``converged`` holds
    when the winning start's ascent stopped on its gradient or step rule
    (or the hull is degenerate) and its final lambda solve converged.
    """
    if r < 1:
        raise ValidationError("level budget r must be >= 1")
    opt = opt or OptimizerSpec()
    hull = ConstraintHull.from_prior(prior)
    n = hull.n_generators
    spread = float(np.max(np.abs(hull.generators - hull.generators[0])))
    degenerate = spread < 1e-14

    def inner(d, start_idx):
        results = {}
        for order in ("lambda_first", "path_first"):
            rng = spawn_rng(opt.seed, start_idx, 0 if order == "lambda_first" else 1)
            results[order] = _inner_minimize(model, prior, d, r, spec, opt, rng, order)
        best_order = min(results, key=lambda k: results[k][0])
        return results[best_order], {k: v[0] for k, v in results.items()}

    def inner_value(w, start_idx):
        return inner(hull.combine(project_simplex(w)), start_idx)[0][0]

    best = None
    n_starts = 1 if degenerate else opt.multistarts
    for start in range(n_starts):
        rng = spawn_rng(opt.seed, 1000 + start)
        w = np.full(n, 1.0 / n) if start == 0 else project_simplex(rng.dirichlet(np.ones(n)))
        if degenerate:
            w = np.full(n, 1.0 / n)
            reason = "degenerate_hull"
        else:
            reason = "outer_iterations"
            step = OUTER_STEP
            value = inner_value(w, start)
            for _ in range(opt.outer_iters):
                grad = np.zeros(n)
                h = 1e-3
                for j in range(n):
                    wp = project_simplex(w + h * np.eye(n)[j])
                    wm = project_simplex(w - h * np.eye(n)[j])
                    denom = float(np.max(np.abs(wp - wm)))
                    if denom == 0.0:
                        continue
                    grad[j] = (inner_value(wp, start) - inner_value(wm, start)) / (2 * h)
                if float(np.max(np.abs(grad))) < 1e-10:
                    reason = "outer_gradient"
                    break
                w_new = project_simplex(w + step * grad)
                v_new = inner_value(w_new, start)
                if v_new > value + 1e-12:
                    w, value = w_new, v_new
                else:
                    step *= 0.5
                    if step < 1e-4:
                        reason = "outer_step"
                        break
        d = hull.combine(w)
        (value, lam, path, lam_ok), orderings = inner(d, start)
        if best is None or value > best[0]:
            best = (value, d, lam, path, w, orderings, reason, lam_ok)
    value, d, lam, path, w, orderings, reason, lam_ok = best
    converged = lam_ok and reason != "outer_iterations"
    return OptimizeResult(value, d, lam, path, w, converged, orderings, reason)

"""Hierarchical random weights and tree-indexed Gaussian fields.

This module is the simulation oracle for the recursion in ``parisi``: the
same quantities are reachable as averages over a random hierarchy of
weights, with no nested integration at all.

The hierarchy is a depth-r tree.  Each node at depth j hands its children
the top arrivals of a Poisson process on (0, inf) with intensity
x_j t^(-1-x_j) dt, 0 < x_j < 1; a leaf's raw weight is the product of
arrivals along its root path, normalized over all kept leaves.  The
arrivals are generated exactly, largest first, by mapping the cumulative
sums of unit exponentials e_1 < e_2 < ... to e_i^(-1/x_j), and the tree is
truncated to a finite fanout (bias shrinks as the fanout grows; report at
fanout and 2*fanout to see it).

Gaussian fields live on the same tree: each node at depth j carries an
independent increment with the level-j covariance, and a leaf value is the
sum along its path, which realizes covariances that depend on two leaves
only through their common-ancestor depth.  They grow by the Monte Carlo
node rule, ``parisi._grow`` over ``parisi._sampled_levels`` with the fanout
as child count; the scalar field's levels have 1 x 1 factors sqrt(y_j).
The log-weights grow by ``_grow`` too, so weights and fields share one
node-major leaf order: the root's child index runs fastest and the deepest
child index slowest (``CascadeTree.leaf_coordinates``).

Boundary x values cannot be simulated directly, so the one estimator,
``_cascade``, reads the level plan of ``parisi.level_plan`` (described in
that module's docstring): the lead (x = 0) field is drawn at the root, the
trail (x = 1) levels enter each atom's base in closed form, the tree has
one depth per merged interior level, and a replication reduces leaves x
atoms in one log-sum-exp.  The Y functional is its one-atom case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .mixing import MixedModel
from .parisi import (
    Path,
    _atom_base,
    _check_budget,
    _grow,
    _logsumexp,
    _prior_plan,
    _psd_factors,
    _sampled_levels,
    _scores,
    increments,
    level_plan,
    theta_correction,
    theta_increments,
)
from .prior import SpinPrior
from .rng import check_replications, mean_and_se, parallel_map, spawn_rng


@dataclass(frozen=True)
class CascadeTree:
    """Truncated weight hierarchy for a strictly interior x sequence.

    Leaves are laid out node-major, as ``parisi._grow`` lays out points:
    leaf c_1 + fanout * (c_2 + fanout * (...)) is child c_r of ... of child
    c_1 of the root, so the deepest child index runs slowest.
    """

    x: np.ndarray
    fanout: int
    log_weights: np.ndarray  # normalized leaf log-weights, length fanout**depth

    @property
    def depth(self) -> int:
        return self.x.size

    @property
    def n_leaves(self) -> int:
        return self.log_weights.size

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def leaf_coordinates(self, leaf: int) -> tuple[int, ...]:
        """Child index at each depth, root first: the base-fanout digits of
        the leaf index, least significant first."""
        if not 0 <= leaf < self.n_leaves:
            raise ValidationError(f"leaf must lie in [0, {self.n_leaves}), got {leaf}")
        digits = []
        for _ in range(self.depth):
            leaf, d = divmod(leaf, self.fanout)
            digits.append(d)
        return tuple(digits)


def ancestor_depth(alpha1, alpha2) -> int:
    """Number of leading coordinates two leaves share; depth r iff equal."""
    a1, a2 = tuple(alpha1), tuple(alpha2)
    if len(a1) != len(a2):
        raise ValidationError("leaf coordinates must have equal length")
    return next((j for j, (c1, c2) in enumerate(zip(a1, a2)) if c1 != c2), len(a1))


def _validate_cascade_x(x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 1:
        raise ValidationError("the cascade needs at least one level")
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValidationError("cascade parameters must lie strictly in (0, 1)")
    if np.any(np.diff(x) <= 0):
        raise ValidationError("cascade parameters must be strictly increasing")
    return x


def _check_fanout(fanout: int) -> None:
    if fanout < 2:
        raise ValidationError(f"fanout must be >= 2, got {fanout}")


def _tree_log_weights(x: np.ndarray, fanout: int, rng) -> np.ndarray:
    """Normalized leaf log-weights of one tree on a validated ``x``, from
    ``rng``; an empty ``x`` gives the one leaf of weight 1 and draws nothing."""
    logw = np.zeros((1, 1))
    for zeta in x:
        arrivals = rng.exponential(size=(logw.shape[0], fanout))
        # in place, as in ``_cascade``: -log(e_1 + ... + e_i) / zeta
        np.cumsum(arrivals, axis=1, out=arrivals)
        np.log(arrivals, out=arrivals)
        arrivals /= -zeta
        # the parents' arrivals are drawn parent-major, and grow node-major
        logw = _grow(logw, arrivals.T[:, :, None])
    logw = logw.reshape(-1)
    logw -= _logsumexp(logw)
    return logw


def sample_cascade(x, fanout: int, seed) -> CascadeTree:
    """Sample the truncated weight tree for parameters ``x``.

    ``seed`` may be an integer or a numpy Generator.  Identical seeds give
    identical trees.
    """
    x = _validate_cascade_x(x)
    _check_fanout(fanout)
    _check_budget(fanout ** x.size, 1, "cascade tree")
    rng = seed if isinstance(seed, np.random.Generator) else spawn_rng(int(seed))
    return CascadeTree(x, int(fanout), _tree_log_weights(x, fanout, rng))


@dataclass(frozen=True)
class TreeGaussianField:
    """Leaf sums of per-node Gaussian increments on a cascade tree.

    ``z`` is (n_leaves, kappa) and ``y`` is (n_leaves,).
    """

    tree: CascadeTree
    z: np.ndarray
    y: np.ndarray


def _scalar_factors(variances) -> list[np.ndarray]:
    """Factors of scalar level variances, as ``parisi._psd_factors`` gives
    them: 1 x 1 sqrt(v), or 1 x 0 for v = 0, which draws nothing."""
    return [np.full((1, int(v > 0)), math.sqrt(v)) for v in variances]


def sample_fields(tree: CascadeTree, model: MixedModel, path: Path,
                  seed) -> TreeGaussianField:
    """Sample the vector and scalar fields whose leaf covariances are
    xi'(gamma) and Sum(theta(gamma)) at the common-ancestor level.

    The tree depth must match the path level count.
    """
    if tree.depth != path.r:
        raise ValidationError("tree depth and path level count differ")
    rng = seed if isinstance(seed, np.random.Generator) else spawn_rng(int(seed))
    z_levels = _sampled_levels(_psd_factors(increments(model, path)), tree.fanout, rng)
    y_levels = _sampled_levels(_scalar_factors(theta_increments(model, path)),
                               tree.fanout, rng)
    z, y = np.zeros((1, path.kappa)), np.zeros((1, 1))
    # at each depth the vector increments are drawn before the scalar ones
    for (z_offs, _), (y_offs, _) in zip(z_levels, y_levels):
        z = _grow(z, z_offs)
        y = _grow(y, y_offs)
    return TreeGaussianField(tree, z, y[:, 0])


# ---------------------------------------------------------------------------
# functional estimators on the level plan


def _cascade(x, factors, points, base, fanout, replications, seed, threads):
    """(mean, std_error) of log sum_{leaf, atom} v_leaf exp(<sigma, z_leaf>
    + base) over replications: the lead factor is drawn at the root, then
    the weight tree on ``x`` (validated once per call, as ``sample_cascade``
    would each tree), then the field on the other ``factors``."""
    x = _validate_cascade_x(x) if len(x) else x
    _check_fanout(fanout)
    check_replications(replications)
    _check_budget(fanout ** len(x), max(points.shape), "cascade tree")
    lead, *core = factors

    def one(rep: int) -> float:
        rng = spawn_rng(seed, rep)
        z = rng.standard_normal((1, lead.shape[1])) @ lead.T
        logw = _tree_log_weights(x, fanout, rng)
        for offs, _ in _sampled_levels(core, fanout, rng):
            z = _grow(z, offs)
        # in place, as in ``parisi._bottom``: with fewer leaves x atoms
        # temporaries, a replication's freed memory stays under the allocator's
        # trim threshold, and the next replication reuses it without page faults
        scores = _scores(points, z)
        del z
        scores += base[:, None]
        scores += logw
        del logw
        top = scores.max()
        scores -= top
        return float(top + np.log(np.exp(scores, out=scores).sum()))

    return mean_and_se(parallel_map(one, replications, threads))


def simulate_phi(model: MixedModel, prior: SpinPrior, lam, path: Path,
                 fanout: int = 128, replications: int = 200, seed: int = 0,
                 threads: int = 1, external_field=None) -> tuple[float, float]:
    """Cascade estimate of the recursion value; returns (value, std_error).

    Each replication samples the weight tree and the vector field, and
    evaluates log sum_leaves v_leaf exp(inner integrand).  Leading x = 0
    levels become a shared field draw; trailing x = 1 levels fold into the
    integrand exactly.  ``fanout`` must be >= 2 whatever the level plan.
    """
    plan, bonus = _prior_plan(model, prior, path)
    base = _atom_base(prior, lam, external_field, bonus)
    return _cascade(plan.x, plan.factors, prior.points, base, fanout, replications,
                    seed, threads)


def y_functional_closed_form(model: MixedModel, path: Path) -> float:
    """(1/2) sum_j x_j Sum(theta(gamma_{j+1}) - theta(gamma_j)), the theta
    term of the full functional, ``parisi.theta_correction``."""
    return theta_correction(model, path)


def simulate_y_functional(model: MixedModel, path: Path, m_sites: int,
                          fanout: int = 128, replications: int = 200,
                          seed: int = 0, threads: int = 1) -> tuple[float, float]:
    """Estimate (1/M) E log sum_leaves v exp(sqrt(M) Y) on the cascade, as
    ``_cascade`` for one atom at sqrt(M) with base M y_trail / 2.

    The closed form is ``y_functional_closed_form``; the identity holds for
    every M on the untruncated tree, so the deviation measures truncation
    bias plus sampling noise.  ``fanout`` must be >= 2 whatever the level
    plan.
    """
    if m_sites <= 0:
        raise ValidationError("m_sites must be positive")
    plan = level_plan(model, path)
    value, se = _cascade(plan.x, _scalar_factors([plan.y_lead, *plan.y]),
                         np.array([[math.sqrt(m_sites)]]),
                         np.array([0.5 * m_sites * plan.y_trail]),
                         fanout, replications, seed, threads)
    return value / m_sites, se / m_sites


@dataclass(frozen=True)
class SplitCheckResult:
    lhs: float
    lhs_std_error: float
    rhs: float
    rhs_std_error: float
    log_n_over_x0: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 3.0 * (self.lhs_std_error + self.rhs_std_error)


def log_sum_split_check(model: MixedModel, path: Path, parts,
                        fanout: int = 128, replications: int = 200,
                        seed: int = 0, threads: int = 1) -> SplitCheckResult:
    """Estimate both sides of the cascade log-sum split bound.

    lhs = E log sum_a v_a sum_j A_j(a) and
    rhs = log(n)/x_0 + max_j E log sum_a v_a A_j(a),
    for positive leaf functionals ``parts`` (callables on a
    TreeGaussianField returning one positive value per leaf).  Expectations
    need replication, so the estimator takes the sampling parameters and
    draws its own trees.  All path x values must be strictly interior.
    """
    x = _validate_cascade_x(path.x)
    n_parts = len(parts)
    if n_parts < 1:
        raise ValidationError("at least one part is required")
    check_replications(replications)

    def one(rep: int):
        rng = spawn_rng(seed, rep)
        tree = sample_cascade(x, fanout, rng)
        fields = sample_fields(tree, model, path, rng)
        logw = tree.log_weights
        vals = np.array([np.asarray(p(fields), dtype=float) for p in parts])
        if np.any(vals <= 0):
            raise ValidationError("parts must be positive on every leaf")
        lhs = _logsumexp(logw + np.log(vals.sum(axis=0)))
        per = [_logsumexp(logw + np.log(v)) for v in vals]
        return float(lhs), per

    results = parallel_map(one, replications, threads)
    lhs, lhs_se = mean_and_se([r[0] for r in results])
    per_vals = np.array([r[1] for r in results])  # (reps, n_parts)
    best_mean, best_se = mean_and_se(per_vals[:, np.argmax(per_vals.mean(axis=0))])
    corr = math.log(n_parts) / float(x[0])
    return SplitCheckResult(lhs, lhs_se, corr + best_mean, best_se, corr)

"""Spin priors, overlap matrices, the constraint hull, and spin modification.

The prior is a finite list of weighted atoms in R^kappa.  Self-overlaps of
configurations drawn from it live in the convex hull of the rank-one
matrices sigma sigma^T over the atoms.  Whether D lies in it is a convex dual
over lambda, solved by ``parisi.phi_star``'s damped Newton (``newton_dual``).

The modifier construction takes a self-overlap R close to a target D and
produces a matrix A with A R A^T equal to the spectral truncation of D
(eigenvalues below sqrt(eps) zeroed).  It follows the explicit recipe:
rotate into the eigenbasis of D, normalize the leading block by the kept
eigenvalues, take an inverse matrix square root, undo the normalization and
the rotation.  The inverse square root is computed by symmetric
eigendecomposition rather than a contour integral; same object, stabler
arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .mixing import validate_gram

#: ``newton_dual`` stops at max |gradient| <= GRAD_TOL; hull residuals up to it pass.
GRAD_TOL = 1e-8


@dataclass(frozen=True)
class SpinPrior:
    """Finitely supported prior: atoms (point in R^kappa, positive weight).

    Weights may sum to any positive mass.  A probability prior has mass one;
    an unnormalized prior (e.g. counting measure on {-1, +1}) shifts every
    log-partition functional by log(mass), consistently on both sides of the
    variational formula, so both are accepted.
    """

    points: np.ndarray  # (n_atoms, kappa)
    weights: np.ndarray  # (n_atoms,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] == 0:
            raise ValidationError("prior needs at least one atom")
        if w.shape != (pts.shape[0],):
            raise ValidationError("one weight per atom required")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("atom coordinates must be finite")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValidationError("atom weights must be finite and > 0")
        pts = pts.copy()
        w = w.copy()
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_atoms(cls, atoms) -> "SpinPrior":
        """Build from an iterable of (point, weight) pairs."""
        pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p, _ in atoms]
        w = [float(wt) for _, wt in atoms]
        return cls(np.array(pts), np.array(w))

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def kappa(self) -> int:
        return self.points.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def is_normalized(self) -> bool:
        return abs(self.total_mass - 1.0) <= 1e-12

    @property
    def support_bound(self) -> float:
        """c = max over atoms of the largest absolute coordinate."""
        return float(np.max(np.abs(self.points)))

    def log_weights(self) -> np.ndarray:
        return np.log(self.weights)


def ising_prior(kappa: int = 1, normalized: bool = False) -> SpinPrior:
    """Uniform atoms on {-1, +1}^kappa, weight 1 each (or 2^-kappa if normalized)."""
    grid = np.array(
        np.meshgrid(*([[-1.0, 1.0]] * kappa), indexing="ij")
    ).reshape(kappa, -1).T
    w = np.full(grid.shape[0], 2.0 ** (-kappa) if normalized else 1.0)
    return SpinPrior(grid, w)


@dataclass(frozen=True)
class ConstraintHull:
    """Convex hull of the rank-one matrices sigma sigma^T over prior atoms."""

    generators: np.ndarray  # (n_atoms, kappa, kappa)

    @classmethod
    def from_prior(cls, prior: SpinPrior) -> "ConstraintHull":
        gens = np.einsum("ak,al->akl", prior.points, prior.points)
        return cls(gens)

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    @property
    def kappa(self) -> int:
        return self.generators.shape[1]

    def combine(self, weights) -> np.ndarray:
        """D = sum_j w_j sigma_j sigma_j^T for simplex weights ``weights``."""
        w = np.asarray(weights, dtype=float)
        return np.einsum("a,akl->kl", w, self.generators)


def _pair_span(pair: np.ndarray):
    """Orthonormal rows (span, flat): the P_a - P_0's span (cutoff 1e-10) and its rest."""
    _, sv, vt = np.linalg.svd(pair[1:] - pair[0])
    return np.split(vt, [int(np.sum(sv > 1e-10 * sv.max(initial=0.0)))])


def newton_dual(value_and_grad, pair: np.ndarray, lam, max_iter: int = 500):
    """Minimise a convex f(lambda) that lambda moves only through the atom
    scores <lambda, P_a> (``pair``: one row P_a per atom) by damped Newton
    steps from ``lam``; returns (lambda, f, gradient, iterations, reason).

    Steps solve in the span of the P_a - P_0 (f is linear off it) with the
    central difference of the exact gradient, eigenvalues floored at 1e-10
    of the largest, and halve until they pass the Armijo rule or, with f's
    decrease lost to rounding, lower max |g|.  Stops: max |g| <= GRAD_TOL
    ("gradient"), ``max_iter`` ("iterations"), no such step down to
    t < 1e-16 ("no_descent"), or f unbounded below ("unbounded": a gradient
    off the span, or no curvature left in it).
    """
    span, flat = _pair_span(pair)
    f, g = value_and_grad(lam)
    it, reason = 0, "iterations"
    for it in range(1, max_iter + 1):
        g_max = float(np.max(np.abs(g)))
        if g_max <= GRAD_TOL:
            reason = "gradient"
            break
        if float(np.linalg.norm(flat @ g)) > GRAD_TOL:
            reason = "unbounded"
            break
        hess = np.array([value_and_grad(lam + e)[1] - value_and_grad(lam - e)[1]
                         for e in span * 1e-4]) @ span.T / 2e-4
        w, v = np.linalg.eigh((hess + hess.T) / 2.0)
        if w[-1] <= 0.0:
            reason = "unbounded"
            break
        step = -span.T @ (v @ ((v.T @ (span @ g)) / np.maximum(w, 1e-10 * w[-1])))
        for t in 0.5 ** np.arange(54):  # halves down to 2^-53, the last above 1e-16
            ft, gt = value_and_grad(lam + t * step)
            if (ft < f and ft <= f + 1e-4 * t * float(g @ step)  # not lost to rounding
                    or ft <= f + 1e-15 * max(1.0, abs(f)) and np.max(np.abs(gt)) < g_max):
                break
        else:
            reason = "no_descent"
            break
        lam, f, g = lam + t * step, ft, gt
    return lam, f, g, it, reason


@dataclass(frozen=True)
class HullMembership:
    feasible: bool
    weights: np.ndarray
    max_violation: float
    worst_entry: tuple[int, int]


def hull_membership(hull: ConstraintHull, d) -> HullMembership:
    """Decide whether ``d`` is a convex combination of the hull generators.

    ``newton_dual`` minimises log sum_j exp(<lambda, G_j - D'>) over upper
    entries, D' being ``d`` projected onto the generators' affine hull along
    the flat directions.  The stop's tilted weights pi (on the simplex) are
    returned with the largest entry of |sum_j pi_j G_j - d|, feasible when at
    most ``GRAD_TOL``.  Else that residual of the returned weights bounds the
    sup-norm distance from the hull, and is it when D' is in the hull and
    ``d`` is off it only in entries that every generator shares.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (hull.kappa, hull.kappa):
        raise ValidationError(f"constraint matrix must be {hull.kappa}x{hull.kappa}")
    iu = np.triu_indices(hull.kappa)
    g = hull.generators[:, iu[0], iu[1]]  # (n, n_entries)
    _, flat = _pair_span(g)
    shifted = g - (d[iu] - flat.T @ (flat @ (d[iu] - g[0])))  # G_j - D'

    def tilt(lam):  # (log sum_j exp(<lambda, G_j - D'>), pi)
        s = shifted @ lam
        e = np.exp(s - s.max())
        return float(s.max() + np.log(e.sum())), e / e.sum()

    def value_and_grad(lam):
        f, pi = tilt(lam)
        return f, pi @ shifted

    pi = tilt(newton_dual(value_and_grad, g, np.zeros(g.shape[1]))[0])[1]
    resid = np.abs(hull.combine(pi) - d)
    worst = np.unravel_index(int(np.argmax(resid)), resid.shape)
    viol = float(resid[worst])
    return HullMembership(viol <= GRAD_TOL, pi, viol, (int(worst[0]), int(worst[1])))


def self_overlap(config) -> np.ndarray:
    """(1/N) sum_i sigma_i sigma_i^T for a configuration of N vector spins."""
    config = np.atleast_2d(np.asarray(config, dtype=float))
    return config.T @ config / config.shape[0]


def overlap(config_a, config_b) -> np.ndarray:
    """(1/N) sum_i sigma_i^a (sigma_i^b)^T; not symmetric in general."""
    a = np.atleast_2d(np.asarray(config_a, dtype=float))
    b = np.atleast_2d(np.asarray(config_b, dtype=float))
    if a.shape != b.shape:
        raise ValidationError("configurations must have matching shapes")
    return a.T @ b / a.shape[0]


def _spectral_truncation(d: np.ndarray, eps: float):
    """Eigenvalues of ``d`` below sqrt(eps) zeroed.

    Returns (vals, vecs, m, d_eps): the eigenvalues in decreasing order (ties
    by index) with their eigenvectors, the number m of kept eigenvalues, and
    the truncated matrix d_eps.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    vals, vecs = np.linalg.eigh(d)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    cut = np.sqrt(eps)
    m = int(np.count_nonzero(vals >= cut))
    d_eps = (vecs * np.where(vals >= cut, vals, 0.0)) @ vecs.T
    return vals, vecs, m, d_eps


def truncate_constraint(d, eps: float):
    """Zero out eigenvalues of ``d`` below sqrt(eps).

    Returns (d_eps, m) where m is the number of kept eigenvalues.  d_eps is
    dominated by d in the PSD order and differs from it by at most
    kappa*sqrt(eps) in sup norm.
    """
    d = validate_gram(d, name="constraint matrix")
    _, _, m, d_eps = _spectral_truncation(d, eps)
    return d_eps, m


@dataclass(frozen=True)
class ModifierMatrix:
    """Result of the modifier construction: a with a @ r @ a.T = d_eps."""

    a: np.ndarray
    source_overlap: np.ndarray
    target: np.ndarray  # d_eps
    epsilon: float
    kept_rank: int

    @property
    def residual(self) -> float:
        """sup-norm of a r a^T - d_eps."""
        got = self.a @ self.source_overlap @ self.a.T
        return float(np.max(np.abs(got - self.target)))

    @property
    def distortion_trace(self) -> float:
        """tr((a - I) r (a - I)^T), the mean squared spin displacement."""
        diff = self.a - np.eye(self.a.shape[0])
        return float(np.trace(diff @ self.source_overlap @ diff.T))


def build_modifier(r, d, eps: float) -> ModifierMatrix:
    """Construct A with A R A^T = D_eps for a self-overlap R near D.

    Intended for R within eps of D in sup norm; the construction goes
    through whenever the normalized leading block stays positive definite,
    and raises NumericalError otherwise.
    """
    r = validate_gram(r, name="self-overlap R")
    d = validate_gram(d, name="constraint matrix D")
    kappa = d.shape[0]
    if r.shape != d.shape:
        raise ValidationError("R and D must have matching shapes")
    vals, q, m, d_eps = _spectral_truncation(d, eps)

    if m == 0:
        a = np.zeros((kappa, kappa))
        return ModifierMatrix(a, r, d_eps, eps, 0)

    rot = q.T @ r @ q
    lam_m = vals[:m]
    block = rot[:m, :m]
    scale = 1.0 / np.sqrt(lam_m)
    q_tilde = block * np.outer(scale, scale)
    tvals, tvecs = np.linalg.eigh(q_tilde)
    if tvals[0] <= 0:
        raise NumericalError(
            "normalized leading block is not positive definite "
            f"(min eigenvalue {tvals[0]:.3e}); R is too far from D for eps={eps:g}"
        )
    inv_sqrt = (tvecs / np.sqrt(tvals)) @ tvecs.T
    b = (np.sqrt(lam_m)[:, None] * inv_sqrt) * scale[None, :]
    a_rot = np.zeros((kappa, kappa))
    a_rot[:m, :m] = b
    a = q @ a_rot @ q.T
    return ModifierMatrix(a, r, d_eps, eps, m)


def modifier_lipschitz_ratio(r1, r2, d, eps: float) -> float:
    """eps * ||A(R1) - A(R2)||_inf / ||R1 - R2||_inf, for diagnostics.

    The modifier map is Lipschitz in R with a constant of order 1/eps; this
    returns the observed ratio on one pair so a suite can record its range.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    denom = float(np.max(np.abs(r1 - r2)))
    if denom == 0.0:
        raise ValidationError("R1 and R2 coincide; the ratio is undefined")
    a1 = build_modifier(r1, d, eps).a
    a2 = build_modifier(r2, d, eps).a
    return eps * float(np.max(np.abs(a1 - a2))) / denom

"""Spin priors, overlap matrices, the constraint hull, and spin modification.

The prior is a finite list of weighted atoms in R^kappa.  Self-overlaps of
configurations drawn from it live in the convex hull of the rank-one
matrices sigma sigma^T over the atoms, and the hull membership problem for a
candidate constraint matrix D is a small linear program.

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

from .errors import InfeasibleError, NumericalError, ValidationError
from .mixing import validate_gram

#: Largest entrywise violation at which ``hull_membership`` reports D inside
#: the hull.
HULL_TOL = 1e-8


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


@dataclass(frozen=True)
class HullMembership:
    feasible: bool
    weights: np.ndarray | None
    max_violation: float
    worst_entry: tuple[int, int] | None


def hull_membership(hull: ConstraintHull, d) -> HullMembership:
    """Decide whether ``d`` is a convex combination of the hull generators.

    Solves min t subject to |sum_j w_j G_j - d| <= t entrywise, sum w = 1,
    w >= 0, and reports success when the optimum t* <= ``HULL_TOL``, along
    with the certificate weights.  On failure the entry of largest violation
    at the best weights is reported.
    """
    d = np.asarray(d, dtype=float)
    kappa = hull.kappa
    if d.shape != (kappa, kappa):
        raise ValidationError(f"constraint matrix must be {kappa}x{kappa}")
    n = hull.n_generators
    iu = np.triu_indices(kappa)
    g = hull.generators[:, iu[0], iu[1]]  # (n, n_entries)
    target = d[iu]
    n_entries = target.size

    # variables: [w_1..w_n, t]
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * n_entries, n + 1))
    b_ub = np.zeros(2 * n_entries)
    a_ub[:n_entries, :n] = g.T
    a_ub[:n_entries, -1] = -1.0
    b_ub[:n_entries] = target
    a_ub[n_entries:, :n] = -g.T
    a_ub[n_entries:, -1] = -1.0
    b_ub[n_entries:] = -target
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    from scipy.optimize import linprog  # deferred: slow to import, only this LP needs it

    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(0, None)],
        method="highs",
    )
    if not res.success:
        raise NumericalError(f"hull membership LP failed: {res.message}")
    w = res.x[:n]
    resid = np.abs(hull.combine(w) - d)
    worst = np.unravel_index(int(np.argmax(resid)), resid.shape)
    viol = float(resid[worst])
    if viol <= HULL_TOL:
        return HullMembership(True, w, viol, None)
    return HullMembership(False, None, viol, (int(worst[0]), int(worst[1])))


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

"""Mixture coefficients and the covariance functions they generate.

A model couples kappa spin coordinates through a finite table of even-degree
interaction coefficients beta_p(k).  Everything downstream is built from
three polynomial kernels, applied entrywise to kappa x kappa matrices:

    xi(x)    = sum_p beta_p(k) beta_p(k') x^p
    xi'(x)   = sum_p p beta_p(k) beta_p(k') x^(p-1)
    theta(x) = x xi'(x) - xi(x) = sum_p (p-1) beta_p(k) beta_p(k') x^p

In matrix form the entrywise application is a sum of Hadamard products,

    xi'(g)   = sum_p p g∘(p-1) ∘ (beta_p beta_p^T),
    theta(g) = sum_p (p-1) g∘p ∘ (beta_p beta_p^T),

which makes both maps monotone on positive-semidefinite matrices whenever
every p is even (Schur product theorem).  That monotonicity is what lets a
monotone matrix path induce valid Gaussian covariance increments, so odd p
is rejected at construction time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

#: Tolerance for symmetric-eigenvalue PSD checks.
PSD_TOL = 1e-10

#: Tolerance for symmetry checks.
SYM_TOL = 1e-12


def validate_gram(a, name: str = "matrix", kappa: int | None = None) -> np.ndarray:
    """Check that ``a`` is square (kappa x kappa, if given), symmetric and
    PSD up to ``PSD_TOL``.

    Returns the validated array as float64.  Raises ValidationError with a
    diagnostic naming the offending eigenvalue otherwise.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    if kappa is not None and a.shape != (kappa, kappa):
        raise ValidationError(f"{name} must have shape ({kappa}, {kappa}), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} has non-finite entries")
    if np.max(np.abs(a - a.T), initial=0.0) > SYM_TOL:
        raise ValidationError(f"{name} is not symmetric to {SYM_TOL:g}")
    lo = float(np.linalg.eigvalsh(a)[0]) if a.size else 0.0
    if lo < -PSD_TOL:
        raise ValidationError(
            f"{name} is not PSD: min eigenvalue {lo:.3e} < -{PSD_TOL:g}"
        )
    return a


@dataclass(frozen=True)
class MixedModel:
    """Finite table of even p-spin mixture coefficients for kappa coordinates.

    ``coefficients`` maps an even integer p >= 2 to the length-kappa vector
    beta_p of non-negative inverse temperatures.  The table is finite by
    construction; an empty (or all-zero) table is the free model.
    """

    kappa: int
    coefficients: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.kappa < 1:
            raise ValidationError("kappa must be a positive integer")
        clean = {}
        for p, beta in self.coefficients.items():
            p = int(p)
            if p < 2 or p % 2 != 0:
                raise ValidationError(f"interaction degree p={p} must be even and >= 2")
            beta = np.asarray(beta, dtype=float)
            if beta.shape != (self.kappa,):
                raise ValidationError(
                    f"beta_{p} must have length kappa={self.kappa}, got shape {beta.shape}"
                )
            if not np.all(np.isfinite(beta)) or np.any(beta < 0):
                raise ValidationError(f"beta_{p} entries must be finite and >= 0")
            if np.any(beta > 0):
                beta = beta.copy()
                beta.flags.writeable = False
                clean[p] = beta
        object.__setattr__(self, "coefficients", clean)

    @property
    def p_values(self) -> list[int]:
        return sorted(self.coefficients)

    @property
    def p_max(self) -> int | None:
        """Largest degree with a nonzero coefficient, None for the free model."""
        return max(self.coefficients) if self.coefficients else None

    def coefficient_warnings(self, support_bound: float) -> list[str]:
        """Advisory messages where beta_p(k) exceeds (2c)^-p for support bound c."""
        out = []
        if support_bound <= 0:
            return out
        for p, beta in sorted(self.coefficients.items()):
            cap = (2.0 * support_bound) ** (-p)
            for k in np.nonzero(beta > cap)[0]:
                out.append(
                    f"beta_{p}({k}) = {beta[k]:g} exceeds the summability guide "
                    f"(2c)^-{p} = {cap:g} for support bound c = {support_bound:g}"
                )
        return out


def _series(model: MixedModel, a, coef, power) -> np.ndarray:
    """sum_p coef(p) a∘power(p) ∘ (beta_p beta_p^T), entrywise over kappa x
    kappa matrices (..., kappa, kappa): a stack is one call, one array
    operation per p."""
    a = np.asarray(a, dtype=float)
    if a.shape[-2:] != (model.kappa, model.kappa):
        raise ValidationError(
            f"expected {model.kappa}x{model.kappa} matrices, got shape {a.shape}")
    out = np.zeros_like(a)
    for p, beta in model.coefficients.items():
        out += coef(p) * a ** power(p) * np.outer(beta, beta)
    return out


def xi_matrix(model: MixedModel, a) -> np.ndarray:
    """Entrywise xi: sum_p a∘p ∘ (beta_p beta_p^T).

    The input need not be PSD; cross-overlap blocks are valid arguments.
    """
    return _series(model, a, lambda p: 1, lambda p: p)


def xi_prime_matrix(model: MixedModel, a) -> np.ndarray:
    """Entrywise xi': sum_p p a∘(p-1) ∘ (beta_p beta_p^T)."""
    return _series(model, a, lambda p: p, lambda p: p - 1)


def theta_matrix(model: MixedModel, a) -> np.ndarray:
    """Entrywise theta: sum_p (p-1) a∘p ∘ (beta_p beta_p^T)."""
    return _series(model, a, lambda p: p - 1, lambda p: p)


def sum_all(a) -> float:
    """Sum of all matrix entries."""
    return float(np.sum(np.asarray(a, dtype=float)))


def hamiltonian_covariance(model: MixedModel, r) -> float:
    """Covariance per site of the mixed Hamiltonian at cross-overlap ``r``.

    Equals Cov(H(sigma^1), H(sigma^2)) / N when ``r`` is the kappa x kappa
    matrix of coordinate overlaps between the two configurations.
    """
    return sum_all(xi_matrix(model, r))

"""Explicit constants for the spectral bounds and the delta0 threshold.

Every constant carries provenance: computed from the coupling function,
supplied by the user, or a flagged heuristic default.  Heuristic defaults
never enter silently; callers must opt in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError, DomainError, PreconditionError
from .relaxation import RateReport
from .spectral_density import BathSpec, GluedFunction, coupling_function, regularity_norm

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class EigenvectorBounds:
    n_bound: float
    pbar_bound: float
    dist_bound: float
    q_bound: float
    xi_star: float


@dataclass(frozen=True, eq=False)
class ConstantsReport:
    c1: float
    c2: float
    eps_hat: float
    n_bound: float
    pbar_bound: float
    dist_bound: float
    q_bound: float
    delta0: float
    inputs_used: dict


def default_eps_hat(alpha: float) -> float:
    """Midpoint of the allowed interval (0, alpha - 3/2)."""
    return 0.5 * (alpha - 1.5)


def constants_c1_c2(f_beta: GluedFunction, alpha: float,
                    eps_hat: Optional[float] = None) -> Tuple[float, float]:
    """c1 = 4 sqrt(2) * Sobolev norm of f_beta at order 3/2 + eps_hat,
    c2 = c1 (1 + ||f_beta||) / sqrt(2)."""
    if eps_hat is None:
        eps_hat = default_eps_hat(alpha)
    if not 0.0 < eps_hat < alpha - 1.5:
        raise DomainError("eps_hat must lie in (0, alpha - 3/2), got %g" % eps_hat)
    value, converged = regularity_norm(f_beta, 1.5 + eps_hat)
    if not converged:
        raise PreconditionError(
            "regularity norm at order %g did not converge" % (1.5 + eps_hat))
    c1 = 4.0 * _SQRT2 * value
    c2 = c1 * (1.0 + f_beta.norm()) / _SQRT2
    return c1, c2


def _n_bound_at(xi: float, a_term: float, b_term: float) -> float:
    return (a_term / xi + b_term) / (1.0 - xi)


def eigenvector_bounds(spec: BathSpec, consts: Tuple[float, float],
                       xi: Optional[float] = None) -> EigenvectorBounds:
    """Particle-number, pole, distance, and quadratic bounds on eigenvectors.

    With xi = None the particle-number bound (a/xi + b)/(1 - xi) is taken at
    its minimizer over (0, 1), the root xi* = a / (a + sqrt(a^2 + a b)) of
    b xi^2 + 2 a xi - a = 0 (1/2 at b = 0).  With a = 0 the bound decreases
    towards xi = 0, so xi* = 0 and the bound is its infimum b.
    """
    c1, c2 = consts
    d = abs(spec.delta)
    if d == 0.0:
        return EigenvectorBounds(0.0, 0.0, 0.0, 0.0, xi_star=xi if xi else 0.5)
    a_term = d ** 2 * c1 ** 2 / 4.0
    b_term = d * c2
    if xi is None:
        xi_star = (a_term / (a_term + np.sqrt(a_term ** 2 + a_term * b_term))
                   if a_term else 0.0)
    elif 0.0 < xi < 1.0:
        xi_star = float(xi)
    else:
        raise DomainError("xi must lie in (0, 1)")
    n_bound = _n_bound_at(xi_star, a_term, b_term) if xi_star else b_term
    pbar = 10.0 * c2 * d
    if pbar < 1.0:
        dist = (2.0 / np.sqrt(3.0)) * d / np.sqrt(1.0 - pbar ** 2)
    else:
        dist = np.inf
    q_bound = 2.0 * d / abs(spec.eps) if spec.eps != 0.0 else np.inf
    return EigenvectorBounds(n_bound=float(n_bound), pbar_bound=float(pbar),
                             dist_bound=float(dist), q_bound=float(q_bound),
                             xi_star=float(xi_star))


def delta0_threshold(spec: BathSpec, consts: Tuple[float, float],
                     inputs: dict) -> float:
    """delta0 = min{1, [c_kms^2 + c3^2 + 4/eps^2 + 2 tau0 (4 c3^2 + 4/eps^2 + c5/2)]^-2}."""
    if spec.eps == 0.0:
        raise DomainError("delta0 needs eps != 0")
    missing = [k for k in ("c_kms", "c3", "c5", "tau0") if inputs.get(k) is None]
    if missing:
        raise ConfigurationError("delta0 inputs missing: %s" % ", ".join(missing))
    c_kms, c3, c5, tau0 = (float(inputs[k]) for k in ("c_kms", "c3", "c5", "tau0"))
    if min(c_kms, c3, c5, tau0) <= 0.0:
        raise DomainError("delta0 inputs must be positive")
    four_eps = 4.0 / spec.eps ** 2
    bracket = (c_kms ** 2 + c3 ** 2 + four_eps
               + 2.0 * tau0 * (4.0 * c3 ** 2 + four_eps + 0.5 * c5))
    return min(1.0, bracket ** -2)


def check_user_inputs(c_kms: Optional[float], c5: Optional[float],
                      c3: Optional[float], allow_heuristics: bool) -> None:
    """Raise ConfigurationError for a missing input only the user can give.

    c_kms and c5 have no computable definition; c3 has one only as the
    flagged heuristic.  Callers run this before any computation.
    """
    if c_kms is None or c5 is None:
        raise ConfigurationError(
            "c_kms and c5 must be supplied; no defaults exist for them")
    if c3 is None and not allow_heuristics:
        raise ConfigurationError(
            "c3 has no definition; supply it or enable heuristics "
            "to use the flagged default 10*c2")


def constants_report(spec: BathSpec, alpha: float, *,
                     eps_hat: Optional[float] = None,
                     xi: Optional[float] = None,
                     c_kms: Optional[float] = None,
                     c3: Optional[float] = None,
                     c5: Optional[float] = None,
                     tau0: Optional[float] = None,
                     allow_heuristics: bool = False,
                     rate: Optional[RateReport] = None) -> ConstantsReport:
    """Assemble the full constants ledger for one bath.

    c_kms and c5 have no computable definition here and must be supplied.
    c3 falls back to the flagged heuristic 10*c2 only with allow_heuristics.
    tau0, when not supplied, is 1/tau0_inv of the caller's rate report; with
    neither, ConfigurationError is raised.  Missing user inputs are refused
    before anything is computed.
    """
    check_user_inputs(c_kms, c5, c3, allow_heuristics)
    f_beta = coupling_function(spec)
    if eps_hat is None:
        eps_hat = default_eps_hat(alpha)
    c1, c2 = constants_c1_c2(f_beta, alpha, eps_hat)
    bounds = eigenvector_bounds(spec, (c1, c2), xi)

    inputs_used = {}
    inputs_used["c_kms"] = {"value": float(c_kms), "provenance": "user"}
    inputs_used["c5"] = {"value": float(c5), "provenance": "user"}
    if c3 is None:
        c3 = 10.0 * c2
        inputs_used["c3"] = {"value": float(c3), "provenance": "heuristic_default"}
    else:
        inputs_used["c3"] = {"value": float(c3), "provenance": "user"}
    if tau0 is None:
        if rate is None:
            raise ConfigurationError(
                "tau0 needs either a supplied value or a rate report")
        tau0 = 1.0 / rate.tau0_inv
        inputs_used["tau0"] = {"value": float(tau0), "provenance": "computed"}
    else:
        inputs_used["tau0"] = {"value": float(tau0), "provenance": "user"}

    delta0 = delta0_threshold(
        spec, (c1, c2),
        {"c_kms": c_kms, "c3": c3, "c5": c5, "tau0": tau0})
    return ConstantsReport(c1=float(c1), c2=float(c2), eps_hat=float(eps_hat),
                           n_bound=bounds.n_bound, pbar_bound=bounds.pbar_bound,
                           dist_bound=bounds.dist_bound, q_bound=bounds.q_bound,
                           delta0=float(delta0), inputs_used=inputs_used)

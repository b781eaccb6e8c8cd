"""The paper's risk model: identifiability, satisfaction, breach risk.

Implements every quantity Section 2-3 defines:

* ``pi_i`` — **source identifiability**, the probability the adversary
  attributes a received table to provider ``DP_i``.  SAP's random exchange
  reduces it to ``1/(k-1)`` at the miner.
* ``O_i = rho_bar_i / b_i`` — **optimality rate**, how close the provider's
  average optimized guarantee sits to its empirical bound.
* ``s_i = rho^G_i / rho_i`` — **satisfaction level** of the unified
  perturbation relative to the locally optimal one.
* eq. (1): ``R^G_i = pi_i (1 - s_i rho_i / b_i)`` — risk of privacy breach
  under a unified perturbation with identifiability ``pi_i``.
* eq. (2): ``R^SAP_i = max{ (b_i - rho_i)/b_i,
  (b_i - s_i rho_i)/b_i * 1/(k-1) }`` — the overall SAP risk combining the
  provider-side view (a peer holds your locally-perturbed table and knows
  it is yours: identifiability 1, local guarantee ``rho_i``) and the
  miner-side view (identifiability ``1/(k-1)``, unified guarantee
  ``s_i rho_i``).

Figure 4's lower bound on the number of parties
------------------------------------------------
The two-page announcement states the relationship between ``k``, the
expected satisfaction ``s0`` and the optimality rate without deriving the
plotted bound.  We reconstruct it from eq. (1): a provider expecting
satisfaction ``s0`` tolerates a residual breach risk of at most
``1 - s0`` (perfect satisfaction tolerates none); approximating
``rho_i / b_i`` by the measurable optimality rate ``O`` and requiring the
miner-view risk to stay within tolerance,

    (1 - s0 * O) / (k - 1) <= 1 - s0
    =>  k >= 1 + (1 - s0 * O) / (1 - s0)

which reproduces the figure's qualitative content: the bound grows with
``s0``, diverges as ``s0 -> 1``, and at fixed ``s0`` datasets with lower
optimality rate need more parties.  The derivation choice is documented in
DESIGN.md (substitution table) and EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..checkpoint.codec import register

__all__ = [
    "source_identifiability",
    "optimality_rate",
    "satisfaction_level",
    "risk_of_breach",
    "sap_risk",
    "standalone_risk",
    "minimum_parties",
    "PartyRiskProfile",
    "mean_satisfaction",
]


def source_identifiability(k: int) -> float:
    """``pi_i = 1/(k-1)`` after SAP's random exchange among ``k`` providers."""
    if k < 2:
        raise ValueError("the protocol needs at least 2 data providers")
    return 1.0 / (k - 1)


def optimality_rate(rho_bar: float, b: float) -> float:
    """``O = rho_bar / b``; requires ``0 <= rho_bar <= b`` and ``b > 0``."""
    if b <= 0:
        raise ValueError("the privacy bound b must be positive")
    if rho_bar < 0 or rho_bar > b + 1e-12:
        raise ValueError(f"rho_bar={rho_bar} must lie in [0, b={b}]")
    return min(rho_bar / b, 1.0)


def satisfaction_level(rho_global: float, rho_local: float) -> float:
    """``s_i = rho^G_i / rho_i`` — how much of the local guarantee survives.

    Values above 1 are possible (the unified perturbation may, by luck,
    protect a provider better than its own optimum) and are preserved.
    """
    if rho_local <= 0:
        raise ValueError("the local privacy guarantee must be positive")
    if rho_global < 0:
        raise ValueError("the global privacy guarantee must be >= 0")
    return rho_global / rho_local


def risk_of_breach(pi: float, s: float, rho: float, b: float) -> float:
    """Equation (1): ``R^G_i = pi_i * (1 - s_i * rho_i / b_i)``.

    The result is clamped below at 0: an over-satisfied provider
    (``s * rho > b``) has no residual risk rather than a negative one.
    """
    if not 0.0 <= pi <= 1.0:
        raise ValueError("identifiability must be a probability")
    if b <= 0:
        raise ValueError("the privacy bound b must be positive")
    if s < 0 or rho < 0:
        raise ValueError("satisfaction and privacy guarantee must be >= 0")
    return pi * max(0.0, 1.0 - s * rho / b)


def standalone_risk(rho: float, b: float) -> float:
    """Risk when a provider submits directly (``pi = 1``, ``s = 1``)."""
    return risk_of_breach(1.0, 1.0, rho, b)


def sap_risk(b: float, rho: float, s: float, k: int) -> float:
    """Equation (2): the overall risk of privacy breach under SAP.

    ``max`` of the provider-side term (a peer holds your locally-perturbed
    table, knowing it is yours) and the miner-side term (anonymized to
    ``1/(k-1)`` but adapted to the unified perturbation with satisfaction
    ``s``).
    """
    provider_view = risk_of_breach(1.0, 1.0, rho, b)
    miner_view = risk_of_breach(source_identifiability(k), s, rho, b)
    return max(provider_view, miner_view)


def minimum_parties(s0: float, opt_rate: float, k_cap: int = 10_000) -> int:
    """Figure 4: the least ``k`` for which SAP meets satisfaction ``s0``.

    See the module docstring for the derivation:
    ``k >= 1 + (1 - s0 * O) / (1 - s0)``.

    Parameters
    ----------
    s0:
        Expected satisfaction level, in ``[0, 1)`` (the bound diverges at
        1; values >= 1 raise).
    opt_rate:
        The dataset's optimality rate ``O`` in ``(0, 1]``.
    k_cap:
        Safety ceiling; the returned k never exceeds it.

    Returns
    -------
    int
        The smallest admissible number of parties (at least 2 — the
        protocol is only defined for k >= 2).
    """
    if not 0.0 <= s0 < 1.0:
        raise ValueError("s0 must lie in [0, 1); the bound diverges at 1")
    if not 0.0 < opt_rate <= 1.0:
        raise ValueError("opt_rate must lie in (0, 1]")
    bound = 1.0 + (1.0 - s0 * opt_rate) / (1.0 - s0)
    k = max(2, int(math.ceil(bound - 1e-9)))
    return min(k, k_cap)


@register
@dataclass(frozen=True)
class PartyRiskProfile:
    """All risk quantities for one provider in one SAP run.

    A convenience record produced by the session layer: collects the
    measured privacy values and evaluates both equations.
    """

    party: str
    rho_local: float
    rho_global: float
    b: float
    k: int

    @property
    def satisfaction(self) -> float:
        """``s_i`` for this run."""
        return satisfaction_level(self.rho_global, self.rho_local)

    @property
    def identifiability(self) -> float:
        """``pi_i = 1/(k-1)``."""
        return source_identifiability(self.k)

    @property
    def breach_risk(self) -> float:
        """Equation (1) evaluated at this party's values."""
        return risk_of_breach(
            self.identifiability, self.satisfaction, self.rho_local, self.b
        )

    @property
    def overall_risk(self) -> float:
        """Equation (2) evaluated at this party's values."""
        return sap_risk(self.b, self.rho_local, self.satisfaction, self.k)

    def summary(self) -> str:
        """One-line report row."""
        return (
            f"{self.party:<10} rho={self.rho_local:.3f} rho_G={self.rho_global:.3f} "
            f"s={self.satisfaction:.3f} pi={self.identifiability:.3f} "
            f"R_eq1={self.breach_risk:.3f} R_sap={self.overall_risk:.3f}"
        )


def mean_satisfaction(profiles: Sequence[PartyRiskProfile]) -> float:
    """Average satisfaction across a run's providers."""
    if not profiles:
        raise ValueError("no profiles")
    return sum(p.satisfaction for p in profiles) / len(profiles)

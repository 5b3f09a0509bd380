"""Closed-form rate-distortion trade-off calculators.

The feedback schemes in this package trade message rate against the
receiver's state-estimation distortion through the power split: message
power gamma*P buys rate, the remaining (1-gamma)*P re-transmits the state
and buys estimation accuracy. The functions here evaluate the exact
boundaries of the achievable (R, D) regions so that simulations have an
analytic reference.

Rates are in bits per channel use throughout.
"""

import dataclasses
import math

import numpy as np

from .errors import ConfigError, EmptyGrid, SplitOutOfRange
from .params import DpcParams, MacParams, NoisyObsParams, check_fraction


def _half_log2(snr):
    return 0.5 * math.log2(1.0 + snr)


@dataclasses.dataclass(frozen=True)
class RdPoint:
    """One point of a rate-distortion boundary."""

    gamma: float
    rate: float
    distortion: float


@dataclasses.dataclass(frozen=True)
class MacRegionConstraints:
    """Constraint values of the two-encoder feedback region at one
    (gamma, beta, rho) operating point: individual rate caps, sum-rate cap,
    and the minimum achievable distortion."""

    gamma: float
    beta: float
    rho: float
    r1_max: float
    r2_max: float
    rsum_max: float
    d_min: float


# ---------------------------------------------------------------------------
# single user


def dpc_rate_cap(params: DpcParams, gamma):
    """Largest reliable rate of the single-user feedback scheme."""
    gamma = check_fraction("gamma", gamma)
    return _half_log2(gamma * params.P / params.sigma2)


def dpc_min_distortion(params: DpcParams, gamma):
    """Per-step state-estimation floor of the single-user scheme.

    D = Q (gamma P + sigma2) / ((sqrt(Q) + sqrt((1-gamma) P))^2
        + gamma P + sigma2).
    """
    gamma = check_fraction("gamma", gamma)
    P, Q, s2 = params.P, params.Q, params.sigma2
    forwarded = (math.sqrt(Q) + math.sqrt((1.0 - gamma) * P)) ** 2
    return Q * (gamma * P + s2) / (forwarded + gamma * P + s2)


def dpc_fb_boundary(params: DpcParams, gamma):
    """Boundary point of the single-user trade-off at a given split."""
    return RdPoint(
        gamma=float(gamma),
        rate=dpc_rate_cap(params, gamma),
        distortion=dpc_min_distortion(params, gamma),
    )


# ---------------------------------------------------------------------------
# two encoders


def _mac_split_terms(params: MacParams, gamma, beta):
    gamma = check_fraction("gamma", gamma)
    beta = check_fraction("beta", beta)
    A = gamma * params.P1
    B = beta * params.P2
    return gamma, beta, A, B


def mac_power_normalizer(params: MacParams, gamma, beta):
    """The L(gamma, beta) term of the distortion constraint.

    L = P1 + P2 + Q + sigma2 + 2 sqrt((1-gamma) P1 Q) + 2 sqrt((1-beta) P2 Q)
        + 2 sqrt((1-gamma)(1-beta) P1 P2).
    """
    gamma, beta, _, _ = _mac_split_terms(params, gamma, beta)
    P1, P2, Q, s2 = params.P1, params.P2, params.Q, params.sigma2
    return (
        P1
        + P2
        + Q
        + s2
        + 2.0 * math.sqrt((1.0 - gamma) * P1 * Q)
        + 2.0 * math.sqrt((1.0 - beta) * P2 * Q)
        + 2.0 * math.sqrt((1.0 - gamma) * (1.0 - beta) * P1 * P2)
    )


def mac_constraints(params: MacParams, gamma, beta, rho):
    """Feedback-region constraints at correlation rho between the two
    encoders' message errors."""
    gamma, beta, A, B = _mac_split_terms(params, gamma, beta)
    if not -1.0 <= rho <= 1.0:
        raise SplitOutOfRange(f"rho must lie in [-1, 1], got {rho}", field="rho")
    s2 = params.sigma2
    cross = 2.0 * math.sqrt(A * B) * rho
    L = mac_power_normalizer(params, gamma, beta)
    one = 1.0 - rho * rho
    return MacRegionConstraints(
        gamma=gamma,
        beta=beta,
        rho=float(rho),
        r1_max=_half_log2(A * one / s2),
        r2_max=_half_log2(B * one / s2),
        rsum_max=_half_log2((A + B + cross) / s2),
        d_min=params.Q * (A + B + s2 + cross) / (L + cross),
    )


def solve_rho_star(params: MacParams, gamma, beta):
    """Steady-state error correlation of the two-encoder feedback loop.

    Root of f(rho) = sigma2 (A + B + 2 sqrt(A B) rho + sigma2)
    - (B (1-rho^2) + sigma2)(A (1-rho^2) + sigma2) with A = gamma P1,
    B = beta P2. f(0) = -A*B <= 0 and f(1) = sigma2 (sqrt(A)+sqrt(B))^2 > 0,
    so the positive root is bracketed by [0, 1]; plain bisection is exact
    enough and has no tuning knobs. Returns 0 when either message power
    vanishes.
    """
    gamma, beta, A, B = _mac_split_terms(params, gamma, beta)
    if A == 0.0 or B == 0.0:
        return 0.0
    s2 = params.sigma2
    cross = 2.0 * math.sqrt(A * B)

    def f(r):
        shrink = 1.0 - r * r
        return s2 * (A + B + cross * r + s2) - (B * shrink + s2) * (A * shrink + s2)

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mac_fb_region(params: MacParams, gamma_grid, beta_grid, rho_grid=None):
    """Evaluate the feedback region over a Cartesian grid.

    With ``rho_grid=None`` each (gamma, beta) point is evaluated at its own
    steady-state correlation rho*; otherwise every rho in the grid is used.
    """
    gamma_grid = list(gamma_grid)
    beta_grid = list(beta_grid)
    if not gamma_grid or not beta_grid or (rho_grid is not None and len(rho_grid) == 0):
        raise EmptyGrid("region grids must be non-empty")
    out = []
    for gamma in gamma_grid:
        for beta in beta_grid:
            rhos = [solve_rho_star(params, gamma, beta)] if rho_grid is None else rho_grid
            out.extend(mac_constraints(params, gamma, beta, rho) for rho in rhos)
    return out


def mac_nofb_region(params: MacParams, gamma_grid, beta_grid):
    """No-feedback baseline over a (gamma, beta) grid: the feedback region
    with the two encoders' message errors uncorrelated (rho = 0)."""
    return mac_fb_region(params, gamma_grid, beta_grid, rho_grid=[0.0])


# ---------------------------------------------------------------------------
# noisy state observation


def observation_weight(params: NoisyObsParams):
    """kappa = Q / (Q + sigma_z2), the MMSE weight of the observed state.

    Defined as 0 when Q = 0 (there is no state to observe).
    """
    if params.Q == 0.0:
        return 0.0
    return params.Q / (params.Q + params.sigma_z2)


def noisy_rate_cap(params: NoisyObsParams, gamma):
    """Rate cap with the observation noise folded into the channel noise."""
    gamma = check_fraction("gamma", gamma)
    kappa = observation_weight(params)
    return _half_log2(gamma * params.P / (kappa * params.sigma_z2 + params.sigma2))


def noisy_min_distortion(params: NoisyObsParams, gamma):
    """Distortion term of the noisy-observation boundary, as published.

    D = Q (gamma P + sigma2 + kappa sigma_z2 + (1-kappa) (sqrt(kappa Q)
        + sqrt((1-gamma) P))^2)
        / (gamma P + (sqrt(kappa Q) + sqrt((1-gamma) P))^2 + sigma2
           + kappa sigma_z2).

    Note this is the published closed form; the simulated receiver's exact
    per-step MMSE is smaller whenever sigma_z2 > 0 (see
    :func:`dpsk.noisy_obs.scheme_step_distortion`), and simulation reports
    flag the difference instead of hiding it.
    """
    gamma = check_fraction("gamma", gamma)
    P, Q, s2 = params.P, params.Q, params.sigma2
    kappa = observation_weight(params)
    forwarded = (math.sqrt(kappa * Q) + math.sqrt((1.0 - gamma) * P)) ** 2
    w = kappa * params.sigma_z2
    return Q * (gamma * P + s2 + w + (1.0 - kappa) * forwarded) / (
        gamma * P + forwarded + s2 + w
    )


def noisy_boundary(params: NoisyObsParams, gamma):
    """Boundary point of the noisy-observation trade-off at a given split."""
    return RdPoint(
        gamma=float(gamma),
        rate=noisy_rate_cap(params, gamma),
        distortion=noisy_min_distortion(params, gamma),
    )


def boundary_sweep(params, gammas):
    """Boundary points over a gamma grid, for either observation model."""
    gammas = list(gammas)
    if not gammas:
        raise EmptyGrid("gamma grid must be non-empty")
    if isinstance(params, NoisyObsParams):
        return [noisy_boundary(params, g) for g in gammas]
    return [dpc_fb_boundary(params, g) for g in gammas]


def finite_n_distortion(Q, n, d_step, init_slots):
    """Block-averaged distortion target of an n-step block: each of the
    ``init_slots`` slots without a state estimate contributes Q, every
    other slot the per-step floor ``d_step``."""
    return init_slots * Q / n + (n - init_slots) / n * d_step


def unit_grid(count, field="grid"):
    """count evenly spaced points covering [0, 1]; a count whose points numpy
    cannot allocate is a ConfigError naming ``field``."""
    if count < 1:
        raise EmptyGrid("grid count must be >= 1")
    try:
        return np.linspace(0.0, 1.0, count)
    except (ValueError, MemoryError):
        raise ConfigError(f"{field} = {count} is too large: its points do not fit in memory",
                          field=field) from None

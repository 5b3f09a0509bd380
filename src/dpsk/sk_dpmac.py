"""Feedback coding for the two-encoder dirty paper channel.

Both encoders see the state block ahead of time and the channel output
through noiseless feedback; the receiver decodes both messages and
estimates the state. Channel: Y_t = X_{1,t} + X_{2,t} + S_t + eta_t.

Each encoder splits its budget like the single-user scheme. With
forwarding coefficients sc_i = sqrt((1-gamma)P1/Q), sqrt((1-beta)P2/Q) the
receiver sees the state through lambda = 1 + sc1 + sc2. The first two
channel uses initialize the loops one encoder at a time (encoder 2 is
message-silent at t = 1 and encoder 1 at t = 2, each still forwarding
state); from t = 3 both refine simultaneously:

    G_{1,t} = sqrt(gamma P1 / alpha_{1,t-1}) eps_{1,t-1}
    G_{2,t} = s_t sqrt(beta P2 / alpha_{2,t-1}) eps_{2,t-1}

where s_t aligns encoder 2 against the current error correlation
rho = E[eps_1 eps_2]/sqrt(alpha_1 alpha_2). The raw correlation flips sign
at every joint update; the aligned value s_t * rho is the quantity that
converges, to the fixed point rho* computed by
:func:`dpsk.regions.solve_rho_star`. Default alignment is s = +/-1; a
stricter convention maps negative rho to s = 0, silencing encoder 2, and
stays selectable (``paper_sgn=True``) for diagnostics.

All per-step constants follow from forward propagation of the 2x2
covariance of (eps_1, eps_2): with z_t = Y_t - lambda S_t,

    mu_{i,t} = E[eps_{i,t-1} z_t] / E[z_t^2],
    eps_{i,t} = eps_{i,t-1} - mu_{i,t} z_t,

which the propagation evaluates from raw second moments each step.

The batch kernel runs the single-user closed loop, ``sk_dpc._closed_loop``,
with two encoders that start in turn; it matches the reference that runs
one channel use at a time, ``tests/stepwise.py``, bit for bit.
"""

import dataclasses
import math
import sys

import numpy as np

from . import regions
from .errors import BlocklengthTooSmall, ConfigError, DegenerateSplit
from .params import MacParams, check_fraction, resolve_block
from .sk_dpc import _closed_loop, batch_of_one, decode_batch, message_to_theta, single_block


@dataclasses.dataclass(frozen=True)
class MacSkCoefficients:
    """Per-step constants of the two-encoder loop.

    Index k refers to time t = k+1. Slots that a sequence does not define
    hold NaN (gains before t = 3, alpha2 before t = 2, rho before t = 2);
    mu and est_coef hold 0 in their inactive slots so decoder and
    estimator can apply them uniformly.

    ``rho[k]`` is the sign-aligned error correlation after step k+1 (the
    quantity that converges to rho*), ``rho_raw[k]`` the signed value, and
    ``signs[k]`` the sign encoder 2 applies at step k+1.
    """

    params: MacParams
    gamma: float
    beta: float
    n: int
    paper_sgn: bool
    lam: float
    state_coef1: float
    state_coef2: float
    message_amp1: float
    message_amp2: float
    mu1: np.ndarray
    mu2: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    gain1: np.ndarray
    gain2: np.ndarray
    rho: np.ndarray
    rho_raw: np.ndarray
    signs: np.ndarray
    ey2: np.ndarray
    est_coef: np.ndarray

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def _sign(raw, paper_sgn):
    if raw >= 0.0:
        return 1.0
    return 0.0 if paper_sgn else -1.0


def mac_coefficients(params: MacParams, gamma, beta, n, paper_sgn=False):
    """Propagate the error covariance and freeze every per-step constant.

    A block long enough to take alpha1*alpha2 below float64's normal range,
    where the correlation c12/sqrt(alpha1 alpha2) can no longer be formed,
    is rejected with ConfigError naming the longest block these parameters
    support. A gamma*P1 or beta*P2 so small that the first variance
    sigma2/(12 gamma P1) or sigma2/(12 beta P2) overflows is rejected as well,
    and so is one so large that a variance update cancels to <= 0.
    """
    gamma = check_fraction("gamma", gamma)
    beta = check_fraction("beta", beta)
    if n < 3:
        raise BlocklengthTooSmall(f"two-encoder blocks need n >= 3, got {n}", field="n")
    A = gamma * params.P1
    B = beta * params.P2
    if A == 0.0 or B == 0.0:
        raise DegenerateSplit("both encoders need message power: gamma*P1, beta*P2 > 0")
    Q, s2 = params.Q, params.sigma2
    sc1 = math.sqrt((1.0 - gamma) * params.P1 / Q) if Q else 0.0
    sc2 = math.sqrt((1.0 - beta) * params.P2 / Q) if Q else 0.0
    lam = 1.0 + sc1 + sc2

    mu1 = np.zeros(n)
    mu2 = np.zeros(n)
    alpha1 = np.full(n, np.nan)
    alpha2 = np.full(n, np.nan)
    gain1 = np.full(n, np.nan)
    gain2 = np.full(n, np.nan)
    rho = np.full(n, np.nan)
    rho_raw = np.full(n, np.nan)
    signs = np.ones(n)
    ey2 = np.full(n, np.nan)
    est_coef = np.zeros(n)

    # Initialization slots: each encoder learns its own eps exactly once.
    a1 = s2 / (12.0 * A)
    a2 = s2 / (12.0 * B)
    for name, power, a in (("gamma", "gamma*P1", a1), ("beta", "beta*P2", a2)):
        if not math.isfinite(a):
            raise ConfigError(
                f"{power} is too small: the first error variance overflows float64", field=name
            )
    c12 = 0.0
    alpha1[0] = alpha1[1] = a1
    alpha2[1] = a2
    rho[1] = rho_raw[1] = 0.0

    for k in range(2, n):
        raw_prev = c12 / math.sqrt(a1 * a2)
        s = _sign(raw_prev, paper_sgn)
        signs[k] = s
        g1 = math.sqrt(A / a1)
        g2 = s * math.sqrt(B / a2)
        gain1[k] = g1
        gain2[k] = g2
        e1 = g1 * a1 + g2 * c12
        e2 = g1 * c12 + g2 * a2
        v = g1 * g1 * a1 + g2 * g2 * a2 + 2.0 * g1 * g2 * c12 + s2
        mu1[k] = e1 / v
        mu2[k] = e2 / v
        a1 = a1 - e1 * e1 / v
        a2 = a2 - e2 * e2 / v
        c12 = c12 - e1 * e2 / v
        if min(a1, a2) <= 0.0:
            name, label, power = ("gamma", "gamma*P1", A) if a1 <= 0.0 else ("beta", "beta*P2", B)
            raise ConfigError(
                f"{label}/sigma2 = {power / s2:.3g} is too large: the error variance "
                f"update cancels in float64 at step {k + 1}",
                field=name,
            )
        if a1 * a2 < sys.float_info.min:
            raise ConfigError(
                f"n = {n} is too long for these parameters: the error covariance "
                f"underflows float64 at step {k + 1}; the longest block is n = {k}",
                field="n",
            )
        alpha1[k] = a1
        alpha2[k] = a2
        raw = c12 / math.sqrt(a1 * a2)
        rho_raw[k] = raw
        rho[k] = _sign(raw, paper_sgn) * raw
        ey2[k] = v + lam * lam * Q
        est_coef[k] = lam * Q / ey2[k]

    return MacSkCoefficients(
        params=params,
        gamma=gamma,
        beta=beta,
        n=int(n),
        paper_sgn=bool(paper_sgn),
        lam=lam,
        state_coef1=sc1,
        state_coef2=sc2,
        message_amp1=math.sqrt(12.0 * A),
        message_amp2=math.sqrt(12.0 * B),
        mu1=mu1,
        mu2=mu2,
        alpha1=alpha1,
        alpha2=alpha2,
        gain1=gain1,
        gain2=gain2,
        rho=rho,
        rho_raw=rho_raw,
        signs=signs,
        ey2=ey2,
        est_coef=est_coef,
    )


@dataclasses.dataclass(frozen=True)
class MacSchemeTrace:
    """Everything observable from one simulated two-encoder block, or from
    a batch of B blocks with (B,) message arrays and (B, n) traces."""

    W1: int
    W2: int
    W1_hat: int
    W2_hat: int
    M1: int
    M2: int
    X1: np.ndarray
    X2: np.ndarray
    Y: np.ndarray
    theta1_hat: np.ndarray
    theta2_hat: np.ndarray
    S: np.ndarray
    S_hat: np.ndarray

    @property
    def distortion(self):
        return float(np.mean((self.S - self.S_hat) ** 2))


def resolve_mac_rates(params: MacParams, gamma, beta, block):
    """Per-user (rate, M) pairs resolved against the rate caps at rho*, and the
    :class:`dpsk.regions.MacRegionConstraints` record at rho* (``.rho``) they come from."""
    rho_star = regions.solve_rho_star(params, gamma, beta)
    caps = regions.mac_constraints(params, gamma, beta, rho_star)
    rate1, m1 = resolve_block(block, caps.r1_max)
    rate2, m2 = resolve_block(block, caps.r2_max)
    return (rate1, m1), (rate2, m2), caps


def mac_run_batch(coeffs: MacSkCoefficients, M1, M2, W1, W2, S, eta):
    """Simulate a batch of two-encoder blocks from supplied draws.

    ``W1``, ``W2`` have shape (B,) and ``S``, ``eta`` shape (B, n).
    Returns a :class:`MacSchemeTrace` of (B,) messages and (B, n) traces.
    """
    X1, X2, Y, th1, th2, _, _ = simulate_mac_batch(
        coeffs, message_to_theta(W1, M1), message_to_theta(W2, M2), S, eta
    )
    W1_hat, W2_hat = mac_decode_batch(th1[:, -1], th2[:, -1], M1, M2)
    return MacSchemeTrace(
        W1=W1, W2=W2, W1_hat=W1_hat, W2_hat=W2_hat, M1=M1, M2=M2, X1=X1, X2=X2, Y=Y,
        theta1_hat=th1, theta2_hat=th2, S=S, S_hat=coeffs.est_coef * Y,
    )


def mac_run_block(params: MacParams, gamma, beta, block, W1, W2, S, eta):
    """Simulate one complete two-encoder block from supplied draws.

    This is :func:`mac_run_batch`, the path the simulation harness runs,
    on a batch of one block.
    """
    S, eta = batch_of_one(block.n, S=S, eta=eta)
    (_, M1), (_, M2), _ = resolve_mac_rates(params, gamma, beta, block)
    coeffs = mac_coefficients(params, gamma, beta, block.n)
    return single_block(mac_run_batch(coeffs, M1, M2, np.array([W1]), np.array([W2]), S, eta))


def simulate_mac_batch(coeffs: MacSkCoefficients, theta1, theta2, S, eta):
    """Vectorized closed loop over a batch of independent blocks.

    Returns (X1, X2, Y, th1, th2, eps1, eps2); traces are (B, n), the final
    tracking errors (B,): the two-encoder :func:`dpsk.sk_dpc._closed_loop`,
    bit for bit ``tests/stepwise.py``.
    """
    loops = [(theta1, coeffs.message_amp1, coeffs.state_coef1, coeffs.gain1, coeffs.mu1),
             (theta2, coeffs.message_amp2, coeffs.state_coef2, coeffs.gain2, coeffs.mu2)]
    X, Y, theta_hat, eps = _closed_loop(coeffs.lam, loops, S, eta)
    return *X, Y, *theta_hat, *eps


def mac_decode_batch(th1_final, th2_final, M1, M2):
    return decode_batch(th1_final, M1), decode_batch(th2_final, M2)

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
"""

import dataclasses
import math
import sys

import numpy as np

from . import regions
from .errors import (
    BlocklengthTooSmall,
    ConfigError,
    DegenerateSplit,
    LengthMismatch,
    OutOfOrderStep,
)
from .params import MacParams, check_fraction, resolve_block
from .sk_dpc import decode_batch, finalize_decode, message_to_theta


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
    support.
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
    c12 = 0.0
    alpha1[0] = a1
    alpha1[1] = a1
    alpha2[1] = a2
    rho[1] = 0.0
    rho_raw[1] = 0.0

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


def mac_offsets(S, coeffs: MacSkCoefficients):
    """One-shot state offsets pre-subtracted at each encoder's init slot."""
    S = np.asarray(S, dtype=float)
    if S.shape != (coeffs.n,):
        raise LengthMismatch(f"state sequence must have length {coeffs.n}, got {S.shape}")
    tail1 = float(coeffs.mu1[2:] @ S[2:])
    tail2 = float(coeffs.mu2[2:] @ S[2:])
    o1 = coeffs.lam * (S[0] / coeffs.message_amp1 - tail1)
    o2 = coeffs.lam * (S[1] / coeffs.message_amp2 - tail2)
    return o1, o2


@dataclasses.dataclass(frozen=True)
class MacEncoderState:
    """Joint transmitter-side state between channel uses."""

    t: int
    theta1: float
    theta2: float
    offset1: float
    offset2: float
    eps1: float | None
    eps2: float | None
    s_prev: float | None


def start_encoders(theta1, theta2, S, coeffs: MacSkCoefficients):
    o1, o2 = mac_offsets(S, coeffs)
    return MacEncoderState(
        t=0,
        theta1=float(theta1),
        theta2=float(theta2),
        offset1=o1,
        offset2=o2,
        eps1=None,
        eps2=None,
        s_prev=None,
    )


def mac_encode_step(state: MacEncoderState, coeffs: MacSkCoefficients, s_t, y_prev=None):
    """Produce (X_{1,t}, X_{2,t}) and the advanced joint state."""
    t = state.t + 1
    if t > coeffs.n:
        raise OutOfOrderStep(f"block length {coeffs.n} exhausted")
    if t == 1 and y_prev is not None:
        raise OutOfOrderStep("no feedback exists before the first use")
    if t > 1 and y_prev is None:
        raise OutOfOrderStep(f"step {t} needs feedback of step {t - 1}")

    eps1, eps2 = state.eps1, state.eps2
    if t == 1:
        x1 = (
            coeffs.message_amp1 * (state.theta1 - state.offset1)
            + coeffs.state_coef1 * s_t
        )
        x2 = coeffs.state_coef2 * s_t
    elif t == 2:
        eps1 = (
            y_prev
            - coeffs.message_amp1 * (state.theta1 - state.offset1)
            - coeffs.lam * state.s_prev
        ) / coeffs.message_amp1
        x1 = coeffs.state_coef1 * s_t
        x2 = (
            coeffs.message_amp2 * (state.theta2 - state.offset2)
            + coeffs.state_coef2 * s_t
        )
    else:
        if t == 3:
            # Feedback of slot 2 initializes encoder 2; encoder 1 carries
            # its slot-1 error through unchanged.
            eps2 = (
                y_prev
                - coeffs.message_amp2 * (state.theta2 - state.offset2)
                - coeffs.lam * state.s_prev
            ) / coeffs.message_amp2
        else:
            z = y_prev - coeffs.lam * state.s_prev
            eps1 = eps1 - coeffs.mu1[t - 2] * z
            eps2 = eps2 - coeffs.mu2[t - 2] * z
        x1 = coeffs.gain1[t - 1] * eps1 + coeffs.state_coef1 * s_t
        x2 = coeffs.gain2[t - 1] * eps2 + coeffs.state_coef2 * s_t

    return x1, x2, MacEncoderState(
        t=t,
        theta1=state.theta1,
        theta2=state.theta2,
        offset1=state.offset1,
        offset2=state.offset2,
        eps1=eps1,
        eps2=eps2,
        s_prev=float(s_t),
    )


def mac_decode(Y, coeffs: MacSkCoefficients, M1, M2):
    """Run both receiver refinement chains over a block of outputs.

    Returns (W1_hat, W2_hat, theta1_hat, theta2_hat). User 2 has no
    estimate before its init slot, so theta2_hat[0] is NaN. The inactive
    mu slots are zero, which realizes the skip-slot updates.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (coeffs.n,):
        raise LengthMismatch(f"output sequence must have length {coeffs.n}, got {Y.shape}")
    th1 = np.empty(coeffs.n)
    th2 = np.empty(coeffs.n)
    th1[0] = Y[0] / coeffs.message_amp1
    th2[0] = np.nan
    th2[1] = Y[1] / coeffs.message_amp2
    th1[1] = th1[0] - coeffs.mu1[1] * Y[1]
    for k in range(2, coeffs.n):
        th1[k] = th1[k - 1] - coeffs.mu1[k] * Y[k]
        th2[k] = th2[k - 1] - coeffs.mu2[k] * Y[k]
    return (
        finalize_decode(th1[-1], M1),
        finalize_decode(th2[-1], M2),
        th1,
        th2,
    )


def mac_estimate_state(Y, params: MacParams, gamma, beta, paper_sgn=False):
    """Receiver state estimates S_hat_t = c_t Y_t.

    The per-step weights c_t = E[S_t Y_t]/E[Y_t^2] = lambda Q / E[Y_t^2]
    come from the propagated covariances; the two init slots carry no
    usable state component, so S_hat is 0 there.
    """
    Y = np.asarray(Y, dtype=float)
    coeffs = mac_coefficients(params, gamma, beta, Y.shape[-1], paper_sgn=paper_sgn)
    return coeffs.est_coef * Y


@dataclasses.dataclass(frozen=True)
class MacSchemeTrace:
    """Everything observable from one simulated two-encoder block."""

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
    """Per-user (rate, M) pairs resolved against the rate caps at rho*."""
    rho_star = regions.solve_rho_star(params, gamma, beta)
    caps = regions.mac_constraints(params, gamma, beta, rho_star)
    rate1, m1 = resolve_block(block, caps.r1_max)
    rate2, m2 = resolve_block(block, caps.r2_max)
    return (rate1, m1), (rate2, m2), rho_star


def mac_run_block(params: MacParams, gamma, beta, block, W1, W2, S, eta):
    """Simulate one complete two-encoder block from supplied draws."""
    n = block.n
    if n < 3:
        raise BlocklengthTooSmall(f"two-encoder blocks need n >= 3, got {n}", field="n")
    S = np.asarray(S, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if S.shape != (n,) or eta.shape != (n,):
        raise LengthMismatch(f"S and eta must have shape ({n},)")
    (rate1, M1), (rate2, M2), _ = resolve_mac_rates(params, gamma, beta, block)
    coeffs = mac_coefficients(params, gamma, beta, n)
    theta1 = message_to_theta(W1, M1)
    theta2 = message_to_theta(W2, M2)

    X1 = np.empty(n)
    X2 = np.empty(n)
    Y = np.empty(n)
    state = start_encoders(theta1, theta2, S, coeffs)
    for t in range(1, n + 1):
        y_prev = Y[t - 2] if t >= 2 else None
        x1, x2, state = mac_encode_step(state, coeffs, S[t - 1], y_prev)
        X1[t - 1] = x1
        X2[t - 1] = x2
        Y[t - 1] = x1 + x2 + S[t - 1] + eta[t - 1]

    w1_hat, w2_hat, th1, th2 = mac_decode(Y, coeffs, M1, M2)
    s_hat = coeffs.est_coef * Y
    return MacSchemeTrace(
        W1=int(W1),
        W2=int(W2),
        W1_hat=w1_hat,
        W2_hat=w2_hat,
        M1=M1,
        M2=M2,
        X1=X1,
        X2=X2,
        Y=Y,
        theta1_hat=th1,
        theta2_hat=th2,
        S=S,
        S_hat=s_hat,
    )


def simulate_mac_batch(coeffs: MacSkCoefficients, theta1, theta2, S, eta):
    """Vectorized closed loop over a batch of independent blocks.

    Returns (X1, X2, Y, th1, th2, eps1, eps2); traces are (B, n), the final
    tracking errors (B,). Matches ``mac_run_block`` sample for sample.
    """
    n = coeffs.n
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    batch = theta1.shape[0]
    if S.shape != (batch, n) or eta.shape != S.shape:
        raise LengthMismatch(f"batch shapes must be ({batch}, {n})")
    amp1, amp2, lam = coeffs.message_amp1, coeffs.message_amp2, coeffs.lam
    # row-wise dots so this path rounds exactly like mac_offsets
    tails1 = np.array([float(coeffs.mu1[2:] @ row) for row in S[:, 2:]])
    tails2 = np.array([float(coeffs.mu2[2:] @ row) for row in S[:, 2:]])
    o1 = lam * (S[:, 0] / amp1 - tails1)
    o2 = lam * (S[:, 1] / amp2 - tails2)

    X1 = np.empty_like(S)
    X2 = np.empty_like(S)
    Y = np.empty_like(S)
    th1 = np.empty_like(S)
    th2 = np.empty_like(S)

    X1[:, 0] = amp1 * (theta1 - o1) + coeffs.state_coef1 * S[:, 0]
    X2[:, 0] = coeffs.state_coef2 * S[:, 0]
    Y[:, 0] = X1[:, 0] + X2[:, 0] + S[:, 0] + eta[:, 0]
    th1[:, 0] = Y[:, 0] / amp1
    th2[:, 0] = np.nan
    eps1 = (Y[:, 0] - amp1 * (theta1 - o1) - lam * S[:, 0]) / amp1

    X1[:, 1] = coeffs.state_coef1 * S[:, 1]
    X2[:, 1] = amp2 * (theta2 - o2) + coeffs.state_coef2 * S[:, 1]
    Y[:, 1] = X1[:, 1] + X2[:, 1] + S[:, 1] + eta[:, 1]
    th2[:, 1] = Y[:, 1] / amp2
    th1[:, 1] = th1[:, 0] - coeffs.mu1[1] * Y[:, 1]
    eps2 = (Y[:, 1] - amp2 * (theta2 - o2) - lam * S[:, 1]) / amp2

    for k in range(2, n):
        X1[:, k] = coeffs.gain1[k] * eps1 + coeffs.state_coef1 * S[:, k]
        X2[:, k] = coeffs.gain2[k] * eps2 + coeffs.state_coef2 * S[:, k]
        Y[:, k] = X1[:, k] + X2[:, k] + S[:, k] + eta[:, k]
        z = Y[:, k] - lam * S[:, k]
        eps1 = eps1 - coeffs.mu1[k] * z
        eps2 = eps2 - coeffs.mu2[k] * z
        th1[:, k] = th1[:, k - 1] - coeffs.mu1[k] * Y[:, k]
        th2[:, k] = th2[:, k - 1] - coeffs.mu2[k] * Y[:, k]
    return X1, X2, Y, th1, th2, eps1, eps2


def mac_decode_batch(th1_final, th2_final, M1, M2):
    return decode_batch(th1_final, M1), decode_batch(th2_final, M2)


def finite_n_distortion(params: MacParams, gamma, beta, n):
    """Block-averaged distortion target: the two init slots contribute Q."""
    rho_star = regions.solve_rho_star(params, gamma, beta)
    d_step = regions.mac_constraints(params, gamma, beta, rho_star).d_min
    return 2.0 * params.Q / n + (n - 2) / n * d_step

"""Recursive feedback coding for the single-user dirty paper channel.

The channel is Y_t = X_t + S_t + eta_t with i.i.d. state S_t ~ N(0, Q)
known to the transmitter ahead of time, noise eta_t ~ N(0, sigma2), and
noiseless output feedback. The message W in {1..M} is mapped onto a point
theta of a uniform grid in (-1/2, 1/2) and refined over n channel uses.

Power gamma*P drives the message loop; the remaining (1-gamma)*P
re-transmits the scaled state sqrt((1-gamma)P/Q) * S_t so the receiver can
estimate S as well. The receiver therefore sees the state through the
combined gain omega = 1 + sqrt((1-gamma)P/Q).

Everything the receiver will ever learn about the state enters its first
estimate through the one-shot offset

    O = omega/sqrt(12 gamma P) * S_1 - omega * sum_{i>=2} mu_i S_i,

which the transmitter can pre-subtract because it knows the whole state
sequence. X_1 = sqrt(12 gamma P) (theta - O) + sqrt((1-gamma)P/Q) S_1 then
makes Y_1 free of S_1, and each later correction term mu_i Y_i applied by
the receiver re-introduces exactly the state contribution the offset
already cancelled. After step n the receiver's estimate equals
theta + eps_n where eps_n is the transmitter's tracking error:

    eps_1 = eta_1 / sqrt(12 gamma P),         alpha_1 = sigma2/(12 gamma P),
    eps_t = eps_{t-1} - mu_t (Y_t - omega S_t),
    mu_t  = E[eps_{t-1}(Y_t - omega S_t)] / E[(Y_t - omega S_t)^2]
          = sqrt(gamma P alpha_{t-1}) / (gamma P + sigma2),
    alpha_t = alpha_{t-1} * sigma2 / (gamma P + sigma2).

The mu_t/alpha_t forms are obtained by evaluating the defining
expectations with X_t's message part at power gamma P; the implementation
iterates the recursion explicitly rather than substituting the geometric
closed form, and the tests re-derive every value through an independent
covariance propagation.
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
    MessageOutOfRange,
    OutOfOrderStep,
)
from .params import DpcParams, check_fraction, resolve_block


@dataclasses.dataclass(frozen=True)
class SkCoefficients:
    """Deterministic per-step constants of the message loop.

    Arrays are aligned so that index k refers to time t = k+1:
    ``alpha[k]`` is the tracking-error variance after step k+1, ``mu[k-1]``
    the combining weight of step k+1 (k >= 1), and ``gain[k]`` the
    amplitude sqrt(gamma P / alpha_k-1) applied at step k+1 (``gain[0]`` is
    NaN; step 1 uses ``message_amp`` instead).
    """

    params: DpcParams
    gamma: float
    n: int
    mu: np.ndarray
    alpha: np.ndarray
    gain: np.ndarray
    omega: float
    state_coef: float
    message_amp: float

    def __post_init__(self):
        for name in ("mu", "alpha", "gain"):
            getattr(self, name).setflags(write=False)


def state_forward_coefficient(params: DpcParams, gamma):
    """sqrt((1-gamma) P / Q); 0 when there is no state to forward."""
    check_fraction("gamma", gamma)
    if params.Q == 0.0:
        return 0.0
    return math.sqrt((1.0 - gamma) * params.P / params.Q)


def compute_coefficients(params: DpcParams, gamma, n):
    """Evaluate the mu/alpha recursion for an n-step block.

    ``alpha`` decays geometrically; a block long enough to take it below
    float64's normal range, or so low that the next gain sqrt(gamma P /
    alpha) overflows, is rejected with ConfigError naming the longest
    block these parameters support. A gamma*P so small that the first
    variance sigma2/(12 gamma P) overflows is rejected as well.
    """
    check_fraction("gamma", gamma)
    if n < 2:
        raise BlocklengthTooSmall(f"the message loop needs n >= 2, got {n}", field="n")
    gp = gamma * params.P
    if gp == 0.0:
        raise DegenerateSplit("gamma*P = 0 leaves no message power")
    s2 = params.sigma2
    mu = np.empty(n - 1)
    alpha = np.empty(n)
    gain = np.empty(n)
    gain[0] = np.nan
    alpha[0] = s2 / (12.0 * gp)
    if not math.isfinite(alpha[0]):
        raise ConfigError(
            f"gamma*P = {gp!r} is too small: the first error variance "
            "sigma2/(12 gamma P) overflows float64",
            field="gamma",
        )
    alpha_floor = max(sys.float_info.min, gp / sys.float_info.max)
    for k in range(1, n):
        mu[k - 1] = math.sqrt(gp * alpha[k - 1]) / (gp + s2)
        alpha[k] = alpha[k - 1] - mu[k - 1] ** 2 * (gp + s2)
        gain[k] = math.sqrt(gp / alpha[k - 1])
        if alpha[k] < alpha_floor:
            raise ConfigError(
                f"n = {n} is too long for these parameters: the error variance "
                f"underflows float64 at step {k + 1}; the longest block is n = {k}",
                field="n",
            )
    state_coef = state_forward_coefficient(params, gamma)
    return SkCoefficients(
        params=params,
        gamma=float(gamma),
        n=int(n),
        mu=mu,
        alpha=alpha,
        gain=gain,
        omega=1.0 + state_coef,
        state_coef=state_coef,
        message_amp=math.sqrt(12.0 * gp),
    )


def message_to_theta(w, M):
    """Map message index (or index array) w in 1..M to -1/2 + (2w-1)/(2M)."""
    if M < 1:
        raise MessageOutOfRange(f"message-set size must be >= 1, got {M}")
    if np.min(w) < 1 or np.max(w) > M:
        raise MessageOutOfRange(f"message {w} outside 1..{M}")
    return -0.5 + (2.0 * w - 1.0) / (2.0 * M)


def finalize_decode(theta_hat, M):
    """Nearest message grid point, ties toward the smaller index."""
    if M < 1:
        raise MessageOutOfRange(f"message-set size must be >= 1, got {M}")
    # Grid position of theta_hat; ceil(x - 1/2) rounds half-down.
    w = math.ceil((theta_hat + 0.5) * M)
    return min(max(w, 1), M)


def decode_update(theta_hat_prev, y_t, mu_t):
    """One receiver refinement: theta_hat_t = theta_hat_{t-1} - mu_t Y_t."""
    return theta_hat_prev - mu_t * y_t


def compute_offset(S, coeffs: SkCoefficients):
    """One-shot state offset pre-subtracted at t = 1."""
    S = np.asarray(S, dtype=float)
    if S.shape != (coeffs.n,):
        raise LengthMismatch(f"state sequence must have length {coeffs.n}, got {S.shape}")
    return coeffs.omega * (S[0] / coeffs.message_amp - float(coeffs.mu @ S[1:]))


@dataclasses.dataclass(frozen=True)
class EncoderState:
    """Transmitter-side state between channel uses."""

    t: int
    theta: float
    offset: float
    epsilon: float | None
    s_prev: float | None


def start_encoder(theta, S, coeffs: SkCoefficients):
    """Initialize the transmitter: the offset needs the full state block."""
    return EncoderState(
        t=0, theta=float(theta), offset=compute_offset(S, coeffs), epsilon=None, s_prev=None
    )


def encode_step(state: EncoderState, coeffs: SkCoefficients, s_t, y_prev=None):
    """Produce X_t and the advanced encoder state.

    ``y_prev`` is the fed-back channel output of the previous use; it must
    be absent at t = 1 and present afterwards. The tracking error is
    refreshed from the feedback before transmitting.
    """
    t = state.t + 1
    if t > coeffs.n:
        raise OutOfOrderStep(f"block length {coeffs.n} exhausted")
    if t == 1:
        if y_prev is not None:
            raise OutOfOrderStep("no feedback exists before the first use")
        x = coeffs.message_amp * (state.theta - state.offset) + coeffs.state_coef * s_t
        eps = None
    else:
        if y_prev is None:
            raise OutOfOrderStep(f"step {t} needs feedback of step {t - 1}")
        if t == 2:
            # First feedback reveals eta_1, hence eps_1, exactly.
            eps = (
                y_prev
                - coeffs.message_amp * (state.theta - state.offset)
                - coeffs.omega * state.s_prev
            ) / coeffs.message_amp
        else:
            eps = state.epsilon - coeffs.mu[t - 3] * (y_prev - coeffs.omega * state.s_prev)
        x = coeffs.gain[t - 1] * eps + coeffs.state_coef * s_t
    return x, EncoderState(
        t=t, theta=state.theta, offset=state.offset, epsilon=eps, s_prev=float(s_t)
    )


def estimation_coefficient(params: DpcParams, gamma):
    """Scalar MMSE weight c with S_hat_t = c Y_t for t >= 2.

    c = sqrt(Q)(sqrt(Q) + sqrt((1-gamma)P))
        / ((sqrt(Q) + sqrt((1-gamma)P))^2 + gamma P + sigma2).
    """
    check_fraction("gamma", gamma)
    Q = params.Q
    if Q == 0.0:
        return 0.0
    reach = math.sqrt(Q) + math.sqrt((1.0 - gamma) * params.P)
    return math.sqrt(Q) * reach / (reach**2 + gamma * params.P + params.sigma2)


def estimate_state(Y, params: DpcParams, gamma):
    """Receiver state estimates for a block of outputs.

    S_hat_1 = 0 by construction (Y_1 carries no state after the offset
    cancellation); later estimates are c * Y_t. Works on a trailing time
    axis, so batched inputs pass through unchanged.
    """
    Y = np.asarray(Y, dtype=float)
    s_hat = estimation_coefficient(params, gamma) * Y
    s_hat[..., 0] = 0.0
    return s_hat


@dataclasses.dataclass(frozen=True)
class SchemeTrace:
    """Everything observable from one simulated block, or from a batch of
    B blocks with (B,) message arrays and (B, n) traces."""

    W: int
    W_hat: int
    M: int
    X: np.ndarray
    Y: np.ndarray
    theta_hat: np.ndarray
    S: np.ndarray
    S_hat: np.ndarray

    @property
    def distortion(self):
        return float(np.mean((self.S - self.S_hat) ** 2))

    @property
    def symbol_powers(self):
        return self.X**2


def batch_of_one(n, **draws):
    """Check that each draw has shape (n,) and return it as a (1, n) batch."""
    batch = []
    for name, arr in draws.items():
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (n,):
            raise LengthMismatch(f"{name} must have shape ({n},), got {arr.shape}")
        batch.append(arr[None])
    return batch


def single_block(trace):
    """A batch record of one block as that block's record: ints and (n,) arrays."""
    row = {}
    for field in dataclasses.fields(trace):
        value = getattr(trace, field.name)
        if isinstance(value, np.ndarray):
            row[field.name] = value[0] if value.ndim == 2 else int(value[0])
    return dataclasses.replace(trace, **row)


def resolve_loop(params: DpcParams, gamma, block):
    """Rate, message-set size and loop coefficients of one configuration.

    Returns ``(rate, M, coeffs)``; ``coeffs`` is None when gamma*P = 0,
    which leaves only state forwarding and requires M = 1.
    """
    rate, M = resolve_block(block, regions.dpc_rate_cap(params, gamma))
    if gamma * params.P == 0.0:
        if M > 1:
            raise DegenerateSplit("gamma*P = 0 cannot carry a message, resolve M = 1")
        return rate, M, None
    return rate, M, compute_coefficients(params, gamma, block.n)


def run_batch(params: DpcParams, gamma, M, coeffs, W, S, eta, estimate=None):
    """Simulate a batch of blocks from supplied draws.

    ``M`` and ``coeffs`` come from :func:`resolve_loop`, ``W`` has shape
    (B,) and ``S``, ``eta`` shape (B, n). ``estimate`` maps the outputs Y
    to the state estimates; it defaults to :func:`estimate_state`. Returns
    a :class:`SchemeTrace` of (B,) messages and (B, n) traces.
    """
    if coeffs is None:
        X, Y = simulate_forwarding_batch(params, gamma, S, eta)
        theta_hat = np.zeros_like(Y)
        W_hat = W
    else:
        X, Y, theta_hat, _ = simulate_message_batch(coeffs, message_to_theta(W, M), S, eta)
        W_hat = decode_batch(theta_hat[:, -1], M)
    S_hat = estimate_state(Y, params, gamma) if estimate is None else estimate(Y)
    return SchemeTrace(W=W, W_hat=W_hat, M=M, X=X, Y=Y, theta_hat=theta_hat, S=S, S_hat=S_hat)


def run_block(params: DpcParams, gamma, block, W, S, eta):
    """Simulate one complete block from externally supplied draws.

    Deterministic: the trace is a pure function of the arguments. ``S`` and
    ``eta`` must be length-n arrays. The message path is skipped when
    gamma*P = 0, which requires M = 1. This is :func:`run_batch`, the path
    the simulation harness runs, on a batch of one block.
    """
    S, eta = batch_of_one(block.n, S=S, eta=eta)
    _, M, coeffs = resolve_loop(params, gamma, block)
    return single_block(run_batch(params, gamma, M, coeffs, np.array([W]), S, eta))


def simulate_message_batch(coeffs: SkCoefficients, theta, S, eta):
    """Vectorized closed loop over a batch of independent blocks.

    ``theta`` has shape (B,), ``S`` and ``eta`` shape (B, n). Returns
    (X, Y, theta_hat, eps) where the first three are (B, n) traces and
    ``eps`` is the final tracking error per block. Matches the stepwise
    :func:`encode_step` protocol sample for sample; the stepwise API is
    the reference, this is the throughput path.
    """
    n = coeffs.n
    theta = np.asarray(theta, dtype=float)
    if S.shape != (theta.shape[0], n) or eta.shape != S.shape:
        raise LengthMismatch(
            f"batch shapes must be ({theta.shape[0]}, {n}), got {S.shape} and {eta.shape}"
        )
    amp = coeffs.message_amp
    # row-wise dots: one matrix product can round differently from the
    # per-block dot in compute_offset, and the two paths must agree exactly
    tails = np.array([float(coeffs.mu @ row) for row in S[:, 1:]])
    offset = coeffs.omega * (S[:, 0] / amp - tails)
    X = np.empty_like(S)
    Y = np.empty_like(S)
    theta_hat = np.empty_like(S)
    X[:, 0] = amp * (theta - offset) + coeffs.state_coef * S[:, 0]
    Y[:, 0] = X[:, 0] + S[:, 0] + eta[:, 0]
    theta_hat[:, 0] = Y[:, 0] / amp
    eps = (Y[:, 0] - amp * (theta - offset) - coeffs.omega * S[:, 0]) / amp
    for k in range(1, n):
        X[:, k] = coeffs.gain[k] * eps + coeffs.state_coef * S[:, k]
        Y[:, k] = X[:, k] + S[:, k] + eta[:, k]
        eps = eps - coeffs.mu[k - 1] * (Y[:, k] - coeffs.omega * S[:, k])
        theta_hat[:, k] = theta_hat[:, k - 1] - coeffs.mu[k - 1] * Y[:, k]
    return X, Y, theta_hat, eps


def simulate_forwarding_batch(params: DpcParams, gamma, S, eta):
    """Vectorized no-message path (gamma*P = 0): pure state forwarding."""
    X = state_forward_coefficient(params, gamma) * S
    Y = X + S + eta
    return X, Y


def decode_batch(theta_hat_final, M):
    """Vectorized nearest-point decisions, ties toward the smaller index."""
    w = np.ceil((np.asarray(theta_hat_final) + 0.5) * M)
    return np.clip(w, 1, M).astype(np.int64)


def time1_power_theory(params: DpcParams, gamma, n, M=None):
    """Expected E[X_1^2]: gamma P + (1 + 12 gamma P omega^2 sum mu_i^2) Q.

    The message term assumes theta uniform on (-1/2, 1/2); passing M uses
    the exact discrete-grid variance instead (factor (M^2-1)/M^2).
    """
    coeffs = compute_coefficients(params, gamma, n)
    gp = gamma * params.P
    message_term = gp if M is None else gp * (M**2 - 1) / M**2
    state_term = (
        1.0 + 12.0 * gp * coeffs.omega**2 * float(np.sum(coeffs.mu**2))
    ) * params.Q
    return message_term + state_term


def finite_n_distortion(params: DpcParams, gamma, n):
    """Block-averaged distortion target: the t = 1 slot contributes Q."""
    d_step = regions.dpc_min_distortion(params, gamma)
    return params.Q / n + (n - 1) / n * d_step

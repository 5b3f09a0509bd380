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
    BlocklengthTooSmall, ConfigError, DegenerateSplit, LengthMismatch, MessageOutOfRange,
)
from .params import DpcParams, check_fraction, resolve_block


@dataclasses.dataclass(frozen=True)
class SkCoefficients:
    """Deterministic per-step constants of the message loop.

    Arrays have length n and index k refers to time t = k+1, as in the
    two-encoder record: ``alpha[k]`` is the tracking-error variance after
    step k+1, ``mu[k]`` its combining weight and ``gain[k]`` the amplitude
    sqrt(gamma P / alpha_k-1) it applies. Step 1 starts the loop with
    ``message_amp`` instead, so ``mu[0]`` is 0 and ``gain[0]`` is NaN.
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


def compute_coefficients(params: DpcParams, gamma, n, noise="sigma2"):
    """Evaluate the mu/alpha recursion for an n-step block.

    ``alpha`` decays geometrically; a block long enough to take it below
    float64's normal range, or so low that the next gain sqrt(gamma P /
    alpha) overflows, is rejected with ConfigError naming the longest
    block these parameters support. A gamma*P so small that the first
    variance sigma2/(12 gamma P) overflows is rejected as well, and so is a
    gamma*P/sigma2 so large that a variance update cancels to <= 0;
    ``noise`` is the name that message gives ``params.sigma2``.
    """
    check_fraction("gamma", gamma)
    if n < 2:
        raise BlocklengthTooSmall(f"the message loop needs n >= 2, got {n}", field="n")
    gp = gamma * params.P
    if gp == 0.0:
        raise DegenerateSplit("gamma*P = 0 leaves no message power")
    s2 = params.sigma2
    mu = np.zeros(n)
    alpha = np.empty(n)
    gain = np.full(n, np.nan)
    alpha[0] = s2 / (12.0 * gp)
    if not math.isfinite(alpha[0]):
        raise ConfigError(
            f"gamma*P = {gp!r} is too small: the first error variance "
            "sigma2/(12 gamma P) overflows float64",
            field="gamma",
        )
    alpha_floor = max(sys.float_info.min, gp / sys.float_info.max)
    for k in range(1, n):
        mu[k] = math.sqrt(gp * alpha[k - 1]) / (gp + s2)
        alpha[k] = alpha[k - 1] - mu[k] ** 2 * (gp + s2)
        gain[k] = math.sqrt(gp / alpha[k - 1])
        if alpha[k] <= 0.0:
            raise ConfigError(
                f"gamma*P/{noise} = {gp / s2:.3g} is too large: the error variance "
                f"update cancels in float64 at step {k + 1}",
                field="gamma",
            )
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


def estimate_state(Y, weight):
    """Receiver state estimates for a block of outputs.

    S_hat_1 = 0 by construction (Y_1 carries no state after the offset
    cancellation); later estimates are weight * Y_t. Works on a trailing
    time axis, so batched inputs pass through unchanged.
    """
    s_hat = weight * np.asarray(Y, dtype=float)
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


def resolve_loop(params: DpcParams, gamma, block, noise="sigma2"):
    """Rate, message-set size and loop coefficients of one configuration.

    Returns ``(rate, M, coeffs)``; ``coeffs`` is None when gamma*P = 0,
    which leaves only state forwarding and requires M = 1. ``noise`` goes
    to :func:`compute_coefficients`.
    """
    rate, M = resolve_block(block, regions.dpc_rate_cap(params, gamma))
    if gamma * params.P == 0.0:
        if M > 1:
            raise DegenerateSplit("gamma*P = 0 cannot carry a message, resolve M = 1")
        return rate, M, None
    return rate, M, compute_coefficients(params, gamma, block.n, noise)


def run_batch(params: DpcParams, gamma, M, coeffs, W, S, eta, weight=None):
    """Simulate a batch of blocks from supplied draws.

    ``M`` and ``coeffs`` come from :func:`resolve_loop`, ``W`` has shape
    (B,) and ``S``, ``eta`` shape (B, n). ``weight`` is the receiver's
    state-estimation weight; it defaults to :func:`estimation_coefficient`.
    Returns a :class:`SchemeTrace` of (B,) messages and (B, n) traces.
    """
    if coeffs is None:
        X, Y = simulate_forwarding_batch(params, gamma, S, eta)
        theta_hat = np.zeros_like(Y)
        W_hat = W
    else:
        X, Y, theta_hat, _ = simulate_message_batch(coeffs, message_to_theta(W, M), S, eta)
        W_hat = decode_batch(theta_hat[:, -1], M)
    if weight is None:
        weight = estimation_coefficient(params, gamma)
    S_hat = estimate_state(Y, weight)
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


def _closed_loop(lam, loops, S, eta):
    """Closed loop of K = len(loops) encoders over (B, n) blocks S, eta.

    A loop is one encoder's ``(theta, amp, state_coef, gain, mu)``; ``gain``
    and ``mu`` are indexed by slot. Each encoder forwards state_coef S_k.
    Encoder u starts in slot u with amp (theta - o_u), where o_u = lam (S_u /
    amp - sum_{k>=K} mu[k] S_k) is the state its receiver chain adds back.
    From slot K on it adds gain[k] eps and refines eps on Y_k - lam S_k.
    Returns (X, Y, theta_hat, eps) with one entry of X, theta_hat (NaN
    before the start) and eps per encoder.
    """
    K = len(loops)
    for theta, _, _, gain, _ in loops:
        shape = (len(theta), len(gain))
        if S.shape != shape or eta.shape != S.shape:
            raise LengthMismatch(f"batch shapes must be {shape}, got {S.shape} and {eta.shape}")
    X = [sc * S for _, _, sc, _, _ in loops]
    Y = np.empty_like(S)
    theta_hat = [np.empty_like(S) for _ in loops]
    eps = []
    for k in range(S.shape[1]):
        if k < K:
            theta, amp, _, _, mu = loops[k]
            send = amp * (theta - lam * (S[:, k] / amp - np.vecdot(S[:, K:], mu[K:])))
            X[k][:, k] += send
        else:
            for x, e, (_, _, _, gain, _) in zip(X, eps, loops):
                x[:, k] += gain[k] * e
        # the encoders in order, then state and noise
        Y[:, k] = sum((x[:, k] for x in X[1:]), X[0][:, k]) + S[:, k] + eta[:, k]
        if k < K:
            eps.append((Y[:, k] - send - lam * S[:, k]) / amp)
            theta_hat[k][:, :k] = np.nan
            theta_hat[k][:, k] = Y[:, k] / amp
        else:
            z = Y[:, k] - lam * S[:, k]
        for u, (_, _, _, _, mu) in enumerate(loops[:k]):
            if k >= K:
                eps[u] = eps[u] - mu[k] * z
            theta_hat[u][:, k] = theta_hat[u][:, k - 1] - mu[k] * Y[:, k]
    return X, Y, theta_hat, eps


def simulate_message_batch(coeffs: SkCoefficients, theta, S, eta):
    """Vectorized closed loop over a batch of independent blocks.

    ``theta`` has shape (B,), ``S`` and ``eta`` shape (B, n). Returns the
    (B, n) traces X, Y, theta_hat and the final (B,) tracking error: the
    one-encoder :func:`_closed_loop`, bit for bit ``tests/stepwise.py``.
    """
    loop = (theta, coeffs.message_amp, coeffs.state_coef, coeffs.gain, coeffs.mu)
    X, Y, theta_hat, eps = _closed_loop(coeffs.omega, [loop], S, eta)
    return *X, Y, *theta_hat, *eps


def simulate_forwarding_batch(params: DpcParams, gamma, S, eta):
    """Vectorized no-message path (gamma*P = 0): pure state forwarding."""
    X = state_forward_coefficient(params, gamma) * S
    Y = X + S + eta
    return X, Y


def decode_batch(theta_hat_final, M):
    """Vectorized nearest-point decisions, ties toward the smaller index."""
    w = np.ceil((np.asarray(theta_hat_final) + 0.5) * M)
    return np.clip(w, 1, M).astype(np.int64)


def time1_power_theory(coeffs: SkCoefficients, M):
    """Expected E[X_1^2] of the loop ``coeffs`` with theta on the M-point grid:
    gamma P (M^2-1)/M^2 + (1 + 12 gamma P omega^2 sum mu_i^2) Q."""
    gp = coeffs.gamma * coeffs.params.P
    state_gain = 1.0 + 12.0 * gp * coeffs.omega**2 * float(np.sum(coeffs.mu[1:] ** 2))
    return gp * (M**2 - 1) / M**2 + state_gain * coeffs.params.Q

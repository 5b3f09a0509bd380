"""Recursive feedback coding for the single-user dirty paper channel.

The channel is Y_t = X_t + S_t + eta_t with i.i.d. state S_t ~ N(0, Q)
known to the transmitter ahead of time, noise eta_t ~ N(0, sigma2), and
noiseless output feedback. The message W in {1..M} is mapped onto a point
theta of a uniform grid in (-1/2, 1/2) and refined over n channel uses.

Power gamma*P drives the message loop; the remaining (1-gamma)*P
re-transmits the scaled state sqrt((1-gamma)P/Q) * S_t so the receiver can
estimate S as well. The receiver therefore sees the state through the
combined state gain lam = 1 + sqrt((1-gamma)P/Q).

Everything the receiver will ever learn about the state enters its first
estimate through the one-shot offset

    O = lam/sqrt(12 gamma P) * S_1 - lam * sum_{i>=2} mu_i S_i,

which the transmitter can pre-subtract because it knows the whole state
sequence. X_1 = sqrt(12 gamma P) (theta - O) + sqrt((1-gamma)P/Q) S_1 then
makes Y_1 free of S_1, and each later correction term mu_i Y_i applied by
the receiver re-introduces exactly the state contribution the offset
already cancelled. After step n the receiver's estimate equals
theta + eps_n where eps_n is the transmitter's tracking error:

    eps_1 = eta_1 / sqrt(12 gamma P),         alpha_1 = sigma2/(12 gamma P),
    eps_t = eps_{t-1} - mu_t (Y_t - lam S_t),
    mu_t  = E[eps_{t-1}(Y_t - lam S_t)] / E[(Y_t - lam S_t)^2]
          = sqrt(gamma P alpha_{t-1}) / (gamma P + sigma2),
    alpha_t = alpha_{t-1} * sigma2 / (gamma P + sigma2).

The mu_t/alpha_t forms are obtained by evaluating the defining
expectations with X_t's message part at power gamma P; the implementation
iterates the recursion explicitly rather than substituting the geometric
closed form, and the tests re-derive every value through an independent
covariance propagation.

The per-step constants of K encoders go into one record,
:class:`SkCoefficients` (K = 1 here, 2 in :mod:`dpsk.sk_dpmac`), which one
closed loop, :func:`_closed_loop`, reads directly. Each batch it runs has
one record too, :data:`SchemeTrace`, which the kernel fills and its batch
runner completes.
"""

import array
import collections
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
    """Deterministic per-step constants of the loop of K encoders, laid out
    like :data:`SchemeTrace`: K = 1 from :func:`compute_coefficients`, 2 in
    the subclass :class:`dpsk.sk_dpmac.MacSkCoefficients`.

    ``mu``, ``alpha`` and ``gain`` are (K, n) and index k refers to time
    t = k+1: ``alpha[u, k]`` is encoder u's tracking-error variance after
    step k+1 (so per-user alpha_n is ``alpha[:, -1]``), ``mu[u, k]`` its
    combining weight and ``gain[u, k]`` the amplitude sqrt(power_u /
    alpha[u, k-1]) it applies. Encoder u starts in slot u with
    ``message_amp[u]`` and refines from slot K on; ``mu`` is 0 and ``gain``
    NaN before that. It forwards the state with ``state_coef[u]``, and the
    receiver sees S through the combined state gain ``lam``.
    """

    params: object
    gamma: float
    n: int
    mu: np.ndarray
    alpha: np.ndarray
    gain: np.ndarray
    lam: float
    state_coef: np.ndarray
    message_amp: np.ndarray

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def state_forward_coefficient(params: DpcParams, gamma):
    """sqrt((1-gamma) P / Q); 0 when there is no state to forward."""
    check_fraction("gamma", gamma)
    if params.Q == 0.0:
        return 0.0
    return math.sqrt((1.0 - gamma) * params.P / params.Q)


def _first_variance(power, s2, field, label, noise="sigma2"):
    """The error variance s2/(12 power) after an encoder's first step, for the
    message power ``power`` named ``label`` and set by ``field`` over the noise
    ``s2`` named ``noise``; a power so small that it overflows is rejected."""
    alpha = s2 / (12.0 * power)
    if not math.isfinite(alpha):
        raise ConfigError(f"{label} = {power!r} is too small: the first error variance "
                          f"{noise}/(12 {label}) overflows float64", field=field)
    return alpha


def _check_variance(alpha, step, n, power, s2, field, label, noise="sigma2"):
    """Reject the error variance ``alpha`` after ``step`` of an n-step loop
    whose message power ``power`` is named ``label`` and set by ``field``:
    one cancelled to <= 0, quoting the power over the noise ``s2`` named
    ``noise``, and one under the floor max(float_info.min, power /
    float_info.max), naming the limit that fired: the next gain sqrt(power /
    alpha) overflows, or alpha underflows."""
    if alpha <= 0.0:
        raise ConfigError(f"{label}/{noise} = {power / s2:.3g} is too large: the error variance "
                          f"update cancels in float64 at step {step}", field=field)
    if alpha < max(sys.float_info.min, power / sys.float_info.max):
        limit = (f"the gain sqrt({label}/variance) overflows float64 after step {step}"
                 if alpha < power / sys.float_info.max
                 else f"the error variance underflows float64 at step {step}")
        raise ConfigError(f"n = {n} is too long for these parameters: {limit}; "
                          f"the longest block is n = {step - 1}", field="n")


def _check_storable(steps, width, n):
    """Once a recursion still running has taken 2**16 steps, reject a block of
    n steps whose ``width`` per-step values numpy cannot allocate, so that it
    fails at once, not after running for its length; the probe is never
    written."""
    if steps == 2**16:
        try:
            np.empty((width, n))
        except (ValueError, MemoryError):
            raise ConfigError(f"n = {n} is too long: its per-step coefficients do not fit "
                              "in memory", field="n") from None


def compute_coefficients(params: DpcParams, gamma, n, noise="sigma2"):
    """Evaluate the mu/alpha recursion for an n-step block, on scalars, and
    build its arrays once it has passed every check.

    ``alpha`` decays geometrically; :func:`_check_variance` rejects a block
    long enough to take it below float64's normal range, or so low that the
    next gain sqrt(gamma P / alpha) overflows, naming the longest block
    these parameters support, and a gamma*P/sigma2 so large that a variance
    update cancels to <= 0, calling ``params.sigma2`` ``noise``, as
    :func:`_first_variance` does for a gamma*P so small that the first
    variance overflows.
    """
    check_fraction("gamma", gamma)
    if n < 2:
        raise BlocklengthTooSmall(f"the message loop needs n >= 2, got {n}", field="n")
    gp = gamma * params.P
    if gp == 0.0:
        raise DegenerateSplit("gamma*P = 0 leaves no message power")
    s2 = params.sigma2
    alpha = _first_variance(gp, s2, "gamma", "gamma*P", noise)
    width = 3  # per step: mu, alpha, gain
    rows = array.array("d", (0.0, alpha, math.nan))
    for k in range(1, n):
        _check_storable(k, width, n)
        mu = math.sqrt(gp * alpha) / (gp + s2)
        gain = math.sqrt(gp / alpha)
        alpha = alpha - mu**2 * (gp + s2)
        _check_variance(alpha, k + 1, n, gp, s2, "gamma", "gamma*P", noise)
        rows.extend((mu, alpha, gain))
    mu, alpha, gain = np.frombuffer(rows).reshape(n, width).T.copy()[:, None]  # (1, n) rows
    sc = state_forward_coefficient(params, gamma)
    return SkCoefficients(params, float(gamma), int(n), mu, alpha, gain, lam=1.0 + sc,
                          state_coef=np.array([sc]), message_amp=np.array([math.sqrt(12.0 * gp)]))


def message_to_theta(w, M):
    """Map message index (or index array) w in 1..M to -1/2 + (2w-1)/(2M)."""
    if M < 1:
        raise MessageOutOfRange(f"message-set size must be >= 1, got {M}")
    if np.any((w < 1) | (w > M)):
        raise MessageOutOfRange(f"message {w} outside 1..{M}")
    return -0.5 + (2.0 * w - 1.0) / (2.0 * M)


def estimation_coefficient(params: DpcParams, gamma):
    """Scalar MMSE weight c with S_hat_t = c Y_t for t >= 2.

    c = sqrt(Q)(sqrt(Q) + sqrt((1-gamma)P))
        / ((sqrt(Q) + sqrt((1-gamma)P))^2 + gamma P + sigma2).
    """
    check_fraction("gamma", gamma)
    reach = math.sqrt(params.Q) + math.sqrt((1.0 - gamma) * params.P)
    return math.sqrt(params.Q) * reach / (reach**2 + gamma * params.P + params.sigma2)


def estimate_state(Y, weight):
    """Receiver state estimates for a block of outputs.

    S_hat_1 = 0 by construction (Y_1 carries no state after the offset
    cancellation); later estimates are weight * Y_t. Works on a trailing
    time axis, so batched inputs pass through unchanged.
    """
    s_hat = weight * np.asarray(Y, dtype=float)
    s_hat[..., 0] = 0.0
    return s_hat


def check_batch(shape, **draws):
    """Raise LengthMismatch unless every draw has ``shape``, a batch's (B, n)."""
    for name, draw in draws.items():
        if np.shape(draw) != shape:
            raise LengthMismatch(f"{name} must have shape {shape}, got {np.shape(draw)}")


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


def run_batch(params: DpcParams, gamma, M, coeffs, W, S, eta, weight=None, traces=True):
    """Simulate a batch of blocks from supplied draws.

    ``M`` and ``coeffs`` come from :func:`resolve_loop`, ``W`` has shape
    (B,) and ``S``, ``eta`` shape (B, n). ``weight`` is the receiver's
    state-estimation weight; it defaults to :func:`estimation_coefficient`.
    Decodes and estimates from the :data:`SchemeTrace` of the message
    kernel, or of the forwarding one when ``coeffs`` is None, and returns
    it completed for one encoder; its X and theta_hat are None unless
    ``traces``.
    """
    theta = message_to_theta(W, M)
    if coeffs is None:
        # no loop fixes n here; the width of S does
        check_batch((len(W), *np.shape(S)[-1:]), S=S, eta=eta)
        loop = simulate_forwarding_batch(params, gamma, S, eta, traces)
    else:
        loop = simulate_message_batch(coeffs, theta, S, eta, traces)
    if weight is None:
        weight = estimation_coefficient(params, gamma)
    return loop._replace(W=W[None], W_hat=decode_batch(loop.theta_final, M), M=(M,), S=S,
                         S_hat=estimate_state(loop.Y, weight))


def _power_sum(x):
    """Sum of x² over the last axis, the trials of a slot-major row, adding
    them one by one in order: the bits of ``np.sum(X * X, axis=0)`` on the
    row-major (B, n) batch X, where ``np.sum`` over a contiguous axis would
    add pairwise."""
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x * x, axis=-1)[..., -1]


#: The one record of a batch of B blocks of n slots for K = 1 or 2 encoders.
#: A kernel fills the loop fields: the (K, n) per-slot power summed over the
#: batch by :func:`_power_sum`, the (B, n) Y, the (K, B) final estimates and
#: tracking errors, and the (K, B, n) X and theta_hat traces, or None when it
#: was not asked for traces. Its batch runner completes the record with the
#: (K, B) messages W and decisions W_hat, the K message-set sizes M and the
#: (B, n) S and S_hat, which a kernel leaves None.
SchemeTrace = collections.namedtuple(
    "SchemeTrace", "power Y theta_final eps X theta_hat W W_hat M S S_hat", defaults=(None,) * 5)


def _closed_loop(coeffs: SkCoefficients, thetas, S, eta, traces):
    """Closed loop of the K encoders of ``coeffs`` over (B, n) blocks S, eta.

    ``thetas`` holds each encoder's (B,) message points. Encoder u forwards
    state_coef[u] S_k. It starts in slot u with message_amp[u] (theta - o_u),
    where o_u = lam (S_u / message_amp[u] - sum_{k>=K} mu[u, k] S_k) is the
    state its receiver chain adds back. From slot K on it adds gain[u, k] eps
    and refines eps on Y_k - lam S_k.

    The loop runs slot-major on (n, B) copies of S and eta, so each slot
    computes on contiguous (B,) rows, sums its power and only stores its
    column of the row-major (B, n) outputs; the offsets take ``np.vecdot``
    on the row-major S. Returns the loop fields of a :data:`SchemeTrace`;
    its theta_hat trace is NaN before the encoder starts.
    """
    K, n = coeffs.mu.shape
    lam, amp, mu, gain = coeffs.lam, coeffs.message_amp, coeffs.mu, coeffs.gain
    for theta in thetas:
        check_batch((len(theta), n), S=S, eta=eta)
    S_t, eta_t = np.ascontiguousarray(S.T), np.ascontiguousarray(eta.T)
    Y = np.empty_like(S)
    power = np.empty((K, n))
    X = np.empty((K, *S.shape)) if traces else None
    theta_hat = np.full((K, *S.shape), np.nan) if traces else None
    eps, th = [], []
    for k in range(n):
        s = S_t[k]
        xs = [sc * s for sc in coeffs.state_coef]
        if k < K:
            send = amp[k] * (thetas[k] - lam * (s / amp[k] - np.vecdot(S[:, K:], mu[k, K:])))
            xs[k] += send
        else:
            for u, e in enumerate(eps):
                xs[u] += gain[u, k] * e
        # the encoders in order, then state and noise
        y = sum(xs[1:], xs[0]) + s
        y += eta_t[k]
        Y[:, k] = y
        if k < K:
            eps.append((y - send - lam * s) / amp[k])
            th.append(y / amp[k])
        else:
            z = y - lam * s
            for u in range(K):
                eps[u] = eps[u] - mu[u, k] * z
                th[u] = th[u] - mu[u, k] * y
        power[:, k] = [_power_sum(x) for x in xs]
        if traces:
            X[:, :, k], theta_hat[:len(th), :, k] = xs, th
    return SchemeTrace(power, Y, np.array(th), np.array(eps), X, theta_hat)


def simulate_message_batch(coeffs: SkCoefficients, theta, S, eta, traces=True):
    """Vectorized closed loop over a batch of independent blocks: the
    one-encoder :data:`SchemeTrace` of :func:`_closed_loop` for ``theta`` of
    shape (B,) and ``S``, ``eta`` of shape (B, n), bit for bit ``tests/stepwise.py``."""
    return _closed_loop(coeffs, [theta], S, eta, traces)


def simulate_forwarding_batch(params: DpcParams, gamma, S, eta, traces=True):
    """Vectorized no-message path (gamma*P = 0), pure state forwarding: the
    one-encoder :data:`SchemeTrace` of (B, n) blocks ``S``, ``eta`` whose
    estimates and tracking errors are all 0."""
    X = state_forward_coefficient(params, gamma) * S
    Y = X + S
    Y += eta  # in place, so Y stays row-major when eta is a slot-major view
    traced = (X[None], np.zeros((1, *S.shape))) if traces else (None, None)
    # slot by slot, so the trials are added in order whatever the layout of S
    power = np.array([_power_sum(x) for x in X.T])
    return SchemeTrace(power[None], Y, *np.zeros((2, 1, len(S))), *traced)


def decode_batch(theta_hat_final, M):
    """Vectorized nearest-point decisions, ties toward the smaller index."""
    w = np.ceil((np.asarray(theta_hat_final) + 0.5) * M)
    return np.clip(w, 1, M).astype(np.int64)


def time1_power_theory(coeffs: SkCoefficients, M):
    """Expected E[X_1^2] of the loop ``coeffs`` with theta on the M-point grid:
    gamma P (M^2-1)/M^2 + (1 + 12 gamma P lam^2 sum mu_i^2) Q."""
    gp = coeffs.gamma * coeffs.params.P
    state_gain = 1.0 + 12.0 * gp * coeffs.lam**2 * float(np.sum(coeffs.mu[0, 1:] ** 2))
    return gp * (M**2 - 1) / M**2 + state_gain * coeffs.params.Q

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
iterates the recursion for every value, the geometric closed form decides
only how long a block float64 carries (:func:`_longest_block`), and the
tests re-derive every value through an independent covariance propagation.

The per-step constants of K encoders go into one record,
:class:`SkCoefficients` (K = 1 here, 2 in :mod:`dpsk.sk_dpmac`), which one
closed loop, :func:`_closed_loop`, reads directly; at gamma*P = 0 it only
forwards the state. Each batch it runs has one record too, :data:`SchemeTrace`,
which the kernel fills and every scheme's one runner, ``harness.run_batch``, completes.
"""

import array
import collections
import contextlib
import dataclasses
import math
import sys

import numpy as np

from . import regions
from .errors import ConfigError, DegenerateSplit, LengthMismatch, MessageOutOfRange
from .params import DpcParams, PowerSplit, check_blocklength, check_fraction, resolve_block


@dataclasses.dataclass(frozen=True)
class SkCoefficients:
    """Deterministic per-step constants of K encoders, the first L of which run
    a message loop, laid out like :data:`SchemeTrace`: K = L = 1 from
    :func:`compute_coefficients`, K = 1 and L = 0 from :func:`forwarding_coefficients`,
    and K = L = 2 in the subclass :class:`dpsk.sk_dpmac.MacSkCoefficients`.

    ``mu``, ``alpha`` and ``gain`` are (L, n) and index k refers to time
    t = k+1: ``alpha[u, k]`` is loop u's tracking-error variance after step
    k+1 (per-user alpha_n is ``alpha[:, -1]``), ``mu[u, k]`` its combining
    weight and ``gain[u, k]`` its amplitude sqrt(power_u / alpha[u, k-1]).
    Loop u starts in slot u with ``message_amp[u]`` and refines from slot L
    on; ``mu`` is 0 and ``gain`` NaN before that. Encoder u forwards the
    state with ``state_coef[u]``, and the receiver sees S through ``lam``.
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


def forward_coefficient(fraction, power, Q):
    """sqrt((1-fraction) power / Q), the state gain of an encoder that keeps
    ``fraction`` of ``power`` for its message; 0 when Q = 0 leaves no state."""
    return math.sqrt((1.0 - fraction) * power / Q) if Q else 0.0


def spent_power(fraction, power, Q):
    """Expected power per symbol of such an encoder once its loop runs: its
    message share plus its forwarded share, which is ``power`` if it has both."""
    if not fraction * power:
        return forward_coefficient(fraction, power, Q) ** 2 * Q
    return power if Q else fraction * power


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


def _longest_block(power, s2):
    """The longest block of a loop of message power ``power`` over the noise ``s2`` and its
    alpha one step later, in closed form: alpha_1 r^(k-1), r = s2/(power + s2), against
    :func:`_check_variance`'s floor. (inf, None) without a loop, or where the recursion's
    rounding, under 32 eps (1 + power/s2) of log alpha a step, could move its last step."""
    alpha, gain_floor = s2 / (12.0 * power) if power else math.inf, power / sys.float_info.max
    if not 0.0 < alpha < math.inf:
        return math.inf, None
    la, lr = math.log(alpha), -math.log1p(power / s2)
    x = (math.log(max(sys.float_info.min, gain_floor)) - la) / lr  # alpha_k >= floor: k <= x + 1
    tol = 32 * sys.float_info.epsilon * (abs(x) + 1500) * (1 + power / s2) / -lr
    if not tol < 0.5 or abs(x - round(x)) < tol:
        return math.inf, None
    longest = max(1, math.floor(x) + 1)
    y = la + longest * lr  # log alpha one step after the longest block
    if gain_floor and abs(y - math.log(gain_floor)) < -lr * tol + 2**-1074 / gain_floor:
        return math.inf, None  # too near the gain's limit to tell which limit stops it
    return longest, math.exp(y)


def _check_length(n, power, s2):
    """ConfigError on n past the longest block, where :func:`_longest_block` gives it."""
    longest, alpha = _longest_block(power, s2)
    if n > longest:
        _check_variance(alpha, longest + 1, n, power, s2, "gamma", "gamma*P")


def _check_block(n, width, recursion=None):
    """The empty (width, n) record of an n-step block, or ConfigError if numpy cannot allocate,
    or index, it, once ``recursion()``, the loop's own, has named any stop of its own."""
    with contextlib.suppress(ValueError, MemoryError):
        return np.empty((width, n))
    if recursion:
        recursion()
    raise ConfigError(f"n = {n} is too long: its per-step coefficients do not fit in memory",
                      field="n")


def _check_loop(params: DpcParams, split: PowerSplit, n, paper_sgn, noise="sigma2"):
    """A single-user split's verdict on n, with :func:`compute_coefficients` as its recursion."""
    power = split.gamma * params.P
    _check_length(n, power, params.sigma2)
    _check_block(n, 3 if power else 0, recursion=power and (
        lambda: compute_coefficients(params, split.gamma, n, noise)))


def compute_coefficients(params: DpcParams, gamma, n, noise="sigma2"):
    """Evaluate the mu/alpha recursion for an n-step block, on scalars, and build
    its arrays once it has passed every check, ``gamma``'s and, with n >= 2,
    ``n``'s as in a config. ``alpha`` decays geometrically: :func:`_check_length`
    rejects a block past its closed-form length, and at step 2**16
    :func:`_check_block` one whose record numpy cannot hold.
    :func:`_check_variance` rejects a block that takes alpha below float64's
    normal range, or so low that the next gain sqrt(gamma P / alpha) overflows,
    naming the longest block, and a gamma*P/sigma2 so large that a variance
    update cancels to <= 0, calling ``params.sigma2`` ``noise``, as
    :func:`_first_variance` does for a gamma*P so small that the first variance
    overflows.
    """
    gamma = check_fraction("gamma", gamma)
    check_blocklength("n", n)
    gp = gamma * params.P
    if gp == 0.0:
        raise DegenerateSplit("gamma*P = 0 leaves no message power")
    s2 = params.sigma2
    alpha = _first_variance(gp, s2, "gamma", "gamma*P", noise)  # named before any verdict on n
    _check_length(n, gp, s2)
    rows = array.array("d", (0.0, alpha, math.nan))
    for k in range(1, n):
        if k == 2**16:  # a recursion this long may never stop: its record must fit first
            _check_block(n, 3)
        mu = math.sqrt(gp * alpha) / (gp + s2)
        gain = math.sqrt(gp / alpha)
        alpha = alpha - mu**2 * (gp + s2)
        _check_variance(alpha, k + 1, n, gp, s2, "gamma", "gamma*P", noise)
        rows.extend((mu, alpha, gain))
    mu, alpha, gain = np.frombuffer(rows).reshape(n, 3).T.copy()[:, None]  # (1, n) rows
    return dataclasses.replace(forwarding_coefficients(params, gamma, n), mu=mu, alpha=alpha,
                               gain=gain, message_amp=np.array([math.sqrt(12.0 * gp)]))


def forwarding_coefficients(params: DpcParams, gamma, n):
    """One encoder that only forwards the state over n >= 1 slots, as at gamma*P = 0."""
    gamma = check_fraction("gamma", gamma)
    sc = forward_coefficient(gamma, params.P, params.Q)
    no_loop = _check_block(check_blocklength("n", n, shortest=1), 0)
    return SkCoefficients(params, gamma, n, no_loop, no_loop, no_loop, lam=1.0 + sc,
                          state_coef=np.array([sc]), message_amp=np.empty(0))


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
    gamma = check_fraction("gamma", gamma)
    reach = math.sqrt(params.Q) + math.sqrt((1.0 - gamma) * params.P)
    return math.sqrt(params.Q) * reach / (reach**2 + gamma * params.P + params.sigma2)


def estimate_state(Y, weight, out=None):
    """Receiver state estimates for a block of outputs.

    S_hat_1 = 0 by construction (Y_1 carries no state after the offset
    cancellation); later estimates are weight * Y_t. Works on a trailing
    time axis, so batched inputs pass through unchanged. Like a numpy
    ufunc's, ``out`` is the array the estimates are written to, Y itself
    included; by default a new one.
    """
    s_hat = np.multiply(weight, np.asarray(Y, dtype=float), out=out)
    s_hat[..., 0] = 0.0
    return s_hat


def check_batch(shape, **draws):
    """Raise LengthMismatch unless every draw has ``shape``, a batch's (B, n)."""
    for name, draw in draws.items():
        if np.shape(draw) != shape:
            raise LengthMismatch(f"{name} must have shape {shape}, got {np.shape(draw)}")


def resolve_loop(params: DpcParams, gamma, block, noise="sigma2"):
    """Rate, message-set size and loop coefficients of one configuration.

    Returns ``(rate, M, coeffs)``; ``coeffs`` has no message loop when
    gamma*P = 0 (:func:`forwarding_coefficients`), which requires M = 1.
    ``noise`` goes to :func:`compute_coefficients`.
    """
    rate, M = resolve_block(block, regions.dpc_rate_cap(params, gamma))
    if gamma * params.P == 0.0:
        if M > 1:
            raise DegenerateSplit("gamma*P = 0 cannot carry a message, resolve M = 1")
        return rate, M, forwarding_coefficients(params, gamma, block.n)
    return rate, M, compute_coefficients(params, gamma, block.n, noise)


def _power_sum(x):
    """Sum of x² over the last axis, the trials of a slot-major row, added one
    by one in order: the bits of ``np.sum(X * X, axis=0)`` on the row-major
    (B, n) X, where ``np.sum`` over a contiguous axis would add pairwise."""
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    return (x * x).cumsum(axis=-1)[..., -1]


#: The one record of a batch of B blocks of n slots for K = 1 or 2 encoders.
#: A kernel fills the loop fields: the (K, n) per-slot power summed over the
#: batch by :func:`_power_sum`, the (B, n) Y, in a new array or the buffer it
#: was handed, the (K, B) final estimates and tracking errors (0 for an encoder
#: with no message loop), and the (K, B, n) X and theta_hat traces (NaN before
#: a loop starts), or None when it was not asked for traces.
#: :func:`dpsk.harness.run_batch` completes it with the (K, B) messages W and
#: decisions W_hat, the K message-set sizes M, the (B, n) state S the loop ran
#: on (the equivalent state for the noisy scheme) and S_hat, which a kernel
#: leaves None; without traces it writes S_hat over Y and sets Y to None, so
#: S_hat too lies in the buffer Y was handed.
SchemeTrace = collections.namedtuple(
    "SchemeTrace", "power Y theta_final eps X theta_hat W W_hat M S S_hat", defaults=(None,) * 5)


def _closed_loop(coeffs: SkCoefficients, thetas, S, eta, traces, *, out=None):
    """Closed loop of the K encoders of ``coeffs`` over (B, n) blocks S, eta.

    ``thetas`` holds the (B,) message points of each of the L loops. Encoder
    u forwards state_coef[u] S_k. Loop u starts in slot u with message_amp[u]
    (theta - o_u), where o_u = lam (S_u / message_amp[u] - sum_{k>=L} mu[u, k]
    S_k) is the state its receiver chain adds back. From slot L on it adds
    gain[u, k] eps and refines eps on Y_k - lam S_k. The loop runs slot-major
    on S and eta as they are given, copying neither: each slot gathers S's
    column into one contiguous (B,) row, computes on (B,) rows, adds eta's
    column, sums its power and only stores its column of the row-major
    (B, n) Y. The offsets take ``np.vecdot`` on the rows of S, whose rounding
    depends on the layout: an S that is not row-major, unlike a batch's
    draws, is copied to row-major for them. Like a numpy ufunc's, ``out`` is
    the (B, n) array Y is written to, by default a new one. It may be eta
    itself, whose column k the loop reads before it writes Y's, so a caller
    that no longer needs eta runs the batch in two (B, n) arrays, not three;
    the caller keeps it row-major, since the per-trial means over Y round by
    its layout.
    """
    K, (L, n), B = len(coeffs.state_coef), coeffs.mu.shape, len(S)
    lam, amp, mu, gain = coeffs.lam, coeffs.message_amp, coeffs.mu, coeffs.gain
    Y = np.empty((B, n)) if out is None else out
    check_batch((B, n), S=S, eta=eta, out=Y)
    check_batch((B,), **{f"theta{u + 1}": theta for u, theta in enumerate(thetas)})
    s, power = np.empty(B), np.empty((K, n))
    X, theta_hat = np.empty((2, K, B, n)) if traces else (None, None)
    # a loop's estimate is NaN before it starts; an encoder with no loop's stays 0
    th, eps = [np.full(B, np.nan)] * L + [np.zeros(B)] * (K - L), [np.zeros(B)] * K
    for k in range(n):
        s[:] = S[:, k]
        xs = [sc * s for sc in coeffs.state_coef]
        if k < L:
            rest = np.vecdot(np.ascontiguousarray(S)[:, L:], mu[k, L:])
            send = amp[k] * (thetas[k] - lam * (s / amp[k] - rest))
            xs[k] += send
        else:
            for u in range(L):
                xs[u] += gain[u, k] * eps[u]
        # the encoders in order, then state and noise
        y = sum(xs[1:], xs[0]) + s
        y += eta[:, k]
        Y[:, k] = y
        if k < L:
            eps[k] = (y - send - lam * s) / amp[k]
            th[k] = y / amp[k]
        elif L:
            z = y - lam * s
            for u in range(L):
                eps[u] = eps[u] - mu[u, k] * z
                th[u] = th[u] - mu[u, k] * y
        power[:, k] = [_power_sum(x) for x in xs]
        if traces:
            X[:, :, k], theta_hat[:, :, k] = xs, th
    return SchemeTrace(power, Y, np.array(th), np.array(eps), X, theta_hat)


def simulate_message_batch(coeffs: SkCoefficients, theta, S, eta, traces=True, *, out=None):
    """Vectorized closed loop over a batch of independent blocks: the
    one-encoder :data:`SchemeTrace` of :func:`_closed_loop` for ``theta`` of
    shape (B,) and ``S``, ``eta`` of shape (B, n), bit for bit ``tests/stepwise.py``;
    Y goes to ``out``, as there."""
    return _closed_loop(coeffs, [theta], S, eta, traces, out=out)


def simulate_forwarding_batch(coeffs: SkCoefficients, S, eta, traces=True, *, out=None):
    """The no-message path (gamma*P = 0), pure state forwarding: the :data:`SchemeTrace`
    of :func:`_closed_loop` for a :func:`forwarding_coefficients` record and
    ``S``, ``eta`` of shape (B, n), whose estimates and errors are all 0; Y goes to ``out``."""
    return _closed_loop(coeffs, [], S, eta, traces, out=out)


def decode_batch(theta_hat_final, M):
    """Vectorized nearest-point decisions, ties toward the smaller index."""
    w = np.ceil((np.asarray(theta_hat_final) + 0.5) * M)
    return np.clip(w, 1, M).astype(np.int64)


def time1_power_theory(coeffs: SkCoefficients, M):
    """Expected E[X_1^2] of the loop ``coeffs`` with theta on the M-point grid:
    gamma P (M^2-1)/M^2 + (1 + 12 gamma P lam^2 sum mu_i^2) Q, or the
    forwarded sc^2 Q when ``coeffs`` holds no message loop."""
    if not coeffs.message_amp.size:
        return float(coeffs.state_coef[0]) ** 2 * coeffs.params.Q
    gp = coeffs.gamma * coeffs.params.P
    state_gain = 1.0 + 12.0 * gp * coeffs.lam**2 * float(np.sum(coeffs.mu[0, 1:] ** 2))
    return gp * (M**2 - 1) / M**2 + state_gain * coeffs.params.Q

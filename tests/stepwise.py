"""Stepwise protocol reference that the batch kernels must match bit for bit."""

import dataclasses
import math

import numpy as np

from dpsk.errors import LengthMismatch, MessageOutOfRange
from dpsk.sk_dpc import SkCoefficients
from dpsk.sk_dpmac import MacSkCoefficients


class OutOfOrderStep(Exception):
    """Stepwise encoder called outside its t = 1..n protocol order."""


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
    return coeffs.lam * (S[0] / coeffs.message_amp[0] - float(coeffs.mu[0, 1:] @ S[1:]))


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
        x = coeffs.message_amp[0] * (state.theta - state.offset) + coeffs.state_coef[0] * s_t
        eps = None
    else:
        if y_prev is None:
            raise OutOfOrderStep(f"step {t} needs feedback of step {t - 1}")
        if t == 2:
            # First feedback reveals eta_1, hence eps_1, exactly.
            eps = (
                y_prev
                - coeffs.message_amp[0] * (state.theta - state.offset)
                - coeffs.lam * state.s_prev
            ) / coeffs.message_amp[0]
        else:
            eps = state.epsilon - coeffs.mu[0, t - 2] * (y_prev - coeffs.lam * state.s_prev)
        x = coeffs.gain[0, t - 1] * eps + coeffs.state_coef[0] * s_t
    return x, EncoderState(
        t=t, theta=state.theta, offset=state.offset, epsilon=eps, s_prev=float(s_t)
    )


def mac_offsets(S, coeffs: MacSkCoefficients):
    """One-shot state offsets pre-subtracted at each encoder's init slot."""
    S = np.asarray(S, dtype=float)
    if S.shape != (coeffs.n,):
        raise LengthMismatch(f"state sequence must have length {coeffs.n}, got {S.shape}")
    tail1 = float(coeffs.mu[0, 2:] @ S[2:])
    tail2 = float(coeffs.mu[1, 2:] @ S[2:])
    o1 = coeffs.lam * (S[0] / coeffs.message_amp[0] - tail1)
    o2 = coeffs.lam * (S[1] / coeffs.message_amp[1] - tail2)
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
        t=0, theta1=float(theta1), theta2=float(theta2), offset1=o1, offset2=o2,
        eps1=None, eps2=None, s_prev=None,
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
            coeffs.message_amp[0] * (state.theta1 - state.offset1)
            + coeffs.state_coef[0] * s_t
        )
        x2 = coeffs.state_coef[1] * s_t
    elif t == 2:
        eps1 = (
            y_prev
            - coeffs.message_amp[0] * (state.theta1 - state.offset1)
            - coeffs.lam * state.s_prev
        ) / coeffs.message_amp[0]
        x1 = coeffs.state_coef[0] * s_t
        x2 = (
            coeffs.message_amp[1] * (state.theta2 - state.offset2)
            + coeffs.state_coef[1] * s_t
        )
    else:
        if t == 3:
            # Feedback of slot 2 initializes encoder 2; encoder 1 carries
            # its slot-1 error through unchanged.
            eps2 = (
                y_prev
                - coeffs.message_amp[1] * (state.theta2 - state.offset2)
                - coeffs.lam * state.s_prev
            ) / coeffs.message_amp[1]
        else:
            z = y_prev - coeffs.lam * state.s_prev
            eps1 = eps1 - coeffs.mu[0, t - 2] * z
            eps2 = eps2 - coeffs.mu[1, t - 2] * z
        x1 = coeffs.gain[0, t - 1] * eps1 + coeffs.state_coef[0] * s_t
        x2 = coeffs.gain[1, t - 1] * eps2 + coeffs.state_coef[1] * s_t

    return x1, x2, MacEncoderState(
        t=t, theta1=state.theta1, theta2=state.theta2, offset1=state.offset1,
        offset2=state.offset2, eps1=eps1, eps2=eps2, s_prev=float(s_t),
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
    th1[0] = Y[0] / coeffs.message_amp[0]
    th2[0] = np.nan
    th2[1] = Y[1] / coeffs.message_amp[1]
    th1[1] = th1[0] - coeffs.mu[0, 1] * Y[1]
    for k in range(2, coeffs.n):
        th1[k] = th1[k - 1] - coeffs.mu[0, k] * Y[k]
        th2[k] = th2[k - 1] - coeffs.mu[1, k] * Y[k]
    return finalize_decode(th1[-1], M1), finalize_decode(th2[-1], M2), th1, th2


def batch_row(trace, i):
    """Row i of a batch trace record in the one-block form this reference
    produces: its messages, final estimates and errors and its (n,) traces,
    per encoder, without the encoder axis when there is one encoder."""
    per_encoder = {k: getattr(trace, k)[:, i]
                   for k in ("W", "W_hat", "theta_final", "eps", "X", "theta_hat")}
    per_encoder.update(M=trace.M, power=trace.power)
    if len(trace.M) == 1:
        per_encoder = {k: v[0] for k, v in per_encoder.items()}
    rows = {k: getattr(trace, k)[i] for k in ("Y", "S", "S_hat")}
    return trace._replace(**per_encoder, **rows)

"""Feedback coding for the two-encoder dirty paper channel.

Both encoders see the state block ahead of time and the channel output
through noiseless feedback; the receiver decodes both messages and
estimates the state. Channel: Y_t = X_{1,t} + X_{2,t} + S_t + eta_t.

Each encoder splits its budget like the single-user scheme. With
forwarding coefficients sc_i = sqrt((1-gamma)P1/Q), sqrt((1-beta)P2/Q) the
receiver sees the state through lam = 1 + sc1 + sc2. The first two
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
covariance of (eps_1, eps_2): with z_t = Y_t - lam S_t,

    mu_{i,t} = E[eps_{i,t-1} z_t] / E[z_t^2],
    eps_{i,t} = eps_{i,t-1} - mu_{i,t} z_t,

which the propagation evaluates from raw second moments each step.

The constants fill the single-user record :class:`dpsk.sk_dpc.SkCoefficients`
for K = 2 encoders, and the batch kernel runs its closed loop,
``sk_dpc._closed_loop``, on it; that matches the reference that runs one
channel use at a time, ``tests/stepwise.py``, bit for bit.
"""

import array
import dataclasses
import math
import sys

import numpy as np

from . import regions
from .errors import ConfigError, DegenerateSplit
from .params import (MacParams, PowerSplit, check_blocklength, check_flag, check_fraction,
                     resolve_block)
from .sk_dpc import (
    SkCoefficients, _check_block, _check_variance, _closed_loop, _first_variance,
    decode_batch, forward_coefficient,
)

#: Values a step: mu1, mu2, alpha1, alpha2, gain1, gain2, rho, rho_raw, sign, ey2, est_coef
_WIDTH = 11


@dataclasses.dataclass(frozen=True, kw_only=True)
class MacSkCoefficients(SkCoefficients):
    """The K = 2 :class:`dpsk.sk_dpc.SkCoefficients` of the two-encoder loop
    (``gamma`` is encoder 1's split) and the values only this loop has.

    Index k refers to time t = k+1. ``alpha[1]`` and ``rho`` are NaN before
    t = 2 and ``ey2`` before t = 3, where ``est_coef`` is 0, like ``mu``.
    ``beta`` is encoder 2's split, ``paper_sgn`` its sign rule and
    ``signs[k]`` the sign it applies at step k+1. ``rho[k]`` is the
    sign-aligned error correlation after step k+1 (the quantity that
    converges to rho*), ``rho_raw[k]`` the signed value, ``ey2[k]`` E[Y^2]
    and ``est_coef[k]`` the receiver's state weight.
    """

    beta: float
    paper_sgn: bool
    rho: np.ndarray
    rho_raw: np.ndarray
    signs: np.ndarray
    ey2: np.ndarray
    est_coef: np.ndarray


def _sign(raw, paper_sgn):
    if raw >= 0.0:
        return 1.0
    return 0.0 if paper_sgn else -1.0


def mac_coefficients(params: MacParams, gamma, beta, n, paper_sgn=False):
    """Propagate the error covariance and freeze every per-step constant.

    Like :func:`dpsk.sk_dpc.compute_coefficients` it runs on scalars and builds its
    arrays once it has passed every check, ``gamma``, ``beta`` and ``n`` (n >= 3)
    their keys', ``paper_sgn`` a bool's. A block long enough to take alpha1*alpha2
    below float64's normal range, where the correlation c12/sqrt(alpha1*alpha2) can
    no longer be formed, is rejected with ConfigError naming the longest block
    these parameters support; :func:`dpsk.sk_dpc._check_variance` rejects, per
    encoder, a variance so low that its next gain sqrt(gamma P1 / alpha1) or
    sqrt(beta P2 / alpha2) overflows, or one whose update cancels to <= 0, and
    :func:`dpsk.sk_dpc._first_variance` a gamma*P1 or beta*P2 so small that the
    first variance sigma2/(12 gamma P1) or sigma2/(12 beta P2) overflows.
    """
    gamma = check_fraction("gamma", gamma)
    beta = check_fraction("beta", beta)
    check_blocklength("n", n, shortest=3)
    check_flag("paper_sgn", paper_sgn)
    A = gamma * params.P1
    B = beta * params.P2
    if A == 0.0 or B == 0.0:
        raise DegenerateSplit("both encoders need message power: gamma*P1, beta*P2 > 0")
    Q, s2 = params.Q, params.sigma2
    sc1 = forward_coefficient(gamma, params.P1, Q)
    sc2 = forward_coefficient(beta, params.P2, Q)
    lam = 1.0 + sc1 + sc2

    # Initialization slots: each encoder learns its own eps exactly once.
    a1 = _first_variance(A, s2, "gamma", "gamma*P1")
    a2 = _first_variance(B, s2, "beta", "beta*P2")
    c12 = raw = 0.0
    nan = math.nan
    rows = array.array("d", (0.0, 0.0, a1, nan, nan, nan, nan, nan, 1.0, nan, 0.0,
                             0.0, 0.0, a1, a2, nan, nan, 0.0, 0.0, 1.0, nan, 0.0))

    for k in range(2, n):
        if k == 2**16:  # a recursion this long may never stop: its record must fit first
            _check_block(n, _WIDTH)
        s = _sign(raw, paper_sgn)
        g1 = math.sqrt(A / a1)
        g2 = s * math.sqrt(B / a2)
        e1 = g1 * a1 + g2 * c12
        e2 = g1 * c12 + g2 * a2
        v = g1 * g1 * a1 + g2 * g2 * a2 + 2.0 * g1 * g2 * c12 + s2
        a1 = a1 - e1 * e1 / v
        a2 = a2 - e2 * e2 / v
        c12 = c12 - e1 * e2 / v
        _check_variance(a1, k + 1, n, A, s2, "gamma", "gamma*P1")
        _check_variance(a2, k + 1, n, B, s2, "beta", "beta*P2")
        if a1 * a2 < sys.float_info.min:
            raise ConfigError(f"n = {n} is too long for these parameters: alpha1*alpha2 "
                              f"underflows float64 at step {k + 1}, so the correlation "
                              "c12/sqrt(alpha1 alpha2) cannot be formed; the longest block "
                              f"is n = {k}", field="n")
        raw = c12 / math.sqrt(a1 * a2)
        ey2 = v + lam * lam * Q
        rows.extend((e1 / v, e2 / v, a1, a2, g1, g2, _sign(raw, paper_sgn) * raw, raw, s, ey2,
                     lam * Q / ey2))

    per_step = np.frombuffer(rows).reshape(n, _WIDTH).T.copy()  # contiguous rows
    mu, alpha, gain = per_step[:6].reshape(3, 2, n)
    rho, rho_raw, signs, ey2, est_coef = per_step[6:]
    amp = np.array([math.sqrt(12.0 * A), math.sqrt(12.0 * B)])
    return MacSkCoefficients(params, gamma, n, mu, alpha, gain, lam=lam,
                             state_coef=np.array([sc1, sc2]), message_amp=amp, beta=beta,
                             paper_sgn=paper_sgn, rho=rho, rho_raw=rho_raw, signs=signs,
                             ey2=ey2, est_coef=est_coef)


def _check_mac(params: MacParams, split: PowerSplit, n, paper_sgn):
    """A two-encoder split's verdict on n, with no closed form: :func:`dpsk.sk_dpc._check_block`
    on its record, with :func:`mac_coefficients` as its recursion if both loops have power."""
    live = split.gamma * params.P1 and split.beta * params.P2
    _check_block(n, _WIDTH, recursion=live and (
        lambda: mac_coefficients(params, split.gamma, split.beta, n, paper_sgn)))


def resolve_mac_rates(params: MacParams, gamma, beta, block):
    """Per-user (rate, M) pairs resolved against the rate caps at rho*, and the
    :class:`dpsk.regions.MacRegionConstraints` record at rho* (``.rho``) they come from."""
    rho_star = regions.solve_rho_star(params, gamma, beta)
    caps = regions.mac_constraints(params, gamma, beta, rho_star)
    rate1, m1 = resolve_block(block, caps.r1_max)
    rate2, m2 = resolve_block(block, caps.r2_max)
    return (rate1, m1), (rate2, m2), caps


def simulate_mac_batch(coeffs: MacSkCoefficients, theta1, theta2, S, eta, traces=True, *,
                       out=None):
    """Vectorized closed loop over a batch of independent blocks: the
    two-encoder :data:`dpsk.sk_dpc.SchemeTrace` of :func:`dpsk.sk_dpc._closed_loop`
    for ``theta1``, ``theta2`` of shape (B,) and ``S``, ``eta`` of shape (B, n),
    bit for bit ``tests/stepwise.py``; Y goes to ``out``, as there."""
    return _closed_loop(coeffs, [theta1, theta2], S, eta, traces, out=out)


def mac_decode_batch(th1_final, th2_final, M1, M2):
    return decode_batch(th1_final, M1), decode_batch(th2_final, M2)

"""Single-user scheme when the transmitter sees the state through noise.

The encoder observes S_tilde = S + Z with Z ~ N(0, sigma_z2) instead of S
itself. Writing S = kappa S_tilde + Z_tilde with kappa = Q/(Q + sigma_z2)
splits the state into a part the encoder knows and an orthogonal remainder
Z_tilde ~ N(0, (1-kappa) Q) that acts as extra channel noise:

    Y = X + kappa S_tilde + (Z_tilde + eta).

The clean-observation machinery therefore runs unchanged on the
equivalent channel, the ``DpcParams`` :func:`make_equivalent` returns, with
state variance kappa Q and noise variance kappa sigma_z2 + sigma2 (note
Var(kappa Z) = kappa sigma_z2 relative to the observed block). The
receiver, however, wants the true S, not the equivalent state, which
changes the estimator weight and the achieved distortion; see
:func:`true_state_coefficient` and :func:`scheme_step_distortion`.
"""

import dataclasses

import numpy as np

from . import regions, sk_dpc
from .params import DpcParams, NoisyObsParams

#: How coefficient errors name the equivalent channel's sigma2.
EQUIVALENT_NOISE = "(the equivalent channel's noise kappa*sigma_z2 + sigma2)"


def make_equivalent(params: NoisyObsParams):
    """The clean-observation channel the noisy problem reduces to: state
    variance kappa Q and noise variance kappa sigma_z2 + sigma2."""
    kappa = regions.observation_weight(params)
    return DpcParams.derived(
        P=params.P, Q=kappa * params.Q, sigma2=kappa * params.sigma_z2 + params.sigma2
    )


def _true_state_moments(params: NoisyObsParams, gamma):
    """Steady-state E[S Y] and E[Y^2] of the true state."""
    eq = make_equivalent(params)
    omega = 1.0 + sk_dpc.state_forward_coefficient(eq, gamma)
    ey2 = gamma * params.P + omega * omega * eq.Q + eq.sigma2
    return omega * eq.Q + (1.0 - regions.observation_weight(params)) * params.Q, ey2


def true_state_coefficient(params: NoisyObsParams, gamma):
    """Steady-state weight c with S_hat_t = c Y_t estimating the true S.

    On the equivalent channel E[S_eq Y] = omega' kappa Q, but the true
    state adds E[Z_tilde Y] = (1-kappa) Q because Z_tilde rides inside Y:

        c = (omega' kappa Q + (1-kappa) Q) / E[Y^2],
        E[Y^2] = gamma P + omega'^2 kappa Q + kappa sigma_z2 + sigma2,

    with omega' = 1 + sqrt((1-gamma) P / (kappa Q)).
    """
    cross, ey2 = _true_state_moments(params, gamma)
    return cross / ey2


def scheme_step_distortion(params: NoisyObsParams, gamma):
    """Per-step MMSE of the true state under the linear estimator.

    Q - (E[S Y])^2 / E[Y^2] evaluated in closed form. This is smaller
    than the conservative figure :func:`dpsk.regions.noisy_min_distortion`
    reports, which prices the unobserved state component (1-kappa) Q at
    its full variance instead of crediting its presence inside Y. The
    simulation harness checks simulated distortion against this value and
    flags the gap from the published figure.
    """
    cross, ey2 = _true_state_moments(params, gamma)
    return params.Q - cross * cross / ey2


def noisy_run_batch(params: NoisyObsParams, gamma, M, coeffs, W, S, Z, eta):
    """Simulate a batch of blocks with physical state S and observation noise Z.

    This is :func:`dpsk.sk_dpc.run_batch` on the equivalent channel, with
    ``M`` and ``coeffs`` from :func:`dpsk.sk_dpc.resolve_loop` on
    :func:`make_equivalent` with ``noise=EQUIVALENT_NOISE``: the encoder
    is driven by kappa (S + Z), the state it cannot see joins the channel
    noise, and the receiver weighs Y by :func:`true_state_coefficient`.
    The returned trace carries the true S and its estimate.
    """
    s_eq = regions.observation_weight(params) * (S + Z)
    eta_eq = (S - s_eq) + eta
    trace = sk_dpc.run_batch(
        make_equivalent(params), gamma, M, coeffs, W, s_eq, eta_eq,
        weight=true_state_coefficient(params, gamma),
    )
    return dataclasses.replace(trace, S=S)


def noisy_run_block(params: NoisyObsParams, gamma, block, W, S, Z, eta):
    """Simulate one block with physical state S and observation noise Z.

    This is :func:`noisy_run_batch`, the path the simulation harness runs,
    on a batch of one block. With sigma_z2 = 0 it reproduces the
    clean-observation trace sample for sample.
    """
    S, Z, eta = sk_dpc.batch_of_one(block.n, S=S, Z=Z, eta=eta)
    _, M, coeffs = sk_dpc.resolve_loop(make_equivalent(params), gamma, block, EQUIVALENT_NOISE)
    return sk_dpc.single_block(noisy_run_batch(params, gamma, M, coeffs, np.array([W]), S, Z, eta))

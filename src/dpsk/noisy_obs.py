"""Single-user scheme when the transmitter sees the state through noise.

The encoder observes S_tilde = S + Z with Z ~ N(0, sigma_z2) instead of S
itself. Writing S = kappa S_tilde + Z_tilde with kappa = Q/(Q + sigma_z2)
splits the state into a part the encoder knows and an orthogonal remainder
Z_tilde ~ N(0, (1-kappa) Q) that acts as extra channel noise:

    Y = X + kappa S_tilde + (Z_tilde + eta).

The clean-observation machinery therefore runs unchanged on the
equivalent channel with state variance kappa Q and noise variance
kappa sigma_z2 + sigma2 (note Var(kappa Z) = kappa sigma_z2 relative to
the observed block). The receiver, however, wants the true S, not the
equivalent state, which changes the estimator weight and the achieved
distortion; see :func:`true_state_coefficient` and
:func:`scheme_step_distortion`.
"""

import dataclasses

import numpy as np

from . import regions, sk_dpc
from .params import DpcParams, NoisyObsParams


@dataclasses.dataclass(frozen=True)
class EquivalentChannel:
    """Clean-observation channel the noisy problem reduces to."""

    kappa: float
    state_var: float
    noise_var: float


def make_equivalent(params: NoisyObsParams):
    kappa = regions.observation_weight(params)
    return EquivalentChannel(
        kappa=kappa,
        state_var=kappa * params.Q,
        noise_var=kappa * params.sigma_z2 + params.sigma2,
    )


def equivalent_dpc_params(params: NoisyObsParams):
    eq = make_equivalent(params)
    return DpcParams(P=params.P, Q=eq.state_var, sigma2=eq.noise_var)


def _true_state_moments(params: NoisyObsParams, eq: EquivalentChannel, gamma):
    """Steady-state E[S Y] and E[Y^2] of the true state; needs kappa Q > 0."""
    omega = 1.0 + sk_dpc.state_forward_coefficient(equivalent_dpc_params(params), gamma)
    ey2 = gamma * params.P + omega * omega * eq.state_var + eq.noise_var
    return omega * eq.state_var + (1.0 - eq.kappa) * params.Q, ey2


def true_state_coefficient(params: NoisyObsParams, gamma):
    """Steady-state weight c with S_hat_t = c Y_t estimating the true S.

    On the equivalent channel E[S_eq Y] = omega' kappa Q, but the true
    state adds E[Z_tilde Y] = (1-kappa) Q because Z_tilde rides inside Y:

        c = (omega' kappa Q + (1-kappa) Q) / E[Y^2],
        E[Y^2] = gamma P + omega'^2 kappa Q + kappa sigma_z2 + sigma2,

    with omega' = 1 + sqrt((1-gamma) P / (kappa Q)).
    """
    eq = make_equivalent(params)
    if eq.state_var == 0.0:
        return 0.0
    cross, ey2 = _true_state_moments(params, eq, gamma)
    return cross / ey2


def scheme_step_distortion(params: NoisyObsParams, gamma):
    """Per-step MMSE of the true state under the linear estimator.

    Q - (E[S Y])^2 / E[Y^2] evaluated in closed form. This is smaller
    than the conservative figure :func:`dpsk.regions.noisy_min_distortion`
    reports, which prices the unobserved state component (1-kappa) Q at
    its full variance instead of crediting its presence inside Y. The
    simulation harness checks simulated distortion against this value and
    flags the gap from the conservative bound.
    """
    eq = make_equivalent(params)
    if params.Q == 0.0:
        return 0.0
    if eq.state_var == 0.0:
        # Observation carries nothing; Y still contains S itself.
        ey2 = params.P + params.Q + params.sigma2
        return params.Q - params.Q * params.Q / ey2
    cross, ey2 = _true_state_moments(params, eq, gamma)
    return params.Q - cross * cross / ey2


def finite_n_distortion(params: NoisyObsParams, gamma, n):
    """Block average with the unprotected first slot contributing Q."""
    return params.Q / n + (n - 1) / n * scheme_step_distortion(params, gamma)


def estimate_true_state(Y, params: NoisyObsParams, gamma):
    """Apply the true-state weight; the first slot has no estimate."""
    Y = np.asarray(Y, dtype=float)
    s_hat = true_state_coefficient(params, gamma) * Y
    s_hat[..., 0] = 0.0
    return s_hat


def noisy_run_batch(params: NoisyObsParams, gamma, M, coeffs, W, S, Z, eta):
    """Simulate a batch of blocks with physical state S and observation noise Z.

    This is :func:`dpsk.sk_dpc.run_batch` on the equivalent channel, with
    ``M`` and ``coeffs`` from :func:`dpsk.sk_dpc.resolve_loop` on
    :func:`equivalent_dpc_params`: the encoder is driven by kappa (S + Z)
    and the state it cannot see joins the channel noise. The returned
    trace carries the true S and its estimate.
    """
    s_eq = make_equivalent(params).kappa * (S + Z)
    eta_eq = (S - s_eq) + eta
    trace = sk_dpc.run_batch(
        equivalent_dpc_params(params), gamma, M, coeffs, W, s_eq, eta_eq,
        estimate=lambda Y: estimate_true_state(Y, params, gamma),
    )
    return dataclasses.replace(trace, S=S)


def noisy_run_block(params: NoisyObsParams, gamma, block, W, S, Z, eta):
    """Simulate one block with physical state S and observation noise Z.

    This is :func:`noisy_run_batch`, the path the simulation harness runs,
    on a batch of one block. With sigma_z2 = 0 it reproduces the
    clean-observation trace sample for sample.
    """
    S, Z, eta = sk_dpc.batch_of_one(block.n, S=S, Z=Z, eta=eta)
    _, M, coeffs = sk_dpc.resolve_loop(equivalent_dpc_params(params), gamma, block)
    return sk_dpc.single_block(noisy_run_batch(params, gamma, M, coeffs, np.array([W]), S, Z, eta))

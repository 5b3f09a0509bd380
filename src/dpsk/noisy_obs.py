"""Single-user scheme when the transmitter sees the state through noise.

The encoder observes S_tilde = S + Z with Z ~ N(0, sigma_z2) instead of S
itself. Writing S = kappa S_tilde + Z_tilde with kappa = Q/(Q + sigma_z2)
splits the state into a part the encoder knows and an orthogonal remainder
Z_tilde ~ N(0, (1-kappa) Q) that acts as extra channel noise:

    Y = X + kappa S_tilde + (Z_tilde + eta).

The clean-observation machinery therefore runs unchanged on the
equivalent channel, the ``DpcParams`` :func:`make_equivalent` returns, with
state variance kappa Q and noise variance kappa sigma_z2 + sigma2 (note
Var(kappa Z) = kappa sigma_z2 relative to the observed block), on the
state and noise :func:`equivalent_draws` forms once per batch. The
receiver, however, wants the true S, not the equivalent state, which
changes the estimator weight and the achieved distortion; see
:func:`true_state_coefficient` and :func:`scheme_step_distortion`.
"""

import numpy as np

from . import regions, sk_dpc
from .params import DpcParams, NoisyObsParams, check_fraction

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
    omega = 1.0 + sk_dpc.forward_coefficient(check_fraction("gamma", gamma), eq.P, eq.Q)
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


def equivalent_draws(params: NoisyObsParams, S, Z, eta, *, out=None):
    """The state kappa (S + Z) and noise S - kappa (S + Z) + eta of :func:`make_equivalent`
    from a batch's (B, n) true S, observation noise Z and noise eta; the noise is a (B, n)
    view of a slot-major array, so that the closed loop reads each slot contiguously. Like
    a numpy ufunc's, ``out`` is the array the state is written to, Z itself included, so a
    caller done with Z holds one (B, n) array less; by default a new one."""
    sk_dpc.check_batch(np.shape(S), Z=Z, eta=eta)
    s_eq = np.add(S, Z, out=out, dtype=float)
    s_eq *= regions.observation_weight(params)
    eta_eq = np.subtract(S.T, s_eq.T, out=np.empty(S.shape[::-1]))
    eta_eq += eta.T
    return s_eq, eta_eq.T

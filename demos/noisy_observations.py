"""Noisy state observations at the transmitter.

The encoder sees S + Z instead of S. Scaling by kappa = Q/(Q+sigma_z2)
turns the residual into extra channel noise, so the clean-state scheme
runs unchanged on an equivalent channel. At sigma_z2 = 0 everything
reduces to the clean boundary. The published closed-form distortion
lies above what the scheme achieves at the reference operating point,
so it is no lower bound there; the harness flags the gap rather than
hiding it.
"""

from dpsk import harness, noisy_obs, regions
from dpsk.params import BlockConfig, DpcParams, NoisyObsParams, PowerSplit

PARAMS = NoisyObsParams(P=7.7, Q=10, sigma2=5, sigma_z2=1)


def show_equivalent_channel():
    eq = noisy_obs.make_equivalent(PARAMS)
    print(f"kappa = Q/(Q+sigma_z2) = {regions.observation_weight(PARAMS):.6f}")
    print(f"equivalent channel: state var {eq.Q:.4f}, noise var {eq.sigma2:.4f}")
    clean = regions.noisy_boundary(NoisyObsParams(7.7, 10, 5, 0), 0.5)
    ref = regions.dpc_fb_boundary(DpcParams(7.7, 10, 5), 0.5)
    print(f"sigma_z2=0 check at gamma=0.5: {clean.distortion:.12f} vs clean {ref.distortion:.12f}")
    print()


def show_bound_gap():
    gamma = 0.5
    point = regions.noisy_boundary(PARAMS, gamma)
    scheme = noisy_obs.scheme_step_distortion(PARAMS, gamma)
    print(f"published form at gamma={gamma}: D = {point.distortion:.6f}")
    print(f"scheme actually achieves:    D = {scheme:.6f}")
    print()

    block = BlockConfig(100, rate_fraction=0.5)
    report = harness.run_experiment(
        "noisy", PARAMS, PowerSplit(gamma), block, 20000, harness.RandomPlan(7)
    )
    print(f"simulated n=100, 20000 trials: D = {report.empirical['distortion']:.6f}")
    print(f"finite-n scheme value:         D = {report.theory['distortion_scheme']:.6f}")
    print(f"finite-n published form:       D = {report.theory['distortion_bound']:.6f}")
    print(f"flags: {report.flags}")


if __name__ == "__main__":
    show_equivalent_channel()
    show_bound_gap()

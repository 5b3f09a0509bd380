"""Single-user walk-through: the power split gamma trades message rate
against state-estimation distortion.

Prints the closed-form boundary, overlays seeded Monte Carlo runs at a
few splits, and finishes with the zero-noise run in which the decoder
recovers theta exactly because the state offset cancels.
"""

import math

import numpy as np

from dpsk import harness, regions, sk_dpc
from dpsk.params import BlockConfig, DpcParams, PowerSplit

PARAMS = DpcParams(P=10, Q=10, sigma2=5)
N = 60
TRIALS = 4000
SEED = 11


def show_boundary():
    print("closed-form trade-off boundary, P=10 Q=10 sigma2=5")
    print(f"{'gamma':>6} {'rate cap':>9} {'distortion':>11}")
    for point in regions.boundary_sweep(PARAMS, regions.unit_grid(6)):
        print(f"{point.gamma:6.2f} {point.rate:9.4f} {point.distortion:11.4f}")
    print()


def show_monte_carlo():
    print(f"Monte Carlo at n={N}, {TRIALS} trials, rate at 70% of each cap")
    print(f"{'gamma':>6} {'pe':>9} {'empirical D':>12} {'theory D':>9}")
    block = BlockConfig(N, rate_fraction=0.7)
    gammas = (0.25, 0.5, 0.75)
    splits = [PowerSplit(gamma) for gamma in gammas]
    plan = harness.RandomPlan(SEED)
    reports = harness.run_experiment("dpc", PARAMS, splits, block, TRIALS, plan)
    for gamma, report in zip(gammas, reports):
        print(
            f"{gamma:6.2f} {report.empirical['pe']:9.2e} "
            f"{report.empirical['distortion']:12.4f} {report.theory['distortion']:9.4f}"
        )
    print()


def show_cancellation():
    # with eta = 0 the only perturbation of theta_hat is the state, and
    # the transmit offset removes it term by term
    # the block runs as a batch of one: (1,) messages and (1, n) draws
    n = 50
    block = BlockConfig(n, rate=4.0 / n)
    rng = np.random.default_rng(SEED)
    S = rng.normal(0.0, math.sqrt(PARAMS.Q), size=(1, n))
    _, M, coeffs = sk_dpc.resolve_loop(PARAMS, 0.5, block)
    weight = sk_dpc.estimation_coefficient(PARAMS, 0.5)
    trace = harness.run_batch(coeffs, [M], [np.array([11])], S, np.zeros((1, n)), weight)
    theta = sk_dpc.message_to_theta(11, M)
    print(f"zero-noise block, message 11 of {M}:")
    print(f"  theta sent      {theta:+.12f}")
    print(f"  theta decoded   {trace.theta_hat[0, 0, -1]:+.12f}")
    print(f"  message decoded {trace.W_hat[0, 0]}")


if __name__ == "__main__":
    show_boundary()
    show_monte_carlo()
    show_cancellation()

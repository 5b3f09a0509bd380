"""Acceptance gate: thirteen checks, one test and one printed line each.

Covers offset cancellation, oracle agreement, Monte Carlo calibration of
distortion, reliability and power, the fixed-point solver, region
identities, the noisy-observation reduction, and byte-level
reproducibility. Monte Carlo checks run at a fixed seed; tolerances and
runtime limits are part of each check. Run with ``pytest -v`` for the
per-line outcome, ``-s`` to see the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from dpsk import cli, harness, regions, sk_dpc, sk_dpmac
from dpsk.params import BlockConfig, DpcParams, MacParams, NoisyObsParams, PowerSplit

from oracles import mac_nofb_constraints, quartic_rho_oracle, sk_coefficient_oracle

SEED = 7
DPC = DpcParams(P=10, Q=10, sigma2=5)
MAC = MacParams(P1=10, P2=10, Q=10, sigma2=5)
FIG_NOISY = NoisyObsParams(P=7.7, Q=10, sigma2=5, sigma_z2=1)


def _report(number, name, ok, detail):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def calibration_run():
    """One 1e5-trial single-user run shared by the distortion and power checks."""
    plan = harness.RandomPlan(SEED)
    start = time.perf_counter()
    report = harness.run_experiment(
        "dpc", DPC, PowerSplit(0.5), BlockConfig(100, rate_fraction=0.7),
        100_000, plan,
    )
    return report, time.perf_counter() - start


def test_criterion_01_offset_cancellation_zero_noise():
    start = time.perf_counter()
    n, M = 50, 16
    block = BlockConfig(n=n, rate=4.0 / n)
    rng = np.random.default_rng(SEED)
    S = rng.normal(0.0, math.sqrt(DPC.Q), size=n)
    eta = np.zeros(n)
    worst = 0.0
    exact = 0
    for w in range(1, M + 1):
        trace = sk_dpc.run_block(DPC, 0.5, block, w, S, eta)
        worst = max(worst, abs(trace.theta_hat[-1] - sk_dpc.message_to_theta(w, M)))
        exact += trace.W_hat == w
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and exact == M and elapsed < 1.0
    _report(1, "offset cancellation with zero noise", ok,
            f"max |theta_hat_n - theta| = {worst:.2e} over {M} messages, {elapsed:.2f} s")


def test_criterion_02_coefficients_match_oracle_grid():
    start = time.perf_counter()
    n = 50
    worst = 0.0
    cases = 0
    for P in (1.0, 5.0, 10.0):
        for Q in (1.0, 5.0, 10.0):
            for s2 in (1.0, 5.0, 10.0):
                for gamma in (0.25, 0.5, 1.0):
                    coeffs = sk_dpc.compute_coefficients(DpcParams(P, Q, s2), gamma, n)
                    mu, alpha = sk_coefficient_oracle(P, Q, s2, gamma, n)
                    worst = max(
                        worst,
                        float(np.max(np.abs(coeffs.mu[1:] / mu - 1.0))),
                        float(np.max(np.abs(coeffs.alpha / alpha - 1.0))),
                    )
                    cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(2, "recursion coefficients vs independent oracle", ok,
            f"max relative deviation {worst:.2e} over {cases} configurations, {elapsed:.2f} s")


def test_criterion_03_single_user_distortion(calibration_run):
    report, elapsed = calibration_run
    P, Q, s2, g, n = 10.0, 10.0, 5.0, 0.5, 100
    d_inf = Q * (g * P + s2) / ((math.sqrt(Q) + math.sqrt((1 - g) * P)) ** 2 + g * P + s2)
    assert d_inf == pytest.approx(2.554791617945658, rel=1e-14)
    target = Q / n + (n - 1) / n * d_inf  # the t = 1 slot has no estimate
    emp = report.empirical["distortion"]
    rel = abs(emp - target) / target
    ok = rel <= 0.02 and elapsed < 60.0
    _report(3, "single-user distortion at 1e5 trials", ok,
            f"empirical {emp:.6f} vs {target:.6f} ({100 * rel:.3f}% off), {elapsed:.1f} s")


def test_criterion_04_single_user_reliability():
    start = time.perf_counter()
    plan = harness.RandomPlan(SEED)
    pes = []
    for n in (10, 20, 40):
        report = harness.run_experiment(
            "dpc", DPC, PowerSplit(0.5), BlockConfig(n, rate_fraction=0.7),
            10_000, plan,
        )
        pes.append(report.empirical["pe"])
    elapsed = time.perf_counter() - start
    ok = pes[0] >= pes[1] >= pes[2] and pes[-1] <= 1e-3 and elapsed < 60.0
    _report(4, "reliability at 70% of the rate cap", ok,
            f"pe over n in (10, 20, 40): {pes[0]:.2e} >= {pes[1]:.2e} >= {pes[2]:.2e}, "
            f"{elapsed:.1f} s")


def test_criterion_05_power_contract(calibration_run):
    report, _ = calibration_run
    P, Q, g, trials = 10.0, 10.0, 0.5, report.trials
    power = np.asarray(report.empirical["symbol_power"])
    # X_t is zero-mean Gaussian with variance P for t >= 2, so the
    # per-symbol power estimate has standard error P sqrt(2/trials)
    se = P * math.sqrt(2.0 / trials)
    steady_dev = float(np.max(np.abs(power[1:] - P)))
    coeffs = sk_dpc.compute_coefficients(DPC, g, 100)
    gp = g * P
    t1_closed = gp + (1.0 + 12.0 * gp * coeffs.omega**2 * float(np.sum(coeffs.mu[1:] ** 2))) * Q
    t1_rel = abs(power[0] - t1_closed) / t1_closed
    ok = steady_dev <= 5.0 * se and t1_rel <= 0.01
    _report(5, "per-symbol transmit power", ok,
            f"max steady deviation {steady_dev:.4f} (5 SE = {5 * se:.4f}), "
            f"time-1 {power[0]:.3f} vs closed form {t1_closed:.3f} ({100 * t1_rel:.3f}% off)")


def test_criterion_06_rho_star_solver():
    s2 = 5.0
    worst = 0.0
    for A in (1.0, 2.5, 5.0, 7.5, 10.0):
        for B in (1.0, 2.5, 5.0, 7.5, 10.0):
            rho = regions.solve_rho_star(MacParams(P1=A, P2=B, Q=10.0, sigma2=s2), 1.0, 1.0)
            assert 0.0 < rho < 1.0

            def f(x):
                return s2 * (A + B + 2.0 * math.sqrt(A * B) * x + s2) - (
                    B * (1.0 - x * x) + s2
                ) * (A * (1.0 - x * x) + s2)

            scale = max(abs(f(0.0)), abs(f(1.0)), 1.0)
            worst = max(worst, abs(f(rho)) / scale)
    quartic_gap = abs(
        regions.solve_rho_star(MacParams(5.0, 5.0, 0.0, 5.0), 1.0, 1.0) - quartic_rho_oracle()
    )
    ok = worst <= 1e-12 and quartic_gap <= 1e-10
    _report(6, "fixed-point correlation solver", ok,
            f"max scaled residual {worst:.2e} on the 5x5 power grid, "
            f"quartic-oracle gap {quartic_gap:.2e}")


def test_criterion_07_mac_correlation_convergence():
    start = time.perf_counter()
    coeffs = sk_dpmac.mac_coefficients(MAC, 0.8, 0.8, 200)
    gap = abs(float(coeffs.rho[-1]) - regions.solve_rho_star(MAC, 0.8, 0.8))
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-3 and elapsed < 1.0
    _report(7, "error-correlation convergence at n = 200", ok,
            f"|rho_n - rho*| = {gap:.2e}, {elapsed:.3f} s")


def test_criterion_08_mac_distortion():
    start = time.perf_counter()
    n = 200
    report = harness.run_experiment(
        "mac", MAC, PowerSplit(0.8, 0.8), BlockConfig(n, rate_fraction=0.25),
        100_000, harness.RandomPlan(SEED),
    )
    elapsed = time.perf_counter() - start
    d_min = regions.mac_constraints(MAC, 0.8, 0.8, regions.solve_rho_star(MAC, 0.8, 0.8)).d_min
    assert d_min == pytest.approx(4.331608203995157, rel=1e-13)
    target = 2.0 * MAC.Q / n + (n - 2) / n * d_min  # two estimate-free init slots
    emp = report.empirical["distortion"]
    rel = abs(emp - target) / target
    ok = rel <= 0.02 and elapsed < 120.0
    _report(8, "two-encoder distortion at 1e5 trials", ok,
            f"empirical {emp:.6f} vs {target:.6f} ({100 * rel:.3f}% off), {elapsed:.1f} s")


def test_criterion_09_mac_zero_noise_exact_decode():
    n, M = 60, 8
    block = BlockConfig(n=n, rate=3.0 / n)
    rng = np.random.default_rng(SEED)
    S = rng.normal(0.0, math.sqrt(MAC.Q), size=n)
    eta = np.zeros(n)
    exact = 0
    for w1 in range(1, M + 1):
        for w2 in range(1, M + 1):
            trace = sk_dpmac.mac_run_block(MAC, 0.8, 0.8, block, w1, w2, S, eta)
            exact += (trace.W1_hat, trace.W2_hat) == (w1, w2)
    _report(9, "two-encoder exact decode with zero noise", exact == M * M,
            f"{exact}/{M * M} message pairs decoded exactly")


def test_criterion_10_zero_rho_equals_no_feedback_region():
    grid = regions.unit_grid(10)
    worst = 0.0
    gain_everywhere = True
    for gamma in grid:
        for beta in grid:
            at_zero = regions.mac_constraints(MAC, gamma, beta, 0.0)
            nofb = mac_nofb_constraints(MAC, gamma, beta)
            for field in ("r1_max", "r2_max", "rsum_max", "d_min"):
                a, b = getattr(at_zero, field), getattr(nofb, field)
                worst = max(worst, abs(a - b) / max(abs(b), 1.0))
            if gamma * MAC.P1 > 0.0 and beta * MAC.P2 > 0.0:
                rho_star = regions.solve_rho_star(MAC, gamma, beta)
                with_fb = regions.mac_constraints(MAC, gamma, beta, rho_star)
                gain_everywhere = gain_everywhere and with_fb.rsum_max > nofb.rsum_max
    ok = worst <= 1e-12 and gain_everywhere
    _report(10, "rho = 0 region equals the no-feedback region", ok,
            f"max field deviation {worst:.2e} on the 10x10 grid; "
            f"sum-rate gain at rho* everywhere: {gain_everywhere}")


def test_criterion_11_noisy_reduction_and_dominance():
    grid = regions.unit_grid(100)
    clean = NoisyObsParams(P=10, Q=10, sigma2=5, sigma_z2=0)
    worst = 0.0
    for gamma in grid:
        reduced = regions.noisy_boundary(clean, gamma)
        plain = regions.dpc_fb_boundary(DPC, gamma)
        worst = max(worst, abs(reduced.rate - plain.rate),
                    abs(reduced.distortion - plain.distortion))
    clean_77 = DpcParams(P=7.7, Q=10, sigma2=5)
    dominated = True
    for gamma in grid:
        with_noise = regions.noisy_boundary(FIG_NOISY, gamma)
        without = regions.dpc_fb_boundary(clean_77, gamma)
        dominated = dominated and (
            without.rate >= with_noise.rate and without.distortion <= with_noise.distortion
        )
    mid_noise = regions.noisy_boundary(FIG_NOISY, 0.5)
    mid_clean = regions.dpc_fb_boundary(clean_77, 0.5)
    strict = mid_clean.rate > mid_noise.rate and mid_clean.distortion < mid_noise.distortion
    ok = worst <= 1e-12 and dominated and strict
    _report(11, "noisy-observation reduction and dominance", ok,
            f"sigma_z2 = 0 deviation {worst:.2e} on 100 points; clean boundary "
            f"dominates the noisy one pointwise: {dominated}")


def test_criterion_12_noisy_distortion_or_flagged_mismatch():
    start = time.perf_counter()
    n = 100
    report = harness.run_experiment(
        "noisy", FIG_NOISY, PowerSplit(0.5), BlockConfig(n, rate_fraction=0.7),
        100_000, harness.RandomPlan(SEED),
    )
    elapsed = time.perf_counter() - start
    bound = report.theory["distortion_bound"]
    scheme = report.theory["distortion_scheme"]
    emp = report.empirical["distortion"]
    rel_bound = abs(emp - bound) / bound
    if rel_bound <= 0.02:
        ok = True
        detail = f"empirical {emp:.4f} within 2% of the printed bound {bound:.4f}"
    else:
        # The closed-form bound and the simulated scheme disagree; the pass
        # condition is then the explicit flag plus agreement with the
        # estimator the scheme actually runs.
        rel_scheme = abs(emp - scheme) / scheme
        ok = "distortion_bound_mismatch" in report.flags and rel_scheme <= 0.02
        detail = (
            f"printed bound {bound:.4f} missed by {100 * rel_bound:.1f}%; "
            f"flag raised and empirical {emp:.4f} is within "
            f"{100 * rel_scheme:.3f}% of the scheme value {scheme:.4f}"
        )
    detail += f", {elapsed:.1f} s"
    _report(12, "noisy-observation distortion or flagged mismatch", ok, detail)


def test_criterion_13_reruns_are_byte_identical(tmp_path):
    jobs = [
        ("dpc_report.json",
         ["simulate", "dpc", "--P", "10", "--Q", "10", "--sigma2", "5",
          "--gamma", "0.5", "--n", "50", "--rate_fraction", "0.7",
          "--trials", "2000", "--seed", "7", "--format", "json"]),
        ("mac_report.csv",
         ["simulate", "mac", "--P1", "10", "--P2", "10", "--Q", "10", "--sigma2", "5",
          "--gamma", "0.8", "--beta", "0.8", "--n", "40", "--rate_fraction", "0.25",
          "--trials", "500", "--seed", "7"]),
        ("noisy_region.csv",
         ["region", "noisy", "--P", "7.7", "--Q", "10", "--sigma2", "5",
          "--sigma_z2", "1", "--grid", "51"]),
        ("dpc_sweep.csv",
         ["sweep", "dpc", "--P", "10", "--Q", "10", "--sigma2", "5",
          "--n", "20", "--rate_fraction", "0.5", "--grid", "5",
          "--trials", "300", "--seed", "7"]),
    ]
    identical = True
    for name, argv in jobs:
        first = tmp_path / ("first_" + name)
        second = tmp_path / ("second_" + name)
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        identical = identical and first.read_bytes() == second.read_bytes()
    _report(13, "same-seed reruns are byte-identical", identical,
            f"{len(jobs)} artifact pairs compared byte for byte")

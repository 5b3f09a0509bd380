import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsk import noisy_obs, regions, sk_dpc
from dpsk.errors import EmptyGrid, SplitOutOfRange
from dpsk.params import DpcParams, MacParams, NoisyObsParams

from oracles import mac_nofb_constraints, quartic_rho_oracle

ACC = DpcParams(P=10, Q=10, sigma2=5)
MAC = MacParams(P1=10, P2=10, Q=10, sigma2=5)
FIG3 = NoisyObsParams(P=7.7, Q=10, sigma2=5, sigma_z2=1)

# hand-evaluated boundary values at the standard test point
D_FULL_MESSAGE = 6.0               # gamma = 1: no forwarding power left
D_FULL_FORWARD = 10.0 / 9.0        # gamma = 0: everything forwards the state
D_NO_POWER = 10.0 / 3.0            # P = 0: estimate from S + noise alone
D_HALF_SPLIT = 2.554791617945658   # gamma = 0.5


def test_rate_cap_values():
    assert regions.dpc_rate_cap(ACC, 0.5) == pytest.approx(0.5, rel=1e-15)
    assert regions.dpc_rate_cap(ACC, 0.0) == 0.0
    assert regions.dpc_rate_cap(ACC, 1.0) == pytest.approx(0.5 * math.log2(3.0), rel=1e-15)


def test_min_distortion_extremes():
    assert regions.dpc_min_distortion(ACC, 1.0) == pytest.approx(D_FULL_MESSAGE, rel=1e-12)
    assert regions.dpc_min_distortion(ACC, 0.0) == pytest.approx(D_FULL_FORWARD, rel=1e-12)
    assert regions.dpc_min_distortion(DpcParams(0, 10, 5), 0.0) == pytest.approx(
        D_NO_POWER, rel=1e-12
    )
    assert regions.dpc_min_distortion(ACC, 0.5) == pytest.approx(D_HALF_SPLIT, rel=1e-12)


def test_min_distortion_degenerate_state():
    assert regions.dpc_min_distortion(DpcParams(10, 0, 5), 0.5) == 0.0


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_zero_state_variance_gives_positive_zero(gamma):
    # no special case: at Q = 0 each form is +0.0 times a finite value over a
    # denominator of at least sigma2 > 0
    values = (
        regions.dpc_min_distortion(DpcParams(10, 0, 5), gamma),
        regions.noisy_min_distortion(NoisyObsParams(10, 0, 5, 1), gamma),
        regions.mac_constraints(MacParams(10, 10, 0, 5), gamma, gamma, 0.3).d_min,
        sk_dpc.estimation_coefficient(DpcParams(10, 0, 5), gamma),
    )
    for value in values:
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_boundary_monotone_in_gamma():
    # more message power: rate up, distortion up / never down
    gammas = np.linspace(0.0, 1.0, 41)
    points = regions.boundary_sweep(ACC, gammas)
    rates = [p.rate for p in points]
    dists = [p.distortion for p in points]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert all(b >= a for a, b in zip(dists, dists[1:]))


def test_gamma_validation():
    with pytest.raises(SplitOutOfRange):
        regions.dpc_rate_cap(ACC, 1.5)
    with pytest.raises(SplitOutOfRange):
        regions.dpc_min_distortion(ACC, -0.2)


def test_mac_power_normalizer_matches_lambda_identity():
    # L must equal lambda^2 Q + A + B + sigma2 with lambda the combined
    # state amplification; both sides are evaluated independently.
    rng = np.random.default_rng(5)
    for _ in range(50):
        P1, P2, Q = rng.uniform(0.1, 20, size=3)
        gamma, beta = rng.uniform(0, 1, size=2)
        params = MacParams(P1, P2, Q, 5.0)
        lam = 1.0 + math.sqrt((1 - gamma) * P1 / Q) + math.sqrt((1 - beta) * P2 / Q)
        expected = lam * lam * Q + gamma * P1 + beta * P2 + 5.0
        assert regions.mac_power_normalizer(params, gamma, beta) == pytest.approx(
            expected, rel=1e-12
        )


def test_mac_constraints_at_zero_rho_match_nofb_baseline():
    for gamma in np.linspace(0.0, 1.0, 10):
        for beta in np.linspace(0.0, 1.0, 10):
            fb = regions.mac_constraints(MAC, gamma, beta, 0.0)
            nofb = mac_nofb_constraints(MAC, gamma, beta)
            assert fb.r1_max == nofb.r1_max
            assert fb.r2_max == nofb.r2_max
            assert fb.rsum_max == nofb.rsum_max
            assert fb.d_min == nofb.d_min


def test_mac_constraints_reject_bad_rho():
    with pytest.raises(SplitOutOfRange):
        regions.mac_constraints(MAC, 0.5, 0.5, 1.5)


def test_mac_degenerate_state():
    c = regions.mac_constraints(MacParams(10, 10, 0, 5), 0.5, 0.5, 0.3)
    assert c.d_min == 0.0


def test_rho_star_residual_is_tiny():
    for A_frac in np.linspace(0.2, 1.0, 5):
        for B_frac in np.linspace(0.2, 1.0, 5):
            rho = regions.solve_rho_star(MAC, A_frac, B_frac)
            A, B, s2 = A_frac * MAC.P1, B_frac * MAC.P2, MAC.sigma2
            shrink = 1.0 - rho * rho
            residual = s2 * (A + B + 2 * math.sqrt(A * B) * rho + s2) - (
                B * shrink + s2
            ) * (A * shrink + s2)
            # bisection to interval 1e-13; the residual scales with f(1)
            scale = s2 * (math.sqrt(A) + math.sqrt(B)) ** 2
            assert abs(residual) <= 1e-11 * scale
            assert 0.0 < rho < 1.0


def _aligned_rho_map(params, gamma, beta, rho):
    """The next sign-aligned error correlation of the two-encoder loop at rho,
    from the normalized update: with a = sqrt(gamma P1), b = sqrt(beta P2)
    and v = a^2 + b^2 + 2ab rho + sigma2, each variance shrinks by 1 - f_u."""
    a, b = math.sqrt(gamma * params.P1), math.sqrt(beta * params.P2)
    v = a * a + b * b + 2.0 * a * b * rho + params.sigma2
    f1, f2 = (a + b * rho) ** 2 / v, (a * rho + b) ** 2 / v
    return abs(rho - (a + b * rho) * (a * rho + b) / v) / math.sqrt((1.0 - f1) * (1.0 - f2))


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# The range stops at gamma P / sigma2 = 1e5. 1 - f_u falls like 1/SNR and the
# map's own float64 evaluation cancels with it: at P1 = P2 = 1e7, sigma2 =
# 1e-7 and gamma = beta = 1 (SNR 1e14) its residual is 2.3e-9, at SNR 1e20
# 8.9e-6. That error is the checker's, not solve_rho_star's.
@settings(deadline=None)
@given(P1=_log_uniform(1e-2, 1e3), P2=_log_uniform(1e-2, 1e3), Q=_log_uniform(1e-3, 1e4),
       sigma2=_log_uniform(1e-2, 1e2), gamma=st.floats(0.05, 1), beta=st.floats(0.05, 1))
def test_rho_star_is_a_fixed_point_of_the_aligned_rho_map(P1, P2, Q, sigma2, gamma, beta):
    # a check of the bisection that does not use its root function
    params = MacParams(P1, P2, Q, sigma2)
    rho = regions.solve_rho_star(params, gamma, beta)
    assert abs(_aligned_rho_map(params, gamma, beta, rho) - rho) <= 1e-10


def test_rho_star_zero_when_either_message_silent():
    assert regions.solve_rho_star(MAC, 0.0, 0.5) == 0.0
    assert regions.solve_rho_star(MacParams(10, 0, 10, 5), 0.5, 0.5) == 0.0


def test_rho_star_symmetric_case_matches_quartic_oracle():
    # gamma P1 = beta P2 = sigma2 collapses the fixed point to the quartic
    params = MacParams(5, 5, 0, 5)
    assert regions.solve_rho_star(params, 1.0, 1.0) == pytest.approx(
        quartic_rho_oracle(), abs=1e-10
    )


def test_feedback_strictly_raises_sum_rate():
    for gamma in np.linspace(0.1, 1.0, 6):
        for beta in np.linspace(0.1, 1.0, 6):
            rho = regions.solve_rho_star(MAC, gamma, beta)
            fb = regions.mac_constraints(MAC, gamma, beta, rho)
            nofb = mac_nofb_constraints(MAC, gamma, beta)
            assert fb.rsum_max > nofb.rsum_max


def test_mac_fb_region_grid_shapes():
    rows = regions.mac_fb_region(MAC, [0.5, 1.0], [0.25, 0.75, 1.0])
    assert len(rows) == 6
    rows = regions.mac_fb_region(MAC, [0.5], [0.5], rho_grid=[0.0, 0.2, 0.4])
    assert [r.rho for r in rows] == [0.0, 0.2, 0.4]
    with pytest.raises(EmptyGrid):
        regions.mac_fb_region(MAC, [], [0.5])
    with pytest.raises(EmptyGrid):
        regions.mac_fb_region(MAC, [0.5], [0.5], rho_grid=[])


def test_observation_weight():
    assert regions.observation_weight(FIG3) == pytest.approx(10.0 / 11.0, rel=1e-15)
    assert regions.observation_weight(NoisyObsParams(1, 0, 1, 1)) == 0.0
    assert regions.observation_weight(NoisyObsParams(1, 10, 1, 0)) == 1.0
    # enormous observation noise: the observation carries nothing
    assert regions.observation_weight(NoisyObsParams(1, 10, 1, 1e12)) < 1e-10


@pytest.mark.parametrize(
    "params",
    [MAC, MacParams(1e-50, 1e50, 1e50, 1e-50), MacParams(1e50, 1e50, 0, 1e50),
     MacParams(1e50, 1e-50, 1e-50, 1e50), MacParams(0, 1e50, 1e50, 1e-50)],
    ids=["standard", "corner-1", "corner-2", "corner-3", "corner-4"],
)
def test_mac_nofb_region_is_the_independent_formula_bit_for_bit(params):
    grid = list(regions.unit_grid(16))
    expected = [mac_nofb_constraints(params, g, b) for g in grid for b in grid]
    assert all(math.isfinite(v) for c in expected for v in dataclasses.astuple(c))
    assert regions.mac_nofb_region(params, grid, grid) == expected


@pytest.mark.parametrize(
    "Q, d_step, init_slots, weight",
    [
        (ACC.Q, regions.dpc_min_distortion(ACC, 0.5), 1, 0.99),
        (FIG3.Q, noisy_obs.scheme_step_distortion(FIG3, 0.5), 1, 0.99),
        (MAC.Q, regions.mac_constraints(
            MAC, 0.8, 0.8, regions.solve_rho_star(MAC, 0.8, 0.8)).d_min, 2, 0.98),
    ],
    ids=["dpc", "noisy", "mac"],
)
def test_finite_n_distortion_blends_init_slots(Q, d_step, init_slots, weight):
    assert regions.finite_n_distortion(Q, 100, d_step, init_slots) == pytest.approx(
        init_slots * Q / 100 + weight * d_step, rel=1e-14
    )


def test_noisy_boundary_reduces_to_clean_at_zero_obs_noise():
    clean = NoisyObsParams(10, 10, 5, 0)
    for gamma in np.linspace(0.0, 1.0, 100):
        noisy = regions.noisy_boundary(clean, gamma)
        base = regions.dpc_fb_boundary(ACC, gamma)
        assert noisy.rate == pytest.approx(base.rate, abs=1e-12)
        assert noisy.distortion == pytest.approx(base.distortion, abs=1e-12)


def test_noisy_boundary_dominated_by_clean():
    base = DpcParams(FIG3.P, FIG3.Q, FIG3.sigma2)
    for gamma in np.linspace(0.0, 1.0, 50):
        noisy = regions.noisy_boundary(FIG3, gamma)
        clean = regions.dpc_fb_boundary(base, gamma)
        assert noisy.rate <= clean.rate + 1e-15
        assert noisy.distortion >= clean.distortion - 1e-15


def test_noisy_rate_cap_value():
    assert regions.noisy_rate_cap(FIG3, 0.5) == pytest.approx(
        0.3619052839714782, rel=1e-12
    )


def test_noisy_min_distortion_printed_value():
    assert regions.noisy_min_distortion(FIG3, 0.5) == pytest.approx(
        3.4782614845478443, rel=1e-12
    )


def test_unit_grid():
    assert list(regions.unit_grid(1)) == [0.0]
    assert list(regions.unit_grid(3)) == [0.0, 0.5, 1.0]
    grid = regions.unit_grid(101)
    assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 101
    with pytest.raises(EmptyGrid):
        regions.unit_grid(0)


def test_boundary_sweep_dispatch_and_empty():
    pts = regions.boundary_sweep(FIG3, [0.5])
    assert pts[0].distortion == pytest.approx(3.4782614845478443, rel=1e-12)
    with pytest.raises(EmptyGrid):
        regions.boundary_sweep(ACC, [])

import math

import numpy as np
import pytest

from dpsk import harness, noisy_obs, regions, sk_dpc
from dpsk.errors import DegenerateSplit, LengthMismatch
from dpsk.params import BlockConfig, DpcParams, NoisyObsParams, PowerSplit

import stepwise
from oracles import noisy_moment_oracle

FIG3 = NoisyObsParams(P=7.7, Q=10, sigma2=5, sigma_z2=1)
CLEAN = NoisyObsParams(P=10, Q=10, sigma2=5, sigma_z2=0)


def test_equivalent_channel_values():
    eq = noisy_obs.make_equivalent(FIG3)
    assert regions.observation_weight(FIG3) == pytest.approx(10.0 / 11.0, rel=1e-15)
    assert eq.Q == pytest.approx(100.0 / 11.0, rel=1e-15)
    assert eq.sigma2 == pytest.approx(10.0 / 11.0 + 5.0, rel=1e-15)
    assert noisy_obs.make_equivalent(CLEAN) == DpcParams(10, 10, 5)


def test_state_decomposition_is_orthogonal():
    """The split S = kappa S~ + Z~ must conserve variance and leave the
    remainder uncorrelated with the observation."""
    rng = np.random.default_rng(41)
    trials = 200_000
    S = rng.normal(0.0, math.sqrt(FIG3.Q), size=trials)
    Z = rng.normal(0.0, math.sqrt(FIG3.sigma_z2), size=trials)
    obs = S + Z
    kappa = regions.observation_weight(FIG3)
    known = kappa * obs
    resid = S - known
    assert float(np.var(known) + np.var(resid)) == pytest.approx(FIG3.Q, rel=0.01)
    corr = float(np.corrcoef(obs, resid)[0, 1])
    assert abs(corr) <= 4.0 / math.sqrt(trials)


def test_true_state_moments_match_oracle():
    for params in (FIG3, NoisyObsParams(10, 10, 5, 4), CLEAN):
        for gamma in (0.25, 0.5, 0.9):
            c_ref, d_ref = noisy_moment_oracle(
                params.P, params.Q, params.sigma2, params.sigma_z2, gamma
            )
            assert noisy_obs.true_state_coefficient(params, gamma) == pytest.approx(
                c_ref, rel=1e-12
            )
            assert noisy_obs.scheme_step_distortion(params, gamma) == pytest.approx(
                d_ref, rel=1e-12
            )


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_zero_state_variance_gives_positive_zero(gamma):
    # no special case: at Q = 0, omega' = 1 and E[S Y] = 0 while E[Y^2] > 0
    params = NoisyObsParams(10, 0, 5, 1)
    for value in (noisy_obs.true_state_coefficient(params, gamma),
                  noisy_obs.scheme_step_distortion(params, gamma)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_fig3_frozen_values():
    assert noisy_obs.true_state_coefficient(FIG3, 0.5) == pytest.approx(
        0.46090600712613966, rel=1e-12
    )
    assert noisy_obs.scheme_step_distortion(FIG3, 0.5) == pytest.approx(
        2.6641832180704803, rel=1e-12
    )


def test_scheme_beats_printed_bound_when_observation_noisy():
    # the conservative closed form prices the unseen state component at
    # full variance; the linear estimator does strictly better
    for gamma in (0.1, 0.5, 0.9):
        scheme = noisy_obs.scheme_step_distortion(FIG3, gamma)
        printed = regions.noisy_min_distortion(FIG3, gamma)
        assert scheme < printed
    assert noisy_obs.scheme_step_distortion(CLEAN, 0.5) == pytest.approx(
        regions.noisy_min_distortion(CLEAN, 0.5), rel=1e-12
    )


def _one_block(params, gamma, block, w, S, Z, eta):
    """Message w over one (n,) block, run through the runner as a batch of one."""
    eq, noise = noisy_obs.make_equivalent(params), noisy_obs.EQUIVALENT_NOISE
    _, M, coeffs = sk_dpc.resolve_loop(eq, gamma, block, noise)
    draws = noisy_obs.equivalent_draws(params, S[None], Z[None], eta[None])
    trace = harness.run_batch(coeffs, [M], [np.array([w])], *draws,
                              noisy_obs.true_state_coefficient(params, gamma))
    return stepwise.batch_row(trace, 0)


def test_zero_observation_noise_reproduces_clean_trace():
    n, M = 30, 8
    block = BlockConfig(n=n, rate=math.log2(M) / n)
    rng = np.random.default_rng(43)
    S = rng.normal(0.0, math.sqrt(10.0), size=n)
    eta = rng.normal(0.0, math.sqrt(5.0), size=n)
    noisy = _one_block(CLEAN, 0.5, block, 5, S, np.zeros(n), eta)
    dpc = DpcParams(CLEAN.P, CLEAN.Q, CLEAN.sigma2)
    _, M, coeffs = sk_dpc.resolve_loop(dpc, 0.5, block)
    clean = stepwise.batch_row(
        harness.run_batch(coeffs, [M], [np.array([5])], S[None], eta[None],
                          sk_dpc.estimation_coefficient(dpc, 0.5)), 0
    )
    np.testing.assert_array_equal(noisy.X, clean.X)
    np.testing.assert_array_equal(noisy.Y, clean.Y)
    np.testing.assert_array_equal(noisy.theta_hat, clean.theta_hat)
    assert noisy.W_hat == clean.W_hat == 5
    # the estimator weight is computed along a different float path
    np.testing.assert_allclose(noisy.S_hat, clean.S_hat, rtol=1e-12)


def test_zero_noise_zero_obs_noise_decodes_exactly():
    n, M = 40, 8
    block = BlockConfig(n=n, rate=math.log2(M) / n)
    S = np.random.default_rng(47).normal(0.0, math.sqrt(FIG3.Q), size=n)
    zeros = np.zeros(n)
    for w in range(1, M + 1):
        trace = _one_block(FIG3, 0.5, block, w, S, zeros, zeros)
        assert trace.W_hat == w


def test_observation_noise_enters_decoding_error():
    # with eta = 0 but Z != 0 the equivalent channel still has noise,
    # so theta_hat_n != theta in general
    n, M = 10, 4
    block = BlockConfig(n=n, rate=math.log2(M) / n)
    rng = np.random.default_rng(53)
    S = rng.normal(0.0, math.sqrt(FIG3.Q), size=n)
    Z = rng.normal(0.0, math.sqrt(FIG3.sigma_z2), size=n)
    trace = _one_block(FIG3, 0.5, block, 2, S, Z, np.zeros(n))
    theta = sk_dpc.message_to_theta(2, M)
    assert abs(trace.theta_hat[-1] - theta) > 1e-9


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_run_block_matches_harness_traces(gamma):
    # each trial as a batch of one and the batch harness must agree bit for
    # bit, on the forwarding-only path as well as the message path
    n, trials = 60, 50
    block = BlockConfig(n, rate_fraction=0.7)
    plan = harness.RandomPlan(7)
    columns = {}
    (report,) = harness.run_experiment(
        "noisy", FIG3, [PowerSplit(gamma)], block, trials, plan,
        trace_writer=lambda trial, cols: columns.__setitem__(trial, cols),
    )
    M = report.rates["M"]
    assert sorted(columns) == list(range(trials))
    for trial, cols in columns.items():
        S = plan.normals(trial, trial + 1, harness.STATE, n, math.sqrt(FIG3.Q))[0]
        Z = plan.normals(trial, trial + 1, harness.OBS_NOISE, n, math.sqrt(FIG3.sigma_z2))[0]
        eta = plan.normals(trial, trial + 1, harness.NOISE, n, math.sqrt(FIG3.sigma2))[0]
        W = plan.message(trial, harness.MSG, M)
        trace = _one_block(FIG3, gamma, block, W, S, Z, eta)
        for name in ("X", "Y", "theta_hat", "S_hat"):
            np.testing.assert_array_equal(getattr(trace, name), cols[name], err_msg=name)
        # the S column is the true state; the record carries the equivalent one
        np.testing.assert_array_equal(S, cols["S"], err_msg="S")
        assert trace.W_hat == int(sk_dpc.decode_batch(cols["theta_hat"][-1], M))


def test_estimate_true_state_zeroes_first_slot():
    # the receiver weighs Y by the true-state coefficient, not the clean one
    n = 12
    block = BlockConfig(n=n, rate=0.25)
    rng = np.random.default_rng(61)
    S = rng.normal(0.0, math.sqrt(FIG3.Q), size=n)
    Z = rng.normal(0.0, math.sqrt(FIG3.sigma_z2), size=n)
    eta = rng.normal(0.0, math.sqrt(FIG3.sigma2), size=n)
    trace = _one_block(FIG3, 0.5, block, 2, S, Z, eta)
    assert trace.S_hat[0] == 0.0
    c = noisy_obs.true_state_coefficient(FIG3, 0.5)
    np.testing.assert_array_equal(trace.S_hat[1:], c * trace.Y[1:])


def test_forwarding_only_path_and_m_guard():
    n = 8
    rng = np.random.default_rng(59)
    S = rng.normal(0.0, math.sqrt(FIG3.Q), size=n)
    Z = rng.normal(0.0, 1.0, size=n)
    eta = rng.normal(0.0, math.sqrt(5.0), size=n)
    trace = _one_block(FIG3, 0.0, BlockConfig(n=n), 1, S, Z, eta)
    assert trace.M == 1 and trace.W_hat == 1
    with pytest.raises(DegenerateSplit):
        _one_block(FIG3, 0.0, BlockConfig(n=n, rate=0.2), 1, S, Z, eta)
    with pytest.raises(LengthMismatch):
        _one_block(FIG3, 0.5, BlockConfig(n=n), 1, S[:3], Z, eta)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_noisy_run_batch_rejects_a_short_observation_noise(gamma):
    """The noisy path of either split, transform then runner, rejects a short Z
    in the transform, before the split's runner is reached."""
    eq = noisy_obs.make_equivalent(FIG3)
    _, M, coeffs = sk_dpc.resolve_loop(eq, gamma, BlockConfig(n=8), noisy_obs.EQUIVALENT_NOISE)
    S = np.ones((4, 8))
    with pytest.raises(LengthMismatch):
        harness.run_batch(coeffs, [M], [np.ones(4, int)],
                          *noisy_obs.equivalent_draws(FIG3, S, S[:, :7], S),
                          noisy_obs.true_state_coefficient(FIG3, gamma))


def test_one_run_builds_the_equivalent_channel_at_most_four_times(monkeypatch):
    # one each for the loop coefficients, the batch's channel, its estimator
    # weight and the report's theory
    calls = []
    make_equivalent = noisy_obs.make_equivalent

    def counted(params):
        calls.append(params)
        return make_equivalent(params)

    monkeypatch.setattr(noisy_obs, "make_equivalent", counted)
    block = BlockConfig(n=60, rate_fraction=0.7)
    harness.run_experiment("noisy", FIG3, [PowerSplit(0.5)], block, 800, harness.RandomPlan(7))
    assert 0 < len(calls) <= 4

import dataclasses
import math

import numpy as np
import pytest

from dpsk import regions, sk_dpc
from dpsk.errors import DegenerateSplit, LengthMismatch, MessageOutOfRange, SplitOutOfRange
from dpsk.params import BlockConfig, DpcParams

import stepwise
from oracles import estimation_coefficient_oracle, sk_coefficient_oracle, time1_power_oracle
from stepwise import OutOfOrderStep

ACC = DpcParams(P=10, Q=10, sigma2=5)


def test_coefficients_match_noise_basis_oracle():
    for P in (1.0, 5.0, 10.0):
        for s2 in (1.0, 5.0):
            for gamma in (0.25, 0.5, 1.0):
                params = DpcParams(P, 10.0, s2)
                coeffs = sk_dpc.compute_coefficients(params, gamma, 30)
                mu, alpha = sk_coefficient_oracle(P, 10.0, s2, gamma, 30)
                np.testing.assert_allclose(coeffs.mu[1:], mu, rtol=1e-10)
                np.testing.assert_allclose(coeffs.alpha, alpha, rtol=1e-10)


def test_alpha_halves_when_message_power_equals_noise():
    # gamma P = sigma2 makes every refinement remove half the variance
    coeffs = sk_dpc.compute_coefficients(ACC, 0.5, 20)
    ratios = coeffs.alpha[1:] / coeffs.alpha[:-1]
    np.testing.assert_allclose(ratios, 0.5, rtol=1e-13)


def test_gain_restores_exact_message_power():
    coeffs = sk_dpc.compute_coefficients(ACC, 0.3, 25)
    sent = coeffs.gain[1:] ** 2 * coeffs.alpha[:-1]
    np.testing.assert_allclose(sent, 0.3 * ACC.P, rtol=1e-12)
    # plus the forwarded state this is the full budget, every step
    np.testing.assert_allclose(
        sent + coeffs.state_coef**2 * ACC.Q, ACC.P, rtol=1e-12
    )


def test_coefficient_validation():
    with pytest.raises(SplitOutOfRange):
        sk_dpc.compute_coefficients(ACC, 1.2, 10)
    with pytest.raises(DegenerateSplit):
        sk_dpc.compute_coefficients(ACC, 0.0, 10)
    with pytest.raises(DegenerateSplit):
        sk_dpc.compute_coefficients(DpcParams(0, 10, 5), 1.0, 10)


def test_coefficient_arrays_are_frozen():
    coeffs = sk_dpc.compute_coefficients(ACC, 0.5, 10)
    with pytest.raises(ValueError):
        coeffs.mu[0] = 0.0


def test_message_grid_is_symmetric_and_bounded():
    M = 16
    thetas = [sk_dpc.message_to_theta(w, M) for w in range(1, M + 1)]
    assert thetas[0] == -0.5 + 1.0 / (2 * M)
    assert all(-0.5 < t < 0.5 for t in thetas)
    np.testing.assert_allclose(thetas, -np.asarray(thetas[::-1]), atol=1e-15)
    with pytest.raises(MessageOutOfRange):
        sk_dpc.message_to_theta(0, M)
    with pytest.raises(MessageOutOfRange):
        sk_dpc.message_to_theta(M + 1, M)


def test_decode_rounds_to_nearest_grid_point():
    M = 8
    for w in range(1, M + 1):
        theta = sk_dpc.message_to_theta(w, M)
        assert stepwise.finalize_decode(theta, M) == w
        assert stepwise.finalize_decode(theta + 0.4 / M, M) == w
        assert stepwise.finalize_decode(theta - 0.4 / M, M) == w
    # overshoot clamps instead of wrapping
    assert stepwise.finalize_decode(2.0, M) == M
    assert stepwise.finalize_decode(-2.0, M) == 1


def test_decode_batch_matches_scalar_rule():
    M = 8
    values = np.linspace(-0.7, 0.7, 283)
    got = sk_dpc.decode_batch(values, M)
    expected = [stepwise.finalize_decode(v, M) for v in values]
    np.testing.assert_array_equal(got, expected)


def test_zero_noise_decodes_exactly():
    """Feedback removes the receiver's uncertainty completely when the
    channel is noiseless: theta_hat_n == theta for every message, despite
    the random state riding on every output."""
    n, M = 50, 16
    block = BlockConfig(n=n, rate=math.log2(M) / n)
    rng = np.random.default_rng(3)
    S = rng.normal(0.0, math.sqrt(ACC.Q), size=n)
    eta = np.zeros(n)
    for w in (1, 7, 16):
        trace = sk_dpc.run_block(ACC, 0.5, block, w, S, eta)
        assert trace.W_hat == w
        assert abs(trace.theta_hat[-1] - sk_dpc.message_to_theta(w, M)) < 1e-9


def _stepwise_block(coeffs, theta, S, eta):
    """The encode_step/decode_update protocol driven one channel use at a time."""
    n = coeffs.n
    X, Y, theta_hat = np.empty(n), np.empty(n), np.empty(n)
    state = stepwise.start_encoder(theta, S, coeffs)
    for t in range(1, n + 1):
        y_prev = Y[t - 2] if t >= 2 else None
        X[t - 1], state = stepwise.encode_step(state, coeffs, S[t - 1], y_prev)
        Y[t - 1] = X[t - 1] + S[t - 1] + eta[t - 1]
    theta_hat[0] = Y[0] / coeffs.message_amp
    for k in range(1, n):
        theta_hat[k] = stepwise.decode_update(theta_hat[k - 1], Y[k], coeffs.mu[k])
    return X, Y, theta_hat


def _batch_row(trace, i):
    """Row i of a batch trace in the one-block form run_block returns."""
    rows = {k: v[i : i + 1] for k, v in vars(trace).items() if isinstance(v, np.ndarray)}
    return sk_dpc.single_block(dataclasses.replace(trace, **rows))


# (params, gamma, n): state forwarding, no forwarding, no state, longest accepted block
BIT_FOR_BIT_CASES = [
    (ACC, 0.5, 40),
    (ACC, 1.0, 40),
    (DpcParams(10, 0, 5), 0.5, 40),
    (ACC, 1.0, 642),
]


def test_run_block_matches_batch_kernel_bit_for_bit():
    # run_block and one B = 4 run_batch call against the stepwise protocol
    M = 32
    W = np.array([1, 9, 20, 32])
    for params, gamma, n in BIT_FOR_BIT_CASES:
        block = BlockConfig(n=n, rate=math.log2(M) / n)
        rng = np.random.default_rng(11)
        S = rng.normal(0.0, math.sqrt(params.Q), size=(4, n))
        eta = rng.normal(0.0, math.sqrt(params.sigma2), size=(4, n))
        coeffs = sk_dpc.compute_coefficients(params, gamma, n)
        batch = sk_dpc.run_batch(params, gamma, M, coeffs, W, S, eta)
        for i, w in enumerate(W):
            theta = sk_dpc.message_to_theta(w, M)
            X, Y, th = _stepwise_block(coeffs, theta, S[i], eta[i])
            trace = sk_dpc.run_block(params, gamma, block, w, S[i], eta[i])
            for got in (trace, _batch_row(batch, i)):
                case = f"{params}, gamma={gamma}, n={n}, row {i}"
                np.testing.assert_array_equal(got.X, X, err_msg=case)
                np.testing.assert_array_equal(got.Y, Y, err_msg=case)
                np.testing.assert_array_equal(got.theta_hat, th, err_msg=case)
                assert got.W_hat == stepwise.finalize_decode(th[-1], M), case


def test_encoder_enforces_step_order():
    coeffs = sk_dpc.compute_coefficients(ACC, 0.5, 5)
    S = np.ones(5)
    state = stepwise.start_encoder(0.25, S, coeffs)
    with pytest.raises(OutOfOrderStep):
        stepwise.encode_step(state, coeffs, S[0], y_prev=1.0)
    _, state = stepwise.encode_step(state, coeffs, S[0])
    with pytest.raises(OutOfOrderStep):
        stepwise.encode_step(state, coeffs, S[1])
    for t in range(2, 6):
        _, state = stepwise.encode_step(state, coeffs, S[t - 1], y_prev=0.5)
    with pytest.raises(OutOfOrderStep):
        stepwise.encode_step(state, coeffs, 0.0, y_prev=0.5)


def test_offset_needs_full_state_block():
    coeffs = sk_dpc.compute_coefficients(ACC, 0.5, 8)
    with pytest.raises(LengthMismatch):
        stepwise.compute_offset(np.ones(5), coeffs)
    # the batch kernel's own checks: a wrong B, a wrong n, eta shaped unlike S
    for S, eta in [(np.ones((3, 8)),) * 2, (np.ones((4, 7)),) * 2, (np.ones((4, 8)), np.ones(8))]:
        with pytest.raises(LengthMismatch):
            sk_dpc.simulate_message_batch(coeffs, np.zeros(4), S, eta)


def test_estimation_coefficient_against_oracle():
    for gamma in (0.0, 0.25, 0.5, 1.0):
        assert sk_dpc.estimation_coefficient(ACC, gamma) == pytest.approx(
            estimation_coefficient_oracle(10, 10, 5, gamma), rel=1e-12
        )
    assert sk_dpc.estimation_coefficient(ACC, 0.5) == pytest.approx(
        0.43613020955135856, rel=1e-12
    )
    assert sk_dpc.estimation_coefficient(DpcParams(10, 0, 5), 0.5) == 0.0


def test_estimate_state_zeroes_first_slot():
    Y = np.arange(1.0, 13.0).reshape(2, 6)
    s_hat = sk_dpc.estimate_state(Y, sk_dpc.estimation_coefficient(ACC, 0.5))
    assert s_hat.shape == (2, 6)
    assert np.all(s_hat[:, 0] == 0.0)
    c = sk_dpc.estimation_coefficient(ACC, 0.5)
    np.testing.assert_allclose(s_hat[:, 1:], c * Y[:, 1:], rtol=1e-15)


def test_time1_power_matches_moment_oracle():
    coeffs = sk_dpc.compute_coefficients(ACC, 0.5, 60)
    for M in (2, 16, 16384):
        assert sk_dpc.time1_power_theory(coeffs, M) == pytest.approx(
            time1_power_oracle(10, 10, 5, 0.5, 60, M), rel=1e-12
        )


def test_forwarding_only_path():
    n = 12
    block = BlockConfig(n=n)
    rng = np.random.default_rng(7)
    S = rng.normal(0.0, math.sqrt(ACC.Q), size=n)
    eta = rng.normal(0.0, math.sqrt(ACC.sigma2), size=n)
    trace = sk_dpc.run_block(ACC, 0.0, block, 1, S, eta)
    np.testing.assert_allclose(trace.X, math.sqrt(ACC.P / ACC.Q) * S, rtol=1e-15)
    assert trace.W_hat == 1 and trace.M == 1
    assert trace.distortion > 0.0
    with pytest.raises(DegenerateSplit):
        sk_dpc.run_block(ACC, 0.0, BlockConfig(n=n, rate=0.25), 1, S, eta)


def test_degenerate_state_variance_runs():
    params = DpcParams(10, 0, 5)
    n = 10
    block = BlockConfig(n=n, rate=0.2)
    eta = np.random.default_rng(1).normal(0.0, math.sqrt(5.0), size=n)
    trace = sk_dpc.run_block(params, 1.0, block, 2, np.zeros(n), eta)
    assert trace.S_hat.tolist() == [0.0] * n
    assert trace.distortion == 0.0


def test_trace_statistics_properties():
    n = 9
    block = BlockConfig(n=n, rate=0.2)
    rng = np.random.default_rng(2)
    S = rng.normal(0.0, math.sqrt(ACC.Q), size=n)
    eta = rng.normal(0.0, math.sqrt(ACC.sigma2), size=n)
    trace = sk_dpc.run_block(ACC, 0.5, block, 1, S, eta)
    assert trace.distortion == pytest.approx(float(np.mean((S - trace.S_hat) ** 2)))


def test_short_monte_carlo_tracks_theory():
    # desk-scale sanity run; the acceptance suite does the full-size one
    n, trials = 25, 3000
    coeffs = sk_dpc.compute_coefficients(ACC, 0.5, n)
    rng = np.random.default_rng(17)
    S = rng.normal(0.0, math.sqrt(ACC.Q), size=(trials, n))
    eta = rng.normal(0.0, math.sqrt(ACC.sigma2), size=(trials, n))
    theta = np.full(trials, sk_dpc.message_to_theta(3, 8))
    _, Y, _, eps = sk_dpc.simulate_message_batch(coeffs, theta, S, eta)
    assert float(np.var(eps)) == pytest.approx(coeffs.alpha[-1], rel=0.1)
    s_hat = sk_dpc.estimate_state(Y, sk_dpc.estimation_coefficient(ACC, 0.5))
    d_emp = float(np.mean((S - s_hat) ** 2))
    d_target = regions.finite_n_distortion(ACC.Q, n, regions.dpc_min_distortion(ACC, 0.5), 1)
    assert d_emp == pytest.approx(d_target, rel=0.05)

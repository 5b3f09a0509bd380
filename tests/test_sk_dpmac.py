import dataclasses
import math

import numpy as np
import pytest

from dpsk import regions, sk_dpc, sk_dpmac
from dpsk.errors import BlocklengthTooSmall, DegenerateSplit, LengthMismatch, SplitOutOfRange
from dpsk.params import BlockConfig, MacParams

import stepwise
from oracles import mac_coefficient_oracle
from stepwise import OutOfOrderStep

ACC = MacParams(P1=10, P2=10, Q=10, sigma2=5)
ASYM = MacParams(P1=4, P2=12, Q=8, sigma2=3)


def _assert_matches_oracle(params, gamma, beta, n, paper_sgn=False):
    coeffs = sk_dpmac.mac_coefficients(params, gamma, beta, n, paper_sgn=paper_sgn)
    oracle = mac_coefficient_oracle(
        params.P1, params.P2, params.Q, params.sigma2, gamma, beta, n, paper_sgn=paper_sgn
    )
    for name in ("mu1", "mu2", "alpha1", "alpha2", "rho_raw", "rho", "signs"):
        lib = getattr(coeffs, name)
        ref = np.asarray(oracle[name])
        mask = ~np.isnan(ref)
        np.testing.assert_allclose(lib[mask], ref[mask], rtol=1e-10, atol=1e-12, err_msg=name)
    lam2Q = coeffs.lam**2 * params.Q
    np.testing.assert_allclose(
        coeffs.ey2[2:], np.asarray(oracle["v"][2:]) + lam2Q, rtol=1e-10
    )


def test_coefficients_match_joint_noise_basis_oracle():
    _assert_matches_oracle(ACC, 0.8, 0.8, 40)
    _assert_matches_oracle(ASYM, 0.6, 0.9, 40)
    _assert_matches_oracle(ACC, 1.0, 0.5, 25)


def test_paper_sign_mode_matches_oracle_too():
    _assert_matches_oracle(ACC, 0.8, 0.8, 30, paper_sgn=True)


def test_initialization_slot_conventions():
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, 12)
    assert coeffs.mu1[0] == 0.0 and coeffs.mu1[1] == 0.0
    assert coeffs.mu2[0] == 0.0 and coeffs.mu2[1] == 0.0
    assert math.isnan(coeffs.alpha2[0]) and coeffs.alpha2[1] > 0.0
    assert coeffs.alpha1[0] == coeffs.alpha1[1]  # no update while encoder 2 joins
    assert math.isnan(coeffs.rho[0]) and coeffs.rho[1] == 0.0
    assert coeffs.signs[0] == 1.0 and coeffs.signs[1] == 1.0
    assert math.isnan(coeffs.gain1[1]) and math.isnan(coeffs.gain2[1])
    assert coeffs.est_coef[0] == 0.0 and coeffs.est_coef[1] == 0.0
    assert np.all(coeffs.est_coef[2:] > 0.0)


def test_raw_correlation_alternates_while_aligned_converges():
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, 60)
    raw = coeffs.rho_raw[5:]
    assert np.all(raw[:-1] * raw[1:] < 0.0)  # sign flips every joint step
    assert np.all(coeffs.rho[5:] > 0.0)
    rho_star = regions.solve_rho_star(ACC, 0.8, 0.8)
    assert abs(coeffs.rho[-1] - rho_star) < 1e-6


def test_aligned_rho_converges_within_tolerance_at_n200():
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, 200)
    rho_star = regions.solve_rho_star(ACC, 0.8, 0.8)
    assert abs(coeffs.rho[-1] - rho_star) <= 1e-3


def test_signs_alternate_and_message_power_is_exact():
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, 40)
    assert set(np.unique(coeffs.signs)) == {-1.0, 1.0}
    sent1 = coeffs.gain1[2:] ** 2 * coeffs.alpha1[1:-1]
    sent2 = coeffs.gain2[2:] ** 2 * coeffs.alpha2[1:-1]
    np.testing.assert_allclose(sent1, 0.8 * ACC.P1, rtol=1e-12)
    np.testing.assert_allclose(sent2, 0.8 * ACC.P2, rtol=1e-12)
    np.testing.assert_allclose(
        sent1 + coeffs.state_coef1**2 * ACC.Q, ACC.P1, rtol=1e-12
    )


def test_paper_sign_mode_silences_encoder_two_on_negative_raw():
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, 40, paper_sgn=True)
    assert set(np.unique(coeffs.signs)) <= {0.0, 1.0}
    silent = coeffs.signs[2:] == 0.0
    assert silent.any()
    np.testing.assert_array_equal(coeffs.gain2[2:][silent], 0.0)


def test_per_step_distortion_reproduces_region_formula():
    # Q * V_t / E[Y_t^2] must equal the closed-form d_min at the aligned
    # correlation entering step t; ties the propagation to the region.
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, 50)
    lam2Q = coeffs.lam**2 * ACC.Q
    for k in range(2, 50):
        d_step = ACC.Q * (coeffs.ey2[k] - lam2Q) / coeffs.ey2[k]
        expected = regions.mac_constraints(ACC, 0.8, 0.8, coeffs.rho[k - 1]).d_min
        assert d_step == pytest.approx(expected, rel=1e-12)


def test_estimator_weight_is_lambda_q_over_output_power():
    coeffs = sk_dpmac.mac_coefficients(ASYM, 0.6, 0.9, 20)
    np.testing.assert_allclose(
        coeffs.est_coef[2:], coeffs.lam * ASYM.Q / coeffs.ey2[2:], rtol=1e-15
    )


def test_validation():
    with pytest.raises(BlocklengthTooSmall):
        sk_dpmac.mac_coefficients(ACC, 0.5, 0.5, 2)
    with pytest.raises(SplitOutOfRange):
        sk_dpmac.mac_coefficients(ACC, -0.1, 0.5, 10)
    with pytest.raises(DegenerateSplit):
        sk_dpmac.mac_coefficients(ACC, 0.0, 0.5, 10)
    with pytest.raises(DegenerateSplit):
        sk_dpmac.mac_coefficients(MacParams(10, 0, 10, 5), 0.5, 0.5, 10)


def test_zero_noise_decodes_every_message_pair():
    n, M = 20, 4
    block = BlockConfig(n=n, rate=math.log2(M) / n)
    rng = np.random.default_rng(23)
    S = rng.normal(0.0, math.sqrt(ACC.Q), size=n)
    eta = np.zeros(n)
    for w1 in range(1, M + 1):
        for w2 in range(1, M + 1):
            trace = sk_dpmac.mac_run_block(ACC, 0.8, 0.8, block, w1, w2, S, eta)
            assert (trace.W1_hat, trace.W2_hat) == (w1, w2)


def _stepwise_block(coeffs, theta1, theta2, S, eta):
    """The mac_encode_step protocol driven one channel use at a time."""
    n = coeffs.n
    X1, X2, Y = np.empty(n), np.empty(n), np.empty(n)
    state = stepwise.start_encoders(theta1, theta2, S, coeffs)
    for t in range(1, n + 1):
        y_prev = Y[t - 2] if t >= 2 else None
        X1[t - 1], X2[t - 1], state = stepwise.mac_encode_step(state, coeffs, S[t - 1], y_prev)
        Y[t - 1] = X1[t - 1] + X2[t - 1] + S[t - 1] + eta[t - 1]
    return X1, X2, Y


def _batch_row(trace, i):
    """Row i of a batch trace in the one-block form mac_run_block returns."""
    rows = {k: v[i : i + 1] for k, v in vars(trace).items() if isinstance(v, np.ndarray)}
    return sk_dpc.single_block(dataclasses.replace(trace, **rows))


# (params, gamma, beta, n, paper_sgn): short block, longest accepted block,
# encoder 2 silenced on most steps (mac_run_block has no paper_sgn), asymmetric split
BIT_FOR_BIT_CASES = [
    (ACC, 0.8, 0.8, 15, False),
    (ACC, 0.8, 0.8, 414, False),
    (ACC, 0.8, 0.8, 60, True),
    (ASYM, 0.6, 0.9, 40, False),
]


def test_run_block_matches_batch_kernel_bit_for_bit():
    # mac_run_block and one B = 4 mac_run_batch call against the stepwise protocol
    W1, W2 = np.array([1, 2, 2, 3]), np.array([2, 1, 2, 3])
    for params, gamma, beta, n, paper_sgn in BIT_FOR_BIT_CASES:
        block = BlockConfig(n=n, rate=1.5 / n)
        rng = np.random.default_rng(29)
        S = rng.normal(0.0, math.sqrt(params.Q), size=(4, n))
        eta = rng.normal(0.0, math.sqrt(params.sigma2), size=(4, n))
        coeffs = sk_dpmac.mac_coefficients(params, gamma, beta, n, paper_sgn=paper_sgn)
        (rate1, M1), (rate2, M2), _ = sk_dpmac.resolve_mac_rates(params, gamma, beta, block)
        assert rate1 == rate2 == block.rate and M1 == M2 == 3
        batch = sk_dpmac.mac_run_batch(coeffs, M1, M2, W1, W2, S, eta)
        for i in range(4):
            theta1 = sk_dpmac.message_to_theta(W1[i], M1)
            theta2 = sk_dpmac.message_to_theta(W2[i], M2)
            X1, X2, Y = _stepwise_block(coeffs, theta1, theta2, S[i], eta[i])
            w1_hat, w2_hat, th1, th2 = stepwise.mac_decode(Y, coeffs, M1, M2)
            traces = [_batch_row(batch, i)]
            if not paper_sgn:
                traces.append(
                    sk_dpmac.mac_run_block(params, gamma, beta, block, W1[i], W2[i], S[i], eta[i])
                )
            for trace in traces:
                case = f"{params}, gamma={gamma}, beta={beta}, n={n}, row {i}"
                np.testing.assert_array_equal(trace.X1, X1, err_msg=case)
                np.testing.assert_array_equal(trace.X2, X2, err_msg=case)
                np.testing.assert_array_equal(trace.Y, Y, err_msg=case)
                np.testing.assert_array_equal(trace.theta1_hat, th1, err_msg=case)
                # slot 1 carries no estimate for user 2
                assert math.isnan(trace.theta2_hat[0]) and math.isnan(th2[0])
                np.testing.assert_array_equal(trace.theta2_hat[1:], th2[1:], err_msg=case)
                assert (trace.W1_hat, trace.W2_hat) == (w1_hat, w2_hat), case


def test_decoder_slot_behaviour():
    n = 10
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, n)
    Y = np.random.default_rng(31).normal(size=n)
    _, _, th1, th2 = stepwise.mac_decode(Y, coeffs, 4, 4)
    assert th1[1] == th1[0]  # encoder 2's init slot does not move user 1
    assert math.isnan(th2[0])
    assert th2[1] == Y[1] / coeffs.message_amp2


def test_encoder_step_order_checks():
    n = 6
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, n)
    S = np.ones(n)
    state = stepwise.start_encoders(0.1, -0.1, S, coeffs)
    with pytest.raises(OutOfOrderStep):
        stepwise.mac_encode_step(state, coeffs, S[0], y_prev=0.0)
    _, _, state = stepwise.mac_encode_step(state, coeffs, S[0])
    with pytest.raises(OutOfOrderStep):
        stepwise.mac_encode_step(state, coeffs, S[1])
    for t in range(2, n + 1):
        _, _, state = stepwise.mac_encode_step(state, coeffs, S[t - 1], y_prev=0.3)
    with pytest.raises(OutOfOrderStep):
        stepwise.mac_encode_step(state, coeffs, 0.0, y_prev=0.3)


def test_shape_checks():
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, 8)
    with pytest.raises(LengthMismatch):
        stepwise.mac_offsets(np.ones(5), coeffs)
    with pytest.raises(LengthMismatch):
        stepwise.mac_decode(np.ones(5), coeffs, 2, 2)
    with pytest.raises(LengthMismatch):
        sk_dpmac.mac_run_block(ACC, 0.8, 0.8, BlockConfig(n=8), 1, 1, np.ones(5), np.ones(8))
    # the batch kernel's own checks: a wrong B, a wrong n, eta shaped unlike S
    theta = np.zeros(4)
    for S, eta in [(np.ones((3, 8)),) * 2, (np.ones((4, 7)),) * 2, (np.ones((4, 8)), np.ones(8))]:
        with pytest.raises(LengthMismatch):
            sk_dpmac.simulate_mac_batch(coeffs, theta, theta, S, eta)


def test_resolve_rates_fraction_of_caps():
    block = BlockConfig(n=50, rate_fraction=0.5)
    (rate1, M1), (rate2, M2), at_rho_star = sk_dpmac.resolve_mac_rates(ASYM, 0.6, 0.9, block)
    caps = regions.mac_constraints(ASYM, 0.6, 0.9, at_rho_star.rho)
    assert rate1 == pytest.approx(0.5 * caps.r1_max, rel=1e-15)
    assert rate2 == pytest.approx(0.5 * caps.r2_max, rel=1e-15)
    assert M1 == round(2.0 ** (50 * rate1)) and M2 == round(2.0 ** (50 * rate2))


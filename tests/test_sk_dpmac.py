import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from dpsk import harness, regions, sk_dpc, sk_dpmac
from dpsk.errors import (
    BlocklengthTooSmall, ConfigError, DegenerateSplit, LengthMismatch, SplitOutOfRange,
)
from dpsk.params import BlockConfig, DpcParams, MacParams

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
    fields = {"mu1": coeffs.mu[0], "mu2": coeffs.mu[1], "alpha1": coeffs.alpha[0],
              "alpha2": coeffs.alpha[1], "rho_raw": coeffs.rho_raw, "rho": coeffs.rho,
              "signs": coeffs.signs}
    for name, lib in fields.items():
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
    assert coeffs.mu[0, 0] == 0.0 and coeffs.mu[0, 1] == 0.0
    assert coeffs.mu[1, 0] == 0.0 and coeffs.mu[1, 1] == 0.0
    assert math.isnan(coeffs.alpha[1, 0]) and coeffs.alpha[1, 1] > 0.0
    assert coeffs.alpha[0, 0] == coeffs.alpha[0, 1]  # no update while encoder 2 joins
    assert math.isnan(coeffs.rho[0]) and coeffs.rho[1] == 0.0
    assert coeffs.signs[0] == 1.0 and coeffs.signs[1] == 1.0
    assert math.isnan(coeffs.gain[0, 1]) and math.isnan(coeffs.gain[1, 1])
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
    sent1 = coeffs.gain[0, 2:] ** 2 * coeffs.alpha[0, 1:-1]
    sent2 = coeffs.gain[1, 2:] ** 2 * coeffs.alpha[1, 1:-1]
    np.testing.assert_allclose(sent1, 0.8 * ACC.P1, rtol=1e-12)
    np.testing.assert_allclose(sent2, 0.8 * ACC.P2, rtol=1e-12)
    np.testing.assert_allclose(
        sent1 + coeffs.state_coef[0] ** 2 * ACC.Q, ACC.P1, rtol=1e-12
    )


# (params, gamma, beta, encoder 2's alpha at t = 4 and t = 40 under paper_sgn)
DECAY_CASES = [
    (ACC, 0.8, 0.8, 0.02473, 0.02003),
    (ASYM, 0.6, 0.9, 0.006523, 0.005032),
    (ACC, 1.0, 0.5, 0.04861, 0.04167),
    (MacParams(P1=2, P2=20, Q=1, sigma2=1), 0.5, 0.7, 0.0005704, 0.0003968),
]


def _last_decays(coeffs):
    """Each encoder's last-step decay 0.5 log2(alpha_{n-1} / alpha_n), in bits."""
    return 0.5 * np.log2(coeffs.alpha[:, -2] / coeffs.alpha[:, -1])


def test_paper_sign_mode_silences_encoder_two_on_negative_raw():
    # the raw correlation is negative after the first joint step, so s = 0
    # silences encoder 2, c12 keeps its sign and encoder 2 never restarts:
    # the rule leaves the two-encoder region
    for params, gamma, beta, alpha2_t4, alpha2_n in DECAY_CASES:
        coeffs = sk_dpmac.mac_coefficients(params, gamma, beta, 40, paper_sgn=True)
        np.testing.assert_array_equal(coeffs.signs, [1.0, 1.0, 1.0] + [0.0] * 37)
        np.testing.assert_array_equal(coeffs.gain[1, 3:], 0.0)
        # encoder 2's error variance levels off, so its decay tends to 0 ...
        assert np.all(np.diff(coeffs.alpha[1, 1:]) <= 0.0)
        assert coeffs.alpha[1, 3] == pytest.approx(alpha2_t4, rel=1e-3)
        assert coeffs.alpha[1, -1] == pytest.approx(alpha2_n, rel=1e-3)
        decay1, decay2 = _last_decays(coeffs)
        assert 0.0 <= decay2 < 1e-9
        # ... and encoder 1 runs alone, at the single-user cap
        single = regions.dpc_rate_cap(DpcParams(params.P1, params.Q, params.sigma2), gamma)
        assert decay1 == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("params, gamma, beta", [case[:3] for case in DECAY_CASES])
def test_default_sign_rule_decays_at_the_caps_at_rho_star(params, gamma, beta):
    coeffs = sk_dpmac.mac_coefficients(params, gamma, beta, 40)
    rho_star = regions.solve_rho_star(params, gamma, beta)
    caps = regions.mac_constraints(params, gamma, beta, rho_star)
    decays = _last_decays(coeffs)
    np.testing.assert_allclose(decays, [caps.r1_max, caps.r2_max], rtol=0, atol=2e-5)
    assert decays.sum() == pytest.approx(caps.rsum_max, abs=2e-5)


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


def test_a_rejected_long_block_allocates_nothing_per_step():
    # the per-step arrays of all n steps were allocated, and written, before the
    # propagation stopped at step 415: 88 MB at n = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="the longest block is n = 414"):
            sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_a_stalled_propagation_holds_its_rows_in_about_the_final_arrays():
    # gamma*P1/sigma2 = 1e-20 keeps both variances from moving; rows held as
    # a list of tuples took about 552 B a step, 6.3x the 88 B of the final arrays
    tracemalloc.start()
    try:
        coeffs = sk_dpmac.mac_coefficients(
            MacParams(P1=1e-10, P2=1e-10, Q=10, sigma2=1e10), 1.0, 1.0, 5_000
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = sum(v.nbytes for v in vars(coeffs).values() if isinstance(v, np.ndarray))
    assert coeffs.rho.shape == (5_000,)
    assert peak < 3 * final


def _run_batch(coeffs, M1, M2, W1, W2, S, eta):
    """The one batch runner on a two-encoder batch, weighing Y by ``coeffs.est_coef``."""
    return harness.run_batch(coeffs, [M1, M2], [W1, W2], S, eta, coeffs.est_coef)


def test_zero_noise_decodes_every_message_pair():
    n, M = 20, 4
    block = BlockConfig(n=n, rate=math.log2(M) / n)
    rng = np.random.default_rng(23)
    S = rng.normal(0.0, math.sqrt(ACC.Q), size=(1, n))
    eta = np.zeros((1, n))
    (_, M1), (_, M2), _ = sk_dpmac.resolve_mac_rates(ACC, 0.8, 0.8, block)
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, n)
    for w1 in range(1, M + 1):
        for w2 in range(1, M + 1):
            W1, W2 = np.array([w1]), np.array([w2])
            trace = stepwise.batch_row(_run_batch(coeffs, M1, M2, W1, W2, S, eta), 0)
            assert (trace.W_hat[0], trace.W_hat[1]) == (w1, w2)


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


# (params, gamma, beta, n, paper_sgn): short block, longest accepted block,
# encoder 2 silenced on most steps, asymmetric split
BIT_FOR_BIT_CASES = [
    (ACC, 0.8, 0.8, 15, False),
    (ACC, 0.8, 0.8, 414, False),
    (ACC, 0.8, 0.8, 60, True),
    (ASYM, 0.6, 0.9, 40, False),
]


def test_run_block_matches_batch_kernel_bit_for_bit():
    # each block as a batch of one and one B = 4 runner call against
    # the stepwise protocol
    W1, W2 = np.array([1, 2, 2, 3]), np.array([2, 1, 2, 3])
    for params, gamma, beta, n, paper_sgn in BIT_FOR_BIT_CASES:
        block = BlockConfig(n=n, rate=1.5 / n)
        rng = np.random.default_rng(29)
        S = rng.normal(0.0, math.sqrt(params.Q), size=(4, n))
        eta = rng.normal(0.0, math.sqrt(params.sigma2), size=(4, n))
        coeffs = sk_dpmac.mac_coefficients(params, gamma, beta, n, paper_sgn=paper_sgn)
        (rate1, M1), (rate2, M2), _ = sk_dpmac.resolve_mac_rates(params, gamma, beta, block)
        assert rate1 == rate2 == block.rate and M1 == M2 == 3
        batch = _run_batch(coeffs, M1, M2, W1, W2, S, eta)
        for i in range(4):
            theta1 = sk_dpc.message_to_theta(W1[i], M1)
            theta2 = sk_dpc.message_to_theta(W2[i], M2)
            X1, X2, Y = _stepwise_block(coeffs, theta1, theta2, S[i], eta[i])
            w1_hat, w2_hat, th1, th2 = stepwise.mac_decode(Y, coeffs, M1, M2)
            one = _run_batch(
                coeffs, M1, M2, W1[i : i + 1], W2[i : i + 1], S[i : i + 1], eta[i : i + 1]
            )
            for trace in (stepwise.batch_row(one, 0), stepwise.batch_row(batch, i)):
                case = f"{params}, gamma={gamma}, beta={beta}, n={n}, row {i}"
                np.testing.assert_array_equal(trace.X[0], X1, err_msg=case)
                np.testing.assert_array_equal(trace.X[1], X2, err_msg=case)
                np.testing.assert_array_equal(trace.Y, Y, err_msg=case)
                np.testing.assert_array_equal(trace.theta_hat[0], th1, err_msg=case)
                # slot 1 carries no estimate for user 2
                assert math.isnan(trace.theta_hat[1][0]) and math.isnan(th2[0])
                np.testing.assert_array_equal(trace.theta_hat[1][1:], th2[1:], err_msg=case)
                assert (trace.W_hat[0], trace.W_hat[1]) == (w1_hat, w2_hat), case


#: Channel values drawn log-uniformly over 1e-3..1e6
VALUES = st.floats(-3, 6).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None)
@given(P1=VALUES, P2=VALUES, Q=st.one_of(st.just(0.0), VALUES), sigma2=VALUES,
       gamma=st.floats(0, 1), beta=st.floats(0, 1), paper_sgn=st.booleans(),
       n=st.integers(3, 119), M1=st.integers(1, 4096), M2=st.integers(1, 4096),
       seed=st.integers(0, 2**32 - 1))
def test_every_runner_row_is_the_stepwise_protocol(P1, P2, Q, sigma2, gamma, beta, paper_sgn,
                                                   n, M1, M2, seed):
    # the runner against the stepwise protocol, bit for bit, on accepted
    # configurations, with the per-slot power of each encoder summed over the
    # rows in order
    rng = np.random.default_rng(seed)
    S, eta = rng.normal(size=(2, 3, n)) * np.sqrt([[[Q]], [[sigma2]]])
    W1, W2 = rng.integers(1, M1 + 1, size=3), rng.integers(1, M2 + 1, size=3)
    try:
        coeffs = sk_dpmac.mac_coefficients(MacParams(P1, P2, Q, sigma2), gamma, beta, n,
                                           paper_sgn=paper_sgn)
    except (ConfigError, DegenerateSplit):
        reject()
    trace = _run_batch(coeffs, M1, M2, W1, W2, S, eta)
    power = np.zeros((2, n))
    for i in range(3):
        theta1 = sk_dpc.message_to_theta(W1[i], M1)
        theta2 = sk_dpc.message_to_theta(W2[i], M2)
        X1, X2, Y = _stepwise_block(coeffs, theta1, theta2, S[i], eta[i])
        w1_hat, w2_hat, th1, th2 = stepwise.mac_decode(Y, coeffs, M1, M2)
        power += [X1 * X1, X2 * X2]
        got = stepwise.batch_row(trace, i)
        np.testing.assert_array_equal(got.X, [X1, X2], err_msg=f"row {i}")
        np.testing.assert_array_equal(got.Y, Y, err_msg=f"row {i}")
        np.testing.assert_array_equal(got.theta_hat, [th1, th2], err_msg=f"row {i}")
        assert (got.W_hat[0], got.W_hat[1]) == (w1_hat, w2_hat), i
    np.testing.assert_array_equal(trace.power, power)


def test_decoder_slot_behaviour():
    n = 10
    coeffs = sk_dpmac.mac_coefficients(ACC, 0.8, 0.8, n)
    Y = np.random.default_rng(31).normal(size=n)
    _, _, th1, th2 = stepwise.mac_decode(Y, coeffs, 4, 4)
    assert th1[1] == th1[0]  # encoder 2's init slot does not move user 1
    assert math.isnan(th2[0])
    assert th2[1] == Y[1] / coeffs.message_amp[1]


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
        _run_batch(coeffs, 2, 2, np.ones(1, int), np.ones(1, int), np.ones((1, 5)),
                   np.ones((1, 8)))
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


import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from dpsk import harness, noisy_obs, regions, sk_dpc, sk_dpmac
from dpsk.errors import (
    BlocklengthTooSmall, ConfigError, DegenerateSplit, LengthMismatch, MessageOutOfRange,
    SplitOutOfRange,
)
from dpsk.params import BlockConfig, DpcParams, MacParams, NoisyObsParams

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
                np.testing.assert_allclose(coeffs.mu[0, 1:], mu, rtol=1e-10)
                np.testing.assert_allclose(coeffs.alpha[0], alpha, rtol=1e-10)


def test_alpha_halves_when_message_power_equals_noise():
    # gamma P = sigma2 makes every refinement remove half the variance
    coeffs = sk_dpc.compute_coefficients(ACC, 0.5, 20)
    ratios = coeffs.alpha[0, 1:] / coeffs.alpha[0, :-1]
    np.testing.assert_allclose(ratios, 0.5, rtol=1e-13)


def test_gain_restores_exact_message_power():
    coeffs = sk_dpc.compute_coefficients(ACC, 0.3, 25)
    sent = coeffs.gain[0, 1:] ** 2 * coeffs.alpha[0, :-1]
    np.testing.assert_allclose(sent, 0.3 * ACC.P, rtol=1e-12)
    # plus the forwarded state this is the full budget, every step
    np.testing.assert_allclose(
        sent + coeffs.state_coef[0] ** 2 * ACC.Q, ACC.P, rtol=1e-12
    )


def test_coefficient_validation():
    with pytest.raises(SplitOutOfRange):
        sk_dpc.compute_coefficients(ACC, 1.2, 10)
    with pytest.raises(DegenerateSplit):
        sk_dpc.compute_coefficients(ACC, 0.0, 10)
    with pytest.raises(DegenerateSplit):
        sk_dpc.compute_coefficients(DpcParams(0, 10, 5), 1.0, 10)
    with pytest.raises(BlocklengthTooSmall) as info:
        sk_dpc.compute_coefficients(ACC, 0.5, 1)
    assert info.value.field == "n"


def test_a_rejected_long_block_allocates_nothing_per_step():
    # the per-step arrays of all n steps were allocated, and written, before the
    # recursion stopped at step 1020: 24 MB at n = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="the longest block is n = 1019"):
            sk_dpc.compute_coefficients(ACC, 0.5, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("n", [10.0, 10.5, 0, -5, "10"], ids=repr)
@pytest.mark.parametrize("call", ["dpc", "mac", "forwarding"])
def test_a_malformed_n_is_a_config_error_naming_n(call, n):
    # a float or a string raised TypeError from range or a comparison, and the
    # forwarding record took n = 0 and called n = -5 too long
    calls = {"dpc": lambda: sk_dpc.compute_coefficients(ACC, 0.5, n),
             "mac": lambda: sk_dpmac.mac_coefficients(MacParams(10, 10, 10, 5), 0.5, 0.5, n),
             "forwarding": lambda: sk_dpc.forwarding_coefficients(ACC, 0.0, n)}
    with pytest.raises(ConfigError) as info:
        calls[call]()
    assert info.value.field == "n"


def test_a_stalled_recursion_holds_its_rows_in_about_the_final_arrays():
    # gamma*P/sigma2 = 1e-20 keeps alpha from moving, so every step is kept;
    # rows held as a list of tuples took about 200 B a step, 8.4x the 24 B of
    # the final arrays, the record that sk_dpc._check_block probes at step 2**16
    tracemalloc.start()
    try:
        coeffs = sk_dpc.compute_coefficients(DpcParams(P=1e-10, Q=10, sigma2=1e10), 1.0, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = sum(v.nbytes for v in vars(coeffs).values() if isinstance(v, np.ndarray))
    assert coeffs.mu.shape == (1, 20_000)
    assert peak < 3 * final


def test_coefficient_arrays_are_frozen():
    coeffs = sk_dpc.compute_coefficients(ACC, 0.5, 10)
    with pytest.raises(ValueError):
        coeffs.mu[0, 0] = 0.0


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
    with pytest.raises(MessageOutOfRange, match="message-set size must be >= 1"):
        sk_dpc.message_to_theta(1, 0)


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
        trace = _one_block(ACC, 0.5, block, w, S, eta)
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
    theta_hat[0] = Y[0] / coeffs.message_amp[0]
    for k in range(1, n):
        theta_hat[k] = stepwise.decode_update(theta_hat[k - 1], Y[k], coeffs.mu[0, k])
    return X, Y, theta_hat


def _run_batch(params, gamma, M, coeffs, W, S, eta):
    """The one batch runner on a single-user batch, weighing Y by the dpc receiver's c."""
    weight = sk_dpc.estimation_coefficient(params, gamma)
    return harness.run_batch(coeffs, [M], [W], S, eta, weight)


def _one_block(params, gamma, block, w, S, eta):
    """Message w over one (n,) block, run through the runner as a batch of one."""
    _, M, coeffs = sk_dpc.resolve_loop(params, gamma, block)
    trace = _run_batch(params, gamma, M, coeffs, np.array([w]), S[None], eta[None])
    return stepwise.batch_row(trace, 0)


# (params, gamma, n): state forwarding, no forwarding, no state, longest accepted block
BIT_FOR_BIT_CASES = [
    (ACC, 0.5, 40),
    (ACC, 1.0, 40),
    (DpcParams(10, 0, 5), 0.5, 40),
    (ACC, 1.0, 642),
]


def test_run_block_matches_batch_kernel_bit_for_bit():
    # each block as a batch of one and one B = 4 runner call against the
    # stepwise protocol
    M = 32
    W = np.array([1, 9, 20, 32])
    for params, gamma, n in BIT_FOR_BIT_CASES:
        block = BlockConfig(n=n, rate=math.log2(M) / n)
        rng = np.random.default_rng(11)
        S = rng.normal(0.0, math.sqrt(params.Q), size=(4, n))
        eta = rng.normal(0.0, math.sqrt(params.sigma2), size=(4, n))
        coeffs = sk_dpc.compute_coefficients(params, gamma, n)
        batch = _run_batch(params, gamma, M, coeffs, W, S, eta)
        for i, w in enumerate(W):
            theta = sk_dpc.message_to_theta(w, M)
            X, Y, th = _stepwise_block(coeffs, theta, S[i], eta[i])
            trace = _one_block(params, gamma, block, w, S[i], eta[i])
            for got in (trace, stepwise.batch_row(batch, i)):
                case = f"{params}, gamma={gamma}, n={n}, row {i}"
                np.testing.assert_array_equal(got.X, X, err_msg=case)
                np.testing.assert_array_equal(got.Y, Y, err_msg=case)
                np.testing.assert_array_equal(got.theta_hat, th, err_msg=case)
                assert got.W_hat == stepwise.finalize_decode(th[-1], M), case


#: Channel values drawn log-uniformly over 1e-3..1e6, and 0 where a value may be 0
VALUES = st.floats(-3, 6).map(lambda e: 10.0**e)
MAYBE_ZERO = st.one_of(st.just(0.0), VALUES)


def _stepwise_rows(params, gamma, M, W, S, eta):
    """The stepwise protocol's X, Y, theta_hat and decisions of each row, and
    the batch's per-slot power summed over the rows in order; gamma*P = 0
    forwards the state alone, with estimate 0 and the one message."""
    n = S.shape[1]
    coeffs = (sk_dpc.compute_coefficients(params, gamma, n) if gamma
              else sk_dpc.forwarding_coefficients(params, gamma, n))
    rows, power = [], np.zeros(n)
    for w, s, e in zip(W, S, eta):
        if gamma:
            X, Y, th = _stepwise_block(coeffs, sk_dpc.message_to_theta(w, M), s, e)
        else:
            X = sk_dpc.forward_coefficient(gamma, params.P, params.Q) * s
            Y, th = X + s + e, np.zeros(n)
        rows.append((X, Y, th, stepwise.finalize_decode(th[-1], M)))
        power += X * X
    return coeffs, rows, power


def _assert_rows_match(trace, rows, power):
    np.testing.assert_array_equal(trace.power[0], power)
    for i, (X, Y, th, w_hat) in enumerate(rows):
        got = stepwise.batch_row(trace, i)
        np.testing.assert_array_equal(got.X, X, err_msg=f"row {i}")
        np.testing.assert_array_equal(got.Y, Y, err_msg=f"row {i}")
        np.testing.assert_array_equal(got.theta_hat, th, err_msg=f"row {i}")
        assert got.W_hat == w_hat, i


@settings(max_examples=100, deadline=None)
@given(P=VALUES, Q=MAYBE_ZERO, sigma2=VALUES, gamma=st.floats(0, 1),
       n=st.integers(2, 119), M=st.integers(1, 4096), sigma_z2=MAYBE_ZERO,
       seed=st.integers(0, 2**32 - 1))
def test_every_runner_row_is_the_stepwise_protocol(P, Q, sigma2, gamma, n, M, sigma_z2, seed):
    # the runner against the stepwise protocol, bit for bit, on accepted
    # configurations; the noisy loop runs the protocol on the equivalent
    # channel, fed equivalent_draws' kappa (S + Z) and S - kappa (S + Z) + eta
    M = M if gamma else 1
    rng = np.random.default_rng(seed)
    S, Z, eta = rng.normal(size=(3, 3, n)) * np.sqrt([[[Q]], [[sigma_z2]], [[sigma2]]])
    W = rng.integers(1, M + 1, size=3)
    noisy = NoisyObsParams(P, Q, sigma2, sigma_z2) if Q else None
    try:
        clean = DpcParams(P, Q, sigma2)
        coeffs, rows, power = _stepwise_rows(clean, gamma, M, W, S, eta)
        if noisy is not None:
            eq = noisy_obs.make_equivalent(noisy)
            s_eq = regions.observation_weight(noisy) * (S + Z)
            noisy_rows = _stepwise_rows(eq, gamma, M, W, s_eq, S - s_eq + eta)
    except (ConfigError, DegenerateSplit):
        reject()
    _assert_rows_match(_run_batch(clean, gamma, M, coeffs, W, S, eta), rows, power)
    if noisy is not None:
        eq_coeffs, eq_rows, eq_power = noisy_rows
        draws = noisy_obs.equivalent_draws(noisy, S, Z, eta)
        trace = harness.run_batch(eq_coeffs, [M], [W], *draws,
                                  noisy_obs.true_state_coefficient(noisy, gamma))
        _assert_rows_match(trace, eq_rows, eq_power)
        # the record carries the state the loop ran on, the equivalent one
        np.testing.assert_array_equal(trace.S, s_eq)


#: The longest block the coefficient property test draws: at a low
#: gamma*P/sigma2 the recursions accept blocks far longer than this.
LONGEST_DRAWN = 2000
#: Channel values log-uniform over 1e-4..1e8 (1e-4..1 for a split), and 0 where Q may be 0
WIDE = st.floats(-4, 8).map(lambda e: 10.0**e)
SPLITS = st.floats(-4, 0).map(lambda e: 10.0**e)


def _longest_block(recursion, shortest):
    """The longest block up to LONGEST_DRAWN that ``recursion`` accepts, as the
    check that stops a longer one names it, or None when it accepts none."""
    try:
        recursion(LONGEST_DRAWN)
        return LONGEST_DRAWN
    except ConfigError as err:
        longest = re.search(r"the longest block is n = (\d+)$", str(err))
        if longest and int(longest.group(1)) >= shortest:
            return int(longest.group(1))
    return None


def _assert_coefficient_invariants(coeffs, powers):
    K = len(coeffs.mu)
    assert np.isfinite([coeffs.lam, *coeffs.state_coef, *coeffs.message_amp]).all()
    assert np.isfinite(coeffs.mu).all()
    for u, power in enumerate(powers):
        alpha = coeffs.alpha[u, u:]  # encoder u starts in slot u
        assert np.isfinite(alpha).all() and np.all(np.diff(alpha) <= 0.0), u
        gain = coeffs.gain[u, K:]  # and refines from slot K on
        assert np.isfinite(gain).all(), u
        if u:  # the two-encoder loop's sign rule scales encoder 2's gain
            power = power * coeffs.signs[K:] ** 2
        np.testing.assert_allclose(gain**2 * coeffs.alpha[u, K - 1:-1], power, rtol=1e-12)
    if K == 2:
        for values in (coeffs.rho[1:], coeffs.rho_raw[1:], coeffs.signs, coeffs.ey2[2:],
                       coeffs.est_coef):
            assert np.isfinite(values).all()
        assert np.all((coeffs.rho[1:] >= 0.0) & (coeffs.rho[1:] <= 1.0))


@settings(max_examples=150, deadline=None)
@given(P1=WIDE, P2=WIDE, Q=st.one_of(st.just(0.0), WIDE), sigma2=WIDE, gamma=SPLITS,
       beta=SPLITS, paper_sgn=st.booleans(), data=st.data())
def test_every_coefficient_record_keeps_its_invariants(P1, P2, Q, sigma2, gamma, beta,
                                                       paper_sgn, data):
    # both recursions over the encoder axis, at an n up to the longest block
    # they accept: finite coefficients, a non-increasing alpha per encoder, a
    # gain that restores its encoder's message power, and an aligned rho in [0, 1]
    def dpc(n):
        return sk_dpc.compute_coefficients(DpcParams(P1, Q, sigma2), gamma, n)

    def mac(n):
        return sk_dpmac.mac_coefficients(MacParams(P1, P2, Q, sigma2), gamma, beta, n,
                                         paper_sgn=paper_sgn)

    for recursion, shortest, powers in ((dpc, 2, [gamma * P1]),
                                        (mac, 3, [gamma * P1, beta * P2])):
        longest = _longest_block(recursion, shortest)
        if longest is not None:
            coeffs = recursion(data.draw(st.integers(shortest, longest), label=recursion.__name__))
            _assert_coefficient_invariants(coeffs, powers)


@settings(max_examples=150, deadline=None)
@given(P=WIDE, Q=st.one_of(st.just(0.0), WIDE), sigma2=WIDE,
       sigma_z2=st.one_of(st.just(0.0), WIDE), gamma=SPLITS)
@example(P=10.0, Q=10.0, sigma2=5.0, sigma_z2=1.0, gamma=0.5)  # 1019 and 1152, the gain
@example(P=1.0, Q=10.0, sigma2=5.0, sigma_z2=0.0, gamma=1.0)  # 3881, the underflow
@example(P=2.0, Q=1.0, sigma2=0.05, sigma_z2=0.0, gamma=1.0)  # the gain, under float_info.min
def test_the_closed_form_length_is_the_recursions(P, Q, sigma2, sigma_z2, gamma):
    # wherever the block verdict decides the length in closed form, the
    # recursion alone, the reference, accepts that block and stops one step
    # later with the verdict's message, on dpc and on the noisy scheme's
    # equivalent channel
    equivalent = noisy_obs.make_equivalent(NoisyObsParams(P, Q, sigma2, sigma_z2))
    for params, noise in ((DpcParams(P, Q, sigma2), "sigma2"),
                          (equivalent, noisy_obs.EQUIVALENT_NOISE)):
        longest, _ = sk_dpc._longest_block(gamma * params.P, params.sigma2)
        if longest == math.inf:
            continue

        def recursion(n):
            return sk_dpc.compute_coefficients(params, gamma, n, noise)

        with mock.patch.object(sk_dpc, "_longest_block", return_value=(math.inf, None)):
            assert _longest_block(recursion, 2) == (min(longest, LONGEST_DRAWN)
                                                   if longest >= 2 else None)
            if longest < LONGEST_DRAWN:
                if longest >= 2:
                    recursion(longest)
                with pytest.raises(ConfigError) as reference:
                    recursion(longest + 1)
        if longest < LONGEST_DRAWN:
            with pytest.raises(ConfigError) as verdict:
                recursion(longest + 1)
            assert str(verdict.value) == str(reference.value)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_run_batch_rejects_misshapen_batches(gamma):
    # on the forwarding path and the message path: three messages for four
    # rows, a short eta, and one (n,) block that is not a (1, n) batch
    _, M, coeffs = sk_dpc.resolve_loop(ACC, gamma, BlockConfig(n=8))
    full = np.ones((4, 8))
    cases = [(np.ones(3, int), full, full), (np.ones(4, int), full, np.ones((4, 7))),
             (np.ones(8, int), np.ones(8), np.ones(8))]
    for W, S, eta in cases:
        with pytest.raises(LengthMismatch):
            _run_batch(ACC, gamma, M, coeffs, W, S, eta)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_run_batch_rejects_messages_outside_the_set(gamma):
    # the forwarding path (M = 1) checks its messages as the message path
    # does, and on both an empty batch has none to reject
    _, M, coeffs = sk_dpc.resolve_loop(ACC, gamma, BlockConfig(n=4))
    for W in (np.array([M + 1, 1]), np.array([1, 0])):
        with pytest.raises(MessageOutOfRange):
            _run_batch(ACC, gamma, M, coeffs, W, np.ones((2, 4)), np.ones((2, 4)))
    empty = _run_batch(ACC, gamma, M, coeffs, np.ones(0, int), np.ones((0, 4)),
                             np.ones((0, 4)))
    assert empty.W_hat[0].shape == (0,)


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


@pytest.mark.parametrize("weight", [0.43613020955135856, np.linspace(0.0, 0.9, 6)],
                         ids=["scalar", "per-slot"])
def test_estimate_state_over_y_gives_the_bits_of_a_new_array(weight):
    # a batch runner without traces writes the estimates over the kernel's Y
    Y = np.random.default_rng(5).normal(size=(4, 6))
    expected = sk_dpc.estimate_state(Y, weight)
    s_hat = sk_dpc.estimate_state(Y, weight, out=Y)
    assert s_hat is Y
    np.testing.assert_array_equal(s_hat, expected)


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
    trace = _one_block(ACC, 0.0, block, 1, S, eta)
    np.testing.assert_allclose(trace.X, math.sqrt(ACC.P / ACC.Q) * S, rtol=1e-15)
    assert trace.W_hat == 1 and trace.M == 1
    assert np.mean((trace.S - trace.S_hat) ** 2) > 0.0
    with pytest.raises(DegenerateSplit):
        _one_block(ACC, 0.0, BlockConfig(n=n, rate=0.25), 1, S, eta)


def test_the_forwarding_split_resolves_to_a_record_with_no_loop():
    # one encoder (K = 1) that forwards the state, no message loop (L = 0),
    # its n from the block and M = 1; its first symbol only forwards
    rate, M, coeffs = sk_dpc.resolve_loop(ACC, 0.0, BlockConfig(n=8))
    sc = sk_dpc.forward_coefficient(0.0, ACC.P, ACC.Q)
    assert (rate, M, coeffs.n, coeffs.lam) == (0.0, 1, 8, 1.0 + sc)
    assert coeffs.mu.shape == coeffs.alpha.shape == coeffs.gain.shape == (0, 8)
    assert coeffs.message_amp.shape == (0,)
    np.testing.assert_array_equal(coeffs.state_coef, [sc])
    assert sk_dpc.time1_power_theory(coeffs, M) == sc**2 * ACC.Q


@pytest.mark.parametrize("n, order", [(50, "C"), (50, "F"), (1, "C")])
def test_forwarding_power_adds_the_trials_in_order_in_any_layout(n, order):
    # the power adds the trials in order (np.sum over the trials of X added
    # them pairwise on a column-major S and at n = 1, where the trial axis is
    # contiguous), and the other fields match bit for bit: the forwarded
    # state, the output and the all-zero estimates and errors
    rng = np.random.default_rng(43)
    S, eta = (np.asarray(rng.normal(size=(5000, n)), order=order) for _ in range(2))
    loop = sk_dpc.simulate_forwarding_batch(sk_dpc.forwarding_coefficients(ACC, 0.0, n), S, eta)
    sc = sk_dpc.forward_coefficient(0.0, ACC.P, ACC.Q)
    power = np.zeros(n)
    for x in sc * S:
        power += x * x
    np.testing.assert_array_equal(loop.power, [power])
    np.testing.assert_array_equal(loop.X, [sc * S])
    np.testing.assert_array_equal(loop.Y, (sc * S + S) + eta)
    np.testing.assert_array_equal(loop.theta_hat, np.zeros((1, *S.shape)))
    np.testing.assert_array_equal(loop.theta_final, np.zeros((1, len(S))))
    np.testing.assert_array_equal(loop.eps, np.zeros((1, len(S))))


LAYOUT_KERNELS = {
    # kernel: its record for (B,) theta, (B, n) S and eta and traces
    "message": lambda theta, S, eta, traces: sk_dpc.simulate_message_batch(
        sk_dpc.compute_coefficients(ACC, 0.5, S.shape[1]), theta, S, eta, traces),
    "forwarding": lambda theta, S, eta, traces: sk_dpc.simulate_forwarding_batch(
        sk_dpc.forwarding_coefficients(ACC, 0.0, S.shape[1]), S, eta, traces),
    "mac": lambda theta, S, eta, traces: sk_dpmac.simulate_mac_batch(
        sk_dpmac.mac_coefficients(MacParams(P1=10, P2=10, Q=10, sigma2=5), 0.8, 0.8,
                                  S.shape[1]), theta, -theta, S, eta, traces),
}


@pytest.mark.parametrize("traces", [True, False])
@pytest.mark.parametrize("kernel", sorted(LAYOUT_KERNELS))
def test_every_kernel_gives_the_same_bits_in_any_layout(kernel, traces):
    # the loop reads the columns of S and eta in the layout they come in,
    # copying neither, so C- and F-ordered draws give one record bit for bit
    rng = np.random.default_rng(47)
    B, n = 3000, 40
    theta = rng.uniform(-0.5, 0.5, size=B)
    S, eta = rng.normal(size=(2, B, n))
    run = LAYOUT_KERNELS[kernel]
    expected = run(theta, S, eta, traces)
    for s_order, eta_order in [("F", "C"), ("C", "F"), ("F", "F")]:
        loop = run(theta, np.asarray(S, order=s_order), np.asarray(eta, order=eta_order), traces)
        assert (loop.X is None) == (loop.theta_hat is None) == (not traces)
        for name in ("power", "Y", "theta_final", "eps", "X", "theta_hat"):
            np.testing.assert_array_equal(getattr(loop, name), getattr(expected, name))


def test_degenerate_state_variance_runs():
    params = DpcParams(10, 0, 5)
    n = 10
    block = BlockConfig(n=n, rate=0.2)
    eta = np.random.default_rng(1).normal(0.0, math.sqrt(5.0), size=n)
    trace = _one_block(params, 1.0, block, 2, np.zeros(n), eta)
    assert trace.S_hat.tolist() == [0.0] * n
    assert np.mean((trace.S - trace.S_hat) ** 2) == 0.0


def test_trace_statistics_properties():
    n = 9
    block = BlockConfig(n=n, rate=0.2)
    rng = np.random.default_rng(2)
    S = rng.normal(0.0, math.sqrt(ACC.Q), size=n)
    eta = rng.normal(0.0, math.sqrt(ACC.sigma2), size=n)
    trace = _one_block(ACC, 0.5, block, 1, S, eta)
    assert np.mean((trace.S - trace.S_hat) ** 2) == pytest.approx(
        float(np.mean((S - trace.S_hat) ** 2))
    )


def test_short_monte_carlo_tracks_theory():
    # desk-scale sanity run; the acceptance suite does the full-size one
    n, trials = 25, 3000
    coeffs = sk_dpc.compute_coefficients(ACC, 0.5, n)
    rng = np.random.default_rng(17)
    S = rng.normal(0.0, math.sqrt(ACC.Q), size=(trials, n))
    eta = rng.normal(0.0, math.sqrt(ACC.sigma2), size=(trials, n))
    theta = np.full(trials, sk_dpc.message_to_theta(3, 8))
    loop = sk_dpc.simulate_message_batch(coeffs, theta, S, eta)
    assert float(np.var(loop.eps)) == pytest.approx(coeffs.alpha[0, -1], rel=0.1)
    s_hat = sk_dpc.estimate_state(loop.Y, sk_dpc.estimation_coefficient(ACC, 0.5))
    d_emp = float(np.mean((S - s_hat) ** 2))
    d_target = regions.finite_n_distortion(ACC.Q, n, regions.dpc_min_distortion(ACC, 0.5), 1)
    assert d_emp == pytest.approx(d_target, rel=0.05)

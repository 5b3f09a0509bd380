import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpsk import harness, noisy_obs, regions, sk_dpc, sk_dpmac
from dpsk.errors import ConfigError, DegenerateSplit, EmptyGrid
from dpsk.params import (
    BlockConfig,
    DpcParams,
    MacParams,
    NoisyObsParams,
    PowerSplit,
    RunConfig,
    validate,
)

ACC = DpcParams(P=10, Q=10, sigma2=5)
MAC = MacParams(P1=10, P2=10, Q=10, sigma2=5)
FIG3 = NoisyObsParams(P=7.7, Q=10, sigma2=5, sigma_z2=1)


def test_substreams_are_reproducible_and_distinct():
    plan = harness.RandomPlan(123)
    a = plan.normal_block(0, harness.STATE, 8)
    b = plan.normal_block(0, harness.STATE, 8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, plan.normal_block(1, harness.STATE, 8))
    assert not np.array_equal(a, plan.normal_block(0, harness.NOISE, 8))
    # scaling happens after the standard draw
    np.testing.assert_array_equal(plan.normals(0, 1, harness.STATE, 8, 2.0), [2.0 * a])
    assert np.all(plan.normals(0, 1, harness.STATE, 8, 0.0) == 0.0)


def test_substream_keys_are_unique():
    plan = harness.RandomPlan(2**64 - 1)
    keys = {
        plan.key(trial, comp)
        for trial in range(100)
        for comp in range(harness._STREAMS_PER_TRIAL)
    }
    assert len(keys) == 100 * harness._STREAMS_PER_TRIAL
    with pytest.raises(ConfigError):
        plan.key(-1, 0)
    with pytest.raises(ConfigError):
        plan.key(0, 8)


def test_plan_rejects_trials_and_seeds_outside_the_key():
    # trial * 8 + component fills the key's high word, the seed its low word
    with pytest.raises(ConfigError) as info:
        harness.RandomPlan(1).normal_block(2**61, 0, 3)
    assert info.value.field == "trial"
    for seed in (-1, 2**64, 1.5, True):
        with pytest.raises(ConfigError) as info:
            harness.RandomPlan(seed)
        assert info.value.field == "seed"


def test_messages_cover_the_whole_range():
    plan = harness.RandomPlan(7)
    draws = {plan.message(t, harness.MSG, 4) for t in range(200)}
    assert draws == {1, 2, 3, 4}
    assert plan.message(0, harness.MSG, 1) == 1


# (trial, component, draw): a unit normal block of n > 0 values, or a message
# out of M; M < 2**32 takes integers' buffered 32-bit path, M > 2**32 the
# 64-bit one
SUBSTREAM_DRAWS = st.lists(
    st.tuples(
        st.integers(0, 2**61 - 1),
        st.integers(0, harness._STREAMS_PER_TRIAL - 1),
        st.one_of(
            st.tuples(st.just("normal"), st.integers(1, 70)),
            st.tuples(st.just("message"), st.integers(1, 1000)),
            st.tuples(st.just("message"), st.integers(2**32 + 1, 2**62)),
        ),
    ),
    min_size=1,
    max_size=12,
)
INTERLEAVED = [
    (0, harness.STATE, ("normal", 5)),
    (0, harness.MSG, ("message", 4)),
    (0, harness.NOISE, ("normal", 3)),
    (1, harness.MSG, ("message", 2**40)),
    (1, harness.MSG2, ("message", 1)),
    (1, harness.MSG, ("message", 7)),
    (2**61 - 1, 7, ("normal", 9)),
]


def _bits(x):
    # compare bit patterns, so that -0.0 against 0.0 fails
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), draws=SUBSTREAM_DRAWS)
@example(seed=0, draws=INTERLEAVED)
@example(seed=2**64 - 1, draws=INTERLEAVED)
def test_shared_generator_draws_what_a_fresh_philox_draws(seed, draws):
    # the plan re-keys one cached Philox per draw; a buffered 32-bit word
    # left by a small-M message must not leak into the next substream. A
    # normal block drawn into a row of a batch, in place, keeps the bits of
    # standard_normal(n) from a fresh Philox.
    plan = harness.RandomPlan(seed)
    for trial, component, (kind, size) in draws:
        fresh = np.random.Generator(np.random.Philox(key=plan.key(trial, component)))
        if kind == "normal":
            expected = _bits(fresh.standard_normal(size))
            batch = np.full((3, size), np.nan)
            row = plan.normal_block(trial, component, size, out=batch[1])
            assert row.base is batch
            np.testing.assert_array_equal(_bits(batch[1]), expected)
            assert np.isnan(batch[[0, 2]]).all()
            np.testing.assert_array_equal(
                _bits(plan.normal_block(trial, component, size)), expected
            )
        else:
            assert plan.message(trial, component, size) == fresh.integers(1, size + 1)


# a span of up to 6 trials ending at trial 2**61 - 1 at the latest
SPANS = st.integers(0, 2**61 - 1).flatmap(
    lambda start: st.tuples(st.just(start), st.integers(start + 1, min(start + 6, 2**61)))
)
MESSAGE_SET_SIZES = st.one_of(
    st.integers(1, 2**62), st.sampled_from([1, 2**32 - 1, 2**32, 2**32 + 1, 2**62])
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), span=SPANS,
       component=st.integers(0, harness._STREAMS_PER_TRIAL - 1), n=st.integers(1, 40),
       std=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1e50)), M=MESSAGE_SET_SIZES)
@example(seed=0, span=(0, 3), component=harness.MSG, n=1, std=1.0, M=2**32 - 1)
@example(seed=2**64 - 1, span=(2**61 - 4, 2**61), component=7, n=5, std=0.0, M=2**32)
@example(seed=3, span=(5, 9), component=harness.MSG2, n=2, std=2.5, M=2**32 + 1)
@example(seed=7, span=(0, 6), component=harness.STATE, n=3, std=1e-300, M=2**62)
def test_batch_draws_equal_the_per_trial_draws(seed, span, component, n, std, M):
    # every row of a normal batch is std * standard_normal(n) from a fresh
    # Philox on the trial's key, bit for bit, and every message of a message
    # batch is the trial's own message
    start, stop = span
    plan = harness.RandomPlan(seed)
    normals = plan.normals(start, stop, component, n, std)
    messages = plan.messages(start, stop, component, M)
    assert normals.shape == (stop - start, n) and messages.shape == (stop - start,)
    for row, trial in zip(normals, range(start, stop)):
        fresh = np.random.Generator(np.random.Philox(key=plan.key(trial, component)))
        np.testing.assert_array_equal(_bits(row), _bits(std * fresh.standard_normal(n)))
    assert messages.tolist() == [plan.message(t, component, M) for t in range(start, stop)]


def test_a_run_and_a_sweep_build_one_philox(monkeypatch):
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    _small_dpc_report(trials=50)
    assert len(built) == 1
    built.clear()
    harness.sweep(
        "noisy", FIG3, [0.0, 0.5, 1.0], BlockConfig(30, rate_fraction=0.5), 50,
        harness.RandomPlan(7),
    )
    assert len(built) == 1


def test_a_sweep_draws_each_normal_substream_once(monkeypatch):
    drawn = collections.Counter()
    normal_block = harness.RandomPlan.normal_block

    def counted(plan, trial, component, *args, **kwargs):
        drawn[trial, component] += 1
        return normal_block(plan, trial, component, *args, **kwargs)

    monkeypatch.setattr(harness.RandomPlan, "normal_block", counted)
    rows = harness.sweep(
        "noisy", FIG3, [0.0, 0.25, 0.5, 1.0], BlockConfig(30, rate_fraction=0.5), 50,
        harness.RandomPlan(7),
    )
    assert len(rows) == 4
    components = (harness.STATE, harness.NOISE, harness.OBS_NOISE)
    assert drawn == collections.Counter({(t, c): 1 for t in range(50) for c in components})


def test_a_fixed_rate_sweep_draws_each_message_substream_once(monkeypatch):
    drawn = collections.Counter()
    message = harness.RandomPlan.message

    def counted(plan, trial, component, *args, **kwargs):
        drawn[trial, component] += 1
        return message(plan, trial, component, *args, **kwargs)

    monkeypatch.setattr(harness.RandomPlan, "message", counted)
    rows = harness.sweep(
        "dpc", ACC, [0.25, 0.5, 1.0], BlockConfig(30, rate=0.2), 50, harness.RandomPlan(7),
    )
    # n * rate = 6 bits at every point, so all three share M = 64
    assert [row["rate"] for row in rows] == [0.2] * 3
    assert drawn == collections.Counter({(t, harness.MSG): 1 for t in range(50)})


@pytest.mark.parametrize("trials", [40, harness.BATCH + 3])
@pytest.mark.parametrize("scheme", ["dpc", "noisy", "mac"])
def test_sweep_rows_equal_runs_on_fresh_plans(scheme, trials):
    # the sweep's points share one plan and its kept batches; a run on a
    # fresh plan at each point gives the same measured columns. With
    # BATCH + 3 trials the last batch is partial and every point redraws.
    channel, gammas, betas, block = SWEEP_CASES[scheme]
    rows = harness.sweep(scheme, channel, gammas, block, trials, harness.RandomPlan(6),
                         beta_grid=betas)
    measured = harness._SCHEMES[scheme].measured
    compared = 0
    for row in rows:
        split = PowerSplit(row["gamma"], row.get("beta"))
        if split.gamma == 0.0 or split.beta == 0.0:
            continue
        report = harness.run_experiment(
            scheme, channel, split, block, trials, harness.RandomPlan(6)
        )
        values = {**report.rates, **report.empirical}
        assert {key: row[key] for key in measured} == {key: values[key] for key in measured}
        compared += 1
    assert compared == 2


# one field of the reference dpc run changed at a time: M alone, the state
# scale alone, the noise scale alone, the block length (and M)
PLAN_REUSE_CASES = {
    "M": (ACC, BlockConfig(30, rate_fraction=0.2)),
    "state std": (DpcParams(P=10, Q=4, sigma2=5), BlockConfig(30, rate_fraction=0.5)),
    "noise std": (DpcParams(P=10, Q=10, sigma2=2), BlockConfig(30, rate_fraction=0.5)),
    "n": (ACC, BlockConfig(20, rate_fraction=0.5)),
}


@pytest.mark.parametrize("change", sorted(PLAN_REUSE_CASES))
def test_one_plan_across_configurations_draws_what_fresh_plans_draw(change):
    reference = (ACC, BlockConfig(30, rate_fraction=0.5))
    other = PLAN_REUSE_CASES[change]

    def run(config, plan):
        channel, block = config
        return harness.run_experiment(
            "dpc", channel, PowerSplit(0.5), block, 60, plan
        ).as_dict()

    assert run(other, harness.RandomPlan(3)) != run(reference, harness.RandomPlan(3))
    shared = harness.RandomPlan(3)
    for config in (reference, other, reference):
        assert run(config, shared) == run(config, harness.RandomPlan(3))


def test_kept_batches_are_read_only_and_returned_again():
    plan = harness.RandomPlan(5)
    S = plan.normals(0, 6, harness.STATE, 4, 2.0)
    W = plan.messages(0, 6, harness.MSG, 9)
    assert plan.normals(0, 6, harness.STATE, 4, 2.0) is S
    assert plan.messages(0, 6, harness.MSG, 9) is W
    for batch in (S, W):
        with pytest.raises(ValueError):
            batch[0] = 1
    # another key draws again and replaces the kept batch
    assert plan.normals(0, 6, harness.STATE, 4, 1.0) is not S
    assert plan.normals(0, 6, harness.STATE, 4, 2.0) is not S
    np.testing.assert_array_equal(plan.normals(0, 6, harness.STATE, 4, 2.0), S)


def _small_dpc_report(trials=600, seed=11):
    return harness.run_experiment(
        "dpc", ACC, PowerSplit(0.5), BlockConfig(30, rate_fraction=0.5),
        trials, harness.RandomPlan(seed),
    )


def test_report_is_identical_across_repeat_runs():
    assert _small_dpc_report().as_dict() == _small_dpc_report().as_dict()


def test_batch_boundaries_do_not_change_results(monkeypatch):
    # more trials than one batch, odd remainder
    monkeypatch.setattr(harness, "BATCH", 7)
    chunked = _small_dpc_report(trials=23)
    monkeypatch.setattr(harness, "BATCH", 4096)
    whole = _small_dpc_report(trials=23)
    # per-trial draws and statistics are independent of the batch split;
    # only the power means reassociate their sums across batches
    power_keys = {"power", "time1_power", "steady_power", "symbol_power"}
    for key, value in whole.empirical.items():
        if key in power_keys:
            np.testing.assert_allclose(chunked.empirical[key], value, rtol=1e-12)
        else:
            assert chunked.empirical[key] == value
    assert chunked.rates == whole.rates
    assert chunked.theory == whole.theory
    assert chunked.deltas["distortion"] == whole.deltas["distortion"]
    assert chunked.flags == whole.flags


def test_single_trial_report_equals_trace_statistics():
    n, trials = 20, 1
    block = BlockConfig(n, rate=0.25)
    plan = harness.RandomPlan(5)
    report = harness.run_experiment("dpc", ACC, PowerSplit(0.5), block, trials, plan)
    _, M = (report.rates["rate"], report.rates["M"])
    S = plan.normals(0, 1, harness.STATE, n, math.sqrt(ACC.Q))
    eta = plan.normals(0, 1, harness.NOISE, n, math.sqrt(ACC.sigma2))
    W = plan.message(0, harness.MSG, M)
    _, _, coeffs = sk_dpc.resolve_loop(ACC, 0.5, block)
    trace = sk_dpc.run_batch(ACC, 0.5, M, coeffs, np.array([W]), S, eta)
    distortion = np.mean((trace.S[0] - trace.S_hat[0]) ** 2)
    assert report.empirical["distortion"] == pytest.approx(distortion, rel=1e-12)
    assert report.empirical["distortion_se"] == 0.0
    assert report.empirical["pe"] == float(trace.W_hat[0, 0] != W)
    np.testing.assert_allclose(
        report.empirical["symbol_power"], trace.X[0, 0] ** 2, rtol=1e-12
    )


def test_zero_rate_never_errs():
    report = harness.run_experiment(
        "dpc", ACC, PowerSplit(0.5), BlockConfig(12), 300, harness.RandomPlan(2)
    )
    assert report.rates["M"] == 1
    assert report.empirical["pe"] == 0.0


def test_dpc_report_structure_and_theory_fields():
    report = _small_dpc_report()
    assert report.scheme == "dpc"
    assert report.config["P"] == 10.0 and report.config["seed"] == 11
    assert report.theory["rate_cap"] == pytest.approx(0.5)
    assert report.theory["distortion"] == pytest.approx(
        regions.finite_n_distortion(ACC.Q, 30, regions.dpc_min_distortion(ACC, 0.5), 1),
        rel=1e-15
    )
    assert report.deltas["distortion"] == pytest.approx(
        report.empirical["distortion"] - report.theory["distortion"], abs=1e-15
    )
    assert report.flags == []
    assert len(report.empirical["symbol_power"]) == 30


def test_mac_report_convergence_flag_wiring():
    plan = harness.RandomPlan(3)
    ok = harness.run_experiment(
        "mac", MAC, PowerSplit(0.8, 0.8), BlockConfig(60, rate_fraction=0.5), 200, plan
    )
    assert "mac_rho_nonconvergence" not in ok.flags
    short = harness.run_experiment(
        "mac", MAC, PowerSplit(0.8, 0.8), BlockConfig(3), 50, plan
    )
    coeffs = sk_dpmac.mac_coefficients(MAC, 0.8, 0.8, 3)
    rho_star = regions.solve_rho_star(MAC, 0.8, 0.8)
    drifted = abs(float(coeffs.rho[-1]) - rho_star) > 1e-3
    assert ("mac_rho_nonconvergence" in short.flags) == drifted
    assert drifted  # n = 3 is far from the fixed point for these powers


def test_mac_requires_beta():
    with pytest.raises(ConfigError):
        harness.run_experiment(
            "mac", MAC, PowerSplit(0.8), BlockConfig(10), 10, harness.RandomPlan(0)
        )


def test_noisy_bound_mismatch_flag():
    plan = harness.RandomPlan(9)
    flagged = harness.run_experiment(
        "noisy", FIG3, PowerSplit(0.5), BlockConfig(40, rate_fraction=0.5), 2000, plan
    )
    assert "distortion_bound_mismatch" in flagged.flags
    assert flagged.theory["distortion_scheme"] < flagged.theory["distortion_bound"]
    clean = harness.run_experiment(
        "noisy", NoisyObsParams(10, 10, 5, 0), PowerSplit(0.5),
        BlockConfig(40, rate_fraction=0.5), 2000, plan,
    )
    assert clean.flags == []


def test_noisy_with_zero_obs_noise_equals_dpc_run():
    # component substreams line up, so the reduction is bit-exact
    plan = harness.RandomPlan(21)
    block = BlockConfig(25, rate_fraction=0.5)
    noisy = harness.run_experiment(
        "noisy", NoisyObsParams(10, 10, 5, 0), PowerSplit(0.5), block, 400, plan
    )
    plain = harness.run_experiment("dpc", ACC, PowerSplit(0.5), block, 400, plan)
    assert noisy.empirical["pe"] == plain.empirical["pe"]
    assert noisy.empirical["distortion"] == pytest.approx(
        plain.empirical["distortion"], rel=1e-12
    )
    np.testing.assert_array_equal(
        noisy.empirical["symbol_power"], plain.empirical["symbol_power"]
    )


def test_trace_writer_sees_every_trial():
    calls = {}

    def writer(trial, columns):
        calls[trial] = columns

    harness.run_experiment(
        "dpc", ACC, PowerSplit(0.5), BlockConfig(10, rate=0.2), 3,
        harness.RandomPlan(1), trace_writer=writer,
    )
    assert sorted(calls) == [0, 1, 2]
    assert set(calls[0]) == {"X", "Y", "theta_hat", "S", "S_hat"}
    assert all(len(col) == 10 for col in calls[0].values())

    calls.clear()
    harness.run_experiment(
        "mac", MAC, PowerSplit(0.8, 0.8), BlockConfig(10, rate=0.1), 2,
        harness.RandomPlan(1), trace_writer=writer,
    )
    assert set(calls[0]) == {"X1", "X2", "Y", "theta1_hat", "theta2_hat", "S", "S_hat"}


def test_run_experiment_validation():
    with pytest.raises(ConfigError):
        harness.run_experiment("dpc", ACC, PowerSplit(0.5), None, 10, harness.RandomPlan(0))
    with pytest.raises(ConfigError):
        harness.run_experiment(
            "dpc", ACC, PowerSplit(0.5), BlockConfig(10), 0, harness.RandomPlan(0)
        )
    with pytest.raises(ConfigError):
        harness.run_experiment(
            "laser", ACC, PowerSplit(0.5), BlockConfig(10), 10, harness.RandomPlan(0)
        )


@pytest.mark.parametrize("scheme, params", [("dpc", FIG3), ("noisy", ACC), ("mac", ACC)])
def test_a_run_and_a_sweep_reject_another_schemes_channel(scheme, params):
    split, block = PowerSplit(0.5, 0.5), BlockConfig(10)
    with pytest.raises(ConfigError) as info:
        harness.run_experiment(scheme, params, split, block, 10, harness.RandomPlan(0))
    assert info.value.field == "scheme"
    with pytest.raises(ConfigError) as info:
        harness.sweep(scheme, params, [0.5], block, 10, harness.RandomPlan(0))
    assert info.value.field == "scheme"


# scheme: (channel, its split, a split with a stray or a missing beta)
SPLITS = {
    "dpc": (ACC, PowerSplit(0.5), PowerSplit(0.5, 0.5)),
    "noisy": (FIG3, PowerSplit(0.5), PowerSplit(0.5, 0.5)),
    "mac": (MAC, PowerSplit(0.8, 0.8), PowerSplit(0.8)),
}


@pytest.mark.parametrize("scheme", sorted(SPLITS))
def test_a_run_and_a_sweep_reject_another_schemes_split(scheme):
    channel, _, wrong = SPLITS[scheme]
    block = BlockConfig(10, rate_fraction=0.5)
    with pytest.raises(ConfigError) as info:
        harness.run_experiment(scheme, channel, wrong, block, 20, harness.RandomPlan(0))
    assert info.value.field == "beta"
    if wrong.beta is not None:  # a sweep's beta comes from its beta grid
        with pytest.raises(ConfigError) as info:
            harness.sweep(scheme, channel, [0.5], block, 20, harness.RandomPlan(0),
                          beta_grid=[0.5])
        assert info.value.field == "beta"


@pytest.mark.parametrize("scheme", sorted(SPLITS))
def test_a_reports_config_validates_to_its_run(scheme):
    channel, split, _ = SPLITS[scheme]
    block = BlockConfig(10, rate_fraction=0.5)
    report = harness.run_experiment(scheme, channel, split, block, 20, harness.RandomPlan(3))
    assert validate(report.config, scheme) == RunConfig(scheme, channel, split, block, 20, 3)


def test_run_config_wrapper():
    run = validate({
        "P": 10, "Q": 10, "sigma2": 5, "gamma": 0.5,
        "n": 20, "rate_fraction": 0.5, "trials": 50, "seed": 11,
    })
    report = harness.run_config(run)
    direct = harness.run_experiment(
        "dpc", ACC, PowerSplit(0.5), BlockConfig(20, rate_fraction=0.5),
        50, harness.RandomPlan(11),
    )
    assert report.as_dict() == direct.as_dict()


def test_sweep_rows_and_grid_validation():
    plan = harness.RandomPlan(4)
    block = BlockConfig(15, rate_fraction=0.5)
    rows = harness.sweep("dpc", ACC, [0.0, 1.0], block, 100, plan)
    assert len(rows) == 2
    assert rows[0]["gamma"] == 0.0 and rows[0]["rate"] == 0.0
    assert rows[1]["rate"] > 0.0
    assert {"pe", "distortion", "rate_cap", "theory_distortion"} <= set(rows[0])
    with pytest.raises(EmptyGrid):
        harness.sweep("dpc", ACC, [], block, 10, plan)


def test_sweep_mac_and_noisy_schemas():
    plan = harness.RandomPlan(4)
    rows = harness.sweep(
        "mac", MAC, [0.8], BlockConfig(12, rate_fraction=0.4), 60, plan, beta_grid=[0.6, 0.8]
    )
    assert len(rows) == 2
    assert {"gamma", "beta", "rho_star", "r1_max", "rsum_max", "d_min"} <= set(rows[0])
    assert math.isfinite(rows[0]["pe1"]) and math.isfinite(rows[0]["distortion"])
    rows = harness.sweep(
        "noisy", FIG3, [0.5], BlockConfig(12, rate_fraction=0.4), 60, plan
    )
    assert rows[0]["sigma_z2"] == 1.0
    assert "theory_distortion_scheme" in rows[0]
    with pytest.raises(ConfigError):
        harness.sweep("dpc", ACC, [0.5], BlockConfig(12), 10, plan, beta_grid=[0.5])


def test_a_mac_sweep_without_a_beta_grid_reuses_the_gamma_grid():
    block = BlockConfig(12, rate_fraction=0.4)
    gammas = [0.5, 1.0]
    rows = harness.sweep("mac", MAC, gammas, block, 40, harness.RandomPlan(4))
    assert len(rows) == 4
    assert rows == harness.sweep("mac", MAC, gammas, block, 40, harness.RandomPlan(4),
                                 beta_grid=gammas)


def test_sweep_mac_keeps_theory_at_degenerate_points():
    rows = harness.sweep(
        "mac", MAC, [0.0, 0.8], BlockConfig(12, rate_fraction=0.4), 40,
        harness.RandomPlan(4), beta_grid=[0.8],
    )
    empty, full = rows
    assert math.isnan(empty["pe1"]) and math.isnan(empty["distortion"])
    assert empty["rho_star"] == 0.0 and empty["r1_max"] == 0.0
    assert empty["d_min"] > 0.0
    assert math.isfinite(full["pe1"])
    assert list(empty) == list(full)  # one fixed schema for every row


def test_sweep_is_deterministic():
    plan = harness.RandomPlan(8)
    block = BlockConfig(12, rate_fraction=0.5)
    first = harness.sweep("dpc", ACC, [0.25, 0.75], block, 80, plan)
    second = harness.sweep("dpc", ACC, [0.25, 0.75], block, 80, plan)
    assert first == second


SWEEP_CASES = {
    # scheme: (channel, gamma grid, beta grid, block)
    "dpc": (ACC, [0.0, 0.5, 1.0], None, BlockConfig(20, rate=0.1)),
    "noisy": (FIG3, [0.0, 0.5, 1.0], None, BlockConfig(20, rate=0.1)),
    "mac": (MAC, [0.0, 0.8], [0.6, 1.0], BlockConfig(20, rate_fraction=0.4)),
}


@pytest.mark.parametrize("scheme", sorted(SWEEP_CASES))
def test_sweep_rows_are_region_records_plus_report_columns(scheme):
    channel, gammas, betas, block = SWEEP_CASES[scheme]
    plan = harness.RandomPlan(6)
    rows = harness.sweep(scheme, channel, gammas, block, 40, plan, beta_grid=betas)
    if scheme == "mac":
        records = regions.mac_fb_region(channel, gammas, betas)
        theory = [{"gamma": r.gamma, "beta": r.beta, "rho_star": r.rho, "r1_max": r.r1_max,
                   "r2_max": r.r2_max, "rsum_max": r.rsum_max, "d_min": r.d_min}
                  for r in records]
        measured = ("rate1", "rate2", "pe1", "pe2", "distortion")
    else:
        theory = [{"gamma": p.gamma, "rate_cap": p.rate, "theory_distortion": p.distortion}
                  for p in regions.boundary_sweep(channel, gammas)]
        if scheme == "noisy":
            for point in theory:
                point["sigma_z2"] = channel.sigma_z2
                point["theory_distortion_scheme"] = regions.finite_n_distortion(
                    channel.Q, block.n,
                    noisy_obs.scheme_step_distortion(channel, point["gamma"]), 1,
                )
        measured = ("rate", "pe", "distortion")
    assert len(rows) == len(theory)
    degenerate = 0
    for row, expected in zip(rows, theory):
        assert {key: row[key] for key in expected} == expected
        assert set(row) == set(expected) | set(measured)
        split = PowerSplit(row["gamma"], row.get("beta"))
        if split.gamma == 0.0 or split.beta == 0.0:
            degenerate += 1
            assert all(math.isnan(row[key]) for key in measured)
            with pytest.raises(DegenerateSplit):
                harness.run_experiment(scheme, channel, split, block, 40, plan)
            continue
        report = harness.run_experiment(scheme, channel, split, block, 40, plan)
        values = {**report.rates, **report.empirical}
        assert {key: row[key] for key in measured} == {key: values[key] for key in measured}
    assert degenerate == (2 if scheme == "mac" else 1)


def _batch_runs(plan, scheme, params, split, block, rates, start, stop):
    """The public batch runner of ``scheme`` on the harness's draws of trials
    start..stop-1, with its (B, n) traces; ``rates`` is the report's."""
    n = block.n
    S = plan.normals(start, stop, harness.STATE, n, math.sqrt(params.Q))
    eta = plan.normals(start, stop, harness.NOISE, n, math.sqrt(params.sigma2))
    if scheme == "mac":
        M1, M2 = rates["M1"], rates["M2"]
        W1 = plan.messages(start, stop, harness.MSG, M1)
        W2 = plan.messages(start, stop, harness.MSG2, M2)
        coeffs = sk_dpmac.mac_coefficients(params, split.gamma, split.beta, n)
        return sk_dpmac.mac_run_batch(coeffs, M1, M2, W1, W2, S, eta)
    M = rates["M"]
    W = plan.messages(start, stop, harness.MSG, M)
    if scheme == "noisy":
        Z = plan.normals(start, stop, harness.OBS_NOISE, n, math.sqrt(params.sigma_z2))
        eq = noisy_obs.make_equivalent(params)
        _, _, coeffs = sk_dpc.resolve_loop(eq, split.gamma, block, noisy_obs.EQUIVALENT_NOISE)
        return noisy_obs.noisy_run_batch(params, split.gamma, M, coeffs, W, S, Z, eta)
    _, _, coeffs = sk_dpc.resolve_loop(params, split.gamma, block)
    return sk_dpc.run_batch(params, split.gamma, M, coeffs, W, S, eta)


@pytest.mark.parametrize("scheme, params, split", [
    ("dpc", ACC, PowerSplit(0.5)),
    ("noisy", FIG3, PowerSplit(0.5)),
    ("mac", MAC, PowerSplit(0.8, 0.8)),
    ("dpc", ACC, PowerSplit(0.0)),
    ("noisy", FIG3, PowerSplit(0.0)),
])
def test_a_trace_writer_changes_no_report_value(scheme, params, split):
    # with a writer the runners store their traces, without one they reduce
    # each batch inside the loop; both must give the same report, and the
    # written columns must be the public batch runners' rows; gamma = 0 takes
    # the state-forwarding kernel
    trials, block = harness.BATCH + 1, BlockConfig(6, rate_fraction=0.5)
    columns = {}
    traced = harness.run_experiment(
        scheme, params, split, block, trials, harness.RandomPlan(11),
        trace_writer=lambda trial, cols: columns.__setitem__(trial, cols),
    )
    reduced = harness.run_experiment(scheme, params, split, block, trials, harness.RandomPlan(11))
    assert traced.as_dict() == reduced.as_dict()
    assert sorted(columns) == list(range(trials))
    plan = harness.RandomPlan(11)
    for start, stop in [(0, harness.BATCH), (harness.BATCH, trials)]:
        trace = _batch_runs(plan, scheme, params, split, block, traced.rates, start, stop)
        if len(trace.M) == 2:
            fields = {"X1": trace.X[0], "X2": trace.X[1], "Y": trace.Y,
                      "theta1_hat": trace.theta_hat[0], "theta2_hat": trace.theta_hat[1]}
        else:
            fields = {"X": trace.X[0], "Y": trace.Y, "theta_hat": trace.theta_hat[0]}
        fields.update(S=trace.S, S_hat=trace.S_hat)
        names = list(fields)
        assert list(columns[start]) == names
        for i, trial in enumerate(range(start, stop)):
            for name in names:
                np.testing.assert_array_equal(columns[trial][name], fields[name][i])


@pytest.mark.parametrize("traces", [True, False])
@pytest.mark.parametrize("scheme, params, split", [
    ("dpc", ACC, PowerSplit(0.5)),
    ("noisy", FIG3, PowerSplit(0.5)),
    ("mac", MAC, PowerSplit(0.8, 0.8)),
    ("dpc", ACC, PowerSplit(0.0)),
    ("noisy", FIG3, PowerSplit(0.0)),
])
def test_every_batch_runner_returns_the_one_trace_record(scheme, params, split, traces):
    # the kernel's record completed for K = len(SPLIT) encoders: (K, B)
    # messages, decisions, final estimates and errors, K message-set sizes,
    # (K, B, n) traces or None, (B, n) Y, S and S_hat and the (K, n) power;
    # gamma = 0 takes the state-forwarding kernel, whose estimates and
    # errors are 0
    B, n, K = 5, 7, len(params.SPLIT)
    S, Z, eta = np.random.default_rng(17).normal(size=(3, B, n))
    W = np.array([1, 2, 1, 2, 1])
    if K == 2:
        coeffs = sk_dpmac.mac_coefficients(params, split.gamma, split.beta, n)
        trace = sk_dpmac.mac_run_batch(coeffs, 2, 3, W, W + 1, S, eta, traces=traces)
        assert trace.M == (2, 3)
        np.testing.assert_array_equal(trace.W, [W, W + 1])
    else:
        M = 2 if split.gamma else 1
        W = np.minimum(W, M)
        if scheme == "noisy":
            eq = noisy_obs.make_equivalent(params)
            coeffs = sk_dpc.compute_coefficients(eq, split.gamma, n) if split.gamma else None
            trace = noisy_obs.noisy_run_batch(params, split.gamma, M, coeffs, W, S, Z, eta,
                                              traces=traces)
        else:
            coeffs = sk_dpc.compute_coefficients(params, split.gamma, n) if split.gamma else None
            trace = sk_dpc.run_batch(params, split.gamma, M, coeffs, W, S, eta, traces=traces)
        assert trace.M == (M,)
        np.testing.assert_array_equal(trace.W, [W])
    assert type(trace) is sk_dpc.SchemeTrace
    assert trace.W.shape == trace.W_hat.shape == (K, B)
    assert trace.theta_final.shape == trace.eps.shape == (K, B)
    if not split.gamma:
        assert not trace.theta_final.any() and not trace.eps.any()
    assert trace.Y.shape == trace.S.shape == trace.S_hat.shape == (B, n)
    assert trace.power.shape == (K, n)
    if traces:
        assert trace.X.shape == trace.theta_hat.shape == (K, B, n)
    else:
        assert trace.X is None and trace.theta_hat is None


#: (B, n) arrays that a run of one batch may peak at without a trace writer
PEAK_ARRAYS = {"mac": 6.0, "dpc": 6.0, "noisy": 7.5}
#: the same on the gamma = 0 state-forwarding kernel
FORWARDING_PEAK_ARRAYS = {"dpc": 5.75, "noisy": 8.5}


@pytest.mark.parametrize("scheme, params, split, n", [
    ("mac", MAC, PowerSplit(0.8, 0.8), 200),
    ("dpc", ACC, PowerSplit(0.5), 100),
    ("noisy", FIG3, PowerSplit(0.5), 100),
    ("dpc", ACC, PowerSplit(0.0), 100),
    ("noisy", FIG3, PowerSplit(0.0), 100),
])
def test_a_run_without_a_trace_writer_keeps_few_batch_arrays(scheme, params, split, n):
    # the plan keeps S and eta, the loop adds their slot-major copies and Y;
    # storing the X and theta_hat traces as well takes the peak to 9 (mac)
    # and 7 (dpc) (B, n) arrays. The noisy plan adds Z and the runner the
    # equivalent state and noise, the noise slot-major so that the loop need
    # not copy it: a row-major one took the peak to 8.3. At gamma = 0 the
    # forwarding kernel sums its power down the rows of X; a cumulative sum
    # over an (n, B) copy took the peak to 6.3 (dpc) and 9.0 (noisy)
    B = harness.BATCH
    block = BlockConfig(n, rate_fraction=0.5)
    tracemalloc.start()
    try:
        harness.run_experiment(scheme, params, split, block, B, harness.RandomPlan(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = PEAK_ARRAYS[scheme] if split.gamma else FORWARDING_PEAK_ARRAYS[scheme]
    assert peak / (B * n * 8) < bound

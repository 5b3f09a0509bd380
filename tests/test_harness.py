import math

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
    validate,
)

ACC = DpcParams(P=10, Q=10, sigma2=5)
MAC = MacParams(P1=10, P2=10, Q=10, sigma2=5)
FIG3 = NoisyObsParams(P=7.7, Q=10, sigma2=5, sigma_z2=1)


def test_substreams_are_reproducible_and_distinct():
    plan = harness.RandomPlan(123)
    a = plan.normal_block(0, harness.STATE, 8, 1.0)
    b = plan.normal_block(0, harness.STATE, 8, 1.0)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, plan.normal_block(1, harness.STATE, 8, 1.0))
    assert not np.array_equal(a, plan.normal_block(0, harness.NOISE, 8, 1.0))
    # scaling happens after the standard draw
    np.testing.assert_array_equal(plan.normal_block(0, harness.STATE, 8, 2.0), 2.0 * a)
    assert np.all(plan.normal_block(0, harness.STATE, 8, 0.0) == 0.0)


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
        harness.RandomPlan(1).normal_block(2**61, 0, 3, 1.0)
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


# (trial, component, draw): a normal block of n > 0 values, or a message out
# of M; M < 2**32 takes integers' buffered 32-bit path, M > 2**32 the 64-bit one
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


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), draws=SUBSTREAM_DRAWS)
@example(seed=0, draws=INTERLEAVED)
@example(seed=2**64 - 1, draws=INTERLEAVED)
def test_shared_generator_draws_what_a_fresh_philox_draws(seed, draws):
    # the plan re-keys one cached Philox per draw; a buffered 32-bit word
    # left by a small-M message must not leak into the next substream
    plan = harness.RandomPlan(seed)
    for trial, component, (kind, size) in draws:
        fresh = np.random.Generator(np.random.Philox(key=plan.key(trial, component)))
        if kind == "normal":
            np.testing.assert_array_equal(
                plan.normal_block(trial, component, size, 1.0), fresh.standard_normal(size)
            )
        else:
            assert plan.message(trial, component, size) == fresh.integers(1, size + 1)


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
    S = plan.normal_block(0, harness.STATE, n, math.sqrt(ACC.Q))
    eta = plan.normal_block(0, harness.NOISE, n, math.sqrt(ACC.sigma2))
    W = plan.message(0, harness.MSG, M)
    trace = sk_dpc.run_block(ACC, 0.5, block, W, S, eta)
    assert report.empirical["distortion"] == pytest.approx(trace.distortion, rel=1e-12)
    assert report.empirical["distortion_se"] == 0.0
    assert report.empirical["pe"] == float(trace.W_hat != W)
    np.testing.assert_allclose(
        report.empirical["symbol_power"], trace.X**2, rtol=1e-12
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

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsk.errors import (
    BlocklengthTooSmall,
    ConfigError,
    DegenerateSplit,
    EmptyGrid,
    NegativeVariance,
    PowerOutOfRange,
    SplitOutOfRange,
)
from dpsk import harness, noisy_obs, output, params, regions, sk_dpc, sk_dpmac
from dpsk.params import (
    CHANNELS,
    CONFIG_KEYS,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    BlockConfig,
    DpcParams,
    MacParams,
    NoisyObsParams,
    PowerSplit,
    RunConfig,
    load_config,
    resolve_block,
    to_config_dict,
    validate,
)


def test_dpc_params_accept_valid():
    p = DpcParams(P=10, Q=0, sigma2=5)
    assert p.P == 10.0 and p.Q == 0.0 and p.sigma2 == 5.0


@pytest.mark.parametrize("kwargs,exc", [
    (dict(P=-1, Q=1, sigma2=1), PowerOutOfRange),
    (dict(P=1, Q=-0.5, sigma2=1), NegativeVariance),
    (dict(P=1, Q=1, sigma2=0), NegativeVariance),
    (dict(P=1, Q=1, sigma2=-2), NegativeVariance),
    (dict(P=float("nan"), Q=1, sigma2=1), ConfigError),
    (dict(P=float("inf"), Q=1, sigma2=1), ConfigError),
    (dict(P="10", Q=1, sigma2=1), ConfigError),
    (dict(P=True, Q=1, sigma2=1), ConfigError),
])
def test_dpc_params_reject_invalid(kwargs, exc):
    with pytest.raises(exc):
        DpcParams(**kwargs)


def test_invalid_params_name_the_field():
    with pytest.raises(NegativeVariance) as info:
        MacParams(P1=1, P2=1, Q=1, sigma2=-1)
    assert info.value.field == "sigma2"


@pytest.mark.parametrize("gamma", [-0.1, 1.1, float("nan")])
def test_power_split_rejects_bad_gamma(gamma):
    with pytest.raises((SplitOutOfRange, ConfigError)):
        PowerSplit(gamma=gamma)


def test_power_split_beta_optional():
    assert PowerSplit(0.5).beta is None
    assert PowerSplit(0.5, 0.25).beta == 0.25
    with pytest.raises(SplitOutOfRange):
        PowerSplit(0.5, 1.5)


def test_block_config_rejects_short_and_nonint_n():
    with pytest.raises(BlocklengthTooSmall):
        BlockConfig(n=1)
    with pytest.raises(ConfigError):
        BlockConfig(n=10.0)
    with pytest.raises(ConfigError):
        BlockConfig(n=True)


def test_block_config_rate_exclusivity():
    with pytest.raises(ConfigError):
        BlockConfig(n=10, rate=0.5, rate_fraction=0.5)
    with pytest.raises(ConfigError):
        BlockConfig(n=10, rate=-0.5)
    with pytest.raises(ConfigError):
        BlockConfig(n=10, rate_fraction=-0.1)


def test_resolve_block_explicit_rate():
    rate, M = resolve_block(BlockConfig(n=10, rate=0.5), cap_bits=99.0)
    assert rate == 0.5 and M == 32


def test_resolve_block_fraction_of_cap():
    rate, M = resolve_block(BlockConfig(n=40, rate_fraction=0.5), cap_bits=0.5)
    assert rate == 0.25 and M == 2**10


def test_resolve_block_defaults_to_zero_rate():
    assert resolve_block(BlockConfig(n=10), cap_bits=1.0) == (0.0, 1)


def test_resolve_block_rounds_and_floors_at_one():
    # fractional exponent rounds to the nearest integer size
    rate, M = resolve_block(BlockConfig(n=3, rate=0.5), cap_bits=1.0)
    assert M == round(2.0**1.5)
    rate, M = resolve_block(BlockConfig(n=2, rate_fraction=0.01), cap_bits=0.5)
    assert M == 1


def test_resolve_block_caps_message_set_size():
    with pytest.raises(ConfigError):
        resolve_block(BlockConfig(n=100, rate=1.0), cap_bits=1.0)


#: Every key of each scheme, spelled out here apart from the declarations in params.
SCHEME_KEYS = {
    "dpc": {"P": 1, "Q": 1, "sigma2": 1, "gamma": 0.5},
    "mac": {"P1": 1, "P2": 1, "Q": 1, "sigma2": 1, "gamma": 0.5, "beta": 0.5},
    "noisy": {"P": 1, "Q": 1, "sigma2": 1, "sigma_z2": 0.5, "gamma": 0.5},
}


@pytest.mark.parametrize("scheme", CHANNELS)
def test_validate_infers_scheme(scheme):
    assert validate(SCHEME_KEYS[scheme]).scheme == scheme


@pytest.mark.parametrize("scheme", CHANNELS)
def test_validate_rejects_unknown_and_foreign_keys(scheme):
    own = SCHEME_KEYS[scheme]
    with pytest.raises(ConfigError) as info:
        validate({**own, "bogus": 3})
    assert info.value.field == "bogus"
    foreign = {k: v for keys in SCHEME_KEYS.values() for k, v in keys.items() if k not in own}
    assert foreign
    for key, value in foreign.items():
        with pytest.raises(ConfigError) as info:
            validate({**own, key: value}, scheme=scheme)
        assert info.value.field == key
    # keys of several schemes mixed, with the scheme inferred
    with pytest.raises(ConfigError):
        validate({**own, **foreign})
    with pytest.raises(ConfigError):
        validate({"P1": 1, "sigma_z2": 1, "Q": 1, "sigma2": 1, "gamma": 0.5})


def test_validate_rejects_a_non_mapping_and_an_unknown_scheme():
    with pytest.raises(ConfigError, match="^configuration must be a mapping, got list$"):
        params.resolve_scheme([1])
    with pytest.raises(ConfigError, match="^unknown scheme 'foo'$") as info:
        validate(SCHEME_KEYS["dpc"], scheme="foo")
    assert info.value.field == "scheme"


def test_validate_requires_scheme_fields():
    with pytest.raises(ConfigError) as info:
        validate({"P": 1, "Q": 1, "sigma2": 1})
    assert info.value.field == "gamma"
    with pytest.raises(ConfigError):
        validate({"P1": 1, "Q": 1, "sigma2": 1, "gamma": 0.5, "beta": 0.5})


def test_validate_rate_needs_blocklength():
    with pytest.raises(ConfigError) as info:
        validate({"P": 1, "Q": 1, "sigma2": 1, "gamma": 0.5, "rate": 0.5})
    assert info.value.field == "n"


def test_validate_mac_needs_three_slots():
    raw = {"P1": 1, "P2": 1, "Q": 1, "sigma2": 1, "gamma": 0.5, "beta": 0.5, "n": 2}
    with pytest.raises(BlocklengthTooSmall):
        validate(raw)


def test_validate_defaults_and_bounds():
    run = validate({"P": 1, "Q": 1, "sigma2": 1, "gamma": 0.5})
    assert run.trials == DEFAULT_TRIALS and run.seed == DEFAULT_SEED
    assert run.block is None
    base = {"P": 1, "Q": 1, "sigma2": 1, "gamma": 0.5}
    for bad in [{"trials": 0}, {"trials": 2.5}, {"trials": True},
                {"seed": -1}, {"seed": 2**64}, {"seed": 1.0}]:
        with pytest.raises(ConfigError):
            validate({**base, **bad})


def test_config_round_trip_is_exact(tmp_path):
    raw = {
        "P": math.pi, "Q": 10.0, "sigma2": 5.0, "gamma": 1 / 3,
        "n": 100, "rate_fraction": 0.7, "trials": 123, "seed": 42,
    }
    run = validate(raw)
    echoed = to_config_dict(run)
    assert echoed == raw
    assert list(echoed) == [k for k in CONFIG_KEYS if k in echoed]
    # a report's config block, read back as a config file
    path = tmp_path / "config.json"
    path.write_text(output.json_text(echoed))
    assert validate(load_config(path)) == run


def test_load_config_failures(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(arr)


def test_every_container_field_that_takes_a_config_key_has_a_check():
    # the containers' shared check loop skips a field the table does not name
    containers = (DpcParams, MacParams, NoisyObsParams, PowerSplit, BlockConfig)
    fields = {field.name for cls in containers for field in dataclasses.fields(cls)}
    assert {"trials", "seed"} <= {field.name for field in dataclasses.fields(RunConfig)}
    assert fields | {"trials", "seed"} <= set(params._CHECKS)
    assert CONFIG_KEYS == tuple(params._CHECKS)


@pytest.mark.parametrize("key", [k for k in CONFIG_KEYS if k not in ("n", "trials", "seed")])
def test_an_integer_beyond_float64_is_not_finite(key):
    # float() of such an integer raises OverflowError; it must read as inf
    raw = {**SCHEME_KEYS["mac" if key in SCHEME_KEYS["mac"] else "noisy"], "n": 10}
    with pytest.raises(ConfigError, match=f"^{key} must be finite, got inf$") as info:
        validate({**raw, key: 10**400})
    assert info.value.field == key
    with pytest.raises(ConfigError, match="^gamma must be finite"):
        PowerSplit(10**400)


ZERO_BASES = {
    DpcParams: {"P": 1, "Q": 1, "sigma2": 1},
    MacParams: {"P1": 1, "P2": 1, "Q": 1, "sigma2": 1},
    NoisyObsParams: {"P": 1, "Q": 1, "sigma2": 1, "sigma_z2": 1},
    PowerSplit: {"gamma": 0.5, "beta": 0.5},
    BlockConfig: {"n": 10},
}


@pytest.mark.parametrize("cls, key", [
    (cls, field.name) for cls in ZERO_BASES for field in dataclasses.fields(cls)
    if field.name not in ("sigma2", "n")  # the keys where zero is rejected or not a float
])
def test_a_negative_zero_is_stored_as_positive_zero(cls, key):
    value = getattr(cls(**{**ZERO_BASES[cls], key: -0.0}), key)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_load_config_rejects_an_integer_too_long_to_read(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"P": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


@pytest.mark.parametrize("build, key, message", [
    (lambda: DpcParams(None, 10, 5), "P", "a number"),
    (lambda: PowerSplit(None), "gamma", "a number"),
    (lambda: BlockConfig(None), "n", "an integer"),
    (lambda: validate({**SCHEME_KEYS["dpc"], "trials": None}), "trials", "a positive integer"),
    (lambda: validate({**SCHEME_KEYS["dpc"], "seed": None}), "seed",
     "a 64-bit unsigned integer"),
], ids=["P", "gamma", "n", "trials", "seed"])
def test_a_required_field_rejects_none(build, key, message):
    # only a field that defaults to None may be left at None
    with pytest.raises(ConfigError, match=f"^{key} must be {message}, got None$") as info:
        build()
    assert info.value.field == key


def test_an_optional_field_may_be_none():
    assert PowerSplit(0.5, None).beta is None
    assert BlockConfig(10, None, None) == BlockConfig(10)


#: A value of any type a caller may pass for n, gamma, beta or rho: None, text,
#: booleans, small and huge integers, infinities, NaN, subnormals and [0, 1] floats
ANY_VALUE = st.one_of(
    st.none(), st.text(max_size=3), st.booleans(), st.integers(-2, 12),
    st.sampled_from([2**16 + 1, 2**63, 10**20, 10**400, -(10**400)]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(-3e-308, 3e-308), st.floats(0, 1),
)


def _library_calls(n, gamma, beta, rho):
    """Every public function that takes n, gamma, beta or rho, with its arguments."""
    dpc, mac, noisy = DpcParams(10, 10, 5), MacParams(10, 10, 10, 5), NoisyObsParams(10, 10, 5, 1)
    return [
        *[(f, dpc, gamma) for f in (regions.dpc_rate_cap, regions.dpc_min_distortion,
                                    regions.dpc_fb_boundary, sk_dpc.estimation_coefficient)],
        *[(f, noisy, gamma) for f in (regions.noisy_rate_cap, regions.noisy_min_distortion,
                                      regions.noisy_boundary, noisy_obs.true_state_coefficient,
                                      noisy_obs.scheme_step_distortion)],
        (regions.boundary_sweep, dpc, [gamma]),
        (regions.boundary_sweep, noisy, [gamma]),
        (regions.mac_power_normalizer, mac, gamma, beta),
        (regions.solve_rho_star, mac, gamma, beta),
        (regions.mac_constraints, mac, gamma, beta, rho),
        (regions.mac_fb_region, mac, [gamma], [beta], [rho]),
        (regions.mac_fb_region, mac, [gamma], [beta]),
        (regions.mac_nofb_region, mac, [gamma], [beta]),
        (regions.finite_n_distortion, 10.0, n, 1.0, 1),
        (regions.finite_n_distortion, 10.0, n, 1.0, 2),
        (sk_dpc.compute_coefficients, dpc, gamma, n),
        (sk_dpc.forwarding_coefficients, dpc, gamma, n),
        (sk_dpmac.mac_coefficients, mac, gamma, beta, n),
    ]


@settings(max_examples=150, deadline=None)
@given(n=ANY_VALUE, gamma=ANY_VALUE, beta=ANY_VALUE, rho=ANY_VALUE)
def test_a_library_call_returns_or_raises_a_config_error(n, gamma, beta, rho):
    # gamma = "0.5" or a rho of None raised TypeError, and gamma = True was accepted;
    # a split with no message power is DegenerateSplit, the recursions' documented answer
    for function, *args in _library_calls(n, gamma, beta, rho):
        try:
            function(*args)
        except DegenerateSplit:
            assert function in (sk_dpc.compute_coefficients, sk_dpmac.mac_coefficients)
            assert 0.0 in (gamma, beta)
        except ConfigError:
            pass


#: Each shape a caller may give a grid in, built from a list of ANY_VALUE
GRID_SHAPES = {
    "value": lambda values: values[0] if values else None,
    "list": list,
    "tuple": tuple,
    "array": lambda values: np.array(values, dtype=object),
    "generator": lambda values: (value for value in values),
    "nested": lambda values: [values],
}
#: A grid as (shape, values): ANY_VALUE itself, empty sequences, sequences and
#: generators of ANY_VALUE and a nested list; each call builds its own, as a
#: generator is spent by the first
ANY_GRID = st.tuples(st.sampled_from(sorted(GRID_SHAPES)), st.lists(ANY_VALUE, max_size=3))


def _grid_calls(grid):
    """Every public function that takes a grid or a grid count, the grid in each place."""
    dpc, mac, noisy = DpcParams(10, 10, 5), MacParams(10, 10, 10, 5), NoisyObsParams(10, 10, 5, 1)
    block, plan = BlockConfig(10, rate_fraction=0.5), harness.RandomPlan(3)
    return [
        lambda: regions.unit_grid(grid()),
        lambda: regions.boundary_sweep(dpc, grid()),
        lambda: regions.boundary_sweep(noisy, grid()),
        lambda: regions.mac_fb_region(mac, grid(), [0.5]),
        lambda: regions.mac_fb_region(mac, [0.5], grid()),
        lambda: regions.mac_fb_region(mac, [0.5], [0.5], rho_grid=grid()),
        lambda: regions.mac_nofb_region(mac, grid(), [0.5]),
        lambda: regions.mac_nofb_region(mac, [0.5], grid()),
        lambda: harness.run_experiment("dpc", dpc, grid(), block, 5, plan),
        lambda: harness.sweep("dpc", dpc, grid(), block, 5, plan),
        lambda: harness.sweep("noisy", noisy, grid(), block, 5, plan),
        lambda: harness.sweep("mac", mac, grid(), BlockConfig(10, rate_fraction=0.5), 5, plan),
        lambda: harness.sweep("mac", mac, [0.5], BlockConfig(10, rate_fraction=0.5), 5, plan,
                              beta_grid=grid()),
    ]


@settings(max_examples=100, deadline=None)
@given(grid=ANY_GRID)
def test_a_grid_or_grid_count_returns_or_raises_a_config_error(grid):
    # a float grid, a rho_grid of 5 or a count of "3" raised TypeError, and a
    # count of True gave a one-point grid
    shape, values = grid
    for call in _grid_calls(lambda: GRID_SHAPES[shape](values)):
        try:
            call()
        except ConfigError:
            pass


ACC, MAC = DpcParams(10, 10, 5), MacParams(10, 10, 10, 5)
BLOCK, PLAN = BlockConfig(10, rate=0.2), harness.RandomPlan(0)
BAD_GRID_CALLS = {
    # call: (the field its ConfigError names, whether it is EmptyGrid)
    "unit_grid('3')": (lambda: regions.unit_grid("3"), "grid", False),
    "unit_grid(None)": (lambda: regions.unit_grid(None), "grid", False),
    "unit_grid(2.5)": (lambda: regions.unit_grid(2.5), "grid", False),
    "unit_grid(True)": (lambda: regions.unit_grid(True), "grid", False),
    "unit_grid(0)": (lambda: regions.unit_grid(0), "grid", True),
    "unit_grid(2**63)": (lambda: regions.unit_grid(2**63), "grid", False),
    "boundary_sweep(0.5)": (lambda: regions.boundary_sweep(ACC, 0.5), "gammas", False),
    "boundary_sweep(None)": (lambda: regions.boundary_sweep(ACC, None), "gammas", False),
    "boundary_sweep([])": (lambda: regions.boundary_sweep(ACC, []), "gammas", True),
    "mac_fb_region(rho_grid=5)": (lambda: regions.mac_fb_region(MAC, [.5], [.5], rho_grid=5),
                                  "rho_grid", False),
    "mac_fb_region(beta_grid=None)": (lambda: regions.mac_fb_region(MAC, [.5], None),
                                      "beta_grid", False),
    "mac_fb_region(rho_grid=())": (lambda: regions.mac_fb_region(MAC, [.5], [.5], rho_grid=()),
                                   "rho_grid", True),
    "mac_nofb_region(0.5, 0.5)": (lambda: regions.mac_nofb_region(MAC, .5, .5),
                                  "gamma_grid", False),
    "sweep(0.5)": (lambda: harness.sweep("dpc", ACC, 0.5, BLOCK, 5, PLAN), "gamma_grid", False),
    "sweep(beta_grid=3)": (lambda: harness.sweep("mac", MAC, [.5], BLOCK, 5, PLAN, beta_grid=3),
                           "beta_grid", False),
    "run_experiment(PowerSplit)": (
        lambda: harness.run_experiment("dpc", ACC, PowerSplit(.5), BLOCK, 5, PLAN),
        "splits", False),
    "run_experiment(None)": (lambda: harness.run_experiment("dpc", ACC, None, BLOCK, 5, PLAN),
                             "splits", False),
}


@pytest.mark.parametrize("name", list(BAD_GRID_CALLS))
def test_a_bad_grid_is_a_config_error_naming_it(name):
    # each of these ended in a TypeError traceback, or (True) gave a one-point grid
    call, field, empty = BAD_GRID_CALLS[name]
    with pytest.raises(ConfigError) as info:
        call()
    assert info.value.field == field and isinstance(info.value, EmptyGrid) == empty


def test_a_count_below_1_is_an_empty_grid_and_keeps_its_text():
    with pytest.raises(EmptyGrid, match="^trials must be a positive integer, got 0$"):
        params.check_count("trials", 0)
    with pytest.raises(ConfigError, match=r"^grid must be a positive integer, got 2\.5$") as info:
        params.check_count("grid", 2.5)
    assert not isinstance(info.value, EmptyGrid)


HUGE = 10**5000  # 16,610 bits, past the 4,300 digits Python prints of an integer
HUGE_INTEGER_CALLS = {
    # call: the field its ConfigError names
    "check_count(-HUGE)": (lambda: params.check_count("trials", -HUGE), "trials"),
    "check_count([HUGE])": (lambda: params.check_count("trials", [HUGE]), "trials"),
    "check_seed(HUGE)": (lambda: params.check_seed("seed", HUGE), "seed"),
    "check_flag(HUGE)": (lambda: params.check_flag("paper_sgn", HUGE), "paper_sgn"),
    "check_blocklength(-HUGE)": (lambda: params.check_blocklength("n", -HUGE), "n"),
    "unit_grid(HUGE)": (lambda: regions.unit_grid(HUGE), "grid"),
    "RunConfig(scheme=HUGE)": (lambda: RunConfig(HUGE, ACC, PowerSplit(.5), BLOCK, 5, 0),
                               "scheme"),
    "validate(scheme=HUGE)": (lambda: validate({"P": 10, "Q": 10, "sigma2": 5}, HUGE), "scheme"),
    "run_experiment(trials=HUGE)": (
        lambda: harness.run_experiment("dpc", ACC, [PowerSplit(.5)], BLOCK, HUGE, PLAN),
        "trials"),
    "RandomPlan(HUGE)": (lambda: harness.RandomPlan(HUGE), "seed"),
    "key(HUGE, 0)": (lambda: PLAN.key(HUGE, 0), "trial"),
    "key(0, HUGE)": (lambda: PLAN.key(0, HUGE), "component"),
    "normal_block(HUGE)": (lambda: PLAN.normal_block(HUGE, 0, np.empty(3)), "trial"),
    "message(HUGE)": (lambda: PLAN.message(HUGE, 0, 5), "trial"),
    "messages(HUGE)": (lambda: PLAN.messages(HUGE, HUGE + 2, 0, [5]), "trial"),
}


@pytest.mark.parametrize("name", list(HUGE_INTEGER_CALLS))
def test_an_integer_too_long_to_print_is_a_config_error_naming_its_field(name):
    # formatting the integer into the message raised ValueError ("Exceeds the
    # limit (4300 digits) for integer string conversion"); it is shown by bits
    call, field = HUGE_INTEGER_CALLS[name]
    shown = "(an|a negative) integer of 16610 bits|got a list too long to print$"
    with pytest.raises(ConfigError, match=shown) as info:
        call()
    assert info.value.field == field


@pytest.mark.parametrize("flag", ["False", 1, None, np.True_], ids=repr)
def test_a_sign_rule_that_is_not_a_bool_is_rejected(flag):
    # "False" selected the paper's rule, which silenced encoder 2
    runs = [lambda: sk_dpmac.mac_coefficients(MAC, .8, .8, 20, paper_sgn=flag),
            lambda: harness.run_experiment("mac", MAC, [PowerSplit(.8, .8)], BLOCK, 5, PLAN,
                                           paper_sgn=flag),
            lambda: harness.run_experiment("dpc", ACC, [PowerSplit(.5)], BLOCK, 5, PLAN,
                                           paper_sgn=flag),
            lambda: harness.sweep("mac", MAC, [.8], BLOCK, 5, PLAN, paper_sgn=flag)]
    for run in runs:
        with pytest.raises(ConfigError, match="^paper_sgn must be True or False") as info:
            run()
        assert info.value.field == "paper_sgn"


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_sign_rule_runs(flag):
    coeffs = sk_dpmac.mac_coefficients(MAC, .8, .8, 20, paper_sgn=flag)
    assert coeffs.paper_sgn is flag
    (report,) = harness.run_experiment("mac", MAC, [PowerSplit(.8, .8)], BLOCK, 5, PLAN,
                                       paper_sgn=flag)
    assert report.trials == 5

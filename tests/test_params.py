import dataclasses
import math

import pytest

from dpsk.errors import (
    BlocklengthTooSmall,
    ConfigError,
    NegativeVariance,
    PowerOutOfRange,
    SplitOutOfRange,
)
from dpsk import output, params
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

"""Validated parameter containers and configuration handling.

Every container here is frozen and validates eagerly in ``__post_init__``,
so a value that made it into one of these types can be handed to any other
module without re-checking. Construction failures raise the structured
errors from :mod:`dpsk.errors` with the offending field named.

Configuration files are flat JSON objects whose keys are exactly the ones
in :data:`CONFIG_KEYS`. :func:`validate` turns such a mapping into typed
containers, inferring the scheme from the keys present unless told
otherwise. Serializing a validated configuration and re-parsing it yields
identical values bit for bit (floats survive the JSON round trip via repr).
"""

import dataclasses
import functools
import json
import math

from .errors import (
    BlocklengthTooSmall,
    ConfigError,
    NegativeVariance,
    PowerOutOfRange,
    SplitOutOfRange,
)

#: Allowed configuration keys, in canonical serialization order.
CONFIG_KEYS = (
    "P",
    "P1",
    "P2",
    "Q",
    "sigma2",
    "sigma_z2",
    "gamma",
    "beta",
    "n",
    "rate",
    "rate_fraction",
    "trials",
    "seed",
)

DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 0

# Message-set sizes must stay drawable as int64 uniforms.
_MAX_RATE_EXPONENT = 62.0

# Range of every nonzero channel value (P, P1, P2, Q, sigma2, sigma_z2). The
# closed forms and loop constants form products and ratios of several channel
# terms, such as 12 gamma P omega'^2 with omega'^2 ~ P / (kappa Q); within 50
# decades of 1 each, these stay finite and nonzero in float64.
_CHANNEL_RANGE = (1e-50, 1e50)


def _require_number(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}", field=name)
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ConfigError(f"{name} must be finite, got {value!r}", field=name)
    return value


def _range_error(name, value):
    """Why a nonzero ``value`` lies outside the channel range; None if it does not."""
    low, high = _CHANNEL_RANGE
    if value != 0.0 and not low <= value <= high:
        return f"a nonzero {name} must lie in [{low:g}, {high:g}], got {value}"


def _check_power(name, value):
    value = _require_number(name, value)
    if value < 0.0:
        raise PowerOutOfRange(f"{name} must be >= 0, got {value}", field=name)
    if message := _range_error(name, value):
        raise PowerOutOfRange(message, field=name)
    return value


def _check_variance(name, value, strictly_positive=False):
    value = _require_number(name, value)
    if strictly_positive and value <= 0.0:
        raise NegativeVariance(f"{name} must be > 0, got {value}", field=name)
    if value < 0.0:
        raise NegativeVariance(f"{name} must be >= 0, got {value}", field=name)
    if message := _range_error(name, value):
        raise NegativeVariance(message, field=name)
    return value


def check_fraction(name, value):
    """A power-split fraction as a float; SplitOutOfRange outside [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise SplitOutOfRange(f"{name} must lie in [0, 1], got {value}", field=name)
    return float(value)


#: Check applied to each channel field; a channel validates its fields in
#: declaration order.
_CHANNEL_CHECKS = {
    "P": _check_power,
    "P1": _check_power,
    "P2": _check_power,
    "Q": _check_variance,
    "sigma2": functools.partial(_check_variance, strictly_positive=True),
    "sigma_z2": _check_variance,
}


class _Channel:
    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = _CHANNEL_CHECKS[field.name](field.name, getattr(self, field.name))
            object.__setattr__(self, field.name, value)

    @classmethod
    def derived(cls, **values):
        """A channel built unchecked from values derived from a validated one,
        which may leave the user range (kappa Q = 1e-100 at Q = 1e-50, sigma_z2 = 1)."""
        channel = object.__new__(cls)
        for field in dataclasses.fields(cls):
            object.__setattr__(channel, field.name, values[field.name])
        return channel


@dataclasses.dataclass(frozen=True)
class DpcParams(_Channel):
    """Single-user channel: power budget ``P``, state variance ``Q``,
    channel-noise variance ``sigma2``.

    ``P`` and ``Q`` may be zero (degenerate but well defined); ``sigma2``
    must be strictly positive.
    """

    P: float
    Q: float
    sigma2: float


@dataclasses.dataclass(frozen=True)
class MacParams(_Channel):
    """Two-encoder channel: per-encoder budgets ``P1``, ``P2``, shared state
    variance ``Q``, channel-noise variance ``sigma2``."""

    P1: float
    P2: float
    Q: float
    sigma2: float


@dataclasses.dataclass(frozen=True)
class NoisyObsParams(_Channel):
    """Single-user channel whose transmitter sees the state through
    additive noise of variance ``sigma_z2``."""

    P: float
    Q: float
    sigma2: float
    sigma_z2: float


@dataclasses.dataclass(frozen=True)
class PowerSplit:
    """Fraction of each transmitter's power spent on the message.

    ``gamma`` applies to the (first) encoder, ``beta`` to the second one in
    the two-encoder scheme; both live in [0, 1]. The remainder of each
    budget re-transmits a scaled copy of the channel state.
    """

    gamma: float
    beta: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "gamma", check_fraction("gamma", _require_number("gamma", self.gamma))
        )
        if self.beta is not None:
            object.__setattr__(
                self, "beta", check_fraction("beta", _require_number("beta", self.beta))
            )


@dataclasses.dataclass(frozen=True)
class BlockConfig:
    """Block length and target rate.

    Exactly one of ``rate`` (bits per channel use) or ``rate_fraction``
    (multiple of the scheme's theoretical cap for the given parameters) may
    be set; with neither, the block carries no message (rate 0, M = 1).
    """

    n: int
    rate: float | None = None
    rate_fraction: float | None = None

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ConfigError(f"n must be an integer, got {self.n!r}", field="n")
        if self.n < 2:
            raise BlocklengthTooSmall(f"n must be >= 2, got {self.n}", field="n")
        if self.rate is not None and self.rate_fraction is not None:
            raise ConfigError("rate and rate_fraction are mutually exclusive", field="rate")
        if self.rate is not None:
            rate = _require_number("rate", self.rate)
            if rate < 0.0:
                raise ConfigError(f"rate must be >= 0, got {rate}", field="rate")
            object.__setattr__(self, "rate", rate)
        if self.rate_fraction is not None:
            frac = _require_number("rate_fraction", self.rate_fraction)
            if frac < 0.0:
                raise ConfigError(
                    f"rate_fraction must be >= 0, got {frac}", field="rate_fraction"
                )
            object.__setattr__(self, "rate_fraction", frac)


def resolve_block(block, cap_bits):
    """Resolve a :class:`BlockConfig` against a capacity reference.

    Returns ``(rate, M)`` where ``M = round(2**(n*rate)) >= 1`` is the
    message-set size actually simulated.
    """
    if block.rate is not None:
        rate = block.rate
    elif block.rate_fraction is not None:
        rate = block.rate_fraction * cap_bits
    else:
        rate = 0.0
    exponent = block.n * rate
    if exponent > _MAX_RATE_EXPONENT:
        raise ConfigError(
            f"n*rate = {exponent:.3f} exceeds {_MAX_RATE_EXPONENT:.0f} bits; "
            "message set would not fit in int64",
            field="rate",
        )
    M = int(round(2.0**exponent))
    return rate, max(M, 1)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A fully validated simulation configuration."""

    scheme: str
    channel: DpcParams | MacParams | NoisyObsParams
    split: PowerSplit
    block: BlockConfig | None
    trials: int
    seed: int


#: Channel container of each scheme; its fields are the channel keys.
CHANNELS = {"dpc": DpcParams, "mac": MacParams, "noisy": NoisyObsParams}

_FOREIGN_KEYS = {
    "dpc": ("P1", "P2", "beta", "sigma_z2"),
    "mac": ("P", "sigma_z2"),
    "noisy": ("P1", "P2", "beta"),
}


def _infer_scheme(raw):
    if "P1" in raw or "P2" in raw or "beta" in raw:
        return "mac"
    if "sigma_z2" in raw:
        return "noisy"
    return "dpc"


def _required(raw, key, scheme):
    if key not in raw:
        raise ConfigError(f"{key} is required for the {scheme} scheme", field=key)
    return raw[key]


def resolve_scheme(raw, scheme=None):
    """Scheme of a flat parameter mapping, inferred when ``scheme`` is None.

    Keys outside :data:`CONFIG_KEYS` and keys that belong to a different
    scheme are rejected rather than ignored.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration must be a mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}", field=unknown[0])
    if scheme is None:
        scheme = _infer_scheme(raw)
    if scheme not in CHANNELS:
        raise ConfigError(f"unknown scheme {scheme!r}", field="scheme")
    foreign = [k for k in _FOREIGN_KEYS[scheme] if k in raw]
    if foreign:
        raise ConfigError(
            f"key {foreign[0]!r} does not apply to the {scheme} scheme", field=foreign[0]
        )
    return scheme


def channel_from(raw, scheme):
    """The scheme's channel parameters; every channel key is required."""
    cls = CHANNELS[scheme]
    return cls(**{f.name: _required(raw, f.name, scheme) for f in dataclasses.fields(cls)})


def split_from(raw, scheme):
    """The power split; the two-encoder scheme also needs beta."""
    gamma = _required(raw, "gamma", scheme)
    beta = _required(raw, "beta", scheme) if scheme == "mac" else None
    return PowerSplit(gamma=gamma, beta=beta)


def block_from(raw, scheme):
    """The block configuration, or None when no block key is given."""
    if not {"n", "rate", "rate_fraction"} & set(raw):
        return None
    if "n" not in raw:
        raise ConfigError("rate given without a block length n", field="n")
    block = BlockConfig(n=raw["n"], rate=raw.get("rate"), rate_fraction=raw.get("rate_fraction"))
    if scheme == "mac" and block.n < 3:
        raise BlocklengthTooSmall(
            f"the two-encoder scheme needs n >= 3, got {block.n}", field="n"
        )
    return block


def check_count(value, name):
    """A count such as ``trials`` or a grid size; ConfigError naming ``name``
    unless it is a positive integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}", field=name)
    return value


def trials_from(raw):
    return check_count(raw.get("trials", DEFAULT_TRIALS), "trials")


def check_seed(seed):
    """A master seed; ConfigError unless it is an integer in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed!r}", field="seed")
    return seed


def seed_from(raw):
    return check_seed(raw.get("seed", DEFAULT_SEED))


def validate(raw, scheme=None):
    """Validate a flat parameter mapping into a :class:`RunConfig`.

    ``raw`` uses the :data:`CONFIG_KEYS` vocabulary. When ``scheme`` is
    None it is inferred: P1/P2/beta select the two-encoder scheme,
    sigma_z2 the noisy-observation one, otherwise single-user.
    """
    scheme = resolve_scheme(raw, scheme)
    return RunConfig(
        scheme=scheme,
        channel=channel_from(raw, scheme),
        split=split_from(raw, scheme),
        block=block_from(raw, scheme),
        trials=trials_from(raw),
        seed=seed_from(raw),
    )


def to_config_dict(run_config):
    """Flatten a :class:`RunConfig` back to the configuration vocabulary."""
    out = {"trials": run_config.trials, "seed": run_config.seed}
    for part in (run_config.channel, run_config.split, run_config.block):
        if part is not None:
            out.update(dataclasses.asdict(part))
    return {key: out[key] for key in CONFIG_KEYS if out.get(key) is not None}


def load_config(path):
    """Read a JSON configuration file into a plain mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            raw = json.load(fp)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def dump_config(run_config, path):
    """Write a configuration JSON that round-trips through :func:`validate`."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(to_config_dict(run_config), fp, indent=2)
        fp.write("\n")

"""Validated parameter containers and configuration handling.

Each configuration key's check is declared once, in a table in
:data:`CONFIG_KEYS` order; a float key stores a zero of either sign as +0.0.
Every container here is frozen, runs in ``__post_init__`` the check of each
field named like a key and spells out only the rules that tie fields
together, so a value in one of these types needs no re-checking elsewhere.
Failures raise the structured errors from :mod:`dpsk.errors` with the
offending field named.

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
import sys

from .errors import (
    BlocklengthTooSmall,
    ConfigError,
    EmptyGrid,
    NegativeVariance,
    PowerOutOfRange,
    SplitOutOfRange,
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


def shown(value):
    """``repr(value)``, or for an integer past the 4,300 digits Python prints, its bit count."""
    try:
        return repr(value)
    except ValueError:  # Exceeds the limit (4300 digits) for integer string conversion
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def _require_number(name, value, nan=False):
    """A finite number as a float (NaN too if ``nan``); an integer beyond float64 reads as inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {shown(value)}", field=name)
    try:
        value = float(value)
    except OverflowError:  # an integer beyond float64
        value = math.inf
    if math.isinf(value) or math.isnan(value) and not nan:
        raise ConfigError(f"{name} must be finite, got {value!r}", field=name)
    return value + 0.0  # -0.0 + 0.0 is +0.0; every other float is unchanged


def _check_channel(name, value, power=False, positive=False):
    """A channel value: zero (unless ``positive``) or within the channel range;
    a fault raises PowerOutOfRange for a ``power``, NegativeVariance otherwise."""
    value = _require_number(name, value)
    low, high = _CHANNEL_RANGE
    if positive and value <= 0.0:
        message = f"{name} must be > 0, got {value}"
    elif value < 0.0:
        message = f"{name} must be >= 0, got {value}"
    elif value != 0.0 and not low <= value <= high:
        message = f"a nonzero {name} must lie in [{low:g}, {high:g}], got {value}"
    else:
        return value
    if power:
        raise PowerOutOfRange(message, field=name)
    raise NegativeVariance(message, field=name)


def check_fraction(name, value):
    """A fraction such as ``gamma``, ``beta`` or ``rho`` as a float; ConfigError naming ``name``
    for a non-number or an infinity, SplitOutOfRange outside [0, 1], NaN included."""
    value = _require_number(name, value, nan=True)
    if not 0.0 <= value <= 1.0:
        raise SplitOutOfRange(f"{name} must lie in [0, 1], got {value}", field=name)
    return value


def check_blocklength(name, value, shortest=2):
    """A block length: ConfigError naming ``name`` unless an integer within float64's range,
    where n*rate and the finite-n targets are formed, and BlocklengthTooSmall below
    ``shortest``, one start slot per message loop and one more (1 with no loop)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {shown(value)}", field=name)
    if value < shortest:
        raise BlocklengthTooSmall(f"{name} = {shown(value)} is too short: a block needs "
                                  f"{name} >= {shortest}", field=name)
    if value > sys.float_info.max:
        raise ConfigError(
            f"{name} must lie within float64's range (<= {sys.float_info.max:.4g}), "
            f"got an integer of {value.bit_length()} bits",
            field=name,
        )
    return value


def _check_rate(name, value):
    value = _require_number(name, value)
    if value < 0.0:
        raise ConfigError(f"{name} must be >= 0, got {value}", field=name)
    return value


def check_count(name, value):
    """A count such as ``trials`` or a grid size; ConfigError naming ``name`` unless
    it is a positive integer, EmptyGrid for an integer below 1, which asks for nothing."""
    integer = isinstance(value, int) and not isinstance(value, bool)
    if not (integer and value >= 1):
        error = EmptyGrid if integer else ConfigError
        raise error(f"{name} must be a positive integer, got {shown(value)}", field=name)
    return value


def check_grid(name, values):
    """A grid such as ``gamma_grid`` or ``splits`` as a non-empty list; ConfigError naming
    ``name`` unless it iterates, EmptyGrid if empty. Each point is checked where it is used."""
    try:
        points = list(values)
    except TypeError as exc:  # 'float' object is not iterable
        raise ConfigError(f"{name} must be a sequence: {exc}", field=name) from None
    if not points:
        raise EmptyGrid(f"{name} must hold at least one point", field=name)
    return points


def check_flag(name, value):
    """A switch such as ``paper_sgn``; ConfigError naming ``name`` unless a bool."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be True or False, got {shown(value)}", field=name)
    return value


def check_seed(name, value):
    """A master seed; ConfigError naming ``name`` unless an integer in [0, 2**64)."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ConfigError(f"{name} must be a 64-bit unsigned integer, got {shown(value)}",
                          field=name)
    return value


#: The check of each configuration key, in canonical serialization order:
#: ``check(name, value)`` returns the value as stored or raises naming the key.
_CHECKS = {
    "P": functools.partial(_check_channel, power=True),
    "P1": functools.partial(_check_channel, power=True),
    "P2": functools.partial(_check_channel, power=True),
    "Q": _check_channel,
    "sigma2": functools.partial(_check_channel, positive=True),
    "sigma_z2": _check_channel,
    "gamma": check_fraction,
    "beta": check_fraction,
    "n": check_blocklength,
    "rate": _check_rate,
    "rate_fraction": _check_rate,
    "trials": check_count,
    "seed": check_seed,
}

#: Allowed configuration keys, in canonical serialization order.
CONFIG_KEYS = tuple(_CHECKS)


class _Checked:
    """Base of the containers: each field named like a configuration key
    passes that key's check, unless it defaults to None and is None."""

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name in _CHECKS and not (value is None and field.default is None):
                object.__setattr__(self, field.name, _CHECKS[field.name](field.name, value))


class _Channel(_Checked):
    #: The scheme's power-split fractions, one per encoder (a class
    #: attribute, not a field, so ``asdict`` and the config echo omit it).
    SPLIT = ("gamma",)

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

    SPLIT = ("gamma", "beta")

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
class PowerSplit(_Checked):
    """Fraction of each transmitter's power spent on the message.

    ``gamma`` applies to the (first) encoder, ``beta`` to the second one in
    the two-encoder scheme; both live in [0, 1]. The remainder of each
    budget re-transmits a scaled copy of the channel state.
    """

    gamma: float
    beta: float | None = None


@dataclasses.dataclass(frozen=True)
class BlockConfig(_Checked):
    """Block length and target rate.

    Exactly one of ``rate`` (bits per channel use) or ``rate_fraction``
    (multiple of the scheme's theoretical cap for the given parameters) may
    be set; with neither, the block carries no message (rate 0, M = 1).
    """

    n: int
    rate: float | None = None
    rate_fraction: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.rate is not None and self.rate_fraction is not None:
            raise ConfigError("rate and rate_fraction are mutually exclusive", field="rate")


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
    return rate, round(2.0**exponent)


#: Channel container of each scheme; its fields and split fractions are the
#: scheme's own keys.
CHANNELS = {"dpc": DpcParams, "mac": MacParams, "noisy": NoisyObsParams}


@dataclasses.dataclass(frozen=True)
class RunConfig(_Checked):
    """A fully validated simulation configuration: the scheme's channel, a split
    setting exactly its split fractions and a block, if any, of one start slot
    per encoder and one more (after the block's own check, n >= 2)."""

    scheme: str
    channel: DpcParams | MacParams | NoisyObsParams
    split: PowerSplit
    block: BlockConfig | None
    trials: int
    seed: int

    def __post_init__(self):
        super().__post_init__()
        scheme = self.scheme
        if scheme not in CHANNELS:
            raise ConfigError(f"unknown scheme {shown(scheme)}", field="scheme")
        channel = CHANNELS[scheme]
        if not isinstance(self.channel, channel):
            got = type(self.channel).__name__
            raise ConfigError(f"{scheme} runs on {channel.__name__}, got {got}", field="scheme")
        for name, kind in (("split", PowerSplit), ("block", BlockConfig)):
            value = getattr(self, name)
            if not (isinstance(value, kind) or value is None and name == "block"):
                got = type(value).__name__
                raise ConfigError(f"{name} must be a {kind.__name__}, got {got}", field=name)
        for field in dataclasses.fields(self.split):
            needed = field.name in channel.SPLIT
            if needed == (getattr(self.split, field.name) is None):
                rule = "is required for" if needed else "does not apply to"
                raise ConfigError(f"{field.name} {rule} the {scheme} scheme", field=field.name)
        if self.block is not None:
            check_blocklength("n", self.block.n, len(channel.SPLIT) + 1)


def _required(raw, key, scheme):
    if key not in raw:
        raise ConfigError(f"{key} is required for the {scheme} scheme", field=key)
    return raw[key]


def resolve_scheme(raw, scheme=None):
    """Scheme of a flat parameter mapping, inferred when ``scheme`` is None.

    Keys outside :data:`CONFIG_KEYS` and keys that belong to a different
    scheme are rejected rather than ignored. The inferred scheme is the one
    whose keys leave the fewest given keys out, the one with fewer keys on
    a tie.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration must be a mapping, got {type(raw).__name__}")
    for key in raw:
        if not isinstance(key, str):
            raise ConfigError(f"configuration keys must be strings, got {shown(key)}")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}", field=unknown[0])
    own = {s: {f.name for f in dataclasses.fields(c)} | set(c.SPLIT) for s, c in CHANNELS.items()}
    if scheme is None:
        scheme = min(own, key=lambda s: (len(set(raw) - own[s]), len(own[s])))
    if scheme not in CHANNELS:
        raise ConfigError(f"unknown scheme {shown(scheme)}", field="scheme")
    others = set().union(*own.values()) - own[scheme]
    foreign = [k for k in CONFIG_KEYS if k in raw and k in others]
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
    """The power split; every split fraction of the scheme is required."""
    return PowerSplit(**{name: _required(raw, name, scheme) for name in CHANNELS[scheme].SPLIT})


def block_from(raw):
    """The block configuration, or None when no block key is given."""
    if not {"n", "rate", "rate_fraction"} & set(raw):
        return None
    if "n" not in raw:
        raise ConfigError("rate given without a block length n", field="n")
    return BlockConfig(n=raw["n"], rate=raw.get("rate"), rate_fraction=raw.get("rate_fraction"))


def validate(raw, scheme=None):
    """Validate a flat parameter mapping into a :class:`RunConfig`.

    ``raw`` uses the :data:`CONFIG_KEYS` vocabulary. When ``scheme`` is
    None it is inferred by :func:`resolve_scheme`.
    """
    scheme = resolve_scheme(raw, scheme)
    return RunConfig(
        scheme=scheme,
        channel=channel_from(raw, scheme),
        split=split_from(raw, scheme),
        block=block_from(raw),
        trials=raw.get("trials", DEFAULT_TRIALS),
        seed=raw.get("seed", DEFAULT_SEED),
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
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


"""Exception hierarchy shared by every module in the package.

Two layers matter to callers: ``ConfigError`` covers anything wrong with
user-supplied parameters or configuration (the CLI maps it to exit code 2),
while other ``DpskError`` subclasses signal runtime misuse of the library
surface (exit code 1).
"""


class DpskError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DpskError):
    """Invalid parameter or configuration value.

    ``field`` names the offending entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NegativeVariance(ConfigError):
    """A variance-like quantity (Q, sigma2, sigma_z2) is out of range."""


class PowerOutOfRange(ConfigError):
    """A power budget (P, P1, P2) is negative or, if nonzero, outside [1e-50, 1e50]."""


class SplitOutOfRange(ConfigError):
    """A power-split fraction lies outside [0, 1]."""


class BlocklengthTooSmall(ConfigError):
    """Block length below the scheme's minimum (2 single-user, 3 MAC)."""


class DegenerateSplit(DpskError):
    """No message power: gamma*P (or beta*P2) is zero but a message was asked for."""


class MessageOutOfRange(DpskError):
    """Message index W outside 1..M."""


class LengthMismatch(DpskError):
    """A sequence argument does not have the expected length."""


class EmptyGrid(DpskError):
    """A region sweep was requested over an empty grid."""

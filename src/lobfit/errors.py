"""Exception taxonomy shared by the lobfit modules.

Every error raised on purpose by this package derives from LobfitError,
so callers can catch one base class at pipeline boundaries.  The feed
codec errors additionally share the FormatError base: anything that goes
wrong while parsing bytes is a FormatError, which the CLI maps to the
"bad input" exit code.
"""


class LobfitError(Exception):
    """Base class for all lobfit errors."""


# --- feed / wire format ---

class FormatError(LobfitError):
    """Malformed bytes in the wire format."""


class TruncatedFrame(FormatError):
    """Frame or message body ends before its declared length."""


class BadMagic(FormatError):
    """Frame header does not start with the expected magic."""


class UnknownMessageKind(FormatError):
    """Message kind byte is not one of the defined codes."""


class LengthMismatch(FormatError):
    """Message length prefix disagrees with the kind's fixed layout."""


class ZeroQuantity(FormatError):
    """Quantity field is zero where a positive quantity is required."""


class ZeroPrice(FormatError):
    """Price field is zero where a positive price is required."""


# --- order book ---

class BookError(LobfitError):
    """Order book cannot apply a message."""


class UnknownOrderId(BookError):
    """Message references an order id that is not resting in the book."""


class DuplicateOrderId(BookError):
    """Add or replace would insert an order id that already exists."""


class OverCancel(BookError):
    """Cancel or execute quantity exceeds the order's remaining quantity."""


class MissingReference(BookError):
    """Tick distance requested but the reference side has no orders."""


# --- rates ---

class EmptyBucket(LobfitError):
    """Density or ratio requested for a bucket with no observations."""


# --- distributions / fitting ---

class DomainError(LobfitError):
    """Parameter or argument outside the mathematical domain."""


class DegenerateData(LobfitError):
    """Input density cannot identify the model parameters."""


class NonConvergence(LobfitError):
    """Optimizer failed to produce a usable estimate from any start."""


# --- synthetic data ---

class SpecError(LobfitError):
    """Generator configuration is invalid or internally inconsistent."""


# --- statistics ---
# stats.LengthMismatch lives in lobfit.stats to keep its natural name
# without colliding with the wire-format error above.

class InsufficientData(LobfitError):
    """Sample too small for the requested test."""


class ZeroVariance(LobfitError):
    """Both samples are constant with different means; t is undefined."""


class AllZero(LobfitError):
    """Chi-square input has no mass after integerization."""


class MissingTicks(LobfitError):
    """Cancellation bucket lacks observations in some of the 10 ticks."""

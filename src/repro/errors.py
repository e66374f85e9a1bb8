"""Exception hierarchy for the GalioT reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers embedding the library can catch a single base class. Subclasses are
split by subsystem: configuration problems, PHY decode failures, gateway
resource limits, and registry lookups. :func:`checked_count` is the one
rule by which a count argument becomes an ``int`` or raises
:class:`ConfigurationError`.
"""

from __future__ import annotations

from numbers import Integral


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A parameter combination is invalid (e.g. non-integer oversampling)."""


def checked_count(name: str, value: object, minimum: int = 1) -> int:
    """``value`` as a count: an integer (NumPy's included) >= ``minimum``.

    An ``Integral`` test, not ``value < minimum`` alone: NaN passes that
    comparison, ``int()`` raises a bare ``ValueError`` on NaN and
    truncates 2.5 to 2, and inf is no count either.

    Raises:
        ConfigurationError: for anything else, naming ``name``.
    """
    if isinstance(value, Integral) and int(value) >= minimum:
        return int(value)
    raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


class DecodeError(ReproError):
    """A PHY decoder could not produce a frame from the given samples."""


class FrameSyncError(DecodeError):
    """The decoder could not find the frame's preamble / sync word."""


class ChecksumError(DecodeError):
    """A frame was demodulated but failed its integrity check."""


class CapacityError(ReproError):
    """A modelled resource (backhaul link, ADC range) was exceeded."""


class ContractViolationError(ReproError):
    """A runtime signal contract (:mod:`repro.contracts`) was violated.

    Raised only when the process-wide sanitize mode is ``"raise"``; in
    ``"warn"`` mode the same condition emits a
    :class:`~repro.contracts.ContractWarning` instead.
    """


class InjectedFault(DecodeError):
    """A scheduled fault from a :class:`~repro.faults.FaultPlan` fired.

    Raised by cloud decode workers for *poison* segments: deterministic
    per segment, so a retry fails identically and the segment ends up
    quarantined rather than looping.
    """


class UnknownTechnologyError(ReproError, KeyError):
    """A technology name is not present in the PHY registry."""

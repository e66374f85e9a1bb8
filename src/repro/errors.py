"""Exception hierarchy for the GalioT reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers embedding the library can catch a single base class. Subclasses are
split by subsystem: configuration problems, PHY decode failures, gateway
resource limits, and registry lookups. :func:`checked_count` and
:func:`checked_positive` are the rules by which a count argument becomes
an ``int``, and a rate or period a positive finite ``float``, or raise
:class:`ConfigurationError`.
"""

from __future__ import annotations

import math
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


def checked_positive(name: str, value: float) -> float:
    """``value`` as a positive finite ``float``, such as a sample rate.

    Written so NaN fails too: every comparison with NaN is false, so a
    bare ``value <= 0`` check admits it.

    Raises:
        ConfigurationError: for zero, a negative value, inf or NaN,
            naming ``name``.
    """
    if not (0 < value < math.inf):
        raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


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

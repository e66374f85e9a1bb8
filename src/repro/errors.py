"""Exception hierarchy for the GalioT reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers embedding the library can catch a single base class. Subclasses are
split by subsystem: configuration problems, PHY decode failures, gateway
resource limits, and registry lookups.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A parameter combination is invalid (e.g. non-integer oversampling)."""


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

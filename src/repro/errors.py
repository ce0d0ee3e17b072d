"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration problems from simulation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigurationError(ReproError):
    """An architecture or experiment configuration is invalid.

    Raised eagerly at construction time (for example, a cache whose size is
    not a multiple of ``line_size * ways``, or a TDMA arbiter with a
    non-positive slot length) so that misconfiguration never silently
    produces meaningless timing results.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent or impossible state.

    This signals a bug in the model (for instance, a bus grant issued while
    the bus is busy) rather than a user mistake, and should never occur in
    normal operation.
    """


class ProgramError(ReproError):
    """A program/kernel description is malformed.

    Examples: an instruction with a negative latency, a memory operation
    whose address is not line aligned when alignment is required, or an
    empty loop body.
    """


class AnalysisError(ReproError):
    """An analysis step could not produce a result.

    Raised, for example, when a saw-tooth period cannot be detected because
    the ``k`` sweep does not cover at least one full period, or when a trace
    contains no requests for the observed core.
    """


class MethodologyError(ReproError):
    """A methodology-level experiment is inconsistent.

    Raised when experiment inputs are contradictory, such as asking for more
    contender kernels than available cores, or requesting confidence checks
    without enabling the performance monitoring counters.
    """


class AuditError(ReproError):
    """An audit could not be assembled or its artifacts are malformed.

    Raised when an audit target cannot be resolved (not a preset, not a
    configuration file, not a campaign directory), or when a ``flags.json``
    payload fails schema validation on load.  Individual audit *checks*
    never raise this — a failing check is a finding with a ``fail`` verdict,
    not an error.
    """

"""Exception hierarchy for the repro package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch one type to handle any
library-level failure while letting programming errors (``TypeError``,
``KeyError`` from misuse of plain containers, ...) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class ProgramError(ReproError):
    """A synthetic program / CFG is malformed (bad layout, dangling edge...)."""


class DecodeError(ProgramError):
    """An address does not decode to an instruction in the code image."""


class TraceError(ReproError):
    """A dynamic trace is malformed or inconsistent with its program."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent internal state."""


class ExperimentError(ReproError):
    """An experiment was misconfigured or referenced an unknown artifact."""


class ObservabilityError(ReproError):
    """A metric, event sink, or profiler was used inconsistently."""


class CheckpointError(ReproError):
    """A result store (``--checkpoint`` / ``--data-dir``) was misused."""


class ServiceError(ReproError):
    """A sweep-service request was malformed, rejected, or failed.

    Raised by :mod:`repro.service` on protocol violations (bad wire
    payloads), load-shedding rejections, and request-level failures
    relayed to a client.  Deterministic under the failure taxonomy —
    a malformed request reproduces identically on retry; the client
    retries *transport* failures (dead connections, 429/503), never
    ``ServiceError``.
    """


class JobTimeoutError(ReproError):
    """A sweep job exceeded its watchdog deadline.

    Classified as *transient* by the fault-tolerant sweep layer (unlike
    every other :class:`ReproError`): a hung worker is killed and the
    batch is requeued until its retry budget runs out.
    """


class InjectedFault(Exception):
    """A failure raised on purpose by :mod:`repro.core.faults`.

    Deliberately *not* a :class:`ReproError`: injected faults impersonate
    external failures (worker death, flaky I/O), which the retry
    classifier (:func:`repro.core.faults.is_transient`) treats differently from
    library errors.  ``transient`` mirrors that split: ``True`` means the
    sweep layer should retry, ``False`` models a deterministic simulation
    bug that must fail fast.
    """

    def __init__(self, message: str, transient: bool = True) -> None:
        super().__init__(message)
        self.transient = transient

    def __reduce__(self):
        # Exceptions pickle by (class, args) alone; without this a
        # non-transient fault crossing the process-pool boundary would
        # silently revert to the transient default and get retried.
        return (type(self), (self.args[0], self.transient))

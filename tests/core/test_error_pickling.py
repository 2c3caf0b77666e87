"""Pickle round-trips for every exception type in the failure taxonomy.

The PR 3 regression — ``InjectedFault`` losing its ``transient`` flag
when crossing a process-pool boundary — generalises to a
guarded invariant: *every* exception the library can raise must survive
``pickle`` with its type, message, attributes, and ``is_transient``
classification intact, at every protocol the pool might use.  The
static half of this guard is lint rule SIM003 (pool-picklable); this is
the runtime half, discovered from the modules themselves so a newly
added exception type is covered automatically.
"""

from __future__ import annotations

import pickle

import pytest

import repro.core.faults as faults_module
import repro.errors as errors_module
from repro.core.faults import is_transient
from repro.errors import InjectedFault, ReproError

PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


def _exception_types(module) -> list[type[BaseException]]:
    found = [
        obj
        for name, obj in sorted(vars(module).items())
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    ]
    assert found or module is faults_module, f"no exceptions in {module}"
    return found


ALL_TYPES = sorted(
    set(_exception_types(errors_module) + _exception_types(faults_module)),
    key=lambda cls: cls.__qualname__,
)


def test_discovery_sees_the_whole_taxonomy() -> None:
    names = {cls.__name__ for cls in ALL_TYPES}
    # Spot-check the corners: base, a mid-hierarchy type, the special cases.
    assert {"ReproError", "DecodeError", "JobTimeoutError",
            "InjectedFault"} <= names
    assert len(names) >= 11


@pytest.mark.parametrize(
    "exc_type", ALL_TYPES, ids=lambda cls: cls.__name__
)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_roundtrip_preserves_identity(exc_type, protocol) -> None:
    original = exc_type("synthetic failure for pickling")
    loaded = pickle.loads(pickle.dumps(original, protocol))
    assert type(loaded) is exc_type
    assert loaded.args == original.args
    assert str(loaded) == str(original)
    assert is_transient(loaded) == is_transient(original)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("transient", [True, False])
def test_injected_fault_keeps_transient_flag(protocol, transient) -> None:
    # The original regression: the non-default flag must not silently
    # revert to True on the far side of the pool.
    original = InjectedFault("boom", transient=transient)
    loaded = pickle.loads(pickle.dumps(original, protocol))
    assert loaded.transient is transient
    assert is_transient(loaded) is transient


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_cause_chains_do_not_survive_pickling(protocol) -> None:
    # Pickle drops __cause__/__context__: a worker's exception chain is
    # GONE on the parent side of the pool, so an error that crosses it
    # must carry what the caller needs in its own type and message.
    try:
        raise errors_module.ExperimentError("outer") from InjectedFault(
            "inner", transient=False
        )
    except errors_module.ExperimentError as outer:
        original = outer
    loaded = pickle.loads(pickle.dumps(original, protocol))
    assert loaded.__cause__ is None  # the chain is lost in transit


def test_every_taxonomy_type_is_classifiable() -> None:
    for exc_type in ALL_TYPES:
        exc = exc_type("x")
        verdict = is_transient(exc)
        if isinstance(exc, InjectedFault):
            assert verdict is True  # transient by default
        elif isinstance(exc, errors_module.JobTimeoutError):
            assert verdict is True
        elif isinstance(exc, ReproError):
            assert verdict is False

"""SIM003 (pool-picklable): positive and negative fixtures.

The positive cases are variations of the PR 3 ``InjectedFault.__reduce__``
regression: exception state that silently fails to cross the
process-pool boundary.
"""

from __future__ import annotations

import pytest

from tests.lint.conftest import rule_ids, run_rules

pytestmark = pytest.mark.lint


#: The shape of the original regression: a defaulted flag that is not
#: forwarded to super().__init__ and has no __reduce__.
REGRESSION = """
class RetryFault(Exception):
    def __init__(self, message, transient=True):
        super().__init__(message)
        self.transient = transient
"""

NESTED = """
def handler():
    class LocalError(Exception):
        pass
    raise LocalError("boom")
"""

DROPPED_ARG = """
class CellError(Exception):
    def __init__(self, benchmark, attempt):
        super().__init__(benchmark)
        self.attempt = attempt
"""

POSITIVE = [
    pytest.param(REGRESSION, id="injectedfault-regression"),
    pytest.param(NESTED, id="function-nested-exception"),
    pytest.param(DROPPED_ARG, id="dropped-second-arg"),
]


WITH_REDUCE = """
class RetryFault(Exception):
    def __init__(self, message, transient=True):
        super().__init__(message)
        self.transient = transient

    def __reduce__(self):
        return (type(self), (self.args[0], self.transient))
"""

FORWARDS_ALL = """
class CellError(Exception):
    def __init__(self, benchmark, attempt):
        super().__init__(benchmark, attempt)
"""

STAR_FORWARD = """
class AnyError(Exception):
    def __init__(self, *args):
        super().__init__(*args)
"""

PLAIN = """
class SweepError(Exception):
    \"\"\"No custom __init__: pickles by (class, args) just fine.\"\"\"
"""

NOT_EXCEPTION = """
def build():
    class Helper:
        pass
    return Helper
"""

NEGATIVE = [
    pytest.param(WITH_REDUCE, id="reduce-defined"),
    pytest.param(FORWARDS_ALL, id="forwards-all-args"),
    pytest.param(STAR_FORWARD, id="star-args-forward"),
    pytest.param(PLAIN, id="no-custom-init"),
    pytest.param(NOT_EXCEPTION, id="nested-non-exception"),
]


@pytest.mark.parametrize("source", POSITIVE)
def test_flags_unpicklable_exceptions(source: str) -> None:
    findings = run_rules(source, module="repro.core.fixture", select="SIM003")
    assert rule_ids(findings) == ["SIM003"]


@pytest.mark.parametrize("source", NEGATIVE)
def test_allows_picklable_exceptions(source: str) -> None:
    findings = run_rules(source, module="repro.core.fixture", select="SIM003")
    assert findings == []


def test_applies_outside_sim_modules_too() -> None:
    # Exceptions can cross the pool from anywhere in the library.
    findings = run_rules(REGRESSION, module="repro.report.svg", select="SIM003")
    assert rule_ids(findings) == ["SIM003"]


def test_recognises_taxonomy_bases() -> None:
    source = """
    class QuietError(ReproError):
        def __init__(self, message, code=0):
            super().__init__(message)
            self.code = code
    """
    findings = run_rules(source, module="repro.core.fixture", select="SIM003")
    assert rule_ids(findings) == ["SIM003"]

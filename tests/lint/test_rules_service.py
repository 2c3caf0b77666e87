"""SIM013 (service-hygiene): handlers never swallow errors or block the loop."""

from __future__ import annotations

import pytest

from tests.lint.conftest import rule_ids, run_rules

pytestmark = pytest.mark.lint

POSITIVE = [
    pytest.param(
        "def discard(path):\n"
        "    try:\n"
        "        os.unlink(path)\n"
        "    except:\n"
        "        return None\n",
        id="bare-except",
    ),
    pytest.param(
        "def load(path):\n"
        "    try:\n"
        "        return read(path)\n"
        "    except OSError:\n"
        "        pass\n",
        id="pass-only-handler",
    ),
    pytest.param(
        "async def backoff(self, job):\n"
        "    time.sleep(0.1)\n",
        id="time-sleep-in-async",
    ),
    pytest.param(
        "async def snapshot(self, path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n",
        id="open-in-async",
    ),
    pytest.param(
        "async def spawn(self, cmd):\n"
        "    return subprocess.run(cmd)\n",
        id="subprocess-in-async",
    ),
    pytest.param(
        "class Server:\n"
        "    async def probe(self, host):\n"
        "        return socket.create_connection((host, 80))\n",
        id="socket-connect-in-async-method",
    ),
]

NEGATIVE = [
    pytest.param(
        "def load(path):\n"
        "    try:\n"
        "        return read(path)\n"
        "    except OSError:\n"
        "        self.misses += 1\n"
        "        return None\n",
        id="counted-failure",
    ),
    pytest.param(
        "def discard(path):\n"
        "    with contextlib.suppress(FileNotFoundError):\n"
        "        os.unlink(path)\n",
        id="explicit-suppress",
    ),
    pytest.param(
        "async def backoff(self, job):\n"
        "    await asyncio.sleep(0.1)\n",
        id="asyncio-sleep",
    ),
    pytest.param(
        "def pause(seconds):\n"
        "    time.sleep(seconds)\n",
        id="blocking-in-sync-def",
    ),
    pytest.param(
        "async def run(self, pool, payload):\n"
        "    def work():\n"
        "        return open(payload).read()\n"
        "    return await loop.run_in_executor(pool, work)\n",
        id="blocking-in-nested-sync-def",
    ),
    pytest.param(
        "async def close(self):\n"
        "    try:\n"
        "        await self.writer.wait_closed()\n"
        "    except (ConnectionError, OSError):\n"
        "        return\n",
        id="typed-handler-with-return",
    ),
]


@pytest.mark.parametrize("source", POSITIVE)
def test_flags_hygiene_violations(source: str) -> None:
    findings = run_rules(source, module="repro.service.server", select="SIM013")
    assert rule_ids(findings) == ["SIM013"]


@pytest.mark.parametrize("source", NEGATIVE)
def test_allows_honest_handlers(source: str) -> None:
    findings = run_rules(source, module="repro.service.server", select="SIM013")
    assert findings == []


def test_nested_async_def_still_checked() -> None:
    # A nested *async* def runs on the loop too; the outer walk visits it.
    findings = run_rules(
        "async def outer(self):\n"
        "    async def inner():\n"
        "        time.sleep(1)\n"
        "    await inner()\n",
        module="repro.service.server",
        select="SIM013",
    )
    assert rule_ids(findings) == ["SIM013"]


def test_scoped_to_service_modules() -> None:
    # The runner legitimately sleeps between retries off-loop.
    findings = run_rules(
        "def pause(seconds):\n"
        "    try:\n"
        "        time.sleep(seconds)\n"
        "    except KeyboardInterrupt:\n"
        "        pass\n",
        module="repro.core.runner",
        select="SIM013",
    )
    assert findings == []


def test_suppressible_inline() -> None:
    findings = run_rules(
        "async def legacy(self):\n"
        "    time.sleep(0)  # simlint: disable=SIM013\n",
        module="repro.service.server",
        select="SIM013",
    )
    assert findings == []

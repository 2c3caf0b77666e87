"""repro.service: a crash-contained sweep job server with result caching.

The service turns sweep execution into shared infrastructure: a
long-lived asyncio server (``python -m repro.service``) owns a
content-addressed :class:`ResultStore` of finished cells, dedups
in-flight work by digest, schedules cells across one process pool with
per-client fairness, and survives — by design and by test — worker
crashes, hung cells, its own death (journal-backed request replay), and
on-disk corruption.  See ``docs/service.md``.
"""

from repro.core.store import RESULT_STORE_VERSION, ResultStore, cell_digest
from repro.service.client import RemoteRunner, ServiceClient
from repro.service.protocol import (
    DEFAULT_CLIENT,
    WIRE_VERSION,
    SweepRequest,
    SweepResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.service.recovery import JOURNAL_VERSION, RequestJournal
from repro.service.server import ServiceServer, SweepService, render_metrics

__all__ = [
    "DEFAULT_CLIENT",
    "JOURNAL_VERSION",
    "RESULT_STORE_VERSION",
    "RemoteRunner",
    "RequestJournal",
    "ResultStore",
    "ServiceClient",
    "ServiceServer",
    "SweepRequest",
    "SweepResponse",
    "SweepService",
    "WIRE_VERSION",
    "cell_digest",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "render_metrics",
]

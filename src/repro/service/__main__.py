"""``python -m repro.service``: run the sweep job server.

Binds, announces the resolved address on stdout (machine-readable, so
harnesses can bind port 0 and read back the ephemeral port), replays
any journalled requests from a previous crash, and serves until
``POST /v1/shutdown`` or SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.core.faults import FaultPlan
from repro.errors import ReproError
from repro.service.server import ServiceServer, SweepService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Sweep job server with content-addressed result caching.",
    )
    parser.add_argument(
        "--data-dir", required=True,
        help="state root (result store, request journal, artifact cache)",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:0",
        help="host:port (port 0 = ephemeral) or unix:<path> "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--max-workers", type=int, default=None,
        help="process-pool size (default: CPU count)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=256,
        help="max queued+active cells before 429 rejection "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="transient retries per cell (default: %(default)s)",
    )
    parser.add_argument("--backoff-base", type=float, default=0.1)
    parser.add_argument("--backoff-cap", type=float, default=2.0)
    parser.add_argument(
        "--job-timeout", type=float, default=None,
        help="watchdog seconds per cell attempt (default: none)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: <data-dir>/artifacts)",
    )
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPECS",
        help="comma-separated fault specs (chaos testing; see "
        "repro.core.faults)",
    )
    parser.add_argument(
        "--fault-state", default=None,
        help="shared fault-ticket directory (required with --inject-faults)",
    )
    return parser


async def _amain(args: argparse.Namespace) -> int:
    fault_plan = None
    if args.inject_faults:
        if not args.fault_state:
            print(
                "error: --inject-faults requires --fault-state",
                file=sys.stderr,
            )
            return 2
        fault_plan = FaultPlan.parse(args.inject_faults, args.fault_state)
    service = SweepService(
        data_dir=args.data_dir,
        max_workers=args.max_workers,
        queue_limit=args.queue_limit,
        retries=args.retries,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        job_timeout=args.job_timeout,
        cache_dir=args.cache_dir,
        fault_plan=fault_plan,
    )
    server = ServiceServer(service)
    await server.start(args.listen)
    if isinstance(server.address, tuple):
        host, port = server.address
        print(f"repro-service listening on {host}:{port}", flush=True)
    else:
        print(f"repro-service listening on unix:{server.address}", flush=True)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signum, service.request_stop)
    await server.serve_forever()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())

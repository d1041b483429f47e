"""Fresh-process side of the benchmark: one set-up probe, one repetition of
a batch workload, or one daemon host.  ``run.py`` starts it; the last line
of its output is a JSON object.

    python3 perfbench/child.py probe <workload> <scratch_dir>
    python3 perfbench/child.py rep <workload> <seed> <trace> <scratch_dir>
    python3 perfbench/child.py daemon <trace> <scratch_dir>

``ready`` in every reply is the ``time.monotonic()`` reading (system-wide
on Linux) at which imports and the session, pool or daemon were up; the
parent subtracts its own reading from just before it started the process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from workloads import check_report, crate_batch, report_counts, table1_programs  # noqa: E402

DAEMON_WORKERS = 2


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def _session(workload: str):
    from repro.service import VerifySession

    if workload == "table1-cold":
        return VerifySession(use_cache=False)
    return VerifySession(jobs=2, use_cache=False)


def _daemon(scratch: str):
    from repro.daemon.testing import run_daemon

    return run_daemon(
        workers=DAEMON_WORKERS,
        cache_dir=os.path.join(scratch, "cache"),
        # One generator stands for many independent users, all in the
        # default tenant; a per-tenant quota would throttle them as one.
        tenant_quota=0,
    )


def probe(workload: str, scratch: str) -> None:
    if workload == "daemon-mix":
        with _daemon(scratch):
            ready = time.monotonic()
    else:
        import repro.service  # noqa: F401

        _session(workload)
        ready = time.monotonic()
    emit({"ready": ready})


def rep(workload: str, seed: int, trace: bool, scratch: str) -> None:
    from repro.service import VerifyJob, verify_job

    session = _session(workload)
    ready = time.monotonic()
    ledger = None
    if trace:
        ledger = layers.install(dump_dir=scratch)
    programs = table1_programs() if workload == "table1-cold" else crate_batch(seed)
    jobs = [VerifyJob(source=p.source, name=p.name, only=p.only) for p in programs]
    reports, times = [], []
    started = time.perf_counter()
    with ledger.root() if ledger is not None else nullcontext():
        for job in jobs:
            before = time.perf_counter()
            reports.append(verify_job(job, session).to_dict())
            times.append(time.perf_counter() - before)
    wall = time.perf_counter() - started
    rows = []
    for program, report, elapsed in zip(programs, reports, times):
        verdicts = check_report(program, report)
        rows.append(
            {
                "name": program.name,
                "time": elapsed,
                "attempted": verdicts.attempted,
                "wrong": verdicts.wrong,
                "faults": verdicts.faults,
                "mismatches": list(verdicts.mismatches),
            }
        )
    result = {
        "ready": ready,
        "wall": wall,
        "programs": rows,
        "counts": report_counts(reports),
        "bytes": sum(len(p.source.encode("utf-8")) for p in programs),
    }
    if ledger is not None:
        result["ledger"] = layers.merge(ledger.totals(), scratch)
    emit(result)


def daemon(trace: bool, scratch: str) -> None:
    """Host a daemon until a line arrives on stdin, then shut it down."""
    dump_dir = os.path.join(scratch, "layers")
    os.makedirs(dump_dir, exist_ok=True)
    ledger = None
    if trace:
        # Installed before the daemon forks its workers, which inherit it.
        ledger = layers.install(dump_dir=dump_dir)
    with _daemon(scratch) as handle:
        emit({"ready": time.monotonic(), "url": handle.url})
        sys.stdin.readline()
    result = {}
    if ledger is not None:
        result["ledger"] = layers.merge(ledger.totals(), dump_dir)
    emit(result)


def main(argv) -> int:
    mode = argv[0]
    if mode == "probe":
        probe(argv[1], argv[2])
    elif mode == "rep":
        rep(argv[1], int(argv[2]), argv[3] == "1", argv[4])
    elif mode == "daemon":
        daemon(argv[1] == "1", argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

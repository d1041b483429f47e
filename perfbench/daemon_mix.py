"""Open-loop load for ``daemon-mix``: one generator thread sends each
request at its due time whatever the daemon's state, and one poller thread
checks every outstanding job through ``client.status``.

A request's latency runs from its *due* time to the ``finished`` time of
its terminal record, so a stalled generator or daemon charges the wait to
every later request, and the poll interval neither quantizes latency nor,
being well below the median latency, delays the observation much.  Both
processes read the same system clock; the record's ``time.time()`` stamps
are moved onto the generator's ``time.monotonic()`` scale.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from workloads import Request, Verdicts, check_report

POLL_INTERVAL_S = 0.01

#: How long after the last due time the poller keeps waiting for verdicts.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What the load generator saw of one request."""

    request: Request
    sent: float = 0.0  # monotonic, when the submit call started
    submit_s: float = 0.0  # duration of the submit call
    observed: Optional[float] = None  # monotonic, terminal record seen
    finished: Optional[float] = None  # monotonic, the record's finish time
    record: Dict[str, object] = field(default_factory=dict)
    refused: bool = False
    error: Optional[str] = None
    verdicts: Optional[Verdicts] = None

    def latency(self, start: float) -> Optional[float]:
        if self.finished is None:
            return None
        return self.finished - (start + self.request.due)

    @property
    def correct(self) -> bool:
        return self.verdicts is not None and self.verdicts.failed == 0


def run_stream(url: str, requests: List[Request]) -> tuple:
    """Send ``requests`` on schedule; returns ``(start, outcomes)``."""
    from repro.daemon import client

    outcomes = [Outcome(request) for request in requests]
    outstanding: Dict[int, str] = {}
    lock = threading.Lock()
    sending_done = threading.Event()

    def poll() -> None:
        deadline = None
        while True:
            with lock:
                batch = list(outstanding.items())
            if not batch and sending_done.is_set():
                return
            if sending_done.is_set():
                deadline = deadline or time.monotonic() + DRAIN_TIMEOUT_S
                if time.monotonic() > deadline:
                    return
            for index, job_id in batch:
                try:
                    record = client.status(url, job_id)
                except client.DaemonError as error:
                    record = {"state": "failed", "error": {"kind": error.kind}}
                if record.get("state") in ("done", "failed"):
                    outcome = outcomes[index]
                    outcome.observed = time.monotonic()
                    outcome.record = record
                    with lock:
                        del outstanding[index]
            time.sleep(POLL_INTERVAL_S)

    poller = threading.Thread(target=poll, name="perfbench-poller", daemon=True)
    wall_offset = time.time() - time.monotonic()
    start = time.monotonic() + 0.05
    poller.start()
    try:
        for index, outcome in enumerate(outcomes):
            request = outcome.request
            pause = start + request.due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            outcome.sent = time.monotonic()
            try:
                job_id = client.submit(
                    url,
                    request.program.source,
                    name=request.name,
                    only=request.program.only,
                )
            except client.DaemonError as error:
                outcome.refused = error.http_status in (429, 503)
                outcome.error = str(error)
                outcome.observed = time.monotonic()
                continue
            finally:
                outcome.submit_s = time.monotonic() - outcome.sent
            with lock:
                outstanding[index] = job_id
    finally:
        sending_done.set()
        poller.join(timeout=DRAIN_TIMEOUT_S + 10.0)
    for outcome in outcomes:
        if outcome.record.get("finished") is not None:
            outcome.finished = outcome.record["finished"] - wall_offset
        if outcome.record.get("state") == "done":
            outcome.verdicts = check_report(outcome.request.program, outcome.record["report"])
        elif outcome.error is None:
            outcome.error = f"job ended {outcome.record.get('state', 'unfinished')}"
    return start, outcomes

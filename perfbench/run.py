"""End-to-end benchmark of the verifier, with a separate traced per-layer run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the verifier is imported from ``src/``
and driven only through ``repro.service`` (``VerifySession``/``verify_job``)
and ``repro.daemon`` (``testing.run_daemon`` plus ``client``).

Workloads (``BENCHMARK.json`` lists the measured ones, each with the
one-line reason for it):

* ``table1-cold`` -- the nine Table-1 Flux programs (23 target functions),
  serial, result cache off, one fresh process per repetition.  Input does
  not depend on the seed.
* ``crates-jobs2`` -- a seeded batch of ``CRATE_BATCH_CRATES``
  ``crate``-profile fuzz crates, ``CRATE_TARGETS`` target functions each,
  ``VerifySession(jobs=2, use_cache=False)``, one fresh process per
  repetition of the same batch.  It runs on request but is not listed in
  ``BENCHMARK.json``: using both cores, it tracked the speed drift of a
  shared 2-vCPU VM so closely that its spread over ten runs exceeded the
  bounds.
* ``daemon-mix`` -- open-loop arrivals at ``DAEMON_RATE`` per second of
  ``small`` crates from a fixed corpus, in seeded order, to a daemon
  (``workers=2``, shared on-disk result cache) hosted in a child process;
  ``DAEMON_REPEAT_SHARE`` of the requests resubmit an earlier crate under
  a new job name.  Requests due in the first ``DAEMON_WARMUP_S`` seconds
  are checked but not timed.

With ``--trace 0`` the last line carries the end-to-end metrics; "program"
means a Table-1 program, a crate, or a daemon request respectively:

* ``setup_s`` -- median over fresh processes of process start to ready
  (imports plus session or daemon start); probes are spread over the run.
* ``wall_s`` -- first input submitted to last verdict: median over the
  repetitions (at least two); for ``daemon-mix`` the whole request stream.
* ``program_s_geomean`` -- geometric mean of time to verdict per program:
  its own verification time (median over repetitions) in a batch, due
  time to terminal record for a daemon request.
* ``latency_p50_s``, ``latency_p95_s`` -- percentiles of the time from
  submission to each program's verdict; a batch submits all its programs
  at once, so a program also waits for those before it.
* ``on_time_frac`` -- share of programs answered correctly within the
  workload's latency limit; a failed or refused request counts as late.
* ``peak_rss_mb`` -- the larger of this process's and the largest child's
  peak resident set.

``failed_frac`` (wrong, fault or refused over attempted) is printed with
them and is the ``failed``/``attempted`` pair of the result line; a wrong
verdict makes the run exit with code 1.  With ``--trace 1`` the run makes
one untraced and one traced pass over the same input and reports the
per-layer metrics of ``BENCHMARK.json`` (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("table1-cold", "crates-jobs2", "daemon-mix")

#: Set-up probes before the first repetition (or request stream) and after
#: each one.
PROBES_PER_SLOT = 2

#: Bounds on one child process and on the whole run, which must end within
#: 180 s however the verifier misbehaves.
CHILD_TIMEOUT_S = 150.0
RUN_TIMEOUT_S = 170.0

#: Latency charged to a request that failed or was refused.
FAILED_LATENCY_S = 60.0


class ChildFailed(RuntimeError):
    pass


def _on_alarm(signum, frame):
    raise ChildFailed(f"run exceeded {RUN_TIMEOUT_S:g} s")


def _on_term(signum, frame):
    raise ChildFailed("terminated")


def _start(args: List[str], stdin) -> subprocess.Popen:
    # A session of its own lets a failed run kill the child's pool or
    # daemon workers along with it.
    return subprocess.Popen(
        [sys.executable, CHILD, *args],
        stdin=stdin,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )


def _kill(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


def _last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.startswith("{")]
    if not lines:
        raise ChildFailed("child printed no result")
    return json.loads(lines[-1])


def run_child(*args: str) -> tuple:
    """Run ``child.py`` to completion; returns ``(result, setup_s)``."""
    started = time.monotonic()
    process = _start(list(args), subprocess.DEVNULL)
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        _kill(process)
        raise
    if process.returncode != 0:
        raise ChildFailed(f"child {args[:2]} exited with {process.returncode}")
    result = _last_json(out)
    return result, result["ready"] - started


class DaemonHost:
    """A child process hosting the daemon until :meth:`stop`."""

    def __init__(self, trace: bool, scratch: str) -> None:
        started = time.monotonic()
        self.process = _start(["daemon", "1" if trace else "0", scratch], subprocess.PIPE)
        try:
            ready = _last_json(self.process.stdout.readline())
        except BaseException:
            _kill(self.process)
            raise
        self.url = ready["url"]
        self.setup_s = ready["ready"] - started

    def stop(self) -> dict:
        """Graceful shutdown; returns the host's final report."""
        try:
            out, _ = self.process.communicate("stop\n", timeout=CHILD_TIMEOUT_S)
        except BaseException:
            _kill(self.process)
            raise
        if self.process.returncode != 0:
            raise ChildFailed(f"daemon host exited with {self.process.returncode}")
        return _last_json(out)

    def kill(self) -> None:
        _kill(self.process)


def scratch_dir(parent: str) -> str:
    return tempfile.mkdtemp(dir=parent)


def geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def percentiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return cuts[9], cuts[18]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- batch workloads (table1-cold, crates-jobs2) ----------------------------------


def probes(workload: str, tmp: str) -> List[float]:
    """Set-up times of ``PROBES_PER_SLOT`` fresh processes."""
    return [run_child("probe", workload, scratch_dir(tmp))[1] for _ in range(PROBES_PER_SLOT)]


def batch_rep(workload: str, seed: int, tmp: str, setups: List[float], traced=False) -> dict:
    """One repetition in a fresh process; its set-up time joins ``setups``."""
    result, setup = run_child("rep", workload, str(seed), "1" if traced else "0", scratch_dir(tmp))
    setups.append(setup)
    return result


def run_batch(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    from workloads import EXACT_COUNTS, PROGRAM_LIMIT_S

    deadline = time.monotonic() + seconds
    setups: List[float] = []
    reps: List[dict] = []
    traced: Optional[dict] = None
    if trace:
        reps.append(batch_rep(workload, seed, tmp, setups))
        traced = batch_rep(workload, seed, tmp, setups, traced=True)
    else:
        # Set-up probes are spread over the run, before and after each
        # repetition, so that their median spans the machine's slow and
        # fast phases rather than one moment of them.
        setups += probes(workload, tmp)
        started = time.monotonic()
        reps.append(batch_rep(workload, seed, tmp, setups))
        setups += probes(workload, tmp)
        # Repetitions fill the rest of the budget, rounded to the nearest
        # whole one and never fewer than two.
        per_rep = time.monotonic() - started
        for _ in range(max(2, round((deadline - started) / per_rep)) - 1):
            reps.append(batch_rep(workload, seed, tmp, setups))
            setups += probes(workload, tmp)

    limit = PROGRAM_LIMIT_S[workload]
    samples: Dict[str, List[float]] = {}
    latencies: List[float] = []
    on_time = attempted = wrong = faults = 0
    mismatches: List[str] = []
    for rep in reps + ([traced] if traced else []):
        for row in rep["programs"]:
            attempted += row["attempted"]
            wrong += row["wrong"]
            faults += row["faults"]
            mismatches.extend(row["mismatches"])
    for rep in reps:
        # All programs are submitted at once, so a program's latency is the
        # time from submission to its verdict, waiting for those before it.
        latency = 0.0
        for row in rep["programs"]:
            samples.setdefault(row["name"], []).append(row["time"])
            latency += row["time"]
            latencies.append(latency)
            on_time += row["wrong"] == row["faults"] == 0 and latency <= limit
    p50, p95 = percentiles(latencies)
    wall = statistics.median(rep["wall"] for rep in reps)
    counts = [{key: rep["counts"][key] for key in EXACT_COUNTS} for rep in reps]
    return {
        "attempted": attempted,
        "wrong": wrong,
        "faults": faults,
        "mismatches": mismatches,
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "program_s_geomean": geomean([statistics.median(t) for t in samples.values()]),
            "latency_p50_s": p50,
            "latency_p95_s": p95,
            "on_time_frac": on_time / len(latencies),
            "peak_rss_mb": peak_rss_mb(),
        },
        "notes": {
            "repetitions": len(reps),
            "rep_wall_s": [round(rep["wall"], 4) for rep in reps],
            "setup_samples": len(setups),
            "latency_samples": len(latencies),
            "program_limit_s": limit,
            # Report-derived counts must repeat exactly for the same input.
            "counts_repeat": all(c == counts[0] for c in counts[1:])
            if len(counts) > 1
            else None,
        },
        "traced": traced,
        "untraced_wall": reps[0]["wall"],
    }


# -- daemon-mix -------------------------------------------------------------------------


def _stream(seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    from daemon_mix import run_stream
    from workloads import daemon_schedule

    requests = daemon_schedule(seed, seconds)
    host = DaemonHost(trace, scratch_dir(tmp))
    cpu = time.process_time()
    try:
        start, outcomes = run_stream(host.url, requests)
    except BaseException:
        host.kill()
        raise
    cpu = time.process_time() - cpu
    final = host.stop()
    return {"setup": host.setup_s, "start": start, "outcomes": outcomes, "host": final,
            "cpu_s": cpu}


def run_daemon_mix(seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    from workloads import DAEMON_LATENCY_LIMIT_S, DAEMON_WARMUP_S

    # The request stream lasts ``seconds``; probes and the drain come on top.
    stream_s = seconds
    if (stream_s / 2 if trace else stream_s) <= DAEMON_WARMUP_S:
        raise ChildFailed(f"daemon-mix times no request in a stream of {DAEMON_WARMUP_S:g} s or less")
    setups: List[float] = []
    traced = None
    if trace:
        # Same schedule twice, each on a fresh daemon: untraced, then traced.
        timed = _stream(seed, stream_s / 2, False, tmp)
        traced = _stream(seed, stream_s / 2, True, tmp)
        setups += [timed["setup"], traced["setup"]]
    else:
        setups += probes("daemon-mix", tmp)
        timed = _stream(seed, stream_s, False, tmp)
        setups.append(timed["setup"])
        setups += probes("daemon-mix", tmp)

    start, outcomes = timed["start"], timed["outcomes"]
    latencies, on_time, good = [], 0, []
    attempted = wrong = faults = refused = 0
    mismatches: List[str] = []
    for stream in [timed] + ([traced] if traced else []):
        for outcome in stream["outcomes"]:
            verdicts = outcome.verdicts
            if verdicts is None:
                attempted += 1
                faults += 1
                refused += outcome.refused
                mismatches.append(f"{outcome.request.name}: {outcome.error}")
                continue
            attempted += verdicts.attempted
            wrong += verdicts.wrong
            faults += verdicts.faults
            mismatches.extend(verdicts.mismatches)
    measured = [o for o in outcomes if o.request.due >= DAEMON_WARMUP_S]
    for outcome in measured:
        latency = outcome.latency(start)
        if outcome.correct and latency is not None:
            latencies.append(latency)
            good.append(latency)
            on_time += latency <= DAEMON_LATENCY_LIMIT_S
        else:
            latencies.append(FAILED_LATENCY_S)
    p50, p95 = percentiles(latencies)
    last = max((o.finished for o in outcomes if o.finished is not None), default=start)
    return {
        "attempted": attempted,
        "wrong": wrong,
        "faults": faults,
        "mismatches": mismatches,
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": last - (start + outcomes[0].request.due),
            "program_s_geomean": geomean(good) if good else FAILED_LATENCY_S,
            "latency_p50_s": p50,
            "latency_p95_s": p95,
            "on_time_frac": on_time / len(measured),
            "peak_rss_mb": peak_rss_mb(),
        },
        "notes": {
            "requests": len(outcomes),
            "measured_requests": len(measured),
            "measured_repeats": sum(o.request.repeat for o in measured),
            "refused": refused,
            "setup_samples": len(setups),
            "latency_samples": len(latencies),
            "generator_cpu_s": timed["cpu_s"],
        },
        "timed": timed,
        "traced": traced,
    }


# -- per-layer metrics ------------------------------------------------------------------

#: Layer bucket (``layers.LAYER_TARGETS``) -> self-time metric.
SELF_TIME_METRICS = {
    "lang.parse": "lang.parse_s",
    "core.genv.register": "core.genv.register_s",
    "mir.lower": "mir.lower_s",
    "mir.typeinfer": "mir.typeinfer_s",
    "core.checker.check": "core.checker.check_s",
    "fixpoint.solve": "fixpoint.solve_self_s",
    "smt.encode": "smt.encode_s",
    "smt.solve": "smt.solve_s",
    "smt.model": "smt.model_s",
    "service.cache.get": "service.cache.get_s",
    "service.cache.put": "service.cache.put_s",
    "service.cache.key": "service.cache.key_s",
    "service.scheduler": "service.scheduler.self_s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def daemon_layer_metrics(stream: Optional[dict]) -> Dict[str, float]:
    names = ("submit_s", "queue_wait_s", "run_s", "worker_overhead_s", "client_overhead_s")
    columns: Dict[str, List[float]] = {name: [] for name in names}
    lags, refused = [0.0], 0
    if stream is not None:
        start = stream["start"]
        for outcome in stream["outcomes"]:
            lags.append(outcome.sent - (start + outcome.request.due))
            refused += outcome.refused
            record = outcome.record
            if record.get("state") != "done":
                continue
            columns["submit_s"].append(outcome.submit_s)
            columns["queue_wait_s"].append(record["started"] - record["submitted"])
            run = record["finished"] - record["started"]
            columns["run_s"].append(run)
            columns["worker_overhead_s"].append(run - record["report"]["time"])
            observed = outcome.observed - outcome.sent
            columns["client_overhead_s"].append(
                observed - (record["finished"] - record["submitted"])
            )
    # Means, so that the parts add up to the mean latency.
    metrics = {
        f"daemon.{name}": statistics.fmean(values) if values else 0.0
        for name, values in columns.items()
    }
    metrics["daemon.refused"] = refused
    metrics["daemon.gen_lag_max_s"] = max(lags)
    return metrics


def layer_metrics(ledger: dict, counts: dict, parsed_bytes: int, jobs: int) -> Dict[str, float]:
    self_s, calls, logic = ledger["self_s"], ledger["calls"], ledger["logic"]
    metrics: Dict[str, float] = {
        metric: self_s.get(bucket, 0.0) for bucket, metric in SELF_TIME_METRICS.items()
    }
    busy = ledger["incl_s"].get("service.scheduler", 0.0)
    metrics.update(
        {
            "smt.encode_calls": calls["smt.encode"],
            "smt.solve_calls": calls["smt.solve"],
            "smt.queries": counts["smt_queries"],
            "smt.partial_checks": counts["smt_partial_checks"],
            "smt.theory_propagations": counts["smt_theory_propagations"],
            "smt.learned": counts["smt_learned"],
            "smt.incremental_hit_ratio": _ratio(
                counts["smt_incremental_hits"], counts["smt_assumption_checks"]
            ),
            "smt.sat_s": counts["smt_sat_time"],
            "smt.theory_s": counts["smt_theory_time"],
            "fixpoint.solves": calls["fixpoint.solve"],
            "lang.bytes_per_s": _ratio(parsed_bytes, self_s["lang.parse"]),
            "core.checker.constraints": counts["num_constraints"],
            "core.checker.kvars": counts["num_kvars"],
            "logic.intern_table_size": logic.get("intern_table_size", 0),
            "logic.intern_hit_ratio": _ratio(
                logic.get("intern_hits", 0),
                logic.get("intern_hits", 0) + logic.get("intern_misses", 0),
            ),
            "logic.subst_hit_ratio": _ratio(
                logic.get("subst_cache_hits", 0),
                logic.get("subst_cache_hits", 0) + logic.get("subst_cache_misses", 0),
            ),
            "logic.simplify_hit_ratio": _ratio(
                logic.get("simplify_cache_hits", 0),
                logic.get("simplify_cache_hits", 0) + logic.get("simplify_cache_misses", 0),
            ),
            "service.scheduler.busy_s": busy,
            "service.scheduler.worker_fn_s": counts["time"],
            "service.scheduler.efficiency": _ratio(counts["time"], jobs * busy),
            "service.cache.hit_ratio": _ratio(
                counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"]
            ),
            "trace.root_s": ledger["root_s"],
            "trace.worker_root_s": ledger.get("worker_root_s", 0.0),
            "unattributed_s": ledger["root_s"] - sum(self_s.values()),
        }
    )
    return metrics


def traced_metrics(workload: str, run: dict) -> Dict[str, float]:
    from workloads import report_counts

    traced = run["traced"]
    if workload == "daemon-mix":
        reports = [
            o.record["report"] for o in traced["outcomes"] if o.record.get("state") == "done"
        ]
        parsed = sum(len(o.request.program.source.encode("utf-8")) for o in traced["outcomes"])
        metrics = layer_metrics(traced["host"]["ledger"], report_counts(reports), parsed, 1)

        def fresh_run_s(stream):
            return sum(
                o.record["finished"] - o.record["started"]
                for o in stream["outcomes"]
                if o.record.get("state") == "done" and not o.request.repeat
            )

        # Timestamps are undisturbed by tracing, so they come from the
        # untraced stream.  The overhead compares the daemon's run time of
        # the first submissions, which do solver work on both streams
        # whatever the arrival jitter did to the repeats' cache hits.
        metrics.update(daemon_layer_metrics(run["timed"]))
        metrics["trace.wall_s"] = fresh_run_s(traced)
        metrics["trace_overhead_frac"] = _ratio(fresh_run_s(traced), fresh_run_s(run["timed"])) - 1
        return metrics
    jobs = 1 if workload == "table1-cold" else 2
    metrics = layer_metrics(traced["ledger"], traced["counts"], traced["bytes"], jobs)
    metrics.update(daemon_layer_metrics(None))
    metrics["trace.wall_s"] = traced["wall"]
    metrics["trace_overhead_frac"] = traced["wall"] / run["untraced_wall"] - 1
    return metrics


# -- output -----------------------------------------------------------------------------


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def git_commit() -> str:
    """The checkout's commit when it is a git work tree, else ``unknown``."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path, encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "service", "api.py")):
        print("error: no verifier sources under src/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(int(RUN_TIMEOUT_S))
    try:
        if args.workload == "daemon-mix":
            run = run_daemon_mix(args.seed, args.seconds, bool(args.trace), tmp)
        else:
            run = run_batch(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        metrics = traced_metrics(args.workload, run) if args.trace else run["metrics"]
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    from workloads import DAEMON_LATENCY_LIMIT_S, DAEMON_RATE

    context = {
        "workload": args.workload,
        "why": why.get(args.workload, "not listed in BENCHMARK.json"),
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "daemon_rate_per_s": DAEMON_RATE,
        "daemon_latency_limit_s": DAEMON_LATENCY_LIMIT_S,
        **run["notes"],
    }
    print("context " + json.dumps(context))
    for mismatch in run["mismatches"]:
        print(f"MISMATCH {mismatch}")
    failed = run["wrong"] + run["faults"]
    print(f"failed_frac {failed / run['attempted']:.6f} frac "
          f"({failed} of {run['attempted']} functions or requests)")
    units = {entry["name"]: entry["unit"] for key in ("end_to_end", "per_layer")
             for entry in spec[key]}
    wanted = [entry["name"] for entry in spec["per_layer" if args.trace else "end_to_end"]]
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units.get(name, '')}")
    if args.trace:
        self_sum = sum(metrics[m] for m in SELF_TIME_METRICS.values())
        print(
            f"ledger: sum of layer self times {self_sum:.6f} s + unattributed_s "
            f"{metrics['unattributed_s']:.6f} s = trace.root_s {metrics['trace.root_s']:.6f} s "
            f"({metrics['trace.worker_root_s']:.6f} s of it in worker processes)"
        )
    result = {
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0 if run["wrong"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

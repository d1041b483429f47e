"""The benchmark's exact-count companions repeat exactly at a fixed seed.

Deterministic counters are the exact gates a later change can quote: a
change claiming fewer solver queries on ``table1-cold`` compares these
numbers, so two traced repetitions of the serial workload, each in a fresh
process (and so under a different string-hash seed), must agree on every
one of them.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

EXACT_COUNTS = (
    "smt.queries",
    "smt.encode_calls",
    "smt.partial_checks",
    "core.checker.constraints",
    "logic.intern_table_size",
)


def _traced_counts(workload: str, seed: int, scratch: str) -> dict:
    out = subprocess.run(
        [sys.executable, run.CHILD, "rep", workload, str(seed), "1", scratch],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert all(row["wrong"] == row["faults"] == 0 for row in result["programs"])
    metrics = run.layer_metrics(result["ledger"], result["counts"], result["bytes"], jobs=1)
    return {name: metrics[name] for name in EXACT_COUNTS}


def test_table1_cold_counts_repeat(tmp_path):
    scratch = [str(tmp_path / "a"), str(tmp_path / "b")]
    for path in scratch:
        os.makedirs(path)
    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second = pool.map(lambda path: _traced_counts("table1-cold", 0, path), scratch)
    assert first == second
    assert all(value > 0 for value in first.values())

"""Per-layer time ledger for the benchmark's traced run.

The verifier carries no tracing of its own here: :func:`install` wraps the
public functions of each layer from outside ``src/`` and charges their
*self* time (duration minus the time of wrapped calls nested inside) to the
layer's bucket.  Nothing is wrapped in an untraced run.

A *root* is the outermost timed region of a process: the workload's
measured region in the process that submits work, the scheduler's worker
initializer and per-function entry point in pool workers, and
``verify_job`` in daemon workers.  Within every process,
``sum(self time) + unattributed == root time`` holds by construction; the
parent's ``service.scheduler`` self time under ``jobs=2`` is the time it
waited on its workers, whose own roots are counted as well.

Pool and daemon workers are forked after the wrappers are installed, so
they inherit them.  A fork hook clears the inherited totals, and each
worker rewrites its cumulative totals to ``layers-<pid>.json`` in the dump
directory whenever a root exits; the parent merges those files after the
run (:func:`merge`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: (bucket, module, attribute) of every wrapped layer entry point.
LAYER_TARGETS = (
    ("lang.parse", "repro.lang.parser", "parse_program"),
    ("core.genv.register", "repro.core.genv", "GlobalEnv.register_program"),
    ("mir.lower", "repro.mir.lower", "lower_function"),
    ("mir.typeinfer", "repro.mir.typeinfer", "infer_types"),
    ("mir.typeinfer", "repro.mir.typeinfer", "ProgramTypes.from_program"),
    ("core.checker.check", "repro.core.checker", "Checker.__init__"),
    ("core.checker.check", "repro.core.checker", "Checker.check"),
    ("fixpoint.solve", "repro.fixpoint.solve", "FixpointSolver.solve"),
    ("smt.encode", "repro.smt.incremental", "IncrementalSolver.literal_for"),
    ("smt.encode", "repro.smt.incremental", "IncrementalSolver.assert_expr"),
    ("smt.solve", "repro.smt.incremental", "IncrementalSolver.check_sat_assuming"),
    ("smt.solve", "repro.smt.incremental", "IncrementalSolver.refute_any"),
    ("smt.solve", "repro.smt.incremental", "IncrementalSolver.check_valid_detailed"),
    ("smt.model", "repro.smt.incremental", "IncrementalSolver.get_model"),
    ("service.cache.get", "repro.service.cache", "ResultCache.get"),
    ("service.cache.put", "repro.service.cache", "ResultCache.put"),
    ("service.cache.key", "repro.service.cache", "function_key"),
    ("service.scheduler", "repro.service.scheduler", "verify_functions"),
)

#: Entry points that open a root when no root is active in the process.
ROOT_TARGETS = (
    ("repro.service.scheduler", "_init_worker"),
    ("repro.service.scheduler", "_worker_verify"),
    ("repro.service.api", "verify_job"),
)

BUCKETS = tuple(dict.fromkeys(bucket for bucket, _, _ in LAYER_TARGETS))


def _term_stats() -> Dict[str, int]:
    from repro.logic import term_cache_stats

    return dict(term_cache_stats())


class Ledger:
    """Self time, call counts and root time of one process."""

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self.dump_dir = dump_dir
        self.owner_pid = os.getpid()
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.stack: List[list] = []
        self.reset()
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        """Start empty in this process (also run in every forked child)."""
        self.pid = os.getpid()
        # Cleared in place: the wrappers hold references to these objects.
        for table in (self.self_s, self.incl_s, self.calls):
            table.clear()
            table.update({bucket: 0 for bucket in BUCKETS})
        self.stack.clear()
        self.root_s = 0.0
        self.in_root = False
        self.logic_base = _term_stats() if "repro.logic" in sys.modules else {}

    def wrap(self, bucket: str, fn: Callable) -> Callable:
        stack, self_s, incl_s, calls = self.stack, self.self_s, self.incl_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][0] != bucket
            frame = [bucket, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[bucket] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if outer:
                    calls[bucket] += 1
                    incl_s[bucket] += elapsed

        return wrapper

    def wrap_root(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_root:
                return fn(*args, **kwargs)
            with self.root():
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def root(self) -> Iterator[None]:
        self.in_root = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.root_s += time.perf_counter() - start
            self.in_root = False
            if self.dump_dir is not None and os.getpid() != self.owner_pid:
                self.dump()

    def totals(self) -> Dict[str, object]:
        logic = _term_stats()
        deltas = {
            key: value - self.logic_base.get(key, 0)
            for key, value in logic.items()
            if not key.endswith("_size")
        }
        deltas["intern_table_size"] = logic.get("intern_table_size", 0)
        return {
            "pid": self.pid,
            "root_s": self.root_s,
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "logic": deltas,
        }

    def dump(self) -> None:
        path = os.path.join(self.dump_dir, f"layers-{self.pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.totals(), handle)
        os.replace(path + ".tmp", path)


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _replace(owner, name: str, make: Callable[[Callable], Callable]) -> None:
    raw = inspect.getattr_static(owner, name)
    if isinstance(raw, staticmethod):
        setattr(owner, name, staticmethod(make(raw.__func__)))
        return
    wrapped = make(raw)
    setattr(owner, name, wrapped)
    if inspect.ismodule(owner):
        # ``from x import f`` bindings in other modules keep the original
        # object; rebind them too so every call site goes through the wrapper.
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and module is not owner:
                if getattr(module, name, None) is raw:
                    setattr(module, name, wrapped)


def install(dump_dir: Optional[str] = None) -> Ledger:
    """Wrap every layer entry point; returns this process's ledger."""
    ledger = Ledger(dump_dir)
    for bucket, module_name, attribute in LAYER_TARGETS:
        owner, name = _resolve(module_name, attribute)
        _replace(owner, name, functools.partial(ledger.wrap, bucket))
    for module_name, attribute in ROOT_TARGETS:
        owner, name = _resolve(module_name, attribute)
        _replace(owner, name, ledger.wrap_root)
    ledger.reset()  # baseline the term caches after the imports above
    return ledger


def merge(parent: Dict[str, object], dump_dir: str) -> Dict[str, object]:
    """Add every worker's dumped totals to the parent's ``totals()``."""
    merged = json.loads(json.dumps(parent))
    merged["worker_root_s"] = 0.0
    for entry in sorted(os.listdir(dump_dir)):
        if not (entry.startswith("layers-") and entry.endswith(".json")):
            continue
        with open(os.path.join(dump_dir, entry), encoding="utf-8") as handle:
            worker = json.load(handle)
        merged["worker_root_s"] += worker["root_s"]
        merged["root_s"] += worker["root_s"]
        for table in ("self_s", "incl_s", "calls"):
            for bucket, value in worker[table].items():
                merged[table][bucket] = merged[table].get(bucket, 0) + value
        for key, value in worker["logic"].items():
            if key == "intern_table_size":
                merged["logic"][key] = max(merged["logic"].get(key, 0), value)
            else:
                merged["logic"][key] = merged["logic"].get(key, 0) + value
    return merged

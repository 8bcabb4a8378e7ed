"""Measure one ``run_simulation`` call from outside the program.

Nothing under ``src/`` is edited: the probe replaces a few attributes for
the duration of one run and restores them afterwards.  Each name is
patched where its caller looks it up (a class attribute, or the module
global the caller reads at call time).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import time
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple

from repro.core.messages import MessageCodec
from repro.harness import runner
from repro.net import backend, worker
from repro.net.simulator import Simulator

#: (owner, attribute, make_wrapper(original) -> replacement)
Patch = Tuple[object, str, Callable[[Callable], Callable]]


@contextlib.contextmanager
def patched(patches: Iterable[Patch]):
    """Install ``patches`` for the duration of the block."""
    saved = []
    try:
        for owner, name, make in patches:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _SetupDone(BaseException):
    """Stops a set-up-only run at its first virtual event.  It is a
    ``BaseException`` so that no ``except Exception`` on the way out can
    swallow it; the parallel backend still closes its workers."""


class RunProbe:
    """Marks the end of set-up and captures the engine of one run.

    Set-up ends at the first virtual event: the first ``Simulator.run``
    or ``run_window`` on the classic and in-process windowed paths, or
    the first window the coordinator posts to a spawned worker.  The
    engine is taken from ``build_engine`` (classic path) or
    ``run_partitioned`` (windowed paths, which return a merged view).
    A probe made with ``setup_only`` stops the run right there.
    """

    def __init__(self, worker_dir: Path, setup_only: bool = False) -> None:
        self.worker_dir = worker_dir
        self.setup_only = setup_only
        self.setup_end: Optional[float] = None
        self.engine = None
        #: Codec pickle fallbacks made in this process.
        self.pickle_fallbacks = 0

    def _mark(self, original):
        def wrapper(*args, **kwargs):
            if self.setup_end is None:
                self.setup_end = time.perf_counter()
                if self.setup_only:
                    raise _SetupDone
            return original(*args, **kwargs)

        return wrapper

    def _capture(self, pick: Callable):
        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                self.engine = pick(result)
                return result

            return wrapper

        return make

    def _count_fallback(self, original):
        def wrapper(codec, type_name):
            self.pickle_fallbacks += 1
            return original(codec, type_name)

        return wrapper

    def patches(self) -> List[Patch]:
        return [
            (MessageCodec, "_note_fallback", self._count_fallback),
            (Simulator, "run", self._mark),
            (Simulator, "run_window", self._mark),
            (backend._ProcessHandle, "post_window", self._mark),
            (runner, "build_engine", self._capture(lambda engine: engine)),
            (backend, "run_partitioned", self._capture(lambda pair: pair[0])),
        ]

    def run(self, architecture: str, settings, call=None):
        """Run once; return ``(result, setup_s, total_s, workers)``.

        ``workers`` holds the reports spawned workers wrote at exit
        (see :func:`install_worker_hooks`).  ``call`` replaces
        ``run_simulation`` (the tracer passes a wrapped one).  A
        set-up-only probe returns ``(None, setup_s, None, [])``.
        """
        for stale in self.worker_dir.glob("*.json"):
            stale.unlink()
        call = call or runner.run_simulation
        with patched(self.patches()):
            started = time.perf_counter()
            try:
                result = call(architecture, settings)
            except _SetupDone:
                return None, self.setup_end - started, None, []
            total = time.perf_counter() - started
        if self.setup_end is None:
            raise RuntimeError("the run dispatched no virtual event")
        reports = [
            json.loads(path.read_text())
            for path in sorted(self.worker_dir.glob("*.json"))
        ]
        return result, self.setup_end - started, total, reports


def peak_rss_mb(worker_reports) -> float:
    """Peak RSS of this process plus each spawned worker's peak."""
    kb = _peak_rss_kb() + sum(report["peak_rss_kb"] for report in worker_reports)
    return kb / 1024.0


def install_worker_hooks(worker_dir: Path) -> None:
    """Report each spawned partition worker's own figures at exit.

    Runs when this benchmark's entry module is imported in a spawned
    worker, before the worker unpickles its target, so the replaced
    ``partition_worker_main`` is the one it runs.  The report holds the
    worker's peak RSS, its busy time inside windows, and its codec
    pickle fallbacks; the coordinator cannot see any of them.
    """
    original_main = worker.partition_worker_main
    original_window = backend.PartitionReplica.run_window
    original_fallback = MessageCodec._note_fallback
    figures = {"busy_s": 0.0, "pickle_fallbacks": 0}

    def run_window(self, end, entries):
        started = time.perf_counter()
        try:
            return original_window(self, end, entries)
        finally:
            figures["busy_s"] += time.perf_counter() - started

    def note_fallback(self, type_name):
        figures["pickle_fallbacks"] += 1
        return original_fallback(self, type_name)

    def partition_worker_main(conn, architecture, settings, partition, workers):
        try:
            original_main(conn, architecture, settings, partition, workers)
        finally:
            figures["partition"] = partition
            figures["peak_rss_kb"] = _peak_rss_kb()
            worker_dir.mkdir(parents=True, exist_ok=True)
            path = worker_dir / f"{os.getpid()}.json"
            path.write_text(json.dumps(figures))

    backend.PartitionReplica.run_window = run_window
    MessageCodec._note_fallback = note_fallback
    worker.partition_worker_main = partition_worker_main


def fingerprint(result, engine) -> str:
    """Digest of a run's virtual-time outputs.

    Covers the response samples in order, the traffic totals, event and
    move counts, and the final committed state: the server's (or each
    shard's) store and every client's stable replica.  Host time is not
    in it, so equal seeds must give equal digests on every run, traced
    or not, in-process or parallel.
    """
    meter = engine.network.meter
    states = getattr(engine, "shard_states", None) or [engine.state]
    payload = (
        tuple(engine.response_times.samples),
        meter.total_bytes,
        meter.total_messages,
        meter.messages_dropped,
        meter.messages_duplicated,
        meter.retransmissions,
        result.client_traffic_kb,
        result.events,
        result.virtual_ms,
        result.moves_submitted,
        result.responses_observed,
        result.drop_percent,
        tuple(state.checksum() for state in states),
        tuple(
            (client_id, engine.clients[client_id].stable.checksum())
            for client_id in sorted(engine.clients)
        ),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]

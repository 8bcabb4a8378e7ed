"""Spans around each layer's entry functions, recorded from outside.

A span has a name, a start, an end and the span that caused it (the
innermost open span when it started).  Spans are kept in memory in
compact arrays for the whole traced run and written out when it ends.
A layer's self time is its spans' duration minus the part of it that
child spans cover.

The wrapped entry points, one or more per layer of ``src/repro``:

=====================  ====================================================
span                   entry points
=====================  ====================================================
``sim``                ``Simulator.step``, ``run``, ``run_window``
``walls.path_blocked`` ``WallField.path_blocked``
``spatial``            ``UniformGridIndex.query_radius_points``
``push``               ``IncompleteWorldServer._push_cycle``
``closure``            ``transitive_closure`` as ``server_incomplete`` sees it
``infobound``          ``InformationBound.validate``
``client.apply``       ``Action.apply``
``codec``              ``MessageCodec.encode``, ``decode``
``backend``            ``PartitionReplica.run_window``
``net.send``           ``Network.send``
``net.on_packet``      ``Network._on_packet`` (ARQ receive path)
``check``              ``ConsistencyChecker.check_all``, ``check_uniform``,
                       ``audit_sharded_run``
=====================  ====================================================

``sim`` self time is the event loop plus every event callback that no
other span covers (host and link models, message handlers).  Host work
items are counted, not timed.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core import server_incomplete
from repro.core.action import Action, BlindWrite
from repro.core.info_bound import InformationBound
from repro.core.messages import MessageCodec
from repro.harness import runner
from repro.metrics import shard_audit
from repro.metrics.consistency import ConsistencyChecker
from repro.net.backend import PartitionReplica
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.world.spatial import UniformGridIndex
from repro.world.walls import WallField

from probe import Patch

class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        #: Work counters taken at the same boundaries as the spans.
        self.counts: Counter = Counter()
        self._walk_pairs: set = set()

    def span(self, name: str, observe: Optional[Callable] = None):
        """A patch maker that records one ``name`` span per call.

        ``observe(args, result)`` runs after the call, inside the span,
        to take counts that need the call's arguments or result.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        clock = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def make(original):
            def wrapper(*args, **kwargs):
                index = len(starts)
                names.append(name_id)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    result = original(*args, **kwargs)
                    if observe is not None:
                        observe(args, result)
                    return result
                finally:
                    ends[index] = clock()
                    stack.pop()

            return wrapper

        return make

    def counter(self, key: str):
        """A patch maker that only counts calls."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    # -- observers ---------------------------------------------------------
    def _on_path_blocked(self, args, result) -> None:
        self._walk_pairs.add((args[1], args[2]))

    def _on_closure(self, args, result) -> None:
        chain = result[0]
        if chain is not None:
            self.counts["closure.chains"] += 1
            self.counts["closure.entries"] += len(chain)

    def _on_validate(self, args, result) -> None:
        entries, first_new = args[1], args[2]
        self.counts["infobound.entries"] += len(entries) - first_new

    def _on_apply(self, args, result) -> None:
        if not isinstance(args[0], BlindWrite):
            self.counts["client.evals"] += 1

    def _on_encode(self, args, result) -> None:
        self.counts["codec.frames"] += 1
        self.counts["codec.bytes"] += len(result)

    def patches(self) -> List[Patch]:
        sim, codec, check = self.span("sim"), self.span("codec"), self.span("check")
        incomplete = server_incomplete.IncompleteWorldServer
        return [
            (Simulator, "step", sim),
            (Simulator, "run", sim),
            (Simulator, "run_window", sim),
            (WallField, "path_blocked",
             self.span("walls.path_blocked", self._on_path_blocked)),
            (UniformGridIndex, "query_radius_points", self.span("spatial")),
            (incomplete, "_push_cycle", self.span("push")),
            (server_incomplete, "transitive_closure",
             self.span("closure", self._on_closure)),
            (InformationBound, "validate",
             self.span("infobound", self._on_validate)),
            (Action, "apply", self.span("client.apply", self._on_apply)),
            (MessageCodec, "encode", self.span("codec", self._on_encode)),
            (MessageCodec, "decode", codec),
            (PartitionReplica, "run_window", self.span("backend")),
            (Network, "send", self.span("net.send")),
            (Network, "_on_packet", self.span("net.on_packet")),
            (Host, "execute", self.counter("host.work_items")),
            (ConsistencyChecker, "check_all", check),
            (runner, "check_uniform", check),
            (shard_audit, "audit_sharded_run", check),
        ]

    def root(self, run_simulation):
        """``run_simulation`` wrapped in the root span, ``run``."""
        return self.span("run")(run_simulation)

    # -- results -------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name; the root's is the time no layer
        span covers."""
        count = len(self.span_start)
        covered = [0.0] * count
        durations = [0.0] * count
        for index in range(count):
            duration = self.span_end[index] - self.span_start[index]
            durations[index] = duration
            parent = self.span_parent[index]
            if parent >= 0:
                covered[parent] += duration
        totals: Dict[str, float] = defaultdict(float)
        for index in range(count):
            totals[self.names[self.span_name[index]]] += (
                durations[index] - covered[index]
            )
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(self.names[name_id] for name_id in self.span_name)

    def distinct_walk_pairs(self) -> int:
        return len(self._walk_pairs)

    def write(self, path: Path) -> None:
        """Write every span, columnar, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                out,
            )

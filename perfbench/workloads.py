"""The benchmark's workloads: seeded SEVE runs that load different layers.

Every workload is an open loop in virtual time: ``MoveWorkload`` has each
client submit one move every 300 virtual ms whether or not earlier moves
have finished, and response time counts from the submission instant.  In
host time each run is a batch job of fixed size.  The seed is the only
input the caller chooses; everything else is fixed here, so the program
receives only the generated settings.

Why each workload exists (see README.md for the layer map):

* ``crowd-k1`` -- the ROADMAP headline row: 128 clients in the Table I
  central cluster.  Client re-evaluation (``WallField.path_blocked``)
  and the First-Bound push scan dominate host time.
* ``spread-k2`` -- the only sharded workload.  128 clients spread over
  the whole world, K=2 with two partitions on the windowed scheduler,
  so it runs ``core.sharded``, the codec and the window barrier.  The
  timed repeats step both partitions in this process; the traced run
  adds one run of the same schedule on two spawned workers (the
  parallel backend), whose virtual-time results are byte-identical.
  The parallel backend's wall time is not timed as an end-to-end
  figure: on a shared 2-core host it follows the host's process wake-up
  latency (one pipe round trip per 1 ms window), 1.5-2.6x the
  in-process time and up to 3x from one minute to the next.  Its wall
  time follows the seed-dependent K=2 response tail (every barrier
  window checks quiescence over all owned clients), which grows with
  the client count.  At 128 clients one seed's runs still spread 0.20
  of the median over ten seeds, so each workload seed runs a batch of
  four program seeds and reports their mean.
* ``lossy-reactive`` -- the reactive Incomplete World Model (no push
  scan) under a seeded 2% loss / 20 ms jitter / 1% duplication plan, so
  ARQ retransmits, timers and duplicate suppression carry the network
  layer.  It is the bypass workload for any push-scan change.  Ten
  moves per client, not twenty, so that a run holds seven repeats of
  about 4 s rather than three of 8 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.harness.config import SimulationSettings
from repro.net.faults import FaultPlan

#: Shared by every workload: the CLI's wall count and the paper's
#: Table I defaults otherwise; the RW-set sanitizer is a test-time tool.
_COMMON = dict(num_walls=10_000, rwset_sanitizer="off")

#: Layer spans (``tracer.py``) that every workload enters.
_BASE_LAYERS = frozenset(
    {"sim", "walls.path_blocked", "closure", "client.apply", "net.send", "check"}
)


@dataclass(frozen=True)
class Workload:
    name: str
    architecture: str
    settings: Callable[[int], SimulationSettings]
    #: The layer spans a traced run must enter; every other layer span
    #: must stay at zero calls.  The traced run's self-check holds the
    #: run to this, so an entry point the tracer no longer reaches, or a
    #: layer a workload should bypass, shows up.
    layers: frozenset
    #: Program seeds per workload seed.  A workload whose host cost
    #: follows its seed is timed as the mean over a batch of them.
    batch: int = 1

    def run_seeds(self, seed: int) -> list:
        """The program seeds that workload seed ``seed`` runs."""
        return [seed * self.batch + index for index in range(self.batch)]

    def parallel_settings(self, seed: int):
        """The same windowed schedule on spawned workers, or ``None``
        when the run has a single partition."""
        settings = self.settings(seed)
        if settings.workers < 2:
            return None
        return settings.with_(backend="parallel")


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="crowd-k1",
            architecture="seve",
            settings=lambda seed: SimulationSettings(
                num_clients=128, moves_per_client=10, seed=seed, **_COMMON
            ),
            layers=_BASE_LAYERS | {"spatial", "push", "infobound"},
        ),
        Workload(
            name="spread-k2",
            architecture="seve",
            settings=lambda seed: SimulationSettings(
                num_clients=128,
                moves_per_client=10,
                spawn_extent=1000.0,
                shards=2,
                workers=2,
                seed=seed,
                **_COMMON,
            ),
            layers=_BASE_LAYERS
            | {"spatial", "push", "infobound", "codec", "backend"},
            # One seed's K=2 tail sets its cost: single runs spread 0.20
            # of the median over ten seeds, so four are averaged.
            batch=4,
        ),
        Workload(
            name="lossy-reactive",
            architecture="incomplete",
            settings=lambda seed: SimulationSettings(
                num_clients=512,
                moves_per_client=10,
                fault_plan=FaultPlan(
                    loss_rate=0.02,
                    jitter_ms=20.0,
                    duplicate_rate=0.01,
                    seed=seed,
                ),
                seed=seed,
                **_COMMON,
            ),
            # Reactive: no push scan, so no radius queries and no
            # Information Bound; ARQ runs the receive path.
            layers=_BASE_LAYERS | {"net.on_packet"},
        ),
    )
}

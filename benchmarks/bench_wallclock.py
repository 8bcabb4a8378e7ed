"""Wall-clock benchmark of the output-sensitive distribution path.

Emits ``BENCH_pushpath.json`` (repo root + ``benchmarks/results/``)
recording, in the same file, the **baseline** (indexes off — the
pre-index brute-force scans) and **indexed** wall-clock numbers:

* ``push_cycle`` — one First Bound push cycle at 512 and 2048 attached
  clients (the acceptance metric: ``speedup`` at 2048 clients);
* ``closure`` — one Algorithm 6 closure on a 2048-entry queue;
* ``end_to_end`` — wall-clock seconds per simulated second of a full
  engine run (clients, network, workload included), before/after.

The simulated (virtual-time) results are byte-identical either way —
see docs/performance.md and tests/test_distribution_differential.py —
so this file is purely a host-performance trajectory for later PRs.

Also emits ``BENCH_parallel.json``: the K ∈ {1, 2, 4, 8} real-core
sweep of the multiprocessing shard backend (docs/parallel.md) against
the in-process windowed scheduler, with inline identity assertions.

Run:  PYTHONPATH=src python benchmarks/bench_wallclock.py [--quick]

(Run it as a script file, never via stdin: the parallel sweep spawns
workers that re-import ``__main__``.)
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from pushpath_common import build_closure_queue, build_push_server

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

PUSH_ACTIONS = 256  # validated entries per measured cycle


def _best_of(repeats, make, run):
    """Best wall-clock time of ``run(make())`` over ``repeats`` rounds
    (fresh state each round; setup excluded from the timing)."""
    best = float("inf")
    for _ in range(repeats):
        state = make()
        t0 = time.perf_counter()
        run(state)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_push_cycle(num_clients: int, repeats: int) -> dict:
    results = {}
    for label, indexed in (("baseline_brute", False), ("indexed", True)):
        seconds = _best_of(
            repeats,
            lambda: build_push_server(num_clients, PUSH_ACTIONS, indexed=indexed),
            lambda server: server._push_cycle(),
        )
        results[f"{label}_s"] = seconds
    results["speedup"] = results["baseline_brute_s"] / results["indexed_s"]
    results["clients"] = num_clients
    results["actions"] = PUSH_ACTIONS
    return results


def bench_closure(num_entries: int, repeats: int) -> dict:
    from repro.core.closure import transitive_closure

    entries, index = build_closure_queue(num_entries, num_entries // 8)

    def clear_sent():
        for entry in entries:
            entry.sent.clear()

    def run_brute(_):
        transitive_closure(entries, len(entries) - 1, client_id=999)

    def run_indexed(_):
        transitive_closure(
            entries, len(entries) - 1, client_id=999,
            writer_index=index, base_pos=0,
        )

    rounds = max(repeats, 10)  # µs-scale op: best-of needs more rounds
    brute = _best_of(rounds, clear_sent, run_brute)
    indexed = _best_of(rounds, clear_sent, run_indexed)
    return {
        "entries": num_entries,
        "baseline_brute_s": brute,
        "indexed_s": indexed,
        "speedup": brute / indexed,
    }


def bench_end_to_end(num_clients: int, moves_per_client: int) -> dict:
    from repro.core.engine import SeveConfig, SeveEngine
    from repro.harness.config import SimulationSettings
    from repro.harness.workload import MoveWorkload
    from repro.world.manhattan import ManhattanWorld

    settings = SimulationSettings(
        num_clients=num_clients,
        num_walls=500,
        moves_per_client=moves_per_client,
        world_width=1000.0,
        world_height=1000.0,
        spawn_extent=300.0,
        rtt_ms=150.0,
        bandwidth_bps=None,
        move_interval_ms=300.0,
        cost_model="fixed",
        move_cost_ms=1.0,
        eval_overhead_ms=0.1,
        seed=29,
    )
    results = {"clients": num_clients, "moves_per_client": moves_per_client}
    outcomes = {}
    for label, indexed in (("baseline_brute", False), ("indexed", True)):
        world = ManhattanWorld(num_clients, settings.manhattan_config())
        config = SeveConfig(
            mode="first-bound",
            rtt_ms=settings.rtt_ms,
            bandwidth_bps=None,
            omega=settings.omega,
            tick_ms=settings.tick_ms,
            eval_overhead_ms=settings.eval_overhead_ms,
            use_distribution_indexes=indexed,
        )
        engine = SeveEngine(world, num_clients, config)
        workload = MoveWorkload(engine, world, settings)
        horizon = settings.workload_duration_ms + 2_000.0
        t0 = time.perf_counter()
        engine.start(stop_at=horizon)
        workload.install()
        engine.run(until=horizon)
        engine.run_to_quiescence()
        wall = time.perf_counter() - t0
        sim_seconds = engine.sim.now / 1000.0
        results[f"{label}_wall_s"] = wall
        results[f"{label}_wall_s_per_sim_s"] = wall / sim_seconds
        outcomes[label] = (
            engine.server.stats.entries_distributed,
            engine.server.stats.actions_committed,
            engine.sim.now,
        )
    results["sim_seconds"] = sim_seconds
    results["speedup"] = (
        results["baseline_brute_wall_s"] / results["indexed_wall_s"]
    )
    if outcomes["baseline_brute"] != outcomes["indexed"]:
        raise AssertionError(
            f"determinism violation: {outcomes}"  # indexes changed outcomes
        )
    return results


def bench_observability(num_clients: int, moves_per_client: int) -> dict:
    """Cost of the repro.obs layer: the same run unobserved vs with a
    full Observer (metrics + trace + profile) attached.

    Deterministic outcomes must be identical either way — the
    observability determinism contract (docs/observability.md); the
    per-phase breakdown and counter metrics ride along in the report.
    """
    from repro.harness.config import SimulationSettings
    from repro.harness.runner import run_simulation
    from repro.obs import Observer

    settings = SimulationSettings(
        num_clients=num_clients,
        num_walls=500,
        moves_per_client=moves_per_client,
        spawn_extent=300.0,
        rtt_ms=150.0,
        bandwidth_bps=None,
        cost_model="fixed",
        move_cost_ms=1.0,
        eval_overhead_ms=0.1,
        seed=29,
    )
    unobserved = run_simulation("seve", settings, check_consistency=False)
    observer = Observer(trace=True, profile=True)
    observed = run_simulation(
        "seve", settings, check_consistency=False, obs=observer
    )
    for name in ("virtual_ms", "events", "moves_submitted", "total_traffic_kb"):
        if getattr(unobserved, name) != getattr(observed, name):
            raise AssertionError(
                f"observability changed {name}: "
                f"{getattr(unobserved, name)} vs {getattr(observed, name)}"
            )
    counters = {
        name: entry["value"]
        for name, entry in observer.metrics.to_dict().items()
        if entry["type"] == "counter"
    }
    return {
        "clients": num_clients,
        "moves_per_client": moves_per_client,
        "unobserved_wall_s": unobserved.wall_seconds,
        "observed_wall_s": observed.wall_seconds,
        "overhead_percent": 100.0
        * (observed.wall_seconds - unobserved.wall_seconds)
        / unobserved.wall_seconds,
        "trace_events": len(observer.trace),
        "counters": counters,
        "profile": observed.profile,
    }


def bench_sharding(num_clients: int, moves_per_client: int) -> dict:
    """Scaling of the sharded deployment: the same uniform-spawn world
    run at K ∈ {1, 2, 4, 8} shard servers.

    The scalability claim (paper Section VII) is that partitioning the
    world divides the *per-serializer* load: the bottleneck shard's
    push-cycle wall-clock, serialized-action count, and simulated CPU
    all shrink as K grows, while the cross-shard audit stays clean.
    K = 1 runs through a one-shard ShardedSeveEngine (byte-identical to
    the unsharded engine — tests/test_sharded.py) and K > 1 through the
    one-partition replica every in-process ``--shards K`` run uses, so
    the numbers compare like with like.
    """
    from repro.core.engine import SeveConfig
    from repro.core.sharded import ShardedSeveEngine, ShardingConfig
    from repro.harness.config import SimulationSettings
    from repro.harness.workload import MoveWorkload
    from repro.metrics.shard_audit import audit_sharded_run
    from repro.net.backend import PartitionReplica, run_single_partition
    from repro.world.manhattan import ManhattanWorld

    settings = SimulationSettings(
        num_clients=num_clients,
        num_walls=200,
        moves_per_client=moves_per_client,
        world_width=4000.0,
        world_height=1000.0,
        spawn="uniform",
        rtt_ms=150.0,
        bandwidth_bps=None,
        move_interval_ms=250.0,
        cost_model="fixed",
        move_cost_ms=1.0,
        eval_overhead_ms=0.1,
        seed=29,
    )
    sweep = {}
    bottlenecks = []
    horizon = settings.workload_duration_ms + 2 * settings.move_interval_ms
    for shards in (1, 2, 4, 8):
        if shards == 1:
            world = ManhattanWorld(num_clients, settings.manhattan_config())
            config = SeveConfig(
                mode="seve",
                rtt_ms=settings.rtt_ms,
                bandwidth_bps=None,
                omega=settings.omega,
                tick_ms=settings.tick_ms,
                threshold=settings.effective_threshold,
                eval_overhead_ms=settings.eval_overhead_ms,
            )
            engine = ShardedSeveEngine(
                world,
                num_clients,
                config,
                sharding=ShardingConfig(
                    shards=1, world_width=settings.world_width
                ),
            )
            workload = MoveWorkload(engine, world, settings)

            def drive(engine=engine, workload=workload) -> None:
                engine.start()
                workload.install()
                engine.run(until=horizon)
                engine.run_to_quiescence()

        else:
            replica = PartitionReplica("seve", settings.with_(shards=shards))
            engine = replica.engine

            def drive(replica=replica) -> None:
                run_single_partition(replica)

        # Wall-clock each shard's push cycles in place.
        push_wall = [0.0] * shards
        for server in engine.shard_servers:

            def timed(server=server, inner=type(server)._push_cycle):
                t0 = time.perf_counter()
                inner(server)
                push_wall[server.shard_index] += time.perf_counter() - t0

            server._push_cycle = timed
        t0 = time.perf_counter()
        drive()
        wall = time.perf_counter() - t0
        if shards > 1:
            audit = audit_sharded_run(engine)
            if not audit.consistent:
                raise AssertionError(
                    f"shards={shards}: {audit.summary()}"
                )
        rows = [
            {
                "shard": server.shard_index,
                "clients": len(server.clients),
                "serialized": server.stats.actions_serialized,
                "spans_spliced": server.shard_stats.spans_spliced,
                "push_wall_s": push_wall[server.shard_index],
                "cpu_ms": engine.server_hosts[
                    server.shard_index
                ].cpu_time_used,
            }
            for server in engine.shard_servers
        ]
        bottleneck = {
            "push_wall_s": max(row["push_wall_s"] for row in rows),
            "serialized": max(row["serialized"] for row in rows),
            "cpu_ms": max(row["cpu_ms"] for row in rows),
        }
        bottlenecks.append(bottleneck)
        sweep[str(shards)] = {
            "run_wall_s": wall,
            "bottleneck": bottleneck,
            "shards": rows,
        }
    # The simulated load metrics are deterministic: require a strict
    # drop at every doubling.  Push wall-clock is µs-scale and noisy
    # between adjacent K, so it only has to fall across the full sweep.
    decreasing = (
        all(
            later["serialized"] < earlier["serialized"]
            and later["cpu_ms"] < earlier["cpu_ms"]
            for earlier, later in zip(bottlenecks, bottlenecks[1:])
        )
        and bottlenecks[-1]["push_wall_s"] < bottlenecks[0]["push_wall_s"]
    )
    return {
        "clients": num_clients,
        "moves_per_client": moves_per_client,
        "sweep": sweep,
        "bottleneck_decreasing": decreasing,
    }


def bench_parallel(
    num_clients: int, moves_per_client: int, num_walls: int
) -> dict:
    """Real-core speedup of the multiprocessing backend.

    The K ∈ {1, 2, 4, 8} sweep above measures the *virtual-time*
    bottleneck-shard trajectory; this sweep measures actual wall-clock:
    the same sharded workload run with ``backend="inproc"`` (windowed
    scheduler, one process) and ``backend="parallel"`` (one spawned
    worker per shard, batched cross-shard bundles over the codec).

    Determinism is asserted inline: at every K the two backends must
    produce identical deterministic outputs, so any speedup is free.

    The ≥2x-at-K=4 acceptance only applies on hosts with ≥4 cores
    (``os.cpu_count()``); on smaller hosts the sweep still runs and
    records honest numbers, but the gate reports ``"gated"``.
    """
    import os

    from repro.harness.config import SimulationSettings
    from repro.harness.runner import run_simulation

    def settings(shards: int, backend: str, workers: int) -> SimulationSettings:
        return SimulationSettings(
            num_clients=num_clients,
            num_walls=num_walls,
            moves_per_client=moves_per_client,
            world_width=4000.0,
            world_height=1000.0,
            spawn="uniform",
            rtt_ms=150.0,
            bandwidth_bps=None,
            move_interval_ms=250.0,
            # walls-priced evaluation: per-action cost scales with local
            # wall density, so shard servers carry real simulated CPU
            # and the coordinator windows amortize over long quanta.
            cost_model="walls",
            eval_overhead_ms=1.9,
            # wide epochs: backbone lookahead bounds the barrier rate,
            # so a fat backbone quantum keeps workers off the barrier.
            backbone_latency_ms=25.0,
            seed=29,
            shards=shards,
            backend=backend,
            workers=workers,
        )

    def run_key(r):
        return (
            r.moves_submitted, r.responses_observed, r.response.mean,
            r.total_traffic_kb, r.virtual_ms, r.events, r.total_cpu_ms,
        )

    cores = os.cpu_count() or 1
    sweep = {}
    for shards in (1, 2, 4, 8):
        row: dict = {"shards": shards}
        keys = {}
        # Both backends run the identical windowed schedule (one
        # partition per shard); the only variable is processes.
        for backend in ("inproc", "parallel"):
            result = run_simulation(
                "seve",
                settings(shards, backend, workers=shards),
                check_consistency=False,
            )
            row[f"{backend}_wall_s"] = result.wall_seconds
            keys[backend] = run_key(result)
        if keys["inproc"] != keys["parallel"]:
            raise AssertionError(
                f"parallel backend diverged at K={shards}: {keys}"
            )
        # Context row: one partition owning every shard (what a plain
        # in-process `--shards K` run uses).  Equal-time deliveries can
        # tie-break differently from the W=K schedule, so no identity
        # assertion against it.
        single = run_simulation(
            "seve", settings(shards, "inproc", workers=1),
            check_consistency=False,
        )
        row["single_partition_wall_s"] = single.wall_seconds
        row["identical"] = True
        row["speedup"] = row["inproc_wall_s"] / row["parallel_wall_s"]
        sweep[str(shards)] = row
    return {
        "clients": num_clients,
        "moves_per_client": moves_per_client,
        "walls": num_walls,
        "cores": cores,
        "sweep": sweep,
    }


def parallel_report(quick: bool) -> dict:
    import os

    cores = os.cpu_count() or 1
    body = bench_parallel(
        24 if quick else 256,
        6 if quick else 20,
        3_000 if quick else 10_000,
    )
    k4 = body["sweep"]["4"]["speedup"]
    gated = cores < 4
    report = {
        "benchmark": "parallel",
        "description": (
            "Wall-clock speedup of the multiprocessing shard backend "
            "(one spawned worker per shard, windowed virtual-time "
            "epochs, codec-framed cross-shard bundles) over the "
            "in-process windowed scheduler.  Deterministic outputs are "
            "asserted identical between backends at every K."
        ),
        "unit": "seconds (wall-clock, whole run)",
        **body,
        "acceptance": {
            "metric": "sweep.4.speedup",
            "value": k4,
            "threshold": 2.0,
            "requires_cores": 4,
            "gated": gated,
            "passed": True if gated else k4 >= 2.0,
            "note": (
                f"host has {cores} core(s) < 4: real-core speedup is "
                "physically unavailable, gate recorded as not applicable"
                if gated
                else "measured on a >=4-core host"
            ),
        },
    }
    return report


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    repeats = 2 if quick else 3
    report = {
        "benchmark": "pushpath",
        "description": (
            "Wall-clock cost of the server distribution path, before "
            "(brute-force scans) and after (spatial client index + "
            "inverted write index + fast event core).  Simulated "
            "ServerCosts/virtual-time results are identical either way."
        ),
        "unit": "seconds (wall-clock, best of N rounds)",
        "push_cycle": {
            "512": bench_push_cycle(512, repeats),
            "2048": bench_push_cycle(2048, repeats),
        },
        "closure": bench_closure(2048, repeats),
        "end_to_end": bench_end_to_end(
            64 if quick else 192, 6 if quick else 10
        ),
        "observability": bench_observability(
            32 if quick else 96, 6 if quick else 10
        ),
        "sharding": bench_sharding(
            16 if quick else 32, 8 if quick else 12
        ),
    }
    report["acceptance"] = {
        "metric": "push_cycle.2048.speedup",
        "value": report["push_cycle"]["2048"]["speedup"],
        "threshold": 3.0,
        "passed": report["push_cycle"]["2048"]["speedup"] >= 3.0
        and report["sharding"]["bottleneck_decreasing"],
    }
    text = json.dumps(report, indent=2)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_pushpath.json").write_text(text + "\n")
    (REPO_ROOT / "BENCH_pushpath.json").write_text(text + "\n")
    print(text)
    print(
        f"\npush-cycle @2048 clients: "
        f"{report['push_cycle']['2048']['baseline_brute_s']*1000:.1f} ms -> "
        f"{report['push_cycle']['2048']['indexed_s']*1000:.1f} ms "
        f"({report['push_cycle']['2048']['speedup']:.1f}x)"
    )

    parallel = parallel_report(quick)
    parallel_text = json.dumps(parallel, indent=2)
    (RESULTS_DIR / "BENCH_parallel.json").write_text(parallel_text + "\n")
    (REPO_ROOT / "BENCH_parallel.json").write_text(parallel_text + "\n")
    for shards, row in parallel["sweep"].items():
        print(
            f"parallel K={shards}: inproc {row['inproc_wall_s']:.2f}s -> "
            f"parallel {row['parallel_wall_s']:.2f}s "
            f"({row['speedup']:.2f}x, identical outputs)"
        )
    gate = parallel["acceptance"]
    print(
        f"parallel acceptance: {gate['metric']}={gate['value']:.2f} "
        f"(threshold {gate['threshold']}, "
        f"{'gated: ' + gate['note'] if gate['gated'] else 'measured'})"
    )
    return (
        0
        if report["acceptance"]["passed"] and parallel["acceptance"]["passed"]
        else 1
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The repository benchmark: one command, every metric, a correctness gate.

Run from the repository root::

    python3 perfbench/run.py --workload crowd-k1 --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats the untraced run until ``--seconds`` are used (at
least twice), with set-up-only runs before each repeat and a fixed
reference workload timed between repeats, and reports the end-to-end
metrics as medians.  ``setup_s`` and ``wall_ref_s`` are rescaled to a
host that runs the reference in ``REFERENCE_S``; the raw seconds are
printed as ``setup_raw_s`` and ``wall_s``.  ``--trace 1`` makes a
traced run of the same seed between two untraced ones and reports the
per-layer metrics.  Either way the last line of standard output is one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` counts submitted moves and ``failed`` the moves
left with neither a stable response nor an Information Bound drop.
The metric names, units and bounds are the ones in ``BENCHMARK.json``.
A full record of the run, stamped with the host and the code, is
written under ``.perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

OUT_DIR = ROOT / ".perfbench"
WORKER_DIR = OUT_DIR / "workers"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
#: Seeds used while the benchmark was written and tuned; their
#: fingerprints are recorded.  Any other seed is held out: a later claim
#: can be re-checked on one that no one tuned against.
DEVELOPMENT_SEEDS = range(10)
#: Set-up-only runs before each untraced repeat; ``setup_s`` is the
#: median over them and the repeats' own set-ups.
SETUPS_PER_RUN = 3
#: The largest share of a traced run's wall time (after set-up) that may
#: fall outside every layer span.
UNATTRIBUTED_MAX = 0.10
#: The reference host runs ``_reference_work`` in exactly this long;
#: ``setup_s`` and ``wall_ref_s`` are host times rescaled to that host.
REFERENCE_S = 1.0

try:
    import repro
except ImportError:
    repro = None

if repro is not None and __name__ == "__mp_main__":
    # A spawned partition worker imports this module before it unpickles
    # its target; that is the one chance to hook it.
    from probe import install_worker_hooks

    install_worker_hooks(WORKER_DIR)


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _check_checkout() -> dict:
    """The benchmark definition; refuses to run without the program."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        _fail(f"cannot read BENCHMARK.json: {error}")
    if repro is None:
        _fail(f"the program is not here: no importable repro under {ROOT / 'src'}")
    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        _fail(f"repro was imported from {source}, outside this checkout")
    return spec


# ---------------------------------------------------------------------------
# Stamp
# ---------------------------------------------------------------------------
def _git_sha() -> str:
    """HEAD of this checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """Digest of every source file, so a checkout without git history
    still names the code it measured."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _stamp(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seed_role": "development" if seed in DEVELOPMENT_SEEDS else "held-out",
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
    }


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------
def _reference_work() -> float:
    """Fixed interpreter work of the kinds the simulator does: slotted
    objects, dict lookups and float updates, touched in a shuffled order
    over a working set of about 45 MB.

    A working set far larger than the caches slows down with the
    simulator when a neighbour on the host contends for cache and
    memory: run for run, the simulator's time divided by this
    reference's varied less than divided by a cache-resident one's.
    """

    class Node:
        __slots__ = ("key", "value", "next")

        def __init__(self, key, value, next_node):
            self.key = key
            self.value = value
            self.next = next_node

    nodes, previous = [], None
    for i in range(200_000):
        previous = Node(i, float(i), previous)
        nodes.append(previous)
    table = {i * 7919: nodes[i] for i in range(0, 200_000, 2)}
    order = list(range(200_000))
    random.Random(7).shuffle(order)
    total = 0.0
    for _ in range(2):
        for i in order:
            node = nodes[i]
            node.value += 0.5
            hit = table.get(node.key * 7919)
            if hit is not None:
                total += hit.value
    return total


def _time_reference() -> float:
    """Host seconds ``_reference_work`` takes in this process."""
    gc.collect()
    started = time.perf_counter()
    _reference_work()
    return time.perf_counter() - started


def _reference_s() -> float:
    """Host seconds for ``_reference_work`` right now.

    A shared 2-core virtual machine ran the same code up to 1.5x slower
    for minutes at a time, with process CPU time tracking wall time, so
    the slowdown was the host's, not the scheduler's.  A time
    divided by the mean of the reference timed just before and just
    after it follows the code, not that drift.  The reference runs in a
    child interpreter, so its memory stays out of this process's heap
    and peak RSS.
    """
    done = subprocess.run(
        [sys.executable, "-c", "import run; print(run._time_reference())"],
        cwd=Path(__file__).resolve().parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout)


def _setup_once(workload, settings) -> float:
    """Seconds to set ``settings`` up, up to the first virtual event."""
    from probe import RunProbe

    gc.collect()
    probe = RunProbe(WORKER_DIR, setup_only=True)
    return probe.run(workload.architecture, settings)[1]


def _run_once(workload, settings, call=None, extra_patches=()) -> dict:
    from repro.net.backend import resolve_workers

    from probe import RunProbe, fingerprint, patched, peak_rss_mb

    # Garbage left by the previous run would otherwise be collected
    # inside this run's timed region.
    gc.collect()
    probe = RunProbe(WORKER_DIR)
    with patched(extra_patches):
        result, setup_s, total_s, workers = probe.run(
            workload.architecture, settings, call=call
        )
    engine = probe.engine
    submitted = sum(client.stats.submitted for client in engine.clients.values())
    drops = round(result.drop_percent * submitted / 100.0)
    audit = result.shard_audit if result.shard_audit is not None else result.consistency
    check_objects = result.consistency.objects_checked
    wall_s = total_s - setup_s
    return {
        "result": result,
        "seed": settings.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "total_s": total_s,
        "virtual_s": result.virtual_ms / 1000.0,
        "events": result.events,
        "peak_rss_mb": peak_rss_mb(workers),
        "workers": workers,
        "spawned": resolve_workers(settings) if settings.backend == "parallel" else 0,
        "moves": result.moves_submitted,
        "responses": result.responses_observed,
        "drops": drops,
        "failed": result.moves_submitted - result.responses_observed - drops,
        "consistent": audit.consistent,
        "check_objects": check_objects,
        "check_violations": result.consistency.violation_count
        + len(getattr(result.shard_audit, "order_violations", ())),
        "pickle_fallbacks": probe.pickle_fallbacks
        + sum(report["pickle_fallbacks"] for report in workers),
        "messages": engine.network.meter.total_messages,
        "fingerprint": fingerprint(result, engine),
    }


E2E_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "setup_raw_s": "s",
    "wall_s": "s",
    "host_s_per_vsec": "s/s",
    "peak_rss_mb": "MB",
    "response_p50_ms": "ms",
    "response_p99_ms": "ms",
    "traffic_kb_per_client": "KB",
    "answered_pct": "%",
    "drop_pct": "%",
    "failed_pct": "%",
}


def _end_to_end(run: dict) -> dict:
    """Every end-to-end figure of one run; BENCHMARK.json bounds the
    steady ones, the rest are printed and recorded."""
    result = run["result"]
    return {
        "setup_s": run["setup_s"],
        "wall_s": run["wall_s"],
        "host_s_per_vsec": run["wall_s"] / run["virtual_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "response_p50_ms": result.response.p50,
        "response_p99_ms": result.response.p99,
        "traffic_kb_per_client": result.client_traffic_kb,
        "answered_pct": 100.0 * run["responses"] / run["moves"],
        "drop_pct": 100.0 * run["drops"] / run["moves"],
        "failed_pct": 100.0 * run["failed"] / run["moves"],
    }


def _summary(run: dict) -> dict:
    """The JSON-safe part of a run's record."""
    return {
        key: value
        for key, value in run.items()
        if key not in ("result", "workers", "figures")
    } | {
        "worker_reports": len(run["workers"]),
        "response_samples": run["result"].response.count,
        "end_to_end": _end_to_end(run),
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------
def _measure(workload, seed: int, seconds: float) -> tuple:
    """Untraced repeats until ``seconds`` are used, at least two of each
    program seed in the workload's batch, taken in turn.

    Each repeat is ``SETUPS_PER_RUN`` set-up-only runs and one full run,
    between two timings of the reference; its set-up and wall times are
    rescaled by the mean of those two.  A metric is the mean over the
    batch of each program seed's median (``setup_s`` is the median of
    all set-ups).  Returns the runs, the metrics and every set-up sample
    as ``(raw_s, rescaled_s)``.
    """
    batch = [workload.settings(program_seed) for program_seed in workload.run_seeds(seed)]
    started = time.perf_counter()
    runs, setups = [], []
    references = [_reference_s()]
    while True:
        settings = batch[len(runs) % len(batch)]
        fresh = [_setup_once(workload, settings) for _ in range(SETUPS_PER_RUN)]
        run = _run_once(workload, settings)
        references.append(_reference_s())
        run["reference_s"] = (references[-2] + references[-1]) / 2.0
        scale = REFERENCE_S / run["reference_s"]
        run["wall_ref_s"] = run["wall_s"] * scale
        setups += [(setup, setup * scale) for setup in fresh + [run["setup_s"]]]
        runs.append(run)
        now = time.perf_counter()
        if (
            len(runs) >= 2 * len(batch)
            and now - started + (now - started) / len(runs) > seconds
        ):
            break
    for run in runs:
        run["figures"] = _end_to_end(run) | {"wall_ref_s": run["wall_ref_s"]}
    groups = [[run for run in runs if run["seed"] == each.seed] for each in batch]

    def batch_mean(name: str) -> float:
        return statistics.fmean(
            statistics.median(run["figures"][name] for run in group) for group in groups
        )

    metrics = {
        "setup_s": statistics.median(rescaled for _, rescaled in setups),
        "wall_ref_s": batch_mean("wall_ref_s"),
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
    }
    metrics |= {name: batch_mean(name) for name in runs[0]["figures"] if name not in metrics}
    return runs, metrics, setups


def _trace(workload, seed: int) -> tuple:
    """A traced run between two untraced ones, all in this process.

    A partitioned workload (``spread-k2``) also gets one run on the
    parallel backend: the coordinator's wait on worker reports, the
    workers' busy time and their memory exist only there, and its
    fingerprint must match the in-process runs'.
    """
    from repro.harness.runner import run_simulation
    from repro.net import backend

    from tracer import Tracer

    program_seed = workload.run_seeds(seed)[0]
    settings = workload.settings(program_seed)
    parallel = workload.parallel_settings(program_seed)
    runs = []
    barrier = {"wait_s": 0.0, "reports": 0}
    if parallel is not None:

        def timed_recv(original):
            def wrapper(handle):
                started = time.perf_counter()
                try:
                    return original(handle)
                finally:
                    barrier["wait_s"] += time.perf_counter() - started
                    barrier["reports"] += 1

            return wrapper

        runs.append(
            _run_once(
                workload,
                parallel,
                extra_patches=[(backend._ProcessHandle, "recv_report", timed_recv)],
            )
        )
    before = _run_once(workload, settings)
    tracer = Tracer()
    traced = _run_once(
        workload,
        settings,
        call=tracer.root(run_simulation),
        extra_patches=tracer.patches(),
    )
    after = _run_once(workload, settings)
    runs += [before, after, traced]
    untraced_wall_s = (before["wall_s"] + after["wall_s"]) / 2.0
    tracer.write(OUT_DIR / "spans" / f"{workload.name}-seed{seed}.json")

    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    result = traced["result"]
    shard_rows = result.shard_rows or []
    workers = runs[0]["workers"]
    n_workers = max(1, runs[0]["spawned"])
    per_layer = {
        "sim.events": result.events,
        "sim.self_s": self_s.get("sim", 0.0),
        "walls.path_blocked.calls": calls["walls.path_blocked"],
        "walls.path_blocked.self_s": self_s.get("walls.path_blocked", 0.0),
        "walls.path_blocked.distinct_ratio": (
            tracer.distinct_walk_pairs() / calls["walls.path_blocked"]
            if calls["walls.path_blocked"]
            else 0.0
        ),
        "spatial.radius_queries": calls["spatial"],
        "spatial.self_s": self_s.get("spatial", 0.0),
        "push.cycles": calls["push"],
        "push.self_s": self_s.get("push", 0.0),
        "push.queries_per_validated_entry": (
            calls["spatial"] / counts["infobound.entries"]
            if calls["push"] and counts["infobound.entries"]
            else 0.0
        ),
        "closure.calls": calls["closure"],
        "closure.self_s": self_s.get("closure", 0.0),
        "closure.mean_entries": (
            counts["closure.entries"] / counts["closure.chains"]
            if counts["closure.chains"]
            else 0.0
        ),
        "infobound.validate_calls": calls["infobound"],
        "infobound.self_s": self_s.get("infobound", 0.0),
        "client.apply_calls": calls["client.apply"],
        "client.apply_self_s": self_s.get("client.apply", 0.0),
        "client.evals_per_move": counts["client.evals"] / traced["moves"],
        "shard.spans_forwarded": sum(row["spans_forwarded"] for row in shard_rows),
        "shard.spans_spliced": sum(row["spans_spliced"] for row in shard_rows),
        "shard.handoffs": sum(row["handoffs_out"] for row in shard_rows),
        "codec.frames": counts["codec.frames"],
        "codec.bytes": counts["codec.bytes"],
        "codec.self_s": self_s.get("codec", 0.0),
        "codec.pickle_fallbacks": sum(run["pickle_fallbacks"] for run in runs),
        "backend.windows": barrier["reports"] // n_workers,
        "backend.barrier_wait_s": barrier["wait_s"],
        "backend.worker_busy_s": sum(report["busy_s"] for report in workers),
        "net.messages": traced["messages"],
        "net.send_self_s": self_s.get("net.send", 0.0),
        "net.on_packet_self_s": self_s.get("net.on_packet", 0.0),
        "net.retransmissions": result.retransmissions,
        "net.dropped": result.messages_dropped,
        "host.work_items": counts["host.work_items"],
        "host.sim_cpu_ms": result.total_cpu_ms,
        "check.objects": traced["check_objects"],
        "check.self_s": self_s.get("check", 0.0),
        "check.violations": traced["check_violations"],
        "trace.unattributed_s": _unattributed_s(self_s, traced),
        "trace.overhead_pct": 100.0
        * (traced["wall_s"] - untraced_wall_s)
        / untraced_wall_s,
    }
    return runs, per_layer, _self_check(workload, tracer, self_s, traced), self_s


# ---------------------------------------------------------------------------
# Gate and output
# ---------------------------------------------------------------------------
def _gate(workload: str, runs: list) -> dict:
    """Every check a run must pass, by name."""
    recorded = json.loads(FINGERPRINTS.read_text()).get(workload, {})
    prints: dict = {}
    for run in runs:
        prints.setdefault(str(run["seed"]), set()).add(run["fingerprint"])
    return {
        # Theorem 1 at K=1; the cross-shard span-order and replica audit
        # at K=2.
        "consistent": all(run["consistent"] for run in runs),
        "every_move_accounted": all(run["failed"] == 0 for run in runs),
        "no_pickle_fallbacks": all(run["pickle_fallbacks"] == 0 for run in runs),
        # Per program seed: equal across repeats, and across traced /
        # untraced / parallel, and equal to the recorded one.
        "fingerprint_repeats": all(len(seen) == 1 for seen in prints.values()),
        "fingerprint_recorded": all(
            seed not in recorded or seen == {recorded[seed]}
            for seed, seen in prints.items()
        ),
        # One report from every spawned worker, or its peak RSS, busy
        # time and pickle fallbacks would go uncounted.
        "workers_reported": all(len(run["workers"]) == run["spawned"] for run in runs),
    }


def _unattributed_s(self_s: dict, traced: dict) -> float:
    """The root span's self time after set-up: time no layer span covers.

    World and engine build are outside every layer span, so set-up is
    taken off; what is left is harness code and any layer the tracer
    missed.
    """
    return max(0.0, self_s["run"] - traced["setup_s"])


def _self_check(workload, tracer, self_s: dict, traced: dict) -> dict:
    """Does the traced run enter exactly the workload's layers, and do
    their spans cover all but ``UNATTRIBUTED_MAX`` of its wall time?

    A layer entry point the tracer no longer reaches (renamed, or looked
    up somewhere it is not patched) shows as a missing layer, or as time
    left to the root span.  Self times plus the root's add up to the
    root span by construction, so that sum is not checked.
    """
    calls = tracer.calls()
    entered = {name for name in calls if name != "run" and calls[name]}
    share = _unattributed_s(self_s, traced) / traced["wall_s"]
    return {
        "missing": sorted(workload.layers - entered),
        "unexpected": sorted(entered - workload.layers),
        "unattributed_share": share,
        "ok": entered == workload.layers and share <= UNATTRIBUTED_MAX,
    }


def _print_table(title: str, rows: dict, units: dict) -> None:
    print(title)
    for name, value in rows.items():
        print(f"  {name:<36} {value:>14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = _check_checkout()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }

    record = {
        "stamp": _stamp(workload.name, args.seed)
        | {"program_seeds": workload.run_seeds(args.seed)},
        "trace": args.trace,
    }
    if args.trace:
        runs, metrics, check, self_s = _trace(workload, args.seed)
        record |= {"self_check": check, "self_s": self_s}
        figures = _end_to_end(runs[0])
        wanted = [metric["name"] for metric in spec["per_layer"]]
    else:
        runs, figures, setups = _measure(workload, args.seed, args.seconds)
        record |= {"setup_samples_s": setups}
        check = {"ok": True}
        metrics = figures
        wanted = list(bounds)
    missing = set(wanted) - set(metrics)
    missing |= {name for name in bounds if units[name] != E2E_UNITS[name]}
    if missing:
        raise RuntimeError(f"BENCHMARK.json disagrees on metrics: {sorted(missing)}")
    gate = _gate(workload.name, runs) | {"trace_self_check": check["ok"]}
    correct = all(gate.values())
    record |= {
        "gate": gate,
        "end_to_end": figures,
        "per_layer": metrics if args.trace else None,
        "runs": [_summary(run) for run in runs],
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    stamp = record["stamp"]
    print(
        f"perfbench {workload.name} seed={args.seed} ({stamp['seed_role']}) "
        f"cores={stamp['cores']} python={stamp['python']} "
        f"git={stamp['git_sha'][:12]} src={stamp['source_digest']}"
    )
    last = runs[-1]
    prints = sorted({(run["seed"], run["fingerprint"]) for run in runs})
    print(
        f"  runs={len(runs)} fingerprints(seed:digest)="
        + " ".join(f"{seed}:{digest}" for seed, digest in prints)
        + f" moves={last['moves']} responses={last['responses']} "
        f"drops={last['drops']} failed={last['failed']} "
        f"response samples={last['result'].response.count}"
    )
    _print_table(
        "  end-to-end (bounded in BENCHMARK.json: " + ", ".join(bounds) + "):",
        figures,
        E2E_UNITS,
    )
    if args.trace:
        _print_table("  per-layer (traced run):", metrics, units)
        print(
            f"  self-check: layers missing {check['missing']}, unexpected "
            f"{check['unexpected']}; unattributed "
            f"{100 * check['unattributed_share']:.1f}% of the traced wall time "
            f"(at most {100 * UNATTRIBUTED_MAX:.0f}%) -> "
            f"{'ok' if check['ok'] else 'FAILED'}"
        )
    for name, passed in gate.items():
        if not passed:
            print(f"  GATE FAILED: {name}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(run["moves"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted
                },
            }
        )
    )
    return 0


def _stop_processes() -> None:
    """Wait for every process this benchmark started.

    The backend joins its partition workers; ``spawn`` also starts one
    resource tracker per interpreter and leaves it to outlive the
    parent, so it is stopped and waited for here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        _stop_processes()

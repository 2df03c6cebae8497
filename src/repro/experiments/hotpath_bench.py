"""Hot-path benchmark: stage timings for the construction pipeline.

Times the stages the spanner construction actually spends its cycles
in — UDG build, Gabriel graph, LDel^1, Algorithm 3 planarization (the
two together reported as ``pldel``), and the full ICDS backbone — on
the deployment recipe the paper's experiments use (uniform points in a
``10 sqrt(n)`` square, radius 25), and compares against a recorded
baseline so regressions show up as a number, not a feeling.

The ``backbone_fast`` section times the message-passing backbone
protocol against the direct-computation fast path and the sharded
build, with a bit-identical tripwire on the dominator/connector/edge
sets (any divergence is a hard failure, not a statistic).

The ``metrics`` section times the *measurement* side: summarizing the
full Table I topology family (all three stretch kinds, the paper's
pair filters) through the reference implementation — fresh all-pairs
matrices per call plus the pure-Python pair reduction, the pre-oracle
code path — against a per-deployment
:class:`~repro.core.oracle.DistanceOracle` (memoized matrices +
vectorized kernels), cold and warm.  Tripwires: every oracle result
must match the reference within ``PARITY_RTOL`` (bit-exactly for
``max``/``pairs``/``unreachable_pairs``), and the no-numpy/no-scipy
fallback must match the pure-Python reference *exactly*.

The ``incremental`` section times the maintenance side: per-step cost
of the :mod:`repro.incremental` engine under single-node waypoint
moves against the from-scratch fast rebuild it replaces, with the
rebuild-equivalence tripwire after the trace, plus the long-trace
acceptance run (bit-identity asserted after every batch).

Shared by ``benchmarks/bench_hotpath.py`` (standalone CLI), the
``hotpath`` mode of :mod:`repro.experiments.harness`, and the CI
bench-smoke job.  Output is machine-readable JSON
(``hotpath-bench/v1``); baselines use the sibling
``hotpath-baseline/v1`` schema with the same per-size layout.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.core.spanner import build_backbone
from repro.graphs.udg import UnitDiskGraph
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import local_delaunay_graph, planarize_ldel1
from repro.workloads.generators import connected_udg_instance

#: Deployment sizes the regression harness tracks.
DEFAULT_SIZES = (200, 500, 1000, 2000)
#: Sizes the sharded-vs-serial comparison runs at (ISSUE 3).
SHARDED_SIZES = (1000, 2000, 5000)
#: Sizes the SoA-vs-reference construction-core comparison runs at.
SOA_SIZES = (1000, 2000, 5000)
#: Sizes the fast-vs-protocol backbone comparison runs at (ISSUE 4).
BACKBONE_FAST_SIZES = (1000, 2000, 5000)
#: Sizes the metrics-engine comparison runs at (ISSUE 5).
METRICS_SIZES = (200, 1000)
#: Sizes the incremental-vs-rebuild maintenance comparison runs at.
INCREMENTAL_SIZES = (1000, 2000)
#: Timed single-move maintenance steps per size in the incremental stage.
INCREMENTAL_STEPS = 30
#: Sizes the batch-vs-scalar routing comparison runs at (ISSUE 9).
ROUTING_SIZES = (2000,)
#: (s, t) pairs routed per size in the routing stage.
ROUTING_PAIRS = 10_000
#: Scalar-loop subset the per-pair scalar cost is measured on (the
#: full scalar sweep would dominate the stage; the extrapolation is
#: conservative — it excludes the pathological long face walks that
#: cost the scalar side the most).
ROUTING_SCALAR_PAIRS = 300
#: Pairs in the hop-for-hop path-identity tripwire subset.
ROUTING_IDENTITY_PAIRS = 200
#: Scalar subset for the per-pair-Dijkstra shortest-mode comparison.
ROUTING_SHORTEST_SCALAR_PAIRS = 100
#: The long-trace acceptance run: deployment size and batch count.
INCREMENTAL_TRACE_SIZE = 1000
INCREMENTAL_TRACE_STEPS = 200
#: Summarize passes per deployment in the metrics stage — the sweep
#: protocol's per-point repetition count (``bench_table1`` runs three
#: rounds; the fig sweeps replay points under pytest-benchmark
#: calibration the same way).
METRICS_REPS = 3
#: Size of the pure-Python fallback exactness tripwire (kept small:
#: the fallback APSP is the slow path being replaced).
METRICS_FALLBACK_SIZE = 120
DEFAULT_RADIUS = 25.0
DEFAULT_SEED = 2002
DEFAULT_SHARDS = 4

#: Stage keys in reporting order.
STAGES = ("udg", "gabriel", "ldel1", "planarize", "pldel", "backbone")

BENCH_SCHEMA = "hotpath-bench/v1"
BASELINE_SCHEMA = "hotpath-baseline/v1"


def default_baseline_path() -> Path:
    """The checked-in baseline next to the benchmarks CLI."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "baseline_hotpath.json"


def remediation_command(path: str | Path) -> str:
    """The exact command that re-pins the baseline at ``path``.

    Printed whenever a strict baseline load fails, so the fix is a
    copy-paste (run on a known-good commit) rather than a doc hunt.
    """
    return (
        "PYTHONPATH=src python benchmarks/bench_hotpath.py "
        f"--write-baseline --baseline {path}"
    )


def measure_size(
    n: int,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    reps: int = 1,
) -> dict:
    """Stage timings and edge counts for one size.

    The deployment is sampled once (``connected_udg_instance`` with a
    size-derived side, so density stays constant across ``n``); each
    stage is timed ``reps`` times and the minimum kept — the usual
    guard against scheduler noise.  Edge counts are recorded so a
    baseline comparison can assert the optimized pipeline still builds
    the *same* graphs.
    """
    side = 10.0 * math.sqrt(n)
    dep = connected_udg_instance(n, side, radius, random.Random(seed))
    seconds: dict[str, float] = {}
    edges: dict[str, int] = {}

    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        udg = UnitDiskGraph(list(dep.points), dep.radius)
        t_udg = time.perf_counter() - t0

        t0 = time.perf_counter()
        gg = gabriel_graph(udg)
        t_gg = time.perf_counter() - t0

        t0 = time.perf_counter()
        ldel1 = local_delaunay_graph(udg, k=1)
        t_ldel1 = time.perf_counter() - t0

        t0 = time.perf_counter()
        pldel = planarize_ldel1(udg, ldel1)
        t_plan = time.perf_counter() - t0

        t0 = time.perf_counter()
        backbone = build_backbone(dep.points, dep.radius)
        t_bb = time.perf_counter() - t0

        rep_seconds = {
            "udg": t_udg,
            "gabriel": t_gg,
            "ldel1": t_ldel1,
            "planarize": t_plan,
            "pldel": t_ldel1 + t_plan,
            "backbone": t_bb,
        }
        for key, value in rep_seconds.items():
            seconds[key] = min(seconds.get(key, value), value)
        edges = {
            "udg": udg.edge_count,
            "gabriel": gg.edge_count,
            "ldel1": ldel1.graph.edge_count,
            "pldel": pldel.graph.edge_count,
            "backbone": backbone.ldel_icds.edge_count,
        }

    return {
        "seconds": {k: round(v, 6) for k, v in seconds.items()},
        "edges": edges,
    }


def run_benchmark(
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    reps: int = 1,
    baseline: Optional[dict] = None,
    baseline_path: Optional[str] = None,
) -> dict:
    """Benchmark every size and fold in the baseline comparison."""
    results = {str(n): measure_size(n, radius=radius, seed=seed, reps=reps) for n in sizes}
    report: dict = {
        "schema": BENCH_SCHEMA,
        "params": {
            "generator": "uniform",
            "side": "10*sqrt(n)",
            "radius": radius,
            "seed": seed,
            "reps": reps,
        },
        "sizes": list(sizes),
        "results": results,
    }
    if baseline is not None:
        report["baseline"] = {
            "path": baseline_path,
            "commit": baseline.get("commit"),
            "schema": baseline.get("schema"),
        }
        report["speedup"] = compare_to_baseline(results, baseline)
    return report


def compare_to_baseline(results: dict, baseline: dict) -> dict:
    """Per-size, per-stage speedup factors plus edge-count agreement.

    ``speedup > 1`` means the current code is faster than the recorded
    baseline; ``edges_match`` is the regression tripwire — a speedup
    bought by building a different graph is a bug, not an optimization.
    """
    out: dict = {}
    base_results = baseline.get("results", {})
    for key, current in results.items():
        base = base_results.get(key)
        if base is None:
            continue
        stage_speedup = {}
        for stage in STAGES:
            now = current["seconds"].get(stage)
            then = base["seconds"].get(stage)
            if now and then:
                stage_speedup[stage] = round(then / now, 3)
        out[key] = {
            "speedup": stage_speedup,
            "edges_match": current["edges"] == base["edges"],
        }
    return out


class BaselineError(RuntimeError):
    """The baseline file is missing, unreadable, or the wrong schema.

    Raised by :func:`load_baseline_strict` so CI entry points can turn
    a broken baseline into a one-line diagnosis instead of a traceback
    (or, worse, a silent run with no regression comparison at all).
    """


def load_baseline(path: str | Path) -> Optional[dict]:
    """Parse a baseline file; ``None`` when absent or unreadable."""
    try:
        return load_baseline_strict(path)
    except BaselineError:
        return None


def load_baseline_strict(path: str | Path) -> dict:
    """Parse a baseline file or raise :class:`BaselineError` saying why."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise BaselineError(
            f"baseline file not found: {path} — run with --write-baseline "
            "on a known-good commit to create it"
        ) from None
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from None
    except ValueError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from None
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != BASELINE_SCHEMA:
        raise BaselineError(
            f"baseline {path} has schema {schema!r}, expected "
            f"{BASELINE_SCHEMA!r} — stale baseline; re-pin it with "
            "--write-baseline"
        )
    return data


def baseline_from_report(report: dict, commit: str = "unknown") -> dict:
    """Re-pin a baseline file from a fresh benchmark report.

    The ``metrics`` section is optional in both directions: it is only
    recorded when the report ran the metrics stage, and baselines
    pinned before the stage existed stay valid (the comparison just
    skips the missing section).
    """
    baseline = {
        "schema": BASELINE_SCHEMA,
        "commit": commit,
        "params": report["params"],
        "sizes": report["sizes"],
        "results": {
            key: {"seconds": value["seconds"], "edges": value["edges"]}
            for key, value in report["results"].items()
        },
    }
    metrics = report.get("metrics")
    if metrics:
        baseline["metrics"] = {
            "sizes": metrics["sizes"],
            "results": {
                key: {"seconds": value["seconds"]}
                for key, value in metrics["results"].items()
            },
        }
    routing = report.get("routing")
    if routing:
        baseline["routing"] = {
            "sizes": routing["sizes"],
            "pairs": routing["pairs"],
            "results": {
                key: {"seconds": value["seconds"]}
                for key, value in routing["results"].items()
            },
        }
    return baseline


def measure_sharded(
    n: int,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    shards: int = DEFAULT_SHARDS,
    max_workers: Optional[int] = None,
    reps: int = 1,
) -> dict:
    """Serial vs sharded PLDel at one size: timings and bit-identity.

    ``serial`` is the single-process pipeline
    (:func:`~repro.topology.ldel.planar_local_delaunay_graph`);
    ``sharded`` is the tiled build from
    :mod:`repro.sharding` on the same deployment.  ``edges_match`` is
    the tripwire: the stitch must reproduce the serial edge set
    bit-for-bit, or the speedup is meaningless.
    """
    from repro.sharding.build import sharded_pldel
    from repro.topology.ldel import planar_local_delaunay_graph

    side = 10.0 * math.sqrt(n)
    dep = connected_udg_instance(n, side, radius, random.Random(seed))
    points = list(dep.points)

    serial_s = sharded_s = math.inf
    serial_result = sharded_result = None
    stats = None
    for _ in range(max(1, reps)):
        udg = UnitDiskGraph(points, dep.radius)
        t0 = time.perf_counter()
        serial_result = planar_local_delaunay_graph(udg)
        serial_s = min(serial_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        sharded_result, stats = sharded_pldel(
            points, dep.radius, shards=shards, max_workers=max_workers
        )
        sharded_s = min(sharded_s, time.perf_counter() - t0)

    assert serial_result is not None and sharded_result is not None
    assert stats is not None
    edges_match = (
        sharded_result.graph.edge_set() == serial_result.graph.edge_set()
        and sharded_result.triangles == serial_result.triangles
    )
    return {
        "seconds": {
            "serial_pldel": round(serial_s, 6),
            "sharded_pldel": round(sharded_s, 6),
        },
        "speedup": round(serial_s / sharded_s, 3) if sharded_s else None,
        "edges": sharded_result.graph.edge_count,
        "edges_match": edges_match,
        "shards": shards,
        "tiles": stats.tiles,
        "grid": list(stats.grid),
        "mode": stats.mode,
        "workers": stats.workers,
        "straddle_contests": stats.counters.get("straddle_contests", 0),
    }


def run_sharded_benchmark(
    sizes: Sequence[int] = SHARDED_SIZES,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    shards: int = DEFAULT_SHARDS,
    max_workers: Optional[int] = None,
    reps: int = 1,
) -> dict:
    """The sharded-vs-serial section of the benchmark report."""
    return {
        "shards": shards,
        "sizes": list(sizes),
        "results": {
            str(n): measure_sharded(
                n, radius=radius, seed=seed, shards=shards,
                max_workers=max_workers, reps=reps,
            )
            for n in sizes
        },
    }


def measure_soa(
    n: int,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    reps: int = 2,
) -> dict:
    """Array-native pipeline vs pure-Python reference at one size.

    Runs the full construction pipeline (UDG build, Gabriel, LDel^1,
    planarization) twice: with the SoA kernels active and with numpy
    masked out via :func:`repro.core.compat.numpy_disabled` (the exact
    reference path the kernels promise bit-identity to).  An untimed
    warmup pass precedes the SoA measurements — the very first batch
    kernel invocation pays one-time allocator costs (first-touch page
    faults on the large temporaries) that would otherwise charge
    construction for a process-lifetime event.  ``identical`` is the
    tripwire: every stage's edge set (and both triangle lists) must
    match the reference bit for bit, or any speedup is meaningless.
    """
    from repro.core import compat

    side = 10.0 * math.sqrt(n)
    dep = connected_udg_instance(n, side, radius, random.Random(seed))
    points = list(dep.points)

    def pipeline():
        seconds: dict[str, float] = {}
        t0 = time.perf_counter()
        udg = UnitDiskGraph(points, dep.radius)
        seconds["udg"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        gg = gabriel_graph(udg)
        seconds["gabriel"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ldel1 = local_delaunay_graph(udg, k=1)
        seconds["ldel1"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        pldel = planarize_ldel1(udg, ldel1)
        seconds["planarize"] = time.perf_counter() - t0
        seconds["pldel"] = seconds["ldel1"] + seconds["planarize"]
        seconds["end_to_end"] = seconds["udg"] + seconds["pldel"]
        return seconds, udg, gg, ldel1, pldel

    numpy_active = compat.numpy_active()
    if numpy_active:
        pipeline()  # warmup (see docstring)
    soa_seconds: dict[str, float] = {}
    artifacts = None
    for _ in range(max(1, reps)):
        rep_seconds, *artifacts = pipeline()
        for key, value in rep_seconds.items():
            soa_seconds[key] = min(soa_seconds.get(key, value), value)
    assert artifacts is not None
    with compat.numpy_disabled():
        ref_seconds, *reference = pipeline()

    s_udg, s_gg, s_ldel1, s_pldel = artifacts
    r_udg, r_gg, r_ldel1, r_pldel = reference
    identical = (
        s_udg.edge_set() == r_udg.edge_set()
        and s_gg.edge_set() == r_gg.edge_set()
        and s_ldel1.graph.edge_set() == r_ldel1.graph.edge_set()
        and s_ldel1.triangles == r_ldel1.triangles
        and s_pldel.graph.edge_set() == r_pldel.graph.edge_set()
        and s_pldel.triangles == r_pldel.triangles
    )
    return {
        "seconds": {k: round(v, 6) for k, v in soa_seconds.items()},
        "reference_seconds": {k: round(v, 6) for k, v in ref_seconds.items()},
        "speedup": {
            k: round(ref_seconds[k] / v, 3)
            for k, v in soa_seconds.items()
            if v > 0.0
        },
        "edges": {
            "udg": s_udg.edge_count,
            "gabriel": s_gg.edge_count,
            "ldel1": s_ldel1.graph.edge_count,
            "pldel": s_pldel.graph.edge_count,
        },
        "numpy_active": numpy_active,
        "identical": identical,
    }


def measure_soa_scale(
    n: int,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
) -> dict:
    """One large-``n`` SoA construction; no reference pass.

    The scale probe behind the "n = 10^5 on one box" target: times the
    pipeline once with the kernels active and records sizes, without
    the (hours-long at this scale) pure-Python comparison run.
    """
    side = 10.0 * math.sqrt(n)
    dep = connected_udg_instance(n, side, radius, random.Random(seed))
    points = list(dep.points)
    t0 = time.perf_counter()
    udg = UnitDiskGraph(points, dep.radius)
    t_udg = time.perf_counter() - t0
    t0 = time.perf_counter()
    ldel1 = local_delaunay_graph(udg, k=1)
    t_ldel1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    pldel = planarize_ldel1(udg, ldel1)
    t_plan = time.perf_counter() - t0
    return {
        "n": n,
        "seconds": {
            "udg": round(t_udg, 6),
            "ldel1": round(t_ldel1, 6),
            "planarize": round(t_plan, 6),
            "end_to_end": round(t_udg + t_ldel1 + t_plan, 6),
        },
        "edges": {
            "udg": udg.edge_count,
            "ldel1": ldel1.graph.edge_count,
            "pldel": pldel.graph.edge_count,
        },
        "triangles": len(pldel.triangles),
    }


def run_soa_benchmark(
    sizes: Sequence[int] = SOA_SIZES,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    reps: int = 2,
    scale: Optional[int] = None,
) -> dict:
    """The SoA-vs-reference section of the benchmark report."""
    section: dict = {
        "sizes": list(sizes),
        "results": {
            str(n): measure_soa(n, radius=radius, seed=seed, reps=reps)
            for n in sizes
        },
    }
    if scale:
        section["scale"] = measure_soa_scale(scale, radius=radius, seed=seed)
    return section


def _same_backbone(result, reference) -> bool:
    """Bit-identity of the structures two backbone builds produced."""
    return (
        result.dominators == reference.dominators
        and result.connectors == reference.connectors
        and result.cds.edge_set() == reference.cds.edge_set()
        and result.icds.edge_set() == reference.icds.edge_set()
        and result.ldel_icds.edge_set() == reference.ldel_icds.edge_set()
        and result.ldel_icds_prime.edge_set() == reference.ldel_icds_prime.edge_set()
    )


def measure_backbone_fast(
    n: int,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    shards: int = DEFAULT_SHARDS,
    max_workers: Optional[int] = None,
    reps: int = 1,
) -> dict:
    """Protocol vs fast vs sharded-fast backbone at one size.

    The message-passing protocol path is timed once (it is the slow
    reference being replaced); the direct-computation path and the
    sharded build take the min over ``reps``.  ``identical`` and
    ``sharded_identical`` are the tripwires: dominator set, connector
    set, and all four certified edge sets must match the protocol path
    bit-for-bit, or the speedup is a bug.
    """
    from repro.sharding.build import sharded_backbone

    side = 10.0 * math.sqrt(n)
    dep = connected_udg_instance(n, side, radius, random.Random(seed))
    points = list(dep.points)

    t0 = time.perf_counter()
    protocol = build_backbone(points, dep.radius, mode="protocol")
    protocol_s = time.perf_counter() - t0

    fast_s = sharded_s = math.inf
    fast = sharded = stats = None
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fast = build_backbone(points, dep.radius, mode="fast")
        fast_s = min(fast_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        sharded, stats = sharded_backbone(
            points, dep.radius, shards=shards, max_workers=max_workers
        )
        sharded_s = min(sharded_s, time.perf_counter() - t0)

    assert fast is not None and sharded is not None and stats is not None
    return {
        "seconds": {
            "protocol": round(protocol_s, 6),
            "fast": round(fast_s, 6),
            "sharded_fast": round(sharded_s, 6),
        },
        "speedup": round(protocol_s / fast_s, 3) if fast_s else None,
        "sharded_speedup": round(protocol_s / sharded_s, 3) if sharded_s else None,
        "identical": _same_backbone(fast, protocol),
        "sharded_identical": _same_backbone(sharded, protocol),
        "edges": fast.ldel_icds.edge_count,
        "shards": shards,
        "election_certified": stats.counters.get("election_certified", 0),
        "election_unresolved": stats.counters.get("election_unresolved", 0),
    }


def run_backbone_fast_benchmark(
    sizes: Sequence[int] = BACKBONE_FAST_SIZES,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    shards: int = DEFAULT_SHARDS,
    max_workers: Optional[int] = None,
    reps: int = 1,
) -> dict:
    """The fast-vs-protocol backbone section of the benchmark report."""
    return {
        "shards": shards,
        "sizes": list(sizes),
        "results": {
            str(n): measure_backbone_fast(
                n, radius=radius, seed=seed, shards=shards,
                max_workers=max_workers, reps=reps,
            )
            for n in sizes
        },
    }


def measure_incremental(
    n: int,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    steps: int = INCREMENTAL_STEPS,
    reps: int = 1,
) -> dict:
    """Per-step incremental maintenance vs from-scratch rebuild at one size.

    ``rebuild`` is the fast-path ``build_backbone`` (min over
    ``reps``) — what a maintenance step would cost without the
    incremental engine.  ``incremental_step`` is the mean wall time of
    ``steps`` single-node-move maintenance steps on a seeded waypoint
    trace.  ``identical`` is the tripwire: after the whole trace the
    maintained structures must still match a from-scratch rebuild
    bit-for-bit, or the speedup is a bug.
    """
    from repro.incremental.engine import IncrementalMaintainer
    from repro.incremental.events import Event
    from repro.mobility.waypoint import RandomWaypointModel

    side = 10.0 * math.sqrt(n)
    dep = connected_udg_instance(n, side, radius, random.Random(seed))

    rebuild_s = math.inf
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        build_backbone(dep.points, dep.radius, mode="fast")
        rebuild_s = min(rebuild_s, time.perf_counter() - t0)

    maintainer = IncrementalMaintainer(list(dep.points), dep.radius)
    model = RandomWaypointModel(
        list(dep.points), dep.side, seed,
        speed_range=(1.0, 3.0), pause_range=(0.0, 0.0),
    )
    picker = random.Random(seed + 1)
    phase_totals: dict[str, float] = {}
    total_s = 0.0
    dirty_fractions: list[float] = []
    for _ in range(steps):
        mover = picker.randrange(n)
        positions = model.step(1.0, nodes=[mover])
        event = Event(
            "move", node=mover, x=positions[mover][0], y=positions[mover][1]
        )
        t0 = time.perf_counter()
        report = maintainer.apply([event])
        total_s += time.perf_counter() - t0
        dirty_fractions.append(report.dirty_fraction)
        for key, value in report.phase_seconds.items():
            phase_totals[key] = phase_totals.get(key, 0.0) + value
    step_s = total_s / steps if steps else 0.0
    outcome = maintainer.verify()
    return {
        "steps": steps,
        "seconds": {
            "rebuild": round(rebuild_s, 6),
            "incremental_step": round(step_s, 6),
        },
        "phase_seconds": {
            key: round(value / steps, 6) for key, value in phase_totals.items()
        },
        "speedup": round(rebuild_s / step_s, 3) if step_s else None,
        "mean_dirty_fraction": (
            round(sum(dirty_fractions) / len(dirty_fractions), 6)
            if dirty_fractions
            else 0.0
        ),
        "identical": outcome["identical"],
        "mismatches": outcome["mismatches"],
    }


def measure_incremental_trace(
    n: int = INCREMENTAL_TRACE_SIZE,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    steps: int = INCREMENTAL_TRACE_STEPS,
    move_fraction: float = 0.02,
    verify_every: int = 1,
) -> dict:
    """The long-trace acceptance run: bit-identity after every batch.

    Drives a ``steps``-batch waypoint trace through
    :func:`~repro.incremental.session.run_incremental_session` with
    the rebuild-equivalence tripwire asserted every ``verify_every``
    batches (1 = after every batch, the acceptance setting; the
    verification rebuilds dominate the wall time, which is the point —
    the trace certifies correctness, the per-step stage above measures
    speed).
    """
    from repro.incremental.session import run_incremental_session

    side = 10.0 * math.sqrt(n)
    dep = connected_udg_instance(n, side, radius, random.Random(seed))
    t0 = time.perf_counter()
    result = run_incremental_session(
        dep,
        steps=steps,
        move_fraction=move_fraction,
        seed=seed,
        verify_every=verify_every,
    )
    total_s = time.perf_counter() - t0
    counters = result.counters
    return {
        "n": n,
        "steps": steps,
        "move_fraction": move_fraction,
        "verify_every": verify_every,
        "seconds": {"total": round(total_s, 6)},
        "events": counters["events"],
        "verified_steps": counters["verifications"],
        "verification_failures": counters["verification_failures"],
        "all_verified": result.all_verified,
        "mean_dirty_fraction": round(result.mean_dirty_fraction, 6),
    }


def run_incremental_benchmark(
    sizes: Sequence[int] = INCREMENTAL_SIZES,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    steps: int = INCREMENTAL_STEPS,
    reps: int = 1,
    trace_size: int = INCREMENTAL_TRACE_SIZE,
    trace_steps: int = INCREMENTAL_TRACE_STEPS,
    trace_verify_every: int = 1,
) -> dict:
    """The incremental-maintenance section of the benchmark report."""
    report: dict = {
        "sizes": list(sizes),
        "results": {
            str(n): measure_incremental(
                n, radius=radius, seed=seed, steps=steps, reps=reps
            )
            for n in sizes
        },
    }
    if trace_steps > 0:
        report["trace"] = measure_incremental_trace(
            trace_size,
            radius=radius,
            seed=seed,
            steps=trace_steps,
            verify_every=trace_verify_every,
        )
    return report


def measure_routing(
    n: int,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    pairs: int = ROUTING_PAIRS,
    scalar_pairs: int = ROUTING_SCALAR_PAIRS,
    identity_pairs: int = ROUTING_IDENTITY_PAIRS,
    shortest_scalar_pairs: int = ROUTING_SHORTEST_SCALAR_PAIRS,
) -> dict:
    """Batch route engine vs the scalar routers at one size.

    Routes the same ``pairs`` random (s, t) pairs through the
    :class:`~repro.core.route_engine.RouteEngine` kernels (greedy /
    compass / GPSR over the UDG) and through the
    :class:`~repro.core.route_engine.BackboneRouter` (the paper's
    dominator-entry procedure over the planar backbone, GPSR and
    oracle-backed shortest-path cores), against the scalar ``routing/``
    reference timed on a ``scalar_pairs`` subset and extrapolated.
    The headline ``sweep`` speedup covers the paper's evaluation
    workload — the UDG greedy baseline plus both backbone traversals.

    Tripwires: ``identity`` re-routes an ``identity_pairs`` subset
    with paths kept and requires hop-for-hop equality (path, reason,
    hops) against the scalar routers for every method and for the
    backbone GPSR procedure; ``shortest_parity`` requires the
    oracle-backed shortest mode to agree with the per-pair Dijkstra
    reference on delivery and on path length within 1e-9 (equal-length
    tie paths may legitimately differ).
    """
    from repro.core.route_engine import BackboneRouter, RouteEngine
    from repro.routing.backbone_routing import backbone_route
    from repro.routing.compass import compass_route
    from repro.routing.gpsr import gpsr_route
    from repro.routing.greedy import greedy_route

    side = 10.0 * math.sqrt(n)
    dep = connected_udg_instance(n, side, radius, random.Random(seed))
    udg = UnitDiskGraph(list(dep.points), dep.radius)
    backbone = build_backbone(dep.points, dep.radius, mode="fast")
    rng = random.Random(seed + 9)
    sampled = [(rng.randrange(n), rng.randrange(n)) for _ in range(pairs)]
    sub = sampled[: max(1, min(scalar_pairs, pairs))]
    short_sub = sampled[: max(1, min(shortest_scalar_pairs, pairs))]
    scalar_of = {
        "greedy": greedy_route,
        "compass": compass_route,
        "gpsr": gpsr_route,
    }

    engine = RouteEngine(udg)
    router = BackboneRouter(backbone)
    seconds: dict[str, float] = {}
    speedup: dict[str, float] = {}
    delivery: dict[str, float] = {}

    for method in ("greedy", "compass", "gpsr"):
        t0 = time.perf_counter()
        batch = engine.route_pairs(sampled, method=method, keep_paths=False)
        batch_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for s, t in sub:
            scalar_of[method](udg, s, t)
        scalar_est = (time.perf_counter() - t0) / len(sub) * pairs
        seconds[f"{method}_batch"] = round(batch_s, 6)
        seconds[f"{method}_scalar_est"] = round(scalar_est, 6)
        speedup[method] = round(scalar_est / batch_s, 3) if batch_s else 0.0
        delivery[method] = round(batch.delivery_rate, 6)

    t0 = time.perf_counter()
    bb_batch = router.route_pairs(sampled, mode="gpsr", keep_paths=False)
    bb_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    router.route_pairs(sampled, mode="gpsr", keep_paths=False)
    bb_warm_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for s, t in sub:
        backbone_route(backbone, s, t, mode="gpsr")
    bb_scalar_est = (time.perf_counter() - t0) / len(sub) * pairs
    seconds["backbone_gpsr_batch"] = round(bb_s, 6)
    seconds["backbone_gpsr_warm"] = round(bb_warm_s, 6)
    seconds["backbone_gpsr_scalar_est"] = round(bb_scalar_est, 6)
    speedup["backbone_gpsr"] = round(bb_scalar_est / bb_s, 3) if bb_s else 0.0
    speedup["backbone_gpsr_warm"] = (
        round(bb_scalar_est / bb_warm_s, 3) if bb_warm_s else 0.0
    )
    delivery["backbone_gpsr"] = round(bb_batch.delivery_rate, 6)

    t0 = time.perf_counter()
    sp_batch = router.route_pairs(sampled, mode="shortest", keep_paths=False)
    sp_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    router._route_pairs_scalar(
        short_sub, mode="shortest", max_hops=None,
        keep_paths=False, count_unreachable=False,
    )
    sp_scalar_est = (time.perf_counter() - t0) / len(short_sub) * pairs
    seconds["backbone_shortest_batch"] = round(sp_s, 6)
    seconds["backbone_shortest_scalar_est"] = round(sp_scalar_est, 6)
    speedup["backbone_shortest"] = round(sp_scalar_est / sp_s, 3) if sp_s else 0.0
    delivery["backbone_shortest"] = round(sp_batch.delivery_rate, 6)

    sweep_batch = (
        seconds["greedy_batch"]
        + seconds["backbone_gpsr_batch"]
        + seconds["backbone_shortest_batch"]
    )
    sweep_scalar = (
        seconds["greedy_scalar_est"]
        + seconds["backbone_gpsr_scalar_est"]
        + seconds["backbone_shortest_scalar_est"]
    )
    seconds["sweep_batch"] = round(sweep_batch, 6)
    seconds["sweep_scalar_est"] = round(sweep_scalar, 6)
    speedup["sweep"] = round(sweep_scalar / sweep_batch, 3) if sweep_batch else 0.0

    # -- path-identity tripwire (hop-for-hop against the scalar loop) --
    ident = sampled[: max(1, min(identity_pairs, pairs))]
    modes_ok: dict[str, bool] = {}
    mismatches = 0
    for method in ("greedy", "compass", "gpsr"):
        batch = engine.route_pairs(ident, method=method)
        bad = 0
        for i, (s, t) in enumerate(ident):
            res = scalar_of[method](udg, s, t)
            if (
                batch.path(i) != res.path
                or batch.reason(i) != res.reason
                or int(batch.hops[i]) != res.hops
            ):
                bad += 1
        modes_ok[method] = bad == 0
        mismatches += bad
    bb_ident = router.route_pairs(ident, mode="gpsr")
    bad = 0
    for i, (s, t) in enumerate(ident):
        res = backbone_route(backbone, s, t, mode="gpsr")
        if (
            bb_ident.path(i) != res.path
            or bb_ident.reason(i) != res.reason
            or int(bb_ident.hops[i]) != res.hops
        ):
            bad += 1
    modes_ok["backbone_gpsr"] = bad == 0
    mismatches += bad
    identity = {
        "ok": mismatches == 0,
        "pairs": len(ident),
        "mismatches": mismatches,
        "modes": modes_ok,
    }

    # -- shortest-mode parity (delivery + length, not path choice) --
    sp_ref = router._route_pairs_scalar(
        short_sub, mode="shortest", max_hops=None,
        keep_paths=False, count_unreachable=False,
    )
    sp_got = router.route_pairs(short_sub, mode="shortest", keep_paths=False)
    worst = 0.0
    sp_ok = True
    for i in range(len(short_sub)):
        ref_delivered = sp_ref.reasons[i] == 0
        got_delivered = int(sp_got.reasons[i]) == 0
        if ref_delivered != got_delivered:
            sp_ok = False
            continue
        if ref_delivered and sp_ref.lengths[i]:
            err = abs(float(sp_got.lengths[i]) - sp_ref.lengths[i]) / sp_ref.lengths[i]
            worst = max(worst, err)
    sp_ok = sp_ok and worst <= 1e-9
    shortest_parity = {"ok": sp_ok, "pairs": len(short_sub), "max_rel_err": worst}

    return {
        "pairs": pairs,
        "scalar_pairs": len(sub),
        "seconds": seconds,
        "speedup": speedup,
        "delivery": delivery,
        "identity": identity,
        "shortest_parity": shortest_parity,
    }


def run_routing_benchmark(
    sizes: Sequence[int] = ROUTING_SIZES,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    pairs: int = ROUTING_PAIRS,
    scalar_pairs: int = ROUTING_SCALAR_PAIRS,
    identity_pairs: int = ROUTING_IDENTITY_PAIRS,
) -> dict:
    """The batch-vs-scalar routing section of the benchmark report."""
    return {
        "sizes": list(sizes),
        "pairs": pairs,
        "results": {
            str(n): measure_routing(
                n, radius=radius, seed=seed, pairs=pairs,
                scalar_pairs=scalar_pairs, identity_pairs=identity_pairs,
            )
            for n in sizes
        },
    }


def compare_routing_to_baseline(routing: dict, baseline: dict) -> dict:
    """Per-size batch wall-time factors vs a recorded routing baseline.

    Baselines recorded before the routing stage existed have no
    ``routing`` section; the comparison then reports nothing, so old
    baselines stay valid.
    """
    base_results = baseline.get("routing", {}).get("results", {})
    out: dict = {}
    for key, current in routing.get("results", {}).items():
        base = base_results.get(key)
        if not base:
            continue
        factors = {}
        for stage in (
            "greedy_batch", "compass_batch", "gpsr_batch",
            "backbone_gpsr_batch", "backbone_shortest_batch", "sweep_batch",
        ):
            now = current["seconds"].get(stage)
            then = base.get("seconds", {}).get(stage)
            if now and then:
                factors[stage] = round(then / now, 3)
        out[key] = factors
    return out


def _metrics_family(n: int, radius: float, seed: int):
    """The Table I topology family on the bench deployment recipe."""
    from repro.experiments.runner import build_all_topologies

    side = 10.0 * math.sqrt(n)
    dep = connected_udg_instance(n, side, radius, random.Random(seed))
    udg = UnitDiskGraph(list(dep.points), dep.radius)
    # The fast backbone path is bit-identical to the protocol run and
    # this stage measures *metrics*, not construction.
    backbone = build_backbone(dep.points, dep.radius, mode="fast")
    graphs, _ = build_all_topologies(udg, backbone=backbone)
    return udg, graphs


def _reference_family_pass(
    udg, graphs: dict, *, power_alpha: float, use_scipy: Optional[bool] = None
) -> dict:
    """Full-family stretch via the reference path (the pre-oracle code).

    Every call builds fresh all-pairs matrices for both the topology
    and the UDG and reduces the n² pairs in pure Python — exactly what
    ``core.metrics`` did before the oracle existed.
    """
    from repro.core.metrics import stretch_reference
    from repro.experiments.runner import STRETCH_TOPOLOGIES

    out = {}
    for name, skip in STRETCH_TOPOLOGIES.items():
        graph = graphs[name]

        def power_weight(u: int, v: int, g=graph) -> float:
            return g.edge_length(u, v) ** power_alpha

        out[name] = {
            "length": stretch_reference(
                graph, udg, graph.edge_length, skip_udg_adjacent=skip,
                use_scipy=use_scipy,
            ),
            "hops": stretch_reference(
                graph, udg, None, skip_udg_adjacent=skip, use_scipy=use_scipy
            ),
            "power": stretch_reference(
                graph, udg, power_weight, skip_udg_adjacent=skip,
                use_scipy=use_scipy,
            ),
        }
    return out


def _oracle_family_pass(udg, graphs: dict, oracle, *, power_alpha: float) -> dict:
    """Full-family summarize through one shared distance oracle."""
    from repro.core.metrics import summarize_family
    from repro.experiments.runner import STRETCH_TOPOLOGIES

    summary = summarize_family(
        udg, graphs, stretch_policy=STRETCH_TOPOLOGIES,
        power_alpha=power_alpha, oracle=oracle,
    )
    return {
        name: {
            "length": summary[name].length,
            "hops": summary[name].hops,
            "power": summary[name].power,
        }
        for name in STRETCH_TOPOLOGIES
    }


def _family_parity(got: dict, ref: dict, rtol: float) -> dict:
    """Worst-case disagreement between two family passes."""
    worst_avg = worst_max = 0.0
    exact_fields = True
    for name, kinds in ref.items():
        for kind, ref_stats in kinds.items():
            got_stats = got[name][kind]
            if (
                got_stats.pairs != ref_stats.pairs
                or got_stats.unreachable_pairs != ref_stats.unreachable_pairs
            ):
                exact_fields = False
            if ref_stats.avg:
                worst_avg = max(
                    worst_avg, abs(got_stats.avg - ref_stats.avg) / ref_stats.avg
                )
            if ref_stats.max:
                worst_max = max(
                    worst_max, abs(got_stats.max - ref_stats.max) / ref_stats.max
                )
    ok = exact_fields and worst_avg <= rtol and worst_max <= rtol
    return {
        "ok": ok,
        "pair_counts_exact": exact_fields,
        "avg_rel_err": worst_avg,
        "max_rel_err": worst_max,
        "rtol": rtol,
    }


def measure_metrics(
    n: int,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    reps: int = METRICS_REPS,
    power_alpha: float = 2.0,
) -> dict:
    """Reference vs oracle full-family summarize at one size.

    ``reference`` is the pre-oracle path timed once — it rebuilds every
    all-pairs matrix from scratch on each call, so it is stateless and
    a sweep of ``reps`` passes costs exactly ``reps`` times the
    measured pass.  ``oracle_cold`` is a fresh oracle's first
    full-family pass (what a pipeline pays once per deployment);
    ``oracle_warm`` takes the min over the ``reps - 1`` replay passes
    on the same oracle (what benchmark rounds and repeated sweep
    points pay once the oracle is shared).  The headline ``speedup``
    compares the two at the sweep level — ``reps`` reference passes
    against one cold pass plus ``reps - 1`` warm replays, the unit the
    Table I / fig8–12 benchmarks actually repeat — with the per-pass
    ``cold_speedup``/``warm_speedup`` alongside.  ``parity`` is the
    tripwire: any disagreement beyond the documented tolerance fails
    the run.
    """
    from repro.core.oracle import PARITY_RTOL, DistanceOracle

    reps = max(2, reps)
    udg, graphs = _metrics_family(n, radius, seed)

    t0 = time.perf_counter()
    reference = _reference_family_pass(udg, graphs, power_alpha=power_alpha)
    reference_s = time.perf_counter() - t0

    # max_entries sized so warm passes replay entirely from cache (the
    # family holds 6 stretch rows x 3 kinds of non-baseline matrices).
    oracle = DistanceOracle(udg, max_entries=64)
    t0 = time.perf_counter()
    vectorized = _oracle_family_pass(udg, graphs, oracle, power_alpha=power_alpha)
    cold_s = time.perf_counter() - t0

    warm_s = math.inf
    for _ in range(reps - 1):
        t0 = time.perf_counter()
        vectorized = _oracle_family_pass(
            udg, graphs, oracle, power_alpha=power_alpha
        )
        warm_s = min(warm_s, time.perf_counter() - t0)

    sweep_reference_s = reps * reference_s
    sweep_oracle_s = cold_s + (reps - 1) * warm_s
    parity = _family_parity(vectorized, reference, PARITY_RTOL)
    pairs = sum(
        kinds["length"].pairs + kinds["length"].unreachable_pairs
        for kinds in reference.values()
    )
    return {
        "reps": reps,
        "seconds": {
            "reference": round(reference_s, 6),
            "oracle_cold": round(cold_s, 6),
            "oracle_warm": round(warm_s, 6),
            "sweep_reference": round(sweep_reference_s, 6),
            "sweep_oracle": round(sweep_oracle_s, 6),
        },
        "speedup": (
            round(sweep_reference_s / sweep_oracle_s, 3) if sweep_oracle_s else None
        ),
        "cold_speedup": round(reference_s / cold_s, 3) if cold_s else None,
        "warm_speedup": round(reference_s / warm_s, 3) if warm_s else None,
        "rows": len(vectorized),
        "pairs": pairs,
        "parity": parity,
        "oracle": oracle.snapshot(),
    }


def measure_metrics_fallback(
    n: int = METRICS_FALLBACK_SIZE,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    power_alpha: float = 2.0,
) -> dict:
    """Exactness tripwire for the no-numpy/no-scipy oracle fallback.

    Both sides are forced onto the pure-Python all-pairs routines; the
    oracle's fallback kernel must then reproduce the reference loop
    **bit-for-bit** on every field — equality, not tolerance.
    """
    from repro.core.oracle import DistanceOracle
    from repro.experiments.runner import STRETCH_TOPOLOGIES

    udg, graphs = _metrics_family(n, radius, seed)
    reference = _reference_family_pass(
        udg, graphs, power_alpha=power_alpha, use_scipy=False
    )
    oracle = DistanceOracle(
        udg, max_entries=64, use_scipy=False, use_numpy=False
    )
    fallback = _oracle_family_pass(udg, graphs, oracle, power_alpha=power_alpha)
    exact = all(
        fallback[name][kind] == reference[name][kind]
        for name in STRETCH_TOPOLOGIES
        for kind in ("length", "hops", "power")
    )
    return {"n": n, "exact": exact, "rows": len(reference)}


def run_metrics_benchmark(
    sizes: Sequence[int] = METRICS_SIZES,
    *,
    radius: float = DEFAULT_RADIUS,
    seed: int = DEFAULT_SEED,
    reps: int = METRICS_REPS,
    fallback_size: int = METRICS_FALLBACK_SIZE,
) -> dict:
    """The metrics-engine section of the benchmark report."""
    return {
        "sizes": list(sizes),
        "results": {
            str(n): measure_metrics(n, radius=radius, seed=seed, reps=reps)
            for n in sizes
        },
        "fallback": measure_metrics_fallback(
            fallback_size, radius=radius, seed=seed
        ),
    }


def compare_metrics_to_baseline(metrics: dict, baseline: dict) -> dict:
    """Per-size wall-time factors vs a recorded metrics baseline.

    Baselines recorded before the metrics stage existed simply have no
    ``metrics`` section; the comparison then reports nothing rather
    than failing, so old baselines stay valid.
    """
    base_results = baseline.get("metrics", {}).get("results", {})
    out: dict = {}
    for key, current in metrics.get("results", {}).items():
        base = base_results.get(key)
        if not base:
            continue
        factors = {}
        for stage in ("reference", "oracle_cold", "oracle_warm", "sweep_oracle"):
            now = current["seconds"].get(stage)
            then = base.get("seconds", {}).get(stage)
            if now and then:
                factors[stage] = round(then / now, 3)
        out[key] = factors
    return out


def format_report(report: dict) -> str:
    """Human-readable table of the per-size stage timings and speedups."""
    lines = [
        f"{'n':>6} {'stage':<10} {'seconds':>10} {'speedup':>9} {'edges':>8}"
    ]
    speedups = report.get("speedup", {})
    for n in report["sizes"]:
        key = str(n)
        entry = report["results"][key]
        stage_speedup = speedups.get(key, {}).get("speedup", {})
        for stage in STAGES:
            sec = entry["seconds"].get(stage)
            if sec is None:
                continue
            factor = stage_speedup.get(stage)
            factor_s = f"{factor:.2f}x" if factor else "-"
            edge_s = str(entry["edges"].get(stage, "-"))
            lines.append(
                f"{n:>6} {stage:<10} {sec:>10.4f} {factor_s:>9} {edge_s:>8}"
            )
        if key in speedups:
            match = "yes" if speedups[key]["edges_match"] else "NO (REGRESSION)"
            lines.append(f"{'':>6} edges identical to baseline: {match}")
    sharded = report.get("sharded")
    if sharded:
        lines.append("")
        lines.append(
            f"{'n':>6} {'serial s':>10} {'sharded s':>10} {'speedup':>9} "
            f"{'workers':>8} {'identical':>10}"
        )
        for n in sharded["sizes"]:
            entry = sharded["results"][str(n)]
            match = "yes" if entry["edges_match"] else "NO (BUG)"
            lines.append(
                f"{n:>6} {entry['seconds']['serial_pldel']:>10.4f} "
                f"{entry['seconds']['sharded_pldel']:>10.4f} "
                f"{entry['speedup']:>8.2f}x {entry['workers']:>8} {match:>10}"
            )
    soa = report.get("soa")
    if soa:
        lines.append("")
        lines.append(
            f"{'n':>6} {'ref s':>10} {'soa s':>10} {'end-to-end':>11} "
            f"{'pldel':>8} {'identical':>10}"
        )
        for n in soa["sizes"]:
            entry = soa["results"][str(n)]
            match = "yes" if entry["identical"] else "NO (BUG)"
            lines.append(
                f"{n:>6} {entry['reference_seconds']['end_to_end']:>10.4f} "
                f"{entry['seconds']['end_to_end']:>10.4f} "
                f"{entry['speedup'].get('end_to_end', 0.0):>10.2f}x "
                f"{entry['speedup'].get('pldel', 0.0):>7.2f}x {match:>10}"
            )
        scale = soa.get("scale")
        if scale:
            lines.append(
                f"{'':>6} scale probe n={scale['n']}: "
                f"{scale['seconds']['end_to_end']:.2f}s end-to-end "
                f"({scale['edges']['pldel']} PLDel edges)"
            )
    backbone = report.get("backbone_fast")
    if backbone:
        lines.append("")
        lines.append(
            f"{'n':>6} {'protocol s':>11} {'fast s':>9} {'speedup':>9} "
            f"{'sharded s':>10} {'speedup':>9} {'identical':>10}"
        )
        for n in backbone["sizes"]:
            entry = backbone["results"][str(n)]
            ok = entry["identical"] and entry["sharded_identical"]
            match = "yes" if ok else "NO (BUG)"
            lines.append(
                f"{n:>6} {entry['seconds']['protocol']:>11.4f} "
                f"{entry['seconds']['fast']:>9.4f} {entry['speedup']:>8.2f}x "
                f"{entry['seconds']['sharded_fast']:>10.4f} "
                f"{entry['sharded_speedup']:>8.2f}x {match:>10}"
            )
    metrics = report.get("metrics")
    if metrics:
        lines.append("")
        lines.append(
            f"{'n':>6} {'reference s':>12} {'cold s':>9} {'warm s':>9} "
            f"{'sweep':>9} {'cold':>8} {'warm':>9} {'parity':>8}"
        )
        for n in metrics["sizes"]:
            entry = metrics["results"][str(n)]
            match = "yes" if entry["parity"]["ok"] else "NO (BUG)"
            lines.append(
                f"{n:>6} {entry['seconds']['reference']:>12.4f} "
                f"{entry['seconds']['oracle_cold']:>9.4f} "
                f"{entry['seconds']['oracle_warm']:>9.4f} "
                f"{entry['speedup']:>8.2f}x "
                f"{entry['cold_speedup']:>7.2f}x "
                f"{entry['warm_speedup']:>8.2f}x {match:>8}"
            )
        fallback = metrics.get("fallback")
        if fallback:
            word = "exact" if fallback["exact"] else "NO (BUG)"
            lines.append(
                f"{'':>6} pure-Python fallback at n={fallback['n']}: {word}"
            )
    routing = report.get("routing")
    if routing:
        lines.append("")
        lines.append(
            f"{'n':>6} {'mode':<18} {'batch s':>9} {'scalar s':>9} "
            f"{'speedup':>9} {'delivery':>9}"
        )
        for n in routing["sizes"]:
            entry = routing["results"][str(n)]
            sec = entry["seconds"]
            for mode, batch_key, scalar_key in (
                ("greedy", "greedy_batch", "greedy_scalar_est"),
                ("compass", "compass_batch", "compass_scalar_est"),
                ("gpsr", "gpsr_batch", "gpsr_scalar_est"),
                ("backbone_gpsr", "backbone_gpsr_batch",
                 "backbone_gpsr_scalar_est"),
                ("backbone_shortest", "backbone_shortest_batch",
                 "backbone_shortest_scalar_est"),
            ):
                rate = entry["delivery"].get(mode)
                rate_s = f"{rate:.4f}" if rate is not None else "-"
                lines.append(
                    f"{n:>6} {mode:<18} {sec[batch_key]:>9.4f} "
                    f"{sec[scalar_key]:>9.4f} "
                    f"{entry['speedup'][mode]:>8.2f}x {rate_s:>9}"
                )
            lines.append(
                f"{'':>6} sweep (greedy + backbone gpsr + shortest): "
                f"{entry['speedup']['sweep']:.2f}x; warm backbone cache: "
                f"{entry['speedup']['backbone_gpsr_warm']:.2f}x"
            )
            ident = entry["identity"]
            word = (
                "yes"
                if ident["ok"]
                else f"NO ({ident['mismatches']} MISMATCHES)"
            )
            sp = entry["shortest_parity"]
            sp_word = "yes" if sp["ok"] else "NO (BUG)"
            lines.append(
                f"{'':>6} paths identical to scalar on {ident['pairs']} "
                f"pairs: {word}; shortest-mode parity: {sp_word}"
            )
    incremental = report.get("incremental")
    if incremental:
        lines.append("")
        lines.append(
            f"{'n':>6} {'rebuild s':>10} {'step s':>10} {'speedup':>9} "
            f"{'dirty frac':>11} {'identical':>10}"
        )
        for n in incremental["sizes"]:
            entry = incremental["results"][str(n)]
            match = "yes" if entry["identical"] else "NO (BUG)"
            lines.append(
                f"{n:>6} {entry['seconds']['rebuild']:>10.4f} "
                f"{entry['seconds']['incremental_step']:>10.4f} "
                f"{entry['speedup']:>8.2f}x "
                f"{entry['mean_dirty_fraction']:>11.4f} {match:>10}"
            )
        trace = incremental.get("trace")
        if trace:
            word = (
                "all identical"
                if trace["all_verified"]
                else f"{trace['verification_failures']} MISMATCHES"
            )
            lines.append(
                f"{'':>6} trace n={trace['n']}, {trace['steps']} batches, "
                f"verified every {trace['verify_every']}: {word} "
                f"(mean dirty fraction {trace['mean_dirty_fraction']:.4f})"
            )
    return "\n".join(lines)


def format_markdown(report: dict) -> str:
    """GitHub-flavored markdown summary (for ``$GITHUB_STEP_SUMMARY``)."""
    lines = ["## Hot-path benchmark", ""]
    speedups = report.get("speedup", {})
    if speedups:
        lines += [
            "| n | " + " | ".join(STAGES) + " | edges identical |",
            "|---|" + "---|" * (len(STAGES) + 1),
        ]
        for n in report["sizes"]:
            key = str(n)
            entry = speedups.get(key)
            if entry is None:
                continue
            cells = [
                f"{entry['speedup'][s]:.2f}x" if s in entry["speedup"] else "-"
                for s in STAGES
            ]
            tripwire = "yes" if entry["edges_match"] else "**NO — REGRESSION**"
            lines.append(f"| {n} | " + " | ".join(cells) + f" | {tripwire} |")
        lines.append("")
        lines.append("Speedup vs recorded baseline (`>1` = faster).")
    else:
        lines.append("_No baseline comparison (baseline missing or freshly pinned)._")
    sharded = report.get("sharded")
    if sharded:
        lines += [
            "",
            f"### Sharded vs serial PLDel (shards={sharded['shards']})",
            "",
            "| n | serial s | sharded s | speedup | mode | workers | bit-identical |",
            "|---|---|---|---|---|---|---|",
        ]
        for n in sharded["sizes"]:
            entry = sharded["results"][str(n)]
            tripwire = "yes" if entry["edges_match"] else "**NO — BUG**"
            lines.append(
                f"| {n} | {entry['seconds']['serial_pldel']:.4f} "
                f"| {entry['seconds']['sharded_pldel']:.4f} "
                f"| {entry['speedup']:.2f}x | {entry['mode']} "
                f"| {entry['workers']} | {tripwire} |"
            )
    soa = report.get("soa")
    if soa:
        lines += [
            "",
            "### Construction core: SoA kernels vs pure-Python reference",
            "",
            "| n | reference s | soa s | end-to-end | udg | pldel "
            "| bit-identical |",
            "|---|---|---|---|---|---|---|",
        ]
        for n in soa["sizes"]:
            entry = soa["results"][str(n)]
            tripwire = "yes" if entry["identical"] else "**NO — BUG**"
            lines.append(
                f"| {n} | {entry['reference_seconds']['end_to_end']:.4f} "
                f"| {entry['seconds']['end_to_end']:.4f} "
                f"| {entry['speedup'].get('end_to_end', 0.0):.2f}x "
                f"| {entry['speedup'].get('udg', 0.0):.2f}x "
                f"| {entry['speedup'].get('pldel', 0.0):.2f}x "
                f"| {tripwire} |"
            )
        scale = soa.get("scale")
        if scale:
            lines.append("")
            lines.append(
                f"Scale probe: n={scale['n']} built end-to-end in "
                f"{scale['seconds']['end_to_end']:.2f}s "
                f"({scale['edges']['udg']} UDG edges, "
                f"{scale['edges']['pldel']} PLDel edges, "
                f"{scale['triangles']} triangles)."
            )
    backbone = report.get("backbone_fast")
    if backbone:
        lines += [
            "",
            f"### Backbone fast path vs protocol (shards={backbone['shards']})",
            "",
            "| n | protocol s | fast s | speedup | sharded s | sharded speedup "
            "| unresolved | bit-identical |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for n in backbone["sizes"]:
            entry = backbone["results"][str(n)]
            ok = entry["identical"] and entry["sharded_identical"]
            tripwire = "yes" if ok else "**NO — BUG**"
            lines.append(
                f"| {n} | {entry['seconds']['protocol']:.4f} "
                f"| {entry['seconds']['fast']:.4f} | {entry['speedup']:.2f}x "
                f"| {entry['seconds']['sharded_fast']:.4f} "
                f"| {entry['sharded_speedup']:.2f}x "
                f"| {entry['election_unresolved']} | {tripwire} |"
            )
    metrics = report.get("metrics")
    if metrics:
        lines += [
            "",
            "### Metrics engine: oracle vs reference (full Table I family)",
            "",
            "| n | reference s | cold s | warm s | sweep speedup "
            "| cold speedup | warm speedup | pairs | parity |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for n in metrics["sizes"]:
            entry = metrics["results"][str(n)]
            tripwire = "yes" if entry["parity"]["ok"] else "**NO — BUG**"
            lines.append(
                f"| {n} | {entry['seconds']['reference']:.4f} "
                f"| {entry['seconds']['oracle_cold']:.4f} "
                f"| {entry['seconds']['oracle_warm']:.4f} "
                f"| {entry['speedup']:.2f}x "
                f"| {entry['cold_speedup']:.2f}x "
                f"| {entry['warm_speedup']:.2f}x "
                f"| {entry['pairs']} | {tripwire} |"
            )
        fallback = metrics.get("fallback")
        if fallback:
            word = "exact" if fallback["exact"] else "**NO — BUG**"
            lines.append("")
            lines.append(
                f"Sweep speedup: {metrics['results'][str(metrics['sizes'][0])]['reps']} "
                "summarize passes per deployment (the benchmark-round protocol), "
                "reference re-paid per pass vs oracle cold-then-cached. "
                f"Pure-Python fallback parity at n={fallback['n']}: {word}."
            )
    routing = report.get("routing")
    if routing:
        lines += [
            "",
            f"### Route engine vs scalar routers ({routing['pairs']} pairs)",
            "",
            "| n | greedy | compass | gpsr | backbone gpsr | warm cache "
            "| shortest | sweep | paths identical | shortest parity |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        for n in routing["sizes"]:
            entry = routing["results"][str(n)]
            sp = entry["speedup"]
            ident = entry["identity"]
            tripwire = (
                "yes"
                if ident["ok"]
                else f"**NO — {ident['mismatches']} MISMATCHES**"
            )
            sp_word = (
                "yes" if entry["shortest_parity"]["ok"] else "**NO — BUG**"
            )
            lines.append(
                f"| {n} | {sp['greedy']:.2f}x | {sp['compass']:.2f}x "
                f"| {sp['gpsr']:.2f}x | {sp['backbone_gpsr']:.2f}x "
                f"| {sp['backbone_gpsr_warm']:.2f}x "
                f"| {sp['backbone_shortest']:.2f}x | {sp['sweep']:.2f}x "
                f"| {tripwire} | {sp_word} |"
            )
        lines.append("")
        lines.append(
            "Sweep = UDG greedy baseline + backbone GPSR + oracle-backed "
            "shortest cores, batch vs scalar-loop extrapolation."
        )
    incremental = report.get("incremental")
    if incremental:
        lines += [
            "",
            "### Incremental maintenance vs from-scratch rebuild",
            "",
            "| n | rebuild s | step s | speedup | mean dirty fraction "
            "| bit-identical |",
            "|---|---|---|---|---|---|",
        ]
        for n in incremental["sizes"]:
            entry = incremental["results"][str(n)]
            tripwire = "yes" if entry["identical"] else "**NO — BUG**"
            lines.append(
                f"| {n} | {entry['seconds']['rebuild']:.4f} "
                f"| {entry['seconds']['incremental_step']:.4f} "
                f"| {entry['speedup']:.2f}x "
                f"| {entry['mean_dirty_fraction']:.4f} | {tripwire} |"
            )
        trace = incremental.get("trace")
        if trace:
            word = (
                "all identical"
                if trace["all_verified"]
                else f"**{trace['verification_failures']} MISMATCHES**"
            )
            lines.append("")
            lines.append(
                f"Trace: n={trace['n']}, {trace['steps']} move batches, "
                f"rebuild-equivalence checked every {trace['verify_every']} "
                f"batch(es): {word}."
            )
    lines.append("")
    return "\n".join(lines)

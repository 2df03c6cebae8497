"""Hot-path benchmark: a registry of timed stages with bit-identity tripwires.

Every stage runs on the deployment recipe the paper's experiments use
(uniform points in a ``10 sqrt(n)`` square, radius 25, seed 2002) and
is one :class:`Stage` record: a name, default sizes, and a ``measure``
function that receives the sampled :class:`Deployment` plus a
:class:`Clock` and returns a :class:`Row` of edge counts, named
``checks`` and free-form ``info``.  The harness owns everything else,
once: best-of-``--reps`` timing (the :class:`Clock` is the only
timer), reference-over-product speedups, one table renderer for the
text report and the ``$GITHUB_STEP_SUMMARY`` markdown, one baseline
comparison for seconds and edge counts, and one failure collector —
any false check exits 1 with ``FAILED: <stage> n=<n>: <check>``.

The stages:

* ``pipeline`` — UDG, Gabriel, LDel^1, Algorithm 3 planarization (the
  two together reported as ``pldel``) and the full ICDS backbone; its
  edge counts are checked against the pinned baseline.
* ``sharded`` — serial PLDel vs the tiled :mod:`repro.sharding` build
  (``edges_match``: the stitch reproduces the serial edge set).
* ``soa`` / ``soa-scale`` — the array-native construction core vs the
  pure-Python reference with numpy masked out (``identical``), and
  one large-``n`` construction with no reference pass.
* ``backbone-fast`` — the message-passing backbone protocol vs the
  direct-computation fast path and the sharded build (``identical``,
  ``sharded_identical`` on dominators, connectors and edge sets).
* ``metrics`` — full Table I family stretch through the pre-oracle
  reference vs a :class:`~repro.core.oracle.DistanceOracle`, cold and
  warm (``parity``), plus the pure-Python fallback at n=120
  (``fallback_exact``).
* ``routing`` — the batch route engine vs the scalar routers
  (``paths_identical`` hop for hop, ``shortest_parity``).
* ``incremental`` / ``incremental-trace`` — per-step incremental
  maintenance vs the from-scratch rebuild (``identical``), and the
  long-trace acceptance run with bit-identity after every batch
  (``all_verified``).

Run it through ``benchmarks/bench_hotpath.py``.  Reports use the
``hotpath-bench/v2`` schema; baselines the ``hotpath-baseline/v2``
schema with the same ``stages -> n -> row`` layout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, TypeVar

from repro.core.spanner import build_backbone
from repro.graphs.udg import UnitDiskGraph
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import local_delaunay_graph, planarize_ldel1
from repro.workloads.generators import Deployment, connected_udg_instance

T = TypeVar("T")

RADIUS = 25.0
SEED = 2002
#: Tile count of the sharded builds; ``None`` workers = one per CPU.
SHARDS = 4
WORKERS: Optional[int] = None
#: Timed single-move maintenance steps per size in the incremental stage.
INCREMENTAL_STEPS = 30
#: Long-trace acceptance run: moved share per batch and the verification
#: period (1 = rebuild equivalence asserted after every batch).  The
#: batch count is ``n // 5``.
TRACE_MOVE_FRACTION = 0.02
TRACE_VERIFY_EVERY = 1
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
#: Summarize passes per deployment in the metrics stage — the sweep
#: protocol's per-point repetition count (``bench_table1`` runs three
#: rounds; the fig sweeps replay points under pytest-benchmark
#: calibration the same way).
METRICS_REPS = 3
#: Size of the pure-Python fallback exactness tripwire (kept small:
#: the fallback APSP is the slow path being replaced).
METRICS_FALLBACK_SIZE = 120
POWER_ALPHA = 2.0

BENCH_SCHEMA = "hotpath-bench/v2"
BASELINE_SCHEMA = "hotpath-baseline/v2"


def deployment(n: int) -> Deployment:
    """The bench recipe: ``n`` uniform points, side ``10 sqrt(n)``, radius 25."""
    return connected_udg_instance(n, 10.0 * math.sqrt(n), RADIUS, random.Random(SEED))


class Clock:
    """Wall-clock laps for one stage row — the harness's only timer.

    ``seconds`` holds the product timings and ``reference`` the
    timings of what the product replaces, under matching keys; a key
    timed more than once keeps its best lap.
    """

    def __init__(self, reps: int) -> None:
        self.reps = max(1, reps)
        self.seconds: dict[str, float] = {}
        self.reference: dict[str, float] = {}

    def lap(
        self,
        key: str,
        thunk: Callable[[], T],
        *,
        reference: bool = False,
        scale: float = 1.0,
        total: bool = False,
    ) -> T:
        """Time one ``thunk()`` call into ``key`` and return its result.

        ``scale`` multiplies the lap (extrapolating a subset, or
        averaging over a known count); ``total`` accumulates laps
        instead of keeping the best.
        """
        t0 = time.perf_counter()
        result = thunk()
        elapsed = (time.perf_counter() - t0) * scale
        table = self.reference if reference else self.seconds
        previous = table.get(key)
        if previous is None:
            table[key] = elapsed
        else:
            table[key] = previous + elapsed if total else min(previous, elapsed)
        return result

    def best(self, body: Callable[[], T], reps: Optional[int] = None) -> T:
        """Run ``body`` (which laps) ``reps`` times; return the last result."""
        for _ in range(max(1, reps or self.reps)):
            result = body()
        return result

    def derive(self, key: str, *parts: str) -> None:
        """``key`` = the sum of ``parts``, in each table that has them all."""
        for table in (self.seconds, self.reference):
            if all(part in table for part in parts):
                table[key] = sum(table[part] for part in parts)


@dataclass
class Row:
    """What one stage measured at one size, besides its timings."""

    edges: dict[str, int]
    checks: dict[str, bool]
    info: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Stage:
    """One registered bench stage."""

    name: str
    sizes: tuple[int, ...]
    measure: Callable[[Deployment, Clock], Row]
    #: Runs when no ``--stage`` is named.
    default: bool = False


# -- construction ----------------------------------------------------------


def _pldel_chain(
    points: list, radius: float, lap: Callable[..., Any], *, gabriel: bool = True
) -> tuple:
    """UDG build, Gabriel (optional), LDel^1 and planarization, each lapped."""
    udg = lap("udg", lambda: UnitDiskGraph(points, radius))
    gg = lap("gabriel", lambda: gabriel_graph(udg)) if gabriel else None
    ldel1 = lap("ldel1", lambda: local_delaunay_graph(udg, k=1))
    pldel = lap("planarize", lambda: planarize_ldel1(udg, ldel1))
    return udg, gg, ldel1, pldel


def measure_pipeline(dep: Deployment, clock: Clock) -> Row:
    """Stage timings and edge counts of the construction pipeline.

    Each rep rebuilds every structure from a fresh UDG; edge counts
    are recorded so the baseline comparison can assert the optimized
    pipeline still builds the *same* graphs.
    """
    points = list(dep.points)

    def chain() -> tuple:
        built = _pldel_chain(points, dep.radius, clock.lap)
        backbone = clock.lap("backbone", lambda: build_backbone(dep.points, dep.radius))
        return (*built, backbone)

    udg, gg, ldel1, pldel, backbone = clock.best(chain)
    clock.derive("pldel", "ldel1", "planarize")
    return Row(
        edges={
            "udg": udg.edge_count,
            "gabriel": gg.edge_count,
            "ldel1": ldel1.graph.edge_count,
            "pldel": pldel.graph.edge_count,
            "backbone": backbone.ldel_icds.edge_count,
        },
        checks={},
    )


def measure_sharded(dep: Deployment, clock: Clock) -> Row:
    """Serial vs sharded PLDel: timings and bit-identity.

    The reference is the single-process pipeline
    (:func:`~repro.topology.ldel.planar_local_delaunay_graph`); the
    product is the tiled build from :mod:`repro.sharding` on the same
    deployment.  ``edges_match``: the stitch must reproduce the serial
    edge set and triangles bit-for-bit, or the speedup is meaningless.
    """
    from repro.sharding.build import sharded_pldel
    from repro.topology.ldel import planar_local_delaunay_graph

    points = list(dep.points)

    def both() -> tuple:
        udg = UnitDiskGraph(points, dep.radius)
        serial = clock.lap(
            "pldel", lambda: planar_local_delaunay_graph(udg), reference=True
        )
        sharded, stats = clock.lap(
            "pldel",
            lambda: sharded_pldel(points, dep.radius, shards=SHARDS, max_workers=WORKERS),
        )
        return serial, sharded, stats

    serial, sharded, stats = clock.best(both)
    return Row(
        edges={"pldel": sharded.graph.edge_count},
        checks={
            "edges_match": sharded.graph.edge_set() == serial.graph.edge_set()
            and sharded.triangles == serial.triangles
        },
        info={
            "shards": SHARDS,
            "tiles": stats.tiles,
            "grid": list(stats.grid),
            "mode": stats.mode,
            "workers": stats.workers,
            "straddle_contests": stats.counters.get("straddle_contests", 0),
        },
    )


def measure_soa(dep: Deployment, clock: Clock) -> Row:
    """Array-native pipeline vs pure-Python reference.

    Runs UDG build, Gabriel, LDel^1 and planarization with the SoA
    kernels active (best of ``max(2, reps)``) and once with numpy
    masked out via :func:`repro.core.compat.numpy_disabled` (the exact
    reference path the kernels promise bit-identity to).  An untimed
    warmup pass precedes the SoA measurements — the very first batch
    kernel invocation pays one-time allocator costs (first-touch page
    faults on the large temporaries) that would otherwise charge
    construction for a process-lifetime event.  ``identical``: every
    stage's edge set (and both triangle lists) must match the
    reference bit for bit, or any speedup is meaningless.
    """
    from repro.core import compat

    points = list(dep.points)
    numpy_active = compat.numpy_active()
    if numpy_active:
        _pldel_chain(points, dep.radius, Clock(1).lap)  # warmup (see docstring)
    soa = clock.best(
        lambda: _pldel_chain(points, dep.radius, clock.lap), reps=max(2, clock.reps)
    )
    with compat.numpy_disabled():
        ref = _pldel_chain(points, dep.radius, partial(clock.lap, reference=True))
    clock.derive("pldel", "ldel1", "planarize")
    clock.derive("end_to_end", "udg", "pldel")

    s_udg, s_gg, s_ldel1, s_pldel = soa
    r_udg, r_gg, r_ldel1, r_pldel = ref
    identical = (
        s_udg.edge_set() == r_udg.edge_set()
        and s_gg.edge_set() == r_gg.edge_set()
        and s_ldel1.graph.edge_set() == r_ldel1.graph.edge_set()
        and s_ldel1.triangles == r_ldel1.triangles
        and s_pldel.graph.edge_set() == r_pldel.graph.edge_set()
        and s_pldel.triangles == r_pldel.triangles
    )
    return Row(
        edges={
            "udg": s_udg.edge_count,
            "gabriel": s_gg.edge_count,
            "ldel1": s_ldel1.graph.edge_count,
            "pldel": s_pldel.graph.edge_count,
        },
        checks={"identical": identical},
        info={"numpy_active": numpy_active},
    )


def measure_soa_scale(dep: Deployment, clock: Clock) -> Row:
    """One large-``n`` SoA construction; no reference pass.

    The scale probe behind the "n = 10^5 on one box" target: times the
    pipeline once with the kernels active and records sizes, without
    the (hours-long at this scale) pure-Python comparison run.
    """
    udg, _, ldel1, pldel = _pldel_chain(
        list(dep.points), dep.radius, clock.lap, gabriel=False
    )
    clock.derive("end_to_end", "udg", "ldel1", "planarize")
    return Row(
        edges={
            "udg": udg.edge_count,
            "ldel1": ldel1.graph.edge_count,
            "pldel": pldel.graph.edge_count,
        },
        checks={},
        info={"triangles": len(pldel.triangles)},
    )


def _same_backbone(result: Any, reference: Any, *, ledgers: bool = True) -> bool:
    """Bit-identity of the structures two backbone builds produced.

    With ``ledgers`` the per-node, per-kind message ledgers at the
    three accounting boundaries (``stats_cds``, ``stats_icds``,
    ``stats_ldel``) must match too; the sharded build carries none.
    """
    same = (
        result.dominators == reference.dominators
        and result.connectors == reference.connectors
        and result.cds.edge_set() == reference.cds.edge_set()
        and result.icds.edge_set() == reference.icds.edge_set()
        and result.ldel_icds.edge_set() == reference.ldel_icds.edge_set()
        and result.ldel_icds_prime.edge_set() == reference.ldel_icds_prime.edge_set()
    )
    if not (same and ledgers):
        return same
    return all(
        getattr(result, name).per_node_kind == getattr(reference, name).per_node_kind
        for name in ("stats_cds", "stats_icds", "stats_ldel")
    )


def measure_backbone_fast(dep: Deployment, clock: Clock) -> Row:
    """Protocol vs fast vs sharded-fast backbone.

    The message-passing protocol path is timed once (it is the slow
    reference being replaced); the direct-computation path and the
    sharded build take the best of ``reps``.  ``identical`` and
    ``sharded_identical``: dominator set, connector set, and all four
    certified edge sets must match the protocol path bit-for-bit, or
    the speedup is a bug; ``identical`` also holds the fast path's
    three message ledgers to the protocol's.
    """
    from repro.sharding.build import sharded_backbone

    points = list(dep.points)
    protocol = clock.lap(
        "fast",
        lambda: build_backbone(points, dep.radius, mode="protocol"),
        reference=True,
    )
    clock.reference["sharded_fast"] = clock.reference["fast"]

    def both() -> tuple:
        fast = clock.lap("fast", lambda: build_backbone(points, dep.radius, mode="fast"))
        sharded, stats = clock.lap(
            "sharded_fast",
            lambda: sharded_backbone(
                points, dep.radius, shards=SHARDS, max_workers=WORKERS
            ),
        )
        return fast, sharded, stats

    fast, sharded, stats = clock.best(both)
    return Row(
        edges={"fast": fast.ldel_icds.edge_count},
        checks={
            "identical": _same_backbone(fast, protocol),
            "sharded_identical": _same_backbone(sharded, protocol, ledgers=False),
        },
        info={
            "shards": SHARDS,
            "election_certified": stats.counters.get("election_certified", 0),
            "election_unresolved": stats.counters.get("election_unresolved", 0),
        },
    )


# -- measurement ------------------------------------------------------------


def _metrics_family(dep: Deployment) -> tuple:
    """The Table I topology family on one bench deployment."""
    from repro.experiments.runner import build_all_topologies

    udg = UnitDiskGraph(list(dep.points), dep.radius)
    # The fast backbone path is bit-identical to the protocol run and
    # this stage measures *metrics*, not construction.
    backbone = build_backbone(dep.points, dep.radius, mode="fast")
    graphs, _ = build_all_topologies(udg, backbone=backbone)
    return udg, graphs


def _reference_family_pass(
    udg: UnitDiskGraph, graphs: dict, *, use_scipy: Optional[bool] = None
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
            return g.edge_length(u, v) ** POWER_ALPHA

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


def _oracle_family_pass(udg: UnitDiskGraph, graphs: dict, oracle: Any) -> dict:
    """Full-family summarize through one shared distance oracle."""
    from repro.core.metrics import summarize_family
    from repro.experiments.runner import STRETCH_TOPOLOGIES

    summary = summarize_family(
        udg, graphs, stretch_policy=STRETCH_TOPOLOGIES,
        power_alpha=POWER_ALPHA, oracle=oracle,
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


def _metrics_fallback_exact() -> bool:
    """Exactness tripwire for the no-numpy/no-scipy oracle fallback.

    Both sides are forced onto the pure-Python all-pairs routines at
    ``METRICS_FALLBACK_SIZE``; the oracle's fallback kernel must then
    reproduce the reference loop **bit-for-bit** on every field —
    equality, not tolerance.
    """
    from repro.core.oracle import DistanceOracle
    from repro.experiments.runner import STRETCH_TOPOLOGIES

    udg, graphs = _metrics_family(deployment(METRICS_FALLBACK_SIZE))
    reference = _reference_family_pass(udg, graphs, use_scipy=False)
    oracle = DistanceOracle(udg, max_entries=64, use_scipy=False, use_numpy=False)
    fallback = _oracle_family_pass(udg, graphs, oracle)
    return all(
        fallback[name][kind] == reference[name][kind]
        for name in STRETCH_TOPOLOGIES
        for kind in ("length", "hops", "power")
    )


def measure_metrics(dep: Deployment, clock: Clock) -> Row:
    """Reference vs oracle full-family summarize.

    The reference is the pre-oracle path timed once — it rebuilds
    every all-pairs matrix from scratch on each call, so it is
    stateless and a sweep of ``METRICS_REPS`` passes costs exactly that
    many times the measured pass.  ``cold`` is a fresh oracle's first
    full-family pass (what a pipeline pays once per deployment);
    ``warm`` is the best of the replay passes on the same oracle (what
    benchmark rounds and repeated sweep points pay once the oracle is
    shared).  ``sweep`` compares the two at the sweep level — the
    reference re-paid per pass against one cold pass plus warm replays,
    the unit the Table I / fig8–12 benchmarks actually repeat.
    ``parity``: any disagreement beyond ``PARITY_RTOL`` (bit-exact
    pair counts) fails the run; ``fallback_exact`` is the pure-Python
    fallback tripwire.
    """
    from repro.core.oracle import PARITY_RTOL, DistanceOracle

    udg, graphs = _metrics_family(dep)
    reference = clock.lap(
        "cold", lambda: _reference_family_pass(udg, graphs), reference=True
    )
    # max_entries sized so warm passes replay entirely from cache (the
    # family holds 6 stretch rows x 3 kinds of non-baseline matrices).
    oracle = DistanceOracle(udg, max_entries=64)
    clock.lap("cold", lambda: _oracle_family_pass(udg, graphs, oracle))
    vectorized = clock.best(
        lambda: clock.lap("warm", lambda: _oracle_family_pass(udg, graphs, oracle)),
        reps=METRICS_REPS - 1,
    )
    clock.reference["warm"] = clock.reference["cold"]
    clock.reference["sweep"] = METRICS_REPS * clock.reference["cold"]
    clock.seconds["sweep"] = (
        clock.seconds["cold"] + (METRICS_REPS - 1) * clock.seconds["warm"]
    )
    parity = _family_parity(vectorized, reference, PARITY_RTOL)
    return Row(
        edges={name: graph.edge_count for name, graph in graphs.items()},
        checks={"parity": parity["ok"], "fallback_exact": _metrics_fallback_exact()},
        info={
            "reps": METRICS_REPS,
            "rows": len(vectorized),
            "pairs": sum(
                kinds["length"].pairs + kinds["length"].unreachable_pairs
                for kinds in reference.values()
            ),
            "parity": parity,
            "fallback_size": METRICS_FALLBACK_SIZE,
            "oracle": oracle.snapshot(),
        },
    )


# -- routing ------------------------------------------------------------------


def _path_mismatches(batch: Any, route_one: Callable[[int, int], Any], pairs: list) -> int:
    """Pairs whose batch route differs from the scalar one in path, reason or hops."""
    bad = 0
    for i, (s, t) in enumerate(pairs):
        res = route_one(s, t)
        if (
            batch.path(i) != res.path
            or batch.reason(i) != res.reason
            or int(batch.hops[i]) != res.hops
        ):
            bad += 1
    return bad


def measure_routing(dep: Deployment, clock: Clock) -> Row:
    """Batch route engine vs the scalar routers.

    Routes the same ``ROUTING_PAIRS`` random (s, t) pairs through the
    :class:`~repro.core.route_engine.RouteEngine` kernels (greedy /
    compass / GPSR over the UDG) and through the
    :class:`~repro.core.route_engine.BackboneRouter` (the paper's
    dominator-entry procedure over the planar backbone, GPSR and
    oracle-backed shortest-path cores), against the scalar ``routing/``
    reference timed on a subset and extrapolated.  ``sweep`` covers
    the paper's evaluation workload — the UDG greedy baseline plus
    both backbone traversals.

    ``paths_identical`` re-routes an identity subset with paths kept
    and requires hop-for-hop equality (path, reason, hops) against the
    scalar routers for every method and for the backbone GPSR
    procedure; ``shortest_parity`` requires the oracle-backed shortest
    mode to agree with the per-pair Dijkstra reference on delivery and
    on path length within 1e-9 (equal-length tie paths may
    legitimately differ).
    """
    from repro.core.route_engine import BackboneRouter, RouteEngine
    from repro.routing.backbone_routing import backbone_route
    from repro.routing.compass import compass_route
    from repro.routing.gpsr import gpsr_route
    from repro.routing.greedy import greedy_route

    n = len(dep.points)
    udg = UnitDiskGraph(list(dep.points), dep.radius)
    backbone = build_backbone(dep.points, dep.radius, mode="fast")
    rng = random.Random(SEED + 9)
    sampled = [(rng.randrange(n), rng.randrange(n)) for _ in range(ROUTING_PAIRS)]
    sub = sampled[:ROUTING_SCALAR_PAIRS]
    short_sub = sampled[:ROUTING_SHORTEST_SCALAR_PAIRS]
    ident = sampled[:ROUTING_IDENTITY_PAIRS]
    scalar_of = {"greedy": greedy_route, "compass": compass_route, "gpsr": gpsr_route}
    engine = RouteEngine(udg)
    router = BackboneRouter(backbone)
    delivery: dict[str, float] = {}

    def scalar_shortest(pairs: list) -> Any:
        return router._route_pairs_scalar(
            pairs, mode="shortest", max_hops=None,
            keep_paths=False, count_unreachable=False,
        )

    for method, scalar in scalar_of.items():
        batch = clock.lap(
            method, lambda: engine.route_pairs(sampled, method=method, keep_paths=False)
        )
        clock.lap(
            method, lambda: [scalar(udg, s, t) for s, t in sub],
            reference=True, scale=ROUTING_PAIRS / len(sub),
        )
        delivery[method] = round(batch.delivery_rate, 6)

    bb_batch = clock.lap(
        "backbone_gpsr",
        lambda: router.route_pairs(sampled, mode="gpsr", keep_paths=False),
    )
    clock.lap(
        "backbone_gpsr_warm",
        lambda: router.route_pairs(sampled, mode="gpsr", keep_paths=False),
    )
    clock.lap(
        "backbone_gpsr",
        lambda: [backbone_route(backbone, s, t, mode="gpsr") for s, t in sub],
        reference=True, scale=ROUTING_PAIRS / len(sub),
    )
    clock.reference["backbone_gpsr_warm"] = clock.reference["backbone_gpsr"]
    delivery["backbone_gpsr"] = round(bb_batch.delivery_rate, 6)

    sp_batch = clock.lap(
        "backbone_shortest",
        lambda: router.route_pairs(sampled, mode="shortest", keep_paths=False),
    )
    clock.lap(
        "backbone_shortest", lambda: scalar_shortest(short_sub),
        reference=True, scale=ROUTING_PAIRS / len(short_sub),
    )
    delivery["backbone_shortest"] = round(sp_batch.delivery_rate, 6)
    clock.derive("sweep", "greedy", "backbone_gpsr", "backbone_shortest")

    # -- path-identity tripwire (hop-for-hop against the scalar loop) --
    modes: dict[str, int] = {
        method: _path_mismatches(
            engine.route_pairs(ident, method=method),
            lambda s, t: scalar(udg, s, t),
            ident,
        )
        for method, scalar in scalar_of.items()
    }
    modes["backbone_gpsr"] = _path_mismatches(
        router.route_pairs(ident, mode="gpsr"),
        lambda s, t: backbone_route(backbone, s, t, mode="gpsr"),
        ident,
    )
    mismatches = sum(modes.values())

    # -- shortest-mode parity (delivery + length, not path choice) --
    sp_ref = scalar_shortest(short_sub)
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

    return Row(
        edges={"udg": udg.edge_count, "backbone": backbone.ldel_icds.edge_count},
        checks={"paths_identical": mismatches == 0, "shortest_parity": sp_ok},
        info={
            "pairs": ROUTING_PAIRS,
            "scalar_pairs": len(sub),
            "delivery": delivery,
            "identity": {
                "pairs": len(ident),
                "mismatches": mismatches,
                "modes": {mode: bad == 0 for mode, bad in modes.items()},
            },
            "shortest_parity": {"pairs": len(short_sub), "max_rel_err": worst},
        },
    )


# -- incremental maintenance ---------------------------------------------------


def measure_incremental(dep: Deployment, clock: Clock) -> Row:
    """Per-step incremental maintenance vs from-scratch rebuild.

    The reference is the fast-path ``build_backbone`` (best of
    ``reps``) — what a maintenance step would cost without the
    incremental engine.  The product is the mean wall time of
    ``INCREMENTAL_STEPS`` single-node-move maintenance steps on a
    seeded waypoint trace.  ``identical``: after the whole trace the
    maintained structures must still match a from-scratch rebuild
    bit-for-bit, or the speedup is a bug.
    """
    from repro.incremental.engine import IncrementalMaintainer
    from repro.incremental.events import Event
    from repro.mobility.waypoint import RandomWaypointModel

    n = len(dep.points)
    rebuilt = clock.best(
        lambda: clock.lap(
            "step",
            lambda: build_backbone(dep.points, dep.radius, mode="fast"),
            reference=True,
        )
    )
    maintainer = IncrementalMaintainer(list(dep.points), dep.radius)
    model = RandomWaypointModel(
        list(dep.points), dep.side, SEED,
        speed_range=(1.0, 3.0), pause_range=(0.0, 0.0),
    )
    picker = random.Random(SEED + 1)
    phase_totals: dict[str, float] = {}
    dirty_fractions: list[float] = []
    for _ in range(INCREMENTAL_STEPS):
        mover = picker.randrange(n)
        positions = model.step(1.0, nodes=[mover])
        event = Event("move", node=mover, x=positions[mover][0], y=positions[mover][1])
        report = clock.lap(
            "step", lambda: maintainer.apply([event]),
            scale=1.0 / INCREMENTAL_STEPS, total=True,
        )
        dirty_fractions.append(report.dirty_fraction)
        for key, value in report.phase_seconds.items():
            phase_totals[key] = phase_totals.get(key, 0.0) + value
    outcome = maintainer.verify()
    return Row(
        edges={"backbone": rebuilt.ldel_icds.edge_count},
        checks={"identical": outcome["identical"]},
        info={
            "steps": INCREMENTAL_STEPS,
            "phase_seconds": {
                key: round(value / INCREMENTAL_STEPS, 6)
                for key, value in phase_totals.items()
            },
            "mean_dirty_fraction": round(
                sum(dirty_fractions) / len(dirty_fractions), 6
            ),
            "mismatches": outcome["mismatches"],
        },
    )


def measure_incremental_trace(dep: Deployment, clock: Clock) -> Row:
    """The long-trace acceptance run: bit-identity after every batch.

    Drives an ``n // 5``-batch waypoint trace through
    :func:`~repro.incremental.session.run_incremental_session` with
    the rebuild-equivalence tripwire asserted every
    ``TRACE_VERIFY_EVERY`` batches (the verification rebuilds dominate
    the wall time, which is the point — the trace certifies
    correctness, the ``incremental`` stage measures speed).
    """
    from repro.incremental.session import run_incremental_session

    steps = len(dep.points) // 5
    result = clock.lap(
        "total",
        lambda: run_incremental_session(
            dep,
            steps=steps,
            move_fraction=TRACE_MOVE_FRACTION,
            seed=SEED,
            verify_every=TRACE_VERIFY_EVERY,
        ),
    )
    counters = result.counters
    return Row(
        edges={},
        checks={"all_verified": result.all_verified},
        info={
            "steps": steps,
            "move_fraction": TRACE_MOVE_FRACTION,
            "verify_every": TRACE_VERIFY_EVERY,
            "events": counters["events"],
            "verified_steps": counters["verifications"],
            "verification_failures": counters["verification_failures"],
            "mean_dirty_fraction": round(result.mean_dirty_fraction, 6),
        },
    )


#: The registry, in run and report order.
STAGES: dict[str, Stage] = {
    stage.name: stage
    for stage in (
        Stage("pipeline", (200, 500, 1000, 2000), measure_pipeline, default=True),
        Stage("sharded", (1000, 2000, 5000), measure_sharded),
        Stage("soa", (1000, 2000, 5000), measure_soa),
        Stage("soa-scale", (100_000,), measure_soa_scale),
        Stage("backbone-fast", (1000, 2000, 5000), measure_backbone_fast, default=True),
        Stage("metrics", (200, 1000), measure_metrics, default=True),
        Stage("routing", (2000,), measure_routing),
        Stage("incremental", (1000, 2000), measure_incremental, default=True),
        Stage("incremental-trace", (1000,), measure_incremental_trace, default=True),
    )
}


# -- harness -------------------------------------------------------------------


def _rounded(table: dict[str, float]) -> dict[str, float]:
    return {key: round(value, 6) for key, value in table.items()}


def run_stage(stage: Stage, n: int, reps: int = 1) -> dict:
    """Measure one stage at one size and return its report row."""
    clock = Clock(reps)
    row = stage.measure(deployment(n), clock)
    return {
        "seconds": _rounded(clock.seconds),
        "reference_seconds": _rounded(clock.reference),
        "speedup": {
            key: round(ref / clock.seconds[key], 3)
            for key, ref in clock.reference.items()
            if clock.seconds.get(key)
        },
        "edges": row.edges,
        "checks": row.checks,
        "info": row.info,
    }


def compare_to_baseline(stages: dict, baseline: dict) -> None:
    """Fold a pinned baseline into every row that has a pin, in place.

    ``vs_baseline`` holds pinned ÷ current seconds per timing (``> 1``
    = faster than the pin); the ``baseline_edges`` check requires the
    edge counts to equal the pin — a speedup bought by building a
    different graph is a bug, not an optimization.  Rows with no pin
    (other sizes or stages) are left alone.
    """
    for name, rows in stages.items():
        pins = baseline.get("stages", {}).get(name, {})
        for key, row in rows.items():
            pin = pins.get(key)
            if pin is None:
                continue
            row["vs_baseline"] = {
                timing: round(pin["seconds"][timing] / now, 3)
                for timing, now in row["seconds"].items()
                if now and pin["seconds"].get(timing)
            }
            if row["edges"] or pin["edges"]:
                row["checks"]["baseline_edges"] = row["edges"] == pin["edges"]


def run(plan: dict[str, Sequence[int]], reps: int = 1, baseline: Optional[dict] = None) -> dict:
    """Run every ``stage -> sizes`` entry of ``plan`` into one report."""
    stages = {
        name: {str(n): run_stage(STAGES[name], n, reps) for n in sizes}
        for name, sizes in plan.items()
    }
    report: dict = {
        "schema": BENCH_SCHEMA,
        "params": {
            "generator": "uniform",
            "side": "10*sqrt(n)",
            "radius": RADIUS,
            "seed": SEED,
            "reps": reps,
        },
        "stages": stages,
    }
    if baseline is not None:
        report["baseline"] = {"commit": baseline.get("commit")}
        compare_to_baseline(stages, baseline)
    return report


def pin_baseline(report: dict, commit: str) -> dict:
    """A baseline document recording this report's seconds and edges."""
    return {
        "schema": BASELINE_SCHEMA,
        "commit": commit,
        "params": report["params"],
        "stages": {
            name: {
                key: {"seconds": row["seconds"], "edges": row["edges"]}
                for key, row in rows.items()
            }
            for name, rows in report["stages"].items()
        },
    }


def failures(report: dict) -> list[str]:
    """Every false check, as ``<stage> n=<n>: <check>``."""
    return [
        f"{name} n={key}: {check}"
        for name, rows in report["stages"].items()
        for key, row in rows.items()
        for check, ok in row["checks"].items()
        if not ok
    ]


COLUMNS = (
    "stage", "n", "timing", "seconds", "reference s",
    "speedup", "vs baseline", "edges", "checks",
)


def _factor(value: Optional[float]) -> str:
    return f"{value:.2f}x" if value else "-"


def _table(report: dict) -> Iterator[list[str]]:
    """One line per timing; the stage, n and checks cells on the first."""
    for name, rows in report["stages"].items():
        for key, row in rows.items():
            checks = ", ".join(
                f"{check}={'yes' if ok else 'NO'}" for check, ok in row["checks"].items()
            )
            for i, (timing, sec) in enumerate(row["seconds"].items()):
                ref = row["reference_seconds"].get(timing)
                first = i == 0
                yield [
                    name if first else "",
                    key if first else "",
                    timing,
                    f"{sec:.4f}",
                    f"{ref:.4f}" if ref is not None else "-",
                    _factor(row["speedup"].get(timing)),
                    _factor(row.get("vs_baseline", {}).get(timing)),
                    str(row["edges"].get(timing, "-")),
                    (checks or "-") if first else "",
                ]


def render(report: dict, *, markdown: bool = False) -> str:
    """The report table, as aligned text or as GitHub markdown."""
    rows = [list(COLUMNS), *_table(report)]
    commit = report.get("baseline", {}).get("commit")
    note = (
        "speedup = reference ÷ product; vs baseline = pinned ÷ current "
        + (f"(baseline {commit})" if commit else "(no baseline compared)")
    )
    if markdown:
        lines = ["## Hot-path benchmark", ""]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        lines.insert(3, "|" + "---|" * len(COLUMNS))
        return "\n".join([*lines, "", note, ""])
    widths = [max(len(row[i]) for row in rows) for i in range(len(COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join([*lines, "", note])


class BaselineError(RuntimeError):
    """The baseline file is missing, unreadable, or the wrong schema."""


def load_baseline(path: str | Path) -> dict:
    """Parse a baseline file or raise :class:`BaselineError` saying why."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise BaselineError(f"baseline file not found: {path}") from None
    except OSError as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from None
    except ValueError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from None
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != BASELINE_SCHEMA:
        raise BaselineError(
            f"baseline {path} has schema {schema!r}, expected {BASELINE_SCHEMA!r}"
        )
    return data


def default_baseline_path() -> Path:
    """The checked-in baseline next to the benchmarks CLI."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / "baseline_hotpath.json"


def remediation_command(path: str | Path) -> str:
    """The exact command that re-pins the baseline at ``path``."""
    return (
        "PYTHONPATH=src python benchmarks/bench_hotpath.py "
        f"--write-baseline --baseline {path}"
    )


def _current_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def write_step_summary(markdown: str) -> None:
    """Append to the GitHub Actions job summary when one is configured."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a") as fh:
            fh.write(markdown + "\n")


def _stage_arg(text: str) -> tuple[str, tuple[int, ...]]:
    name, _, sizes = text.partition("=")
    if name not in STAGES:
        raise argparse.ArgumentTypeError(
            f"unknown stage {name!r}; known: {', '.join(STAGES)}"
        )
    try:
        return name, tuple(int(s) for s in sizes.split(",")) if sizes else STAGES[name].sizes
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sizes in {text!r}") from None


def _parser() -> argparse.ArgumentParser:
    defaults = ", ".join(
        f"{s.name}={','.join(map(str, s.sizes))}" for s in STAGES.values() if s.default
    )
    parser = argparse.ArgumentParser(
        prog="bench_hotpath.py",
        description="Time the construction hot path; every stage carries "
        "bit-identity tripwires (exit 1 on any failed check, 2 on an "
        "unusable baseline).",
    )
    parser.add_argument(
        "--stage", type=_stage_arg, action="append", metavar="NAME[=n,n,...]",
        help=f"stage to run, at its default sizes or the listed ones "
        f"(repeatable; stages: {', '.join(STAGES)}; default: {defaults})",
    )
    parser.add_argument(
        "--reps", type=int, default=1, help="timing repetitions (best kept)"
    )
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_hotpath.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--baseline", type=Path, default=default_baseline_path(),
        help="baseline file to compare against (or to write)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="re-pin the baseline from this run, stamped with the current commit",
    )
    parser.add_argument(
        "--step-summary", action="store_true",
        help="append the markdown table to $GITHUB_STEP_SUMMARY",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The bench CLI (``benchmarks/bench_hotpath.py``)."""
    args = _parser().parse_args(argv)
    requested: dict[str, list[int]] = {}
    for name, sizes in args.stage or [
        (s.name, s.sizes) for s in STAGES.values() if s.default
    ]:
        requested.setdefault(name, []).extend(sizes)
    plan = {name: requested[name] for name in STAGES if name in requested}

    baseline = None
    if not args.write_baseline:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            fix = remediation_command(args.baseline)
            print(f"error: {exc}", file=sys.stderr)
            print(
                f"to (re)pin the baseline on a known-good commit, run:\n  {fix}",
                file=sys.stderr,
            )
            if args.step_summary:
                write_step_summary(
                    "## Hot-path benchmark: baseline unusable\n\n"
                    f"{exc}\n\nRe-pin it on a known-good commit:\n\n```\n{fix}\n```"
                )
            return 2

    report = run(plan, args.reps, baseline)
    failed = failures(report)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(render(report))
    print(f"\nreport written: {args.output}")
    if args.step_summary:
        write_step_summary(render(report, markdown=True))
    if args.write_baseline and not failed:
        pinned = pin_baseline(report, _current_commit())
        args.baseline.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        print(f"baseline re-pinned: {args.baseline}")
    for failure in failed:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failed else 0

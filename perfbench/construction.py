"""The two construction workloads: ``backbone-uniform`` and ``pldel-dense``.

Both call the library in this process.  One operation is one full
construction from a point set; its wall time is ``build_s``.  The
output checks run after the clock stops and count a build as failed
when they do not hold.  With ``--trace 1`` every other build is run
with spans around the layers' public functions (wrapped from here),
so the per-stage times and the tracing overhead come from one run.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

from common import (
    Outcome,
    Tracer,
    median,
    self_peak_rss_mb,
    time_setup,
    uniform_side,
)

RADIUS = 60.0

#: backbone-uniform: constant density (side = 200·sqrt(n/100), mean
#: degree about 28) at n = 10^4, where ICDS induction is quadratic.
BACKBONE_NODES = 10_000
#: pldel-dense: clustered, mean degree about 60 on a 2000 x 2000
#: field.  LDel¹'s time and memory grow faster than linearly with the
#: local density, and with random pocket centres the density swings
#: with the seed (peak RSS by ±15%).  The pockets are therefore part of
#: the workload: 320 centres drawn once from ``PLDEL_LAYOUT_SEED``; the
#: run seed draws the nodes around them.
PLDEL_NODES = 8_000
PLDEL_SIDE = 2000.0
PLDEL_CLUSTERS = 320
PLDEL_SPREAD = 0.015
PLDEL_LAYOUT_SEED = 1

#: Fewest builds per run, whatever ``--seconds`` says: the host's
#: speed drifts from build to build, so a median needs several.
BACKBONE_MIN_BUILDS = 5
PLDEL_MIN_BUILDS = 4
#: Repeats of each stage at n/4 for the growth slopes.
SLOPE_REPEATS = 3

#: (span name, slope metric stage) for the backbone stages.
BACKBONE_STAGES = (
    ("udg.build", "udg"),
    ("cds.clustering", "clustering"),
    ("cds.connectors", "connectors"),
    ("cds.icds", "icds"),
    ("backbone.sub_udg", "sub_udg"),
    ("backbone.ldel", "ldel"),
)


# -- backbone-uniform ---------------------------------------------------------


def backbone_points(n: int, seed: int):
    from repro.workloads.generators import uniform_points

    return uniform_points(n, uniform_side(n), random.Random(seed))


def backbone_setup(seed: int):
    from repro.core.spanner import build_backbone

    points = backbone_points(BACKBONE_NODES, seed)
    build_backbone(backbone_points(BACKBONE_NODES // 16, seed + 1), RADIUS, mode="fast")
    return points


def backbone_build(points, tracer: Tracer | None = None):
    from repro.core.spanner import build_backbone

    return build_backbone(points, RADIUS, mode="fast")


def backbone_check(result) -> tuple[list[str], str]:
    """Failed checks (empty when all hold) and the edge-set digest."""
    udg = result.udg
    problems = []
    backbone = result.backbone_nodes
    dominators = result.dominators
    undominated = sum(
        1
        for v in udg.nodes()
        if v not in backbone and not (udg.neighbors(v) & dominators)
    )
    if undominated:
        problems.append(f"{undominated} nodes neither in the backbone nor dominated")
    if not result.ldel_icds.is_subgraph_of(result.icds):
        problems.append("LDel(ICDS) is not a subgraph of ICDS")
    if not result.icds.is_subgraph_of(udg):
        problems.append("ICDS is not a subgraph of the UDG")
    digest = hashlib.sha256(
        repr(
            (sorted(result.ldel_icds.edges()), sorted(dominators),
             sorted(result.connectors))
        ).encode()
    ).hexdigest()
    return problems, digest


def backbone_wrap(tracer: Tracer, counts: dict) -> None:
    import repro.core.spanner as spanner
    import repro.graphs.quasi as quasi
    import repro.protocols.backbone as backbone
    import repro.protocols.cds as cds

    tracer.wrap(spanner, "UnitDiskGraph", "udg.build")
    tracer.wrap(cds, "fast_clustering", "cds.clustering")
    tracer.wrap(cds, "fast_connectors", "cds.connectors")
    tracer.wrap(cds, "induced_udg_subgraph", "cds.icds")
    tracer.wrap(quasi, "induced_radio_subgraph", "backbone.sub_udg")
    tracer.wrap(backbone, "fast_ldel_protocol", "backbone.ldel")


def backbone_layers(result, counts: dict) -> dict:
    """Counts read off one build's result."""
    udg = result.udg
    b = len(result.backbone_nodes)
    pairs = b * (b - 1) // 2
    icds_edges = result.icds.edge_count
    return {
        "udg.edges": udg.edge_count,
        "udg.degree_avg": 2.0 * udg.edge_count / udg.node_count,
        "cds.dominators": len(result.dominators),
        "cds.connectors": len(result.connectors),
        "cds.icds_pairs": pairs,
        "cds.icds_edges": icds_edges,
        "cds.icds_yield": icds_edges / pairs if pairs else 0.0,
    }


def backbone_stage_layers(total: dict, self_time: dict) -> dict:
    return {
        "udg.build_s": total.get("udg.build", 0.0),
        "cds.clustering_s": total.get("cds.clustering", 0.0),
        "cds.connectors_s": total.get("cds.connectors", 0.0),
        "cds.icds_s": total.get("cds.icds", 0.0),
        "backbone.sub_udg_s": total.get("backbone.sub_udg", 0.0),
        "backbone.ldel_s": total.get("backbone.ldel", 0.0),
        "backbone.self_s": self_time.get("backbone-uniform", 0.0),
    }


# -- pldel-dense ----------------------------------------------------------------


def pldel_points(n: int, seed: int):
    """Gaussian pockets as in ``workloads.generators.clustered_points``
    (centres in the middle 70% of the field, σ = spread · side, clamped
    to the field), with the centres fixed by the layout seed."""
    from repro.geometry.primitives import Point

    side = PLDEL_SIDE * math.sqrt(n / PLDEL_NODES)
    clusters = max(1, round(PLDEL_CLUSTERS * n / PLDEL_NODES))
    layout = random.Random(PLDEL_LAYOUT_SEED)
    centres = [
        (layout.uniform(0.15 * side, 0.85 * side),
         layout.uniform(0.15 * side, 0.85 * side))
        for _ in range(clusters)
    ]
    rng = random.Random(seed)
    spread = PLDEL_SPREAD * side
    points = []
    for i in range(n):
        cx, cy = centres[i % clusters]
        points.append(Point(
            min(max(rng.gauss(cx, spread), 0.0), side),
            min(max(rng.gauss(cy, spread), 0.0), side),
        ))
    return points


def pldel_setup(seed: int):
    points = pldel_points(PLDEL_NODES, seed)
    pldel_build(pldel_points(PLDEL_NODES // 16, seed + 1))
    return points


def pldel_build(points, tracer: Tracer | None = None):
    from repro.graphs.udg import UnitDiskGraph
    from repro.topology.ldel import planar_local_delaunay_graph

    if tracer is None:
        udg = UnitDiskGraph(points, RADIUS)
        return udg, planar_local_delaunay_graph(udg)
    with tracer.span("udg.build"):
        udg = UnitDiskGraph(points, RADIUS)
    with tracer.span("ldel.pldel"):
        return udg, planar_local_delaunay_graph(udg)


def pldel_check(result) -> tuple[list[str], str]:
    from repro.graphs.planarity import is_planar_embedding

    udg, pldel = result
    problems = []
    if not pldel.graph.is_subgraph_of(udg):
        problems.append("PLDel has an edge that is not a UDG link")
    if not is_planar_embedding(pldel.graph):
        problems.append("PLDel embedding has crossing edges")
    digest = hashlib.sha256(repr(sorted(pldel.graph.edges())).encode()).hexdigest()
    return problems, digest


def pldel_wrap(tracer: Tracer, counts: dict) -> None:
    import repro.topology.ldel as ldel

    def count_ldel1(result) -> None:
        counts["ldel1_triangles"] = len(result.triangles)

    tracer.wrap(ldel, "local_delaunay_graph", "ldel.ldel1", count_ldel1)
    tracer.wrap(ldel, "planarize_ldel1", "ldel.planarize")


def pldel_layers(result, counts: dict) -> dict:
    udg, pldel = result
    ldel1 = counts.get("ldel1_triangles", 0)
    return {
        "udg.edges": udg.edge_count,
        "udg.degree_avg": 2.0 * udg.edge_count / udg.node_count,
        "ldel.triangles": ldel1,
        "ldel.gabriel_edges": len(pldel.gabriel_edges),
        "ldel.triangles_kept_ratio": len(pldel.triangles) / ldel1 if ldel1 else 0.0,
    }


def pldel_stage_layers(total: dict, self_time: dict) -> dict:
    return {
        "udg.build_s": total.get("udg.build", 0.0),
        "ldel.ldel1_s": total.get("ldel.ldel1", 0.0),
        "ldel.planarize_s": total.get("ldel.planarize", 0.0),
        "ldel.self_s": self_time.get("ldel.pldel", 0.0),
    }


# -- the shared measuring loop -----------------------------------------------------


@dataclass(frozen=True)
class ConstructionSpec:
    name: str
    setup: Callable
    build: Callable
    check: Callable
    wrap: Callable
    layers: Callable
    stage_layers: Callable
    min_builds: int


SPECS = {
    "backbone-uniform": ConstructionSpec(
        "backbone-uniform", backbone_setup, backbone_build, backbone_check,
        backbone_wrap, backbone_layers, backbone_stage_layers,
        BACKBONE_MIN_BUILDS,
    ),
    "pldel-dense": ConstructionSpec(
        "pldel-dense", pldel_setup, pldel_build, pldel_check, pldel_wrap,
        pldel_layers, pldel_stage_layers, PLDEL_MIN_BUILDS,
    ),
}


def _build(spec: ConstructionSpec, points, tracer: Tracer | None, counts: dict):
    """One build, with spans when a tracer is given; returns
    (result, seconds, per-name totals, per-name self times)."""
    gc.collect()
    if tracer is None:
        started = time.perf_counter()
        result = spec.build(points)
        return result, time.perf_counter() - started, {}, {}
    root = len(tracer.spans)
    spec.wrap(tracer, counts)
    try:
        with tracer.span(spec.name):
            result = spec.build(points, tracer)
    finally:
        tracer.unwrap()
    total, self_time = tracer.breakdown(root)
    return result, total[spec.name], total, self_time


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = SPECS[workload]
    out = Outcome()
    points = spec.setup(seed)

    tracer = Tracer() if trace else None
    untraced: list[float] = []
    traced: list[float] = []
    totals: list[dict] = []
    selfs: list[dict] = []
    counts: dict = {}
    layers: dict = {}
    setup_times: list[float] = []
    digests: set[str] = set()
    # A traced run alternates untraced and traced builds, two of each
    # at least.
    min_builds = max(spec.min_builds, 4) if trace else spec.min_builds
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or out.attempted < min_builds:
        # One fresh set-up per build: set-ups spread over the whole run
        # see the host's slow drifts as the builds do, where back-to-back
        # ones would all land in the same few seconds.
        setup_times.append(time_setup(workload, seed))
        with_spans = trace and out.attempted % 2 == 1
        out.attempted += 1
        try:
            result, dt, total, self_time = _build(
                spec, points, tracer if with_spans else None, counts
            )
        except Exception as exc:  # a crash is a failed op, not a dead run
            out.failed += 1
            out.notes.append(f"build raised {type(exc).__name__}: {exc}")
            continue
        problems, digest = spec.check(result)
        digests.add(digest)
        if problems:
            out.failed += 1
            out.notes.extend(problems)
        elif with_spans:
            traced.append(dt)
            totals.append(total)
            selfs.append(self_time)
            layers = spec.layers(result, counts)
        else:
            untraced.append(dt)
        del result
    if len(digests) > 1:
        out.failed += 1
        out.notes.append(f"builds of one input gave {len(digests)} different edge sets")

    build_s = median(untraced)
    out.end_to_end = {
        "setup_s": median(setup_times),
        "peak_rss_mb": self_peak_rss_mb(),
        "build_s": build_s,
        "throughput_ops": len(untraced) / sum(untraced) if untraced else 0.0,
    }
    out.notes.append(
        "untraced builds " + ", ".join(f"{t:.3f}s" for t in untraced)
        + "; traced builds " + ", ".join(f"{t:.3f}s" for t in traced)
        + "; set-ups " + ", ".join(f"{t:.3f}s" for t in setup_times)
    )
    if trace:
        per_layer = dict(layers)
        per_layer.update(spec.stage_layers(_median_dict(totals), _median_dict(selfs)))
        if spec.name == "backbone-uniform":
            per_layer.update(backbone_slopes(spec, seed, _median_dict(totals), tracer))
        per_layer["trace.overhead_ratio.build_s"] = (
            median(traced) / build_s if build_s else 0.0
        )
        out.per_layer = per_layer
    return out


def _median_dict(runs: list[dict]) -> dict:
    names = {name for run_ in runs for name in run_}
    return {name: median([run_.get(name, 0.0) for run_ in runs]) for name in names}


def backbone_slopes(spec, seed, stages_n: dict, tracer: Tracer) -> dict:
    """Log-log growth slope of each stage between n/4 and n."""
    quarter = backbone_points(BACKBONE_NODES // 4, seed)
    runs = []
    for _ in range(SLOPE_REPEATS):
        result, _dt, total, _self = _build(spec, quarter, tracer, {})
        del result
        runs.append(total)
    out = {}
    for span, stage in BACKBONE_STAGES:
        t_q = median([r.get(span, 0.0) for r in runs])
        t_n = stages_n.get(span, 0.0)
        slope = math.log(t_n / t_q) / math.log(4.0) if t_q > 0 and t_n > 0 else 0.0
        out[f"backbone.{stage}.slope"] = slope
    return out

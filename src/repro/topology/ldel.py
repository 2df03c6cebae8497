"""The k-localized Delaunay graph LDel^k and its planarization PLDel.

Definitions (Li, Calinescu, Wan — INFOCOM 2002; reviewed in the
reproduced paper, Section II):

* a triangle ``uvw`` with all sides at most the transmission radius is
  a **k-localized Delaunay triangle** when its circumcircle contains
  no vertex of ``N_k(u) ∪ N_k(v) ∪ N_k(w)``;
* ``LDel^k(V)`` consists of all Gabriel edges plus the edges of all
  k-localized Delaunay triangles.

``LDel^k`` is planar for ``k >= 2``; ``LDel^1`` has thickness 2 and is
made planar by Algorithm 3: whenever two 1-localized Delaunay
triangles intersect, any triangle whose circumcircle contains a vertex
of the other is dropped (Li et al. prove at least one of the two
always is).  The surviving graph, called **PLDel** here, is the planar
structure the paper applies on top of the ICDS backbone.

This module is the *centralized reference*; the message-passing
protocol (paper Algorithms 2 and 3 verbatim) lives in
:mod:`repro.protocols.ldel_protocol` and is tested to produce the same
graph.

Hot-path notes: with numpy available, candidate generation, the k=1
filter and the planarization run as batched kernels over the
deployment's shared SoA snapshot (below), bit-identical to the scalar
reference path, which is the plain transcription of the definitions
and runs when numpy is masked out.  The k>=2 filter memoizes ``N_k``
per call (:func:`_filter_k_localized`); nothing is cached across calls.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.geometry.circle import circumcircle
from repro.geometry.predicates import segments_cross
from repro.geometry.primitives import Point, angle_at, dist_sq
from repro.geometry.triangulation import delaunay
from repro.graphs.graph import Graph
from repro.graphs.planarity import crossing_pairs
from repro.graphs.udg import UnitDiskGraph
from repro.topology.gabriel import gabriel_graph

Triangle = tuple[int, int, int]

#: Minimum angle at the proposing vertex (Algorithm 2's 60° rule).
_MIN_ANGLE = math.pi / 3.0 - 1e-12

#: Cosine-space form of the 60° rule for the vectorized path: the
#: angle test ``angle >= _MIN_ANGLE`` is equivalent to
#: ``cos(angle) <= cos(_MIN_ANGLE)`` (acos is decreasing).  Rows whose
#: vector-computed cosine lands within the band of the threshold are
#: re-decided by the scalar :func:`angle_at`, so hypot/division
#: rounding (~1e-15 relative, far inside the band) can never flip a
#: decision against the reference path.
_COS_MIN_ANGLE = math.cos(_MIN_ANGLE)
_ANGLE_COS_BAND = 1e-9


@dataclass(frozen=True)
class LDelResult:
    """LDel^k construction output: the graph plus its building blocks."""

    graph: Graph
    triangles: tuple[Triangle, ...]
    gabriel_edges: frozenset[tuple[int, int]]
    k: int


def _node_candidates(
    pos: Sequence[Point], r_sq: float, u: int, local: Sequence[int]
) -> list[Triangle]:
    """Triangles node ``u`` proposes from ``Del(N_1(u))``.

    The scalar reference of the lockstep kernel below: with numpy it
    runs only for the kernel's fallback queries (duplicate coordinates,
    the empty-cavity anomaly); otherwise it serves the no-numpy paths
    of :func:`candidate_triangles`, the sharded build and
    :func:`repro.protocols.ldel_fast.fast_ldel_protocol`.  ``local`` is
    the sorted 1-hop neighborhood of ``u`` (including ``u``).
    """
    if len(local) < 3:
        return []
    tri = delaunay([pos[i] for i in local])
    iu = bisect_left(local, u)
    out: list[Triangle] = []
    for a, b, c in tri.triangles_of(iu):
        ga, gb, gc = local[a], local[b], local[c]
        if (
            dist_sq(pos[ga], pos[gb]) > r_sq
            or dist_sq(pos[gb], pos[gc]) > r_sq
            or dist_sq(pos[ga], pos[gc]) > r_sq
        ):
            continue
        others = [x for x in (ga, gb, gc) if x != u]
        try:
            angle = angle_at(pos[u], pos[others[0]], pos[others[1]])
        except ValueError:
            continue
        if angle >= _MIN_ANGLE:
            out.append(tuple(sorted((ga, gb, gc))))  # type: ignore[arg-type]
    return out


# -- vectorized construction core (SoA kernels) -------------------------------
#
# With numpy available, candidate generation, the k=1 filter and the
# Algorithm 3 planarization all run over the deployment's shared
# :class:`~repro.core.soa.SoaSnapshot`.  Every kernel replicates its
# scalar counterpart's float expressions elementwise and routes rows
# the replication cannot decide (ambiguous predicates, duplicate
# coordinates, degenerate angle arms) to the scalar code, so the
# output is bit-identical — the equivalence suite and the benchmark
# tripwires both assert edge-set equality against the reference path.

#: Queries per lockstep triangulation block; bounds the flat record
#: pool (~block x avg-degree rows) so n=1e5 deployments stay in memory.
_SOA_CHUNK = 8192


def _soa_candidate_chunk(np, snap, pos, r_sq, qs):
    """Proposals of one block of query nodes.

    Returns ``(triples, owners)``: the (K, 3) int64 ascending triples
    and, per row, the node of ``qs`` that proposed it.  Rows are not
    deduplicated; callers do that.
    """
    from repro.core.soa import gather_csr_rows
    from repro.geometry.triangulation import delaunay_stars_batch

    xs, ys = snap.xs, snap.ys
    owner_n, vals = gather_csr_rows(np, snap.indptr, snap.indices, qs)
    nq = qs.shape[0]
    # Member list of q = sorted({q} | N(q)): merge the CSR rows with
    # one self entry per query via a single lexsort.
    owner_all = np.concatenate([owner_n, np.arange(nq)])
    value_all = np.concatenate([vals, qs])
    self_flag = np.zeros(owner_all.shape[0], dtype=bool)
    self_flag[owner_n.shape[0]:] = True
    order = np.lexsort((value_all, owner_all))
    members_flat = value_all[order]
    m = (snap.indptr[qs + 1] - snap.indptr[qs]) + 1
    indptr_q = np.zeros(nq + 1, dtype=np.int64)
    np.cumsum(m, out=indptr_q[1:])
    base = indptr_q[:-1]
    iu = np.nonzero(self_flag[order])[0] - base  # local index of q

    res = delaunay_stars_batch(xs, ys, indptr_q, members_flat)
    parts, owners = [], []
    if res.owner.shape[0]:
        own = res.owner
        la, lb, lc = res.tris[:, 0], res.tris[:, 1], res.tris[:, 2]
        inc = (la == iu[own]) | (lb == iu[own]) | (lc == iu[own])
        own, la, lb, lc = own[inc], la[inc], lb[inc], lc[inc]
        ga = members_flat[base[own] + la]
        gb = members_flat[base[own] + lb]
        gc = members_flat[base[own] + lc]
        d_ab = (xs[ga] - xs[gb]) ** 2 + (ys[ga] - ys[gb]) ** 2
        d_bc = (xs[gb] - xs[gc]) ** 2 + (ys[gb] - ys[gc]) ** 2
        d_ac = (xs[ga] - xs[gc]) ** 2 + (ys[ga] - ys[gc]) ** 2
        keep = ~((d_ab > r_sq) | (d_bc > r_sq) | (d_ac > r_sq))

        # Angle at the proposing vertex, in cosine space with a band;
        # ambiguous rows re-decided by the scalar angle_at.
        u_arr = qs[own]
        o1 = np.where(ga == u_arr, gb, ga)
        o2 = np.where(gc == u_arr, gb, gc)
        axv = xs[o1] - xs[u_arr]
        ayv = ys[o1] - ys[u_arr]
        bxv = xs[o2] - xs[u_arr]
        byv = ys[o2] - ys[u_arr]
        na = np.hypot(axv, ayv)
        nb = np.hypot(bxv, byv)
        ok_arm = (na != 0.0) & (nb != 0.0)
        cosv = np.clip(
            (axv * bxv + ayv * byv) / np.where(ok_arm, na * nb, 1.0), -1.0, 1.0
        )
        accept = ok_arm & (cosv <= _COS_MIN_ANGLE - _ANGLE_COS_BAND)
        clear_reject = ok_arm & (cosv >= _COS_MIN_ANGLE + _ANGLE_COS_BAND)
        for row in np.nonzero(keep & ~(accept | clear_reject))[0]:
            try:
                angle = angle_at(
                    pos[int(u_arr[row])], pos[int(o1[row])], pos[int(o2[row])]
                )
            except ValueError:
                continue
            accept[row] = angle >= _MIN_ANGLE
        keep &= accept
        if keep.any():
            parts.append(np.stack([ga[keep], gb[keep], gc[keep]], axis=1))
            owners.append(u_arr[keep])

    for q in res.fallback.tolist():
        u = int(qs[q])
        local = members_flat[base[q]: indptr_q[q + 1]].tolist()
        tris = _node_candidates(pos, r_sq, u, local)
        if tris:
            parts.append(np.array(tris, dtype=np.int64))
            owners.append(np.full(len(tris), u, dtype=np.int64))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty.reshape(0, 3), empty
    return np.concatenate(parts, axis=0), np.concatenate(owners)


def _soa_candidate_blocks(np, snap, udg: UnitDiskGraph, node_ids=None):
    """Yield :func:`_soa_candidate_chunk` output block by block.

    ``node_ids`` restricts the proposing nodes; default is every node.
    Nodes with fewer than two neighbours propose nothing and are
    skipped.
    """
    r_sq = udg.radius * udg.radius
    pos = udg.positions
    if node_ids is None:
        queries = np.arange(snap.n, dtype=np.int64)
    else:
        queries = np.asarray(sorted(node_ids), dtype=np.int64)
    deg = snap.indptr[queries + 1] - snap.indptr[queries]
    eligible = queries[deg >= 2]  # m = deg + 1 >= 3
    for s in range(0, eligible.shape[0], _SOA_CHUNK):
        yield _soa_candidate_chunk(
            np, snap, pos, r_sq, eligible[s: s + _SOA_CHUNK]
        )


def _soa_candidate_arrays(
    udg: UnitDiskGraph, node_ids: Optional[Sequence[int]] = None
):
    """All candidate triples as a sorted-unique (K, 3) array, or ``None``.

    ``node_ids`` restricts the proposing nodes (the sharded build
    passes each tile's proposer set); default is every node.  The
    triple set equals the union of :func:`_node_candidates` over the
    same nodes — fallback queries literally run it.  Each block's
    owner column is dropped as soon as the block is produced, so the
    dense PLDel build never holds it.
    """
    from repro.core.compat import get_numpy
    from repro.core.soa import snapshot_for

    np = get_numpy()
    if np is None:
        return None
    snap = snapshot_for(udg)
    if snap is None:
        return None
    n = snap.n
    parts = [
        tris
        for tris, _ in _soa_candidate_blocks(np, snap, udg, node_ids)
        if tris.shape[0]
    ]
    if not parts:
        return np.zeros((0, 3), dtype=np.int64)
    allt = np.concatenate(parts, axis=0)
    if n < 2_000_000:  # key packing fits int64 up to n^3
        from repro.core.soa import sorted_unique

        key = (allt[:, 0] * n + allt[:, 1]) * n + allt[:, 2]
        ukey = sorted_unique(np, key)
        return np.stack(
            [ukey // (n * n), (ukey // n) % n, ukey % n], axis=1
        )
    return np.unique(allt, axis=0)


def _soa_filter_k1(udg: UnitDiskGraph, tris):
    """Vectorized 1-localized Delaunay filter; bool mask over ``tris``.

    Replicates :func:`is_k_localized_delaunay` for ``k=1``: the batched
    circumcircle (exact-rescued rows identical to the scalar
    :func:`~repro.geometry.circle.circumcircle`),
    witnesses ``N_1(u) | N_1(v) | N_1(w)`` minus the corners by id, and
    the same tolerance-shrunk open-disk containment.
    """
    from repro.core.compat import get_numpy
    from repro.core.soa import gather_csr_rows, snapshot_for
    from repro.geometry.circle import circumcircles_batch

    np = get_numpy()
    if np is None:
        return None
    snap = snapshot_for(udg)
    if snap is None:
        return None
    if tris.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    xs, ys = snap.xs, snap.ys
    u, v, w = tris[:, 0], tris[:, 1], tris[:, 2]
    valid, ccx, ccy, rad = circumcircles_batch(
        xs[u], ys[u], xs[v], ys[v], xs[w], ys[w]
    )
    own_parts, wit_parts = [], []
    for col in (u, v, w):
        o, vals = gather_csr_rows(np, snap.indptr, snap.indices, col)
        own_parts.append(o)
        wit_parts.append(vals)
    owner = np.concatenate(own_parts)
    wit = np.concatenate(wit_parts)
    keep = (wit != u[owner]) & (wit != v[owner]) & (wit != w[owner])
    owner, wit = owner[keep], wit[keep]
    r = rad[owner] - 1e-9
    dxw = ccx[owner] - xs[wit]
    dyw = ccy[owner] - ys[wit]
    inside = valid[owner] & (r > 0.0) & (dxw * dxw + dyw * dyw < r * r)
    blocked = np.bincount(owner[inside], minlength=tris.shape[0]) > 0
    return valid & ~blocked


def _soa_triangles_intersect(np, xs, ys, tris, pi, pj):
    """Which triangle pairs overlap improperly (vectorized 9-way test)."""
    from repro.geometry.predicates import segments_cross_batch

    edge_slots = ((0, 1), (1, 2), (0, 2))  # _triangle_edges order
    inter = np.zeros(pi.shape[0], dtype=bool)
    for i1, j1 in edge_slots:
        a, b = tris[pi, i1], tris[pi, j1]
        ax_, ay_, bx_, by_ = xs[a], ys[a], xs[b], ys[b]
        ax0 = np.minimum(ax_, bx_) - _EDGE_BBOX_SLACK
        ay0 = np.minimum(ay_, by_) - _EDGE_BBOX_SLACK
        ax1 = np.maximum(ax_, bx_) + _EDGE_BBOX_SLACK
        ay1 = np.maximum(ay_, by_) + _EDGE_BBOX_SLACK
        for i2, j2 in edge_slots:
            c, d = tris[pj, i2], tris[pj, j2]
            share = (a == c) | (a == d) | (b == c) | (b == d)
            cx_, cy_, dx_, dy_ = xs[c], ys[c], xs[d], ys[d]
            miss = (
                (ax1 < np.minimum(cx_, dx_) - _EDGE_BBOX_SLACK)
                | (np.maximum(cx_, dx_) + _EDGE_BBOX_SLACK < ax0)
                | (ay1 < np.minimum(cy_, dy_) - _EDGE_BBOX_SLACK)
                | (np.maximum(cy_, dy_) + _EDGE_BBOX_SLACK < ay0)
            )
            cand = ~share & ~miss & ~inter
            if not cand.any():
                continue
            inter |= segments_cross_batch(
                ax_, ay_, bx_, by_, cx_, cy_, dx_, dy_, mask=cand
            )
    return inter


def _soa_planarize(
    udg: UnitDiskGraph, ldel1: "LDelResult"
) -> Optional["LDelResult"]:
    """Vectorized Algorithm 3; ``None`` defers to the scalar path."""
    from repro.core.compat import get_numpy
    from repro.core.soa import bbox_grid_pairs, snapshot_for
    from repro.geometry.circle import circumcircles_batch, contains_batch

    np = get_numpy()
    if np is None:
        return None
    snap = snapshot_for(udg)
    if snap is None:
        return None
    triangles = list(ldel1.triangles)
    count = len(triangles)
    removed = np.zeros(count, dtype=bool)
    if count:
        xs, ys = snap.xs, snap.ys
        tris = np.array(triangles, dtype=np.int64)
        u, v, w = tris[:, 0], tris[:, 1], tris[:, 2]
        valid, ccx, ccy, rad = circumcircles_batch(
            xs[u], ys[u], xs[v], ys[v], xs[w], ys[w]
        )
        bx0 = np.minimum(np.minimum(xs[u], xs[v]), xs[w])
        by0 = np.minimum(np.minimum(ys[u], ys[v]), ys[w])
        bx1 = np.maximum(np.maximum(xs[u], xs[v]), xs[w])
        by1 = np.maximum(np.maximum(ys[u], ys[v]), ys[w])
        pi, pj = bbox_grid_pairs(np, bx0, by0, bx1, by1, udg.radius)
        overlap = ~(
            (bx1[pi] < bx0[pj])
            | (bx1[pj] < bx0[pi])
            | (by1[pi] < by0[pj])
            | (by1[pj] < by0[pi])
        )
        pi, pj = pi[overlap], pj[overlap]
        inter = _soa_triangles_intersect(np, xs, ys, tris, pi, pj)
        pi, pj = pi[inter], pj[inter]
        for mine, other in ((pi, pj), (pj, pi)):
            hit = np.zeros(pi.shape[0], dtype=bool)
            for corner in range(3):
                vid = tris[other, corner]
                hit |= contains_batch(
                    ccx[mine], ccy[mine], rad[mine], xs[vid], ys[vid]
                )
            removed[mine[hit & valid[mine]]] = True

    survivors = tuple(
        t for t, gone in zip(triangles, removed.tolist()) if not gone
    )
    graph = Graph(udg.positions, ldel1.gabriel_edges, name="PLDel")
    graph.add_edges_bulk(
        pair
        for tu, tv, tw in survivors
        for pair in ((tu, tv), (tv, tw), (tu, tw))
    )
    resolve_degenerate_crossings(graph)
    return LDelResult(
        graph=graph,
        triangles=survivors,
        gabriel_edges=ldel1.gabriel_edges,
        k=1,
    )


def candidate_triangles(udg: UnitDiskGraph) -> set[Triangle]:
    """Triangles proposed by the per-node local Delaunay triangulations.

    A node generates exactly the triangles Algorithm 2 would have it
    *propose*: incident triangles of ``Del(N_1(u))`` with all sides at
    most the radius and an angle of at least 60 degrees at ``u``.
    Every triangle has such a vertex and a k-localized Delaunay
    triangle appears in that vertex's local triangulation (its
    circumcircle is empty of the neighborhood), so generation is
    complete.  Applying the same angle discipline as the distributed
    protocol also makes tie-breaking identical on exactly-cocircular
    inputs, where "the" local Delaunay triangulation is not unique.

    With numpy available the vectorized SoA kernel proposes for every
    node in one lockstep triangulation; the scalar loop below is the
    bit-identical reference it is tested against.
    """
    arr = _soa_candidate_arrays(udg)
    if arr is not None:
        return set(map(tuple, arr.tolist()))
    pos = udg.positions
    r_sq = udg.radius * udg.radius
    candidates: set[Triangle] = set()
    for u in udg.nodes():
        local = sorted(udg.k_hop_neighborhood(u, 1))
        candidates.update(_node_candidates(pos, r_sq, u, local))
    return candidates


def _circle_empty_of(
    pos: Sequence[Point], triangle: Triangle, witnesses: Iterable[int]
) -> bool:
    """Whether the circumcircle of ``triangle`` holds none of ``witnesses``.

    Corners are never witnesses; a degenerate (collinear) triangle has
    no circumcircle and fails.
    """
    u, v, w = triangle
    circle = circumcircle(pos[u], pos[v], pos[w])
    if circle is None:
        return False
    contains = circle.contains
    return not any(
        contains(pos[x]) for x in witnesses if x != u and x != v and x != w
    )


def is_k_localized_delaunay(udg: UnitDiskGraph, triangle: Triangle, k: int) -> bool:
    """Whether ``triangle`` satisfies the k-localized Delaunay property.

    Its circumcircle contains no vertex of ``N_k(u) ∪ N_k(v) ∪ N_k(w)``.
    """
    u, v, w = triangle
    witnesses = (
        udg.k_hop_neighborhood(u, k)
        | udg.k_hop_neighborhood(v, k)
        | udg.k_hop_neighborhood(w, k)
    )
    return _circle_empty_of(udg.positions, triangle, witnesses)


def _filter_k_localized(
    udg: UnitDiskGraph, candidates: Iterable[Triangle], k: int
) -> list[Triangle]:
    """The k-localized Delaunay triangles among ``candidates``, sorted.

    :func:`is_k_localized_delaunay` over every candidate, with ``N_k``
    computed once per vertex for the duration of the call: a vertex sits
    in many candidates, and for ``k >= 2`` its breadth-first ball is the
    dominant cost of the test.
    """
    hoods: dict[int, set[int]] = {}

    def hood(u: int) -> set[int]:
        found = hoods.get(u)
        if found is None:
            found = hoods[u] = udg.k_hop_neighborhood(u, k)
        return found

    pos = udg.positions
    return sorted(
        t
        for t in candidates
        if _circle_empty_of(pos, t, hood(t[0]) | hood(t[1]) | hood(t[2]))
    )


def local_delaunay_graph(udg: UnitDiskGraph, k: int = 1) -> LDelResult:
    """Construct LDel^k over the unit disk graph.

    Returns the graph (Gabriel edges plus localized-Delaunay-triangle
    edges), the accepted triangles, and the Gabriel edge set.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    accepted: Optional[tuple[Triangle, ...]] = None
    if k == 1:
        arr = _soa_candidate_arrays(udg)
        if arr is not None:
            mask = _soa_filter_k1(udg, arr)
            if mask is not None:
                # Unique-key rows come out lexicographically sorted, so
                # the masked rows are already the sorted accepted list.
                accepted = tuple(map(tuple, arr[mask].tolist()))
    if accepted is None:
        accepted = tuple(_filter_k_localized(udg, candidate_triangles(udg), k))
    gabriel = gabriel_graph(udg)
    graph = Graph(udg.positions, gabriel.edges(), name=f"LDel{k}")
    graph.add_edges_bulk(
        pair for u, v, w in accepted for pair in ((u, v), (v, w), (u, w))
    )
    return LDelResult(
        graph=graph,
        triangles=accepted,
        gabriel_edges=gabriel.edge_set(),
        k=k,
    )


#: Absolute slack on per-edge bounding boxes, matching the 1e-12
#: tolerance of :func:`repro.geometry.predicates.on_segment` so the
#: box rejection can never contradict ``segments_cross`` (a proper
#: crossing implies exactly-overlapping boxes; the collinear-touch
#: branch implies overlap within the ``on_segment`` slack).
_EDGE_BBOX_SLACK = 1e-12


def _triangle_edges(
    pos: Sequence[Point], tri: Triangle
) -> tuple[tuple[int, int, Point, Point, float, float, float, float], ...]:
    """Edge descriptors for the pairwise-intersection test.

    Each entry is ``(a, b, pa, pb, x0, y0, x1, y1)``: endpoint indices,
    endpoint points, and the slack-inflated edge bounding box.
    """
    u, v, w = tri
    pu, pv, pw = pos[u], pos[v], pos[w]
    out = []
    for a, b, pa, pb in ((u, v, pu, pv), (v, w, pv, pw), (u, w, pu, pw)):
        ax, ay = pa
        bx, by = pb
        out.append(
            (
                a,
                b,
                pa,
                pb,
                (ax if ax < bx else bx) - _EDGE_BBOX_SLACK,
                (ay if ay < by else by) - _EDGE_BBOX_SLACK,
                (ax if ax > bx else bx) + _EDGE_BBOX_SLACK,
                (ay if ay > by else by) + _EDGE_BBOX_SLACK,
            )
        )
    return tuple(out)


def _triangles_intersect(
    edges1: Sequence[tuple[int, int, Point, Point, float, float, float, float]],
    edges2: Sequence[tuple[int, int, Point, Point, float, float, float, float]],
) -> bool:
    """Whether two triangles overlap improperly (some edges cross).

    Takes precomputed :func:`_triangle_edges` descriptors; edge pairs
    sharing a vertex index or with disjoint (slack-inflated) bounding
    boxes are rejected before the exact segment test runs.
    """
    for a, b, pa, pb, ax0, ay0, ax1, ay1 in edges1:
        for c, d, pc, pd, bx0, by0, bx1, by1 in edges2:
            if a == c or a == d or b == c or b == d:
                continue
            if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
                continue
            if segments_cross(pa, pb, pc, pd):
                return True
    return False


def _nearby_triangle_pairs(
    pos: Sequence[Point], triangles: Sequence[Triangle], cell: float
) -> set[tuple[int, int]]:
    """Index pairs of triangles whose bounding boxes share a grid cell."""
    buckets: dict[tuple[int, int], list[int]] = {}
    for idx, (u, v, w) in enumerate(triangles):
        xs = (pos[u][0], pos[v][0], pos[w][0])
        ys = (pos[u][1], pos[v][1], pos[w][1])
        for cx in range(math.floor(min(xs) / cell), math.floor(max(xs) / cell) + 1):
            for cy in range(math.floor(min(ys) / cell), math.floor(max(ys) / cell) + 1):
                buckets.setdefault((cx, cy), []).append(idx)
    pairs: set[tuple[int, int]] = set()
    for members in buckets.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                pairs.add((min(a, b), max(a, b)))
    return pairs


def resolve_degenerate_crossings(graph: Graph) -> Graph:
    """Break exactly-cocircular ties so the output is always planar.

    The paper assumes no four nodes are cocircular; when real input
    violates that (e.g. nodes on a perfect grid), two crossing
    diagonals of a cocircular quad can both pass the open-disk Gabriel
    test.  This sweep removes one edge of every surviving crossing
    deterministically — the lexicographically larger (length, ids)
    edge loses — leaving the graph unchanged on general-position
    input.

    One scan suffices: removing an edge never *creates* a crossing, so
    every crossing pair among the surviving edges was already in the
    initial list — and any pair whose two edges both survive to the
    end was processed with both edges present, which would have removed
    one of them.  The previous implementation re-scanned the whole
    graph after each sweep; the incremental argument makes that second
    scan provably empty, so it is gone.

    Pairs are processed in sorted order so the outcome is a function of
    the edge *set* alone, not of set-iteration order.  When crossings
    chain (edge B crosses both A and C), which edges survive depends on
    processing order; sorting pins it down, which is what lets the
    sharded construction stitch tiles into a graph bit-identical to the
    serial pipeline's.
    """
    pairs = sorted(
        (e1, e2) if e1 <= e2 else (e2, e1) for e1, e2 in crossing_pairs(graph)
    )
    for e1, e2 in pairs:
        if not (graph.has_edge(*e1) and graph.has_edge(*e2)):
            continue  # already resolved via an earlier pair
        loser = max((e1, e2), key=lambda e: (graph.edge_length(*e), e))
        graph.remove_edge(*loser)
    return graph


def planarize_ldel1(udg: UnitDiskGraph, ldel1: LDelResult) -> LDelResult:
    """Algorithm 3 (centralized): drop crossing triangles, keep PLDel.

    For every pair of intersecting 1-localized Delaunay triangles, a
    triangle whose circumcircle contains a vertex of the other is
    removed; Li et al. prove this leaves a planar graph.  Gabriel
    edges are always retained.

    Candidate pairs come from a uniform grid over triangle bounding
    boxes; a cheap bounding-box overlap test then rejects most of them
    before the nine-way segment-crossing test runs.
    """
    if ldel1.k != 1:
        raise ValueError("planarization applies to LDel^1")
    soa = _soa_planarize(udg, ldel1)
    if soa is not None:
        return soa
    pos = udg.positions
    triangles = list(ldel1.triangles)
    circles = [circumcircle(pos[u], pos[v], pos[w]) for u, v, w in triangles]
    removed = [False] * len(triangles)
    boxes: list[tuple[float, float, float, float]] = []
    for u, v, w in triangles:
        (x1, y1), (x2, y2), (x3, y3) = pos[u], pos[v], pos[w]
        boxes.append(
            (min(x1, x2, x3), min(y1, y2, y3), max(x1, x2, x3), max(y1, y2, y3))
        )
    edge_data = [_triangle_edges(pos, t) for t in triangles]

    for i, j in _nearby_triangle_pairs(pos, triangles, udg.radius):
        bi, bj = boxes[i], boxes[j]
        if bi[2] < bj[0] or bj[2] < bi[0] or bi[3] < bj[1] or bj[3] < bi[1]:
            continue  # disjoint bounding boxes cannot intersect
        if not _triangles_intersect(edge_data[i], edge_data[j]):
            continue
        ci, cj = circles[i], circles[j]
        if ci is not None and any(ci.contains(pos[x]) for x in triangles[j]):
            removed[i] = True
        if cj is not None and any(cj.contains(pos[x]) for x in triangles[i]):
            removed[j] = True

    survivors = tuple(t for t, gone in zip(triangles, removed) if not gone)
    graph = Graph(udg.positions, ldel1.gabriel_edges, name="PLDel")
    for u, v, w in survivors:
        graph.add_edge(u, v)
        graph.add_edge(v, w)
        graph.add_edge(u, w)
    resolve_degenerate_crossings(graph)
    return LDelResult(
        graph=graph,
        triangles=survivors,
        gabriel_edges=ldel1.gabriel_edges,
        k=1,
    )


def planar_local_delaunay_graph(udg: UnitDiskGraph) -> LDelResult:
    """Convenience: LDel^1 followed by Algorithm 3 planarization."""
    return planarize_ldel1(udg, local_delaunay_graph(udg, k=1))

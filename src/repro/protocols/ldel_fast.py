"""Direct-computation fast path for Algorithms 2 and 3 (oracle mode).

Companion to :mod:`repro.protocols.cds_fast`: computes the fixed point
of the distributed localized-Delaunay protocol
(:mod:`repro.protocols.ldel_protocol`) without running the message
simulator, bit-identically — same PLDel graph, same confirmed
triangles, same Gabriel edges, same round count, and the same per-node
message ledger.

The protocol's schedule is rigid (locations → proposals → responses →
structure → prune → confirm, one phase per round), so every message is
a pure function of the geometry:

* ``Location``, ``Structure`` and ``Kept`` are one broadcast per node,
  unconditionally.
* ``Proposal`` — node ``u`` proposes exactly the incident triangles of
  ``Del(N_1(u))`` with unit sides and a >= 60° angle at ``u``.  With
  numpy they come from the lockstep SoA kernel of
  :mod:`repro.topology.ldel` (``_soa_candidate_chunk``, which tags
  every triple with its proposer); without it, from the per-node
  :func:`repro.topology.ldel._node_candidates`.  Both triangulate the
  same sorted 1-hop point list with the same predicates as the
  protocol's ``delaunay`` call, so tie-breaking matches even on
  degenerate inputs.
* ``Accept``/``Reject`` — each non-proposing vertex of a proposed
  triangle responds once, positively exactly when the circumcircle is
  empty of its own 1-hop neighborhood (a proposal implies acceptance,
  so proposers never respond; a degenerate triangle draws a
  ``Reject``).  The SoA path decides every response in one batch
  (``circumcircles_batch`` and ``contains_batch``, elementwise equal
  to the scalar circle tests).
* the prune/confirm phases yield the same surviving set as the
  centralized :func:`repro.topology.ldel.planarize_ldel1` — the
  equivalence the protocol module's test suite already pins down.

Round count: five phases after the location round, quiescing with the
last ``Kept`` delivery — 5 rounds for any non-empty graph, 0 for an
empty one.
"""

from __future__ import annotations

from typing import Optional

from repro.geometry.circle import circumcircle
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.ldel_protocol import LDelProtocolOutcome
from repro.sim.messages import (
    ACCEPT,
    KEPT,
    LOCATION,
    PROPOSAL,
    REJECT,
    STRUCTURE,
)
from repro.sim.stats import MessageStats
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import (
    LDelResult,
    Triangle,
    _node_candidates,
    _soa_candidate_blocks,
    planarize_ldel1,
)

__all__ = ["fast_ldel_protocol"]


def _soa_accepted(
    udg: UnitDiskGraph, ledger: MessageStats
) -> Optional[list[Triangle]]:
    """Proposal and response phases on the SoA snapshot.

    Records the ``Proposal``/``Accept``/``Reject`` counts and returns
    the accepted triangles in sorted order, or ``None`` when numpy is
    masked out (the caller then runs :func:`_scalar_accepted`).
    """
    from repro.core.compat import get_numpy
    from repro.core.soa import gather_csr_rows, snapshot_for
    from repro.geometry.circle import circumcircles_batch, contains_batch

    np = get_numpy()
    snap = snapshot_for(udg) if np is not None else None
    if snap is None:
        return None
    n = snap.n
    blocks = [b for b in _soa_candidate_blocks(np, snap, udg) if b[0].shape[0]]
    if not blocks:
        return []
    tris = np.concatenate([t for t, _ in blocks])
    owners = np.concatenate([o for _, o in blocks])
    # Which corner proposed the row; every proposal is incident to its
    # proposer, so the slot is 0, 1 or 2.
    slot = (owners == tris[:, 1]) + 2 * (owners == tris[:, 2])
    order = np.lexsort((slot, tris[:, 2], tris[:, 1], tris[:, 0]))
    tris, slot = tris[order], slot[order]
    new_tri = np.ones(tris.shape[0], dtype=bool)
    new_tri[1:] = (tris[1:] != tris[:-1]).any(axis=1)
    fresh = new_tri.copy()
    fresh[1:] |= slot[1:] != slot[:-1]
    tris, slot, new_tri = tris[fresh], slot[fresh], new_tri[fresh]

    # Phase 2: one Proposal per (proposer, distinct triangle).
    proposer = tris[np.arange(tris.shape[0]), slot]
    _record_counts(np, ledger, PROPOSAL, np.bincount(proposer, minlength=n))

    # Phase 3: the sorted distinct triangles, and which corners proposed
    # each; every other corner answers once.
    tri_id = np.cumsum(new_tri) - 1
    uniq = tris[new_tri]
    proposed = np.zeros(uniq.shape, dtype=bool)
    proposed[tri_id, slot] = True
    resp_t, resp_slot = np.nonzero(~proposed)
    responder = uniq[resp_t, resp_slot]
    xs, ys = snap.xs, snap.ys
    a, b, c = uniq[:, 0], uniq[:, 1], uniq[:, 2]
    valid, ccx, ccy, rad = circumcircles_batch(
        xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]
    )
    # Witnesses: the responder's neighbours other than the corners.
    row, wit = gather_csr_rows(np, snap.indptr, snap.indices, responder)
    t = resp_t[row]
    keep = (wit != a[t]) & (wit != b[t]) & (wit != c[t])
    row, wit, t = row[keep], wit[keep], t[keep]
    inside = contains_batch(ccx[t], ccy[t], rad[t], xs[wit], ys[wit])
    blocked = np.bincount(row[inside], minlength=responder.shape[0]) > 0
    mine = valid[resp_t] & ~blocked
    _record_counts(np, ledger, ACCEPT, np.bincount(responder[mine], minlength=n))
    _record_counts(np, ledger, REJECT, np.bincount(responder[~mine], minlength=n))
    rejected = np.bincount(resp_t[~mine], minlength=uniq.shape[0]) > 0
    return list(map(tuple, uniq[~rejected].tolist()))


def _record_counts(np, ledger: MessageStats, kind: str, counts) -> None:
    """Charge each node its entry of the per-node ``counts`` array."""
    nodes = np.nonzero(counts)[0]
    for node, count in zip(nodes.tolist(), counts[nodes].tolist()):
        ledger.record(node, kind, count)


def _scalar_accepted(udg: UnitDiskGraph, ledger: MessageStats) -> list[Triangle]:
    """The no-numpy oracle of :func:`_soa_accepted`, one node at a time."""
    pos = udg.positions
    r_sq = udg.radius * udg.radius
    proposers: dict[Triangle, set[int]] = {}
    for u in udg.nodes():
        local = sorted(udg.k_hop_neighborhood(u, 1))
        cands = set(_node_candidates(pos, r_sq, u, local))
        if cands:
            ledger.record(u, PROPOSAL, len(cands))
            for t in cands:
                proposers.setdefault(t, set()).add(u)

    # Each non-proposing vertex answers the first proposal it hears —
    # Accept exactly when the circumcircle is empty of its own
    # neighborhood.  A triangle is accepted when all three verdicts
    # are positive (proposing counts as accepting).
    accepted: list[Triangle] = []
    for t in sorted(proposers):
        circle = circumcircle(pos[t[0]], pos[t[1]], pos[t[2]])
        verdict_all = True
        for v in t:
            if v in proposers[t]:
                continue
            witnesses = udg.neighbors(v) - set(t)
            mine = circle is not None and not any(
                circle.contains(pos[x]) for x in witnesses
            )
            ledger.record(v, ACCEPT if mine else REJECT)
            verdict_all = verdict_all and mine
        if verdict_all:
            accepted.append(t)
    return accepted


def fast_ldel_protocol(
    udg: UnitDiskGraph,
    *,
    stats: Optional[MessageStats] = None,
) -> LDelProtocolOutcome:
    """Compute the LDel protocol's fixed point directly.

    Bit-identical to
    :func:`~repro.protocols.ldel_protocol.run_ldel_protocol` on every
    field.
    """
    ledger = stats if stats is not None else MessageStats()
    n = udg.node_count

    # Phase 1-3: locations out, proposals (Algorithm 2's
    # angle-disciplined generation), then the responses.
    for u in udg.nodes():
        ledger.record(u, LOCATION)
    accepted = _soa_accepted(udg, ledger)
    if accepted is None:
        accepted = _scalar_accepted(udg, ledger)

    # Phases 4-6: structure exchange, prune, confirm.  One Structure
    # and one Kept broadcast per node; the surviving triangle set is
    # the centralized Algorithm 3 replay on the accepted set.
    for u in udg.nodes():
        ledger.record(u, STRUCTURE)
        ledger.record(u, KEPT)

    # planarize_ldel1 reads only the triangles and the Gabriel edges
    # and returns a fresh graph named "PLDel", so neither graph is
    # copied.
    gabriel = gabriel_graph(udg)
    ldel1 = LDelResult(
        graph=gabriel,
        triangles=tuple(accepted),
        gabriel_edges=gabriel.edge_set(),
        k=1,
    )
    pruned = planarize_ldel1(udg, ldel1)
    return LDelProtocolOutcome(
        graph=pruned.graph,
        triangles=pruned.triangles,
        gabriel_edges=pruned.gabriel_edges,
        rounds=5 if n else 0,
        stats=ledger,
    )

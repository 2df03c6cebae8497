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
  ``Del(N_1(u))`` with unit sides and a >= 60° angle at ``u``, which is
  precisely :func:`repro.topology.ldel._node_candidates` (the two
  paths share ``delaunay`` on the same sorted point list, so
  tie-breaking matches even on degenerate inputs).
* ``Accept``/``Reject`` — each non-proposing vertex of a proposed
  triangle responds once, positively exactly when the circumcircle is
  empty of its own 1-hop neighborhood (a proposal implies acceptance,
  so proposers never respond).
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
from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.ldel_protocol import LDelProtocolOutcome, Triangle
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
from repro.topology.ldel import LDelResult, _node_candidates, planarize_ldel1

__all__ = ["fast_ldel_protocol"]


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
    pos = udg.positions
    r_sq = udg.radius * udg.radius

    # Phase 1-2: locations out, then every node proposes its local
    # Delaunay triangles (Algorithm 2's angle-disciplined generation).
    proposers: dict[Triangle, set[int]] = {}
    for u in udg.nodes():
        ledger.record(u, LOCATION)
        local = sorted(udg.k_hop_neighborhood(u, 1))
        cands = set(_node_candidates(pos, r_sq, u, local))
        if cands:
            ledger.record(u, PROPOSAL, len(cands))
            for t in cands:
                proposers.setdefault(t, set()).add(u)

    # Phase 3: each non-proposing vertex answers the first proposal it
    # hears — Accept exactly when the circumcircle is empty of its own
    # neighborhood.  A triangle is accepted when all three verdicts are
    # positive (proposing counts as accepting).
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

    # Phases 4-6: structure exchange, prune, confirm.  One Structure
    # and one Kept broadcast per node; the surviving triangle set is
    # the centralized Algorithm 3 replay on the accepted set.
    for u in udg.nodes():
        ledger.record(u, STRUCTURE)
        ledger.record(u, KEPT)

    gabriel = gabriel_graph(udg)
    ldel1 = LDelResult(
        graph=Graph(udg.positions, gabriel.edges(), name="LDel1"),
        triangles=tuple(accepted),
        gabriel_edges=gabriel.edge_set(),
        k=1,
    )
    pruned = planarize_ldel1(udg, ldel1)
    graph = Graph(udg.positions, pruned.graph.edges(), name="PLDel")
    return LDelProtocolOutcome(
        graph=graph,
        triangles=pruned.triangles,
        gabriel_edges=pruned.gabriel_edges,
        rounds=5 if n else 0,
        stats=ledger,
    )

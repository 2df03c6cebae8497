"""The full pipeline: points -> CDS family -> LDel(ICDS) / LDel(ICDS').

This is the paper's contribution end to end: cluster, elect
connectors, induce the backbone unit disk graph, and planarize it with
the distributed localized Delaunay protocol.  Every phase runs as a
message-passing protocol; the result carries the cumulative per-node
message ledger that the communication-cost figures are drawn from, and
separate per-structure ledgers (CDS / ICDS / LDel(ICDS)) matching the
paper's accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.cds import MODES, CDSFamily, build_cds_family
from repro.protocols.clustering import PriorityFn
from repro.protocols.ldel_fast import fast_ldel_protocol
from repro.protocols.ldel_protocol import LDelProtocolOutcome, run_ldel_protocol
from repro.sim.stats import MessageStats

#: Connector election rules the pipeline understands (see
#: :mod:`repro.protocols.connectors`): collect rival IDs and let the
#: smallest win, or claim immediately without waiting.
ELECTIONS = ("smallest-id", "first-response")


@dataclass(frozen=True)
class BackbonePipelineResult:
    """Everything the pipeline produces."""

    family: CDSFamily
    ldel_icds: Graph
    ldel_icds_prime: Graph
    ldel_outcome: LDelProtocolOutcome
    #: Ledgers at each accounting boundary the paper reports:
    #: ``stats_cds`` (clustering + connectors), ``stats_icds`` (+ one
    #: Status per node), ``stats_ldel`` (+ the LDel protocol run on the
    #: backbone, charged to the backbone nodes' original ids).
    stats_cds: MessageStats
    stats_icds: MessageStats
    stats_ldel: MessageStats
    #: Which construction path produced this result (``protocol`` or
    #: ``fast``); the outputs are bit-identical either way.
    mode: str = "protocol"
    #: Wall-clock seconds per phase: ``cds`` (clustering + connectors +
    #: family graphs) and ``ldel`` (backbone planarization).
    timings: Mapping[str, float] = field(default_factory=dict)

    @property
    def udg(self) -> UnitDiskGraph:
        return self.family.udg


def backbone_spanners(
    udg: UnitDiskGraph,
    backbone: Sequence[int],
    sub_graph: Graph,
    dominators_of: Mapping[int, Iterable[int]],
) -> tuple[Graph, Graph]:
    """LDel(ICDS) and LDel(ICDS') over ``udg``'s original node ids.

    ``sub_graph`` is the planar graph built over the backbone sub-UDG,
    whose node ``i`` is ``backbone[i]``; LDel(ICDS') adds every
    dominatee's links to its dominators.
    """
    ldel_icds = Graph(
        udg.positions,
        ((backbone[u], backbone[v]) for u, v in sub_graph.edges()),
        name="LDel(ICDS)",
    )
    ldel_icds_prime = Graph(udg.positions, ldel_icds.edges(), name="LDel(ICDS')")
    ldel_icds_prime.add_edges_bulk(
        (dominatee, d) for dominatee, doms in dominators_of.items() for d in doms
    )
    return ldel_icds, ldel_icds_prime


def run_backbone_pipeline(
    udg: UnitDiskGraph,
    *,
    priority: Optional[PriorityFn] = None,
    election: str = "smallest-id",
    mode: str = "protocol",
) -> BackbonePipelineResult:
    """Build the planar spanner backbone over ``udg``.

    ``mode="fast"`` swaps every protocol replay (election, connectors,
    LDel) for the direct fixed-point computation — bit-identical
    results, an order of magnitude faster at benchmark sizes.
    """
    if election not in ELECTIONS:
        raise ValueError(f"unknown election {election!r}; known: {ELECTIONS}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    cds_started = time.perf_counter()
    family = build_cds_family(udg, priority=priority, election=election, mode=mode)

    # Ledger boundaries: the Status broadcast belongs to the ICDS
    # stage, so subtract it for the CDS-only view.
    stats_icds = family.stats.copy()
    stats_cds = MessageStats()
    stats_cds.merge(family.clustering.stats)
    stats_cds.merge(family.connector_outcome.stats)

    cds_seconds = time.perf_counter() - cds_started

    backbone = sorted(family.backbone_nodes)
    # induced_radio_subgraph == a plain sub-UDG for the standard disk
    # model (bit-identical); for quasi-UDG deployments it keeps the
    # dropped gray-zone links dropped instead of resurrecting them.
    from repro.graphs.quasi import induced_radio_subgraph

    sub_udg = induced_radio_subgraph(udg, backbone, name="ICDS-sub")
    ldel_started = time.perf_counter()
    if mode == "fast":
        ldel_outcome = fast_ldel_protocol(sub_udg)
    else:
        ldel_outcome = run_ldel_protocol(sub_udg)
    ldel_seconds = time.perf_counter() - ldel_started

    ldel_icds, ldel_icds_prime = backbone_spanners(
        udg, backbone, ldel_outcome.graph, family.clustering.dominators_of
    )

    stats_ldel = stats_icds.copy()
    for (sub_id, kind), count in ldel_outcome.stats.per_node_kind.items():
        stats_ldel.record(backbone[sub_id], kind, count)

    return BackbonePipelineResult(
        family=family,
        ldel_icds=ldel_icds,
        ldel_icds_prime=ldel_icds_prime,
        ldel_outcome=ldel_outcome,
        stats_cds=stats_cds,
        stats_icds=stats_icds,
        stats_ldel=stats_ldel,
        mode=mode,
        timings={"cds": cds_seconds, "ldel": ldel_seconds},
    )

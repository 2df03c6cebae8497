"""Fast-vs-protocol equivalence: the oracle paths must be bit-identical.

The direct-computation constructors (:mod:`repro.protocols.cds_fast`,
:mod:`repro.protocols.ldel_fast`) claim to reproduce the
message-passing protocols exactly — same sets, same certified edges,
same round counts, same per-node/per-kind message ledgers.  This suite
pins that claim over the sharding deployments (random, degenerate
grid, collinear, tile-boundary-straddling, dense) plus ID-permuted
variants, on the SoA kernels and with numpy masked out, and adds the Lemma 3 property test (constant messages per
node on the protocol path, independent of n at fixed density).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compat
from repro.core.spanner import build_backbone
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.cds import build_cds_family
from repro.protocols.cds_fast import fast_clustering, fast_connectors
from repro.protocols.clustering import (
    highest_degree_priority,
    lowest_id_priority,
    run_clustering,
)
from repro.protocols.connectors import run_connectors
from repro.protocols.ldel_fast import fast_ldel_protocol
from repro.protocols.ldel_protocol import run_ldel_protocol
from repro.sim.stats import MessageStats
from test_sharding import DEPLOYMENTS

RADIUS = 25.0

PRIORITIES = {
    "lowest-id": lowest_id_priority,
    "highest-degree": highest_degree_priority,
}


def _permuted(points, seed=4):
    """The same deployment with node ids shuffled (ids drive every
    election tie-break, so this is the adversarial re-labeling case)."""
    shuffled = list(points)
    random.Random(seed).shuffle(shuffled)
    return shuffled


def _deployments():
    cases = [(name, make()) for name, make in sorted(DEPLOYMENTS.items())]
    cases += [
        (f"{name}-permuted", _permuted(make())) for name, make in sorted(DEPLOYMENTS.items())
    ]
    return cases


def assert_same_stats(fast: MessageStats, protocol: MessageStats) -> None:
    assert fast.per_node == protocol.per_node
    assert fast.per_kind == protocol.per_kind
    assert fast.per_node_kind == protocol.per_node_kind


@pytest.fixture(params=[name for name, _ in _deployments()])
def deployment(request):
    cases = dict(_deployments())
    return UnitDiskGraph([tuple(p) for p in cases[request.param]], RADIUS)


def assert_same_ldel(fast, protocol) -> None:
    assert fast.graph.edge_set() == protocol.graph.edge_set()
    assert fast.graph.name == protocol.graph.name
    assert fast.triangles == protocol.triangles
    assert fast.gabriel_edges == protocol.gabriel_edges
    assert fast.rounds == protocol.rounds
    assert_same_stats(fast.stats, protocol.stats)


class TestFastClustering:
    @pytest.mark.parametrize("priority", sorted(PRIORITIES))
    def test_bit_identical(self, deployment, priority):
        protocol = run_clustering(deployment, priority=PRIORITIES[priority])
        fast = fast_clustering(deployment, priority=PRIORITIES[priority])
        assert fast.dominators == protocol.dominators
        assert fast.dominators_of == protocol.dominators_of
        assert fast.rounds == protocol.rounds
        assert_same_stats(fast.stats, protocol.stats)

    def test_empty_graph(self):
        udg = UnitDiskGraph([], RADIUS)
        outcome = fast_clustering(udg)
        assert outcome.dominators == frozenset()
        assert outcome.rounds == 0


class TestFastConnectors:
    @pytest.mark.parametrize("election", ["smallest-id", "first-response"])
    @pytest.mark.parametrize("rebroadcast", [False, True])
    def test_bit_identical(self, deployment, election, rebroadcast):
        clustering = run_clustering(deployment)
        protocol = run_connectors(
            deployment, clustering, election=election,
            rebroadcast_dominatees=rebroadcast,
        )
        fast = fast_connectors(
            deployment, clustering, election=election,
            rebroadcast_dominatees=rebroadcast,
        )
        assert fast.connectors == protocol.connectors
        assert fast.cds_edges == protocol.cds_edges
        assert fast.rounds == protocol.rounds
        assert_same_stats(fast.stats, protocol.stats)

    def test_unknown_election_rejected(self):
        udg = UnitDiskGraph([(0.0, 0.0)], RADIUS)
        with pytest.raises(ValueError, match="unknown election"):
            fast_connectors(udg, fast_clustering(udg), election="coin-flip")


@st.composite
def degenerate_points(draw):
    """Small deployments built to push the lockstep kernel to its
    scalar fallback queries and exact predicates: duplicate
    coordinates, exactly cocircular grids, collinear runs, and all of
    it shifted by 1e15 (coordinate ulp 0.125), ids shuffled."""
    spacing = draw(st.sampled_from([10.0, 12.5, 17.0, 20.0]))
    pts = []
    if draw(st.booleans()):
        cols, rows = draw(st.integers(2, 5)), draw(st.integers(1, 4))
        pts += [(c * spacing, r * spacing) for r in range(rows) for c in range(cols)]
    if draw(st.booleans()):
        y = draw(st.sampled_from([0.0, 5.0, 30.0]))
        pts += [(i * spacing, y) for i in range(draw(st.integers(3, 8)))]
    pts += draw(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=12)
    )
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=4))  # duplicates
    offset = draw(st.sampled_from([0.0, 1e15]))
    pts = draw(st.permutations(pts))
    return [(float(x) + offset, float(y) + offset) for x, y in pts]


class TestFastLDel:
    def test_bit_identical(self, deployment):
        assert_same_ldel(fast_ldel_protocol(deployment), run_ldel_protocol(deployment))

    def test_bit_identical_without_numpy(self, deployment):
        with compat.numpy_disabled():
            fast = fast_ldel_protocol(deployment)
        assert_same_ldel(fast, run_ldel_protocol(deployment))

    @pytest.mark.parametrize("path", ["soa", "no-numpy"])
    @settings(max_examples=40, deadline=None)
    @given(points=degenerate_points())
    def test_bit_identical_on_degenerate_input(self, path, points):
        udg = UnitDiskGraph(points, RADIUS)
        if path == "soa":
            fast = fast_ldel_protocol(udg)
        else:
            with compat.numpy_disabled():
                fast = fast_ldel_protocol(udg)
        assert_same_ldel(fast, run_ldel_protocol(udg))

    @pytest.mark.skipif(compat.np is None, reason="requires numpy")
    def test_kernel_proposes_without_per_node_triangulation(self, monkeypatch):
        """On general-position input every proposal comes from the
        lockstep kernel: a silent fall-back to the per-node scalar loop
        would call ``_node_candidates`` once per node."""
        import repro.protocols.ldel_fast as ldel_fast
        import repro.topology.ldel as ldel

        calls = []
        scalar = ldel._node_candidates

        def counting(*args):
            calls.append(args[2])
            return scalar(*args)

        monkeypatch.setattr(ldel, "_node_candidates", counting)
        monkeypatch.setattr(ldel_fast, "_node_candidates", counting)
        udg = UnitDiskGraph([tuple(p) for p in DEPLOYMENTS["random"]()], RADIUS)
        outcome = fast_ldel_protocol(udg)
        assert outcome.triangles
        assert calls == []
        # Duplicate coordinates are the kernel's fallback case, so the
        # counter does see scalar queries when they are due.
        dup = UnitDiskGraph(list(udg.positions) + [udg.positions[0]], RADIUS)
        fast_ldel_protocol(dup)
        assert calls


class TestFastPipeline:
    @pytest.mark.parametrize("election", ["smallest-id", "first-response"])
    def test_full_pipeline_bit_identical(self, deployment, election):
        self._check_pipeline(deployment, election)

    @pytest.mark.parametrize("election", ["smallest-id", "first-response"])
    def test_full_pipeline_bit_identical_without_numpy(self, deployment, election):
        with compat.numpy_disabled():
            self._check_pipeline(deployment, election)

    @staticmethod
    def _check_pipeline(deployment, election):
        points = [tuple(p) for p in deployment.positions]
        protocol = build_backbone(points, RADIUS, election=election)
        fast = build_backbone(points, RADIUS, election=election, mode="fast")
        assert fast.dominators == protocol.dominators
        assert fast.connectors == protocol.connectors
        for attr in ("cds", "cds_prime", "icds", "icds_prime",
                     "ldel_icds", "ldel_icds_prime"):
            assert getattr(fast, attr).edge_set() == getattr(protocol, attr).edge_set(), attr
        for attr in ("stats_cds", "stats_icds", "stats_ldel"):
            assert_same_stats(getattr(fast, attr), getattr(protocol, attr))
        assert protocol.pipeline.mode == "protocol"
        assert fast.pipeline.mode == "fast"
        assert set(fast.pipeline.timings) == {"cds", "ldel"}

    def test_unknown_mode_rejected(self):
        udg = UnitDiskGraph([(0.0, 0.0)], RADIUS)
        with pytest.raises(ValueError, match="unknown mode"):
            build_cds_family(udg, mode="warp")


#: Empirical ceiling for Lemma 3: at the paper's density (uniform
#: points in a 10*sqrt(n) square, radius 25) the observed per-node
#: maximum for the whole CDS phase plateaus around 54 messages and
#: does not grow with n; 80 leaves headroom for unlucky seeds while
#: still failing loudly if the bound ever becomes n-dependent.
LEMMA3_BOUND = 80


def _max_messages_per_node(n: int, seed: int) -> int:
    rng = random.Random(seed)
    side = 10.0 * math.sqrt(n)
    pts = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    udg = UnitDiskGraph(pts, RADIUS)
    clustering = run_clustering(udg)
    connectors = run_connectors(udg, clustering)
    total = MessageStats()
    total.merge(clustering.stats)
    total.merge(connectors.stats)
    return max(total.per_node.values())


class TestLemma3MessageBound:
    def test_bound_does_not_grow_with_n(self):
        maxima = {n: _max_messages_per_node(n, seed=2002) for n in (100, 250, 500)}
        assert all(m <= LEMMA3_BOUND for m in maxima.values()), maxima

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_constant_per_node_property(self, seed):
        assert _max_messages_per_node(150, seed) <= LEMMA3_BOUND


class TestShardedElection:
    def test_reversed_id_chain_falls_back_and_stays_exact(self):
        """Descending ids along a line make every MIS decision depend on
        the previous one — the certification chain escapes any constant
        halo, so the per-tile election must flag unresolved nodes and
        the coordinator reconciliation must still match the protocol."""
        from repro.sharding.build import sharded_backbone

        n = 120
        pts = [((n - 1 - i) * 20.0, 0.0) for i in range(n)]
        serial = build_backbone(pts, RADIUS)
        result, stats = sharded_backbone(
            pts, RADIUS, shards=6, executor_mode="serial"
        )
        assert stats.counters["election_unresolved"] > 0
        assert result.dominators == serial.dominators
        assert result.connectors == serial.connectors
        assert result.ldel_icds.edge_set() == serial.ldel_icds.edge_set()

    def test_counters_present(self):
        from repro.sharding.build import sharded_backbone

        pts = [p for p in DEPLOYMENTS["boundary"]()]
        _, stats = sharded_backbone(
            [tuple(p) for p in pts], RADIUS, shards=4, executor_mode="serial"
        )
        assert "election_certified" in stats.counters
        assert "election_unresolved" in stats.counters
        assert "election" in stats.phase_seconds
        total = (
            stats.counters["election_certified"]
            + stats.counters["election_unresolved"]
        )
        assert total == len(pts)

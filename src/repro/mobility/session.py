"""Mobility sessions: time-series analysis of a moving network.

Drives a mobility model and a :class:`~repro.mobility.maintenance.BackboneMaintainer`
together over many steps and collects the quantities the paper's
maintenance discussion cares about: how often structural links break,
how much of the backbone survives each repair, and whether routing
stayed available throughout — packaged so examples and tests consume
one object instead of re-implementing the loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.spanner import build_backbone
from repro.mobility.maintenance import BackboneMaintainer
from repro.mobility.waypoint import RandomWaypointModel
from repro.routing.backbone_routing import backbone_route
from repro.workloads.generators import Deployment


@dataclass(frozen=True)
class SessionStep:
    """Measurements for one mobility step."""

    time: float
    broken_links: int
    rebuilt: bool
    edge_retention: float
    role_changes: int
    routable_probes: int
    total_probes: int


@dataclass(frozen=True)
class SessionResult:
    """A whole session's time series plus aggregates."""

    steps: tuple[SessionStep, ...]

    @property
    def rebuild_count(self) -> int:
        return sum(1 for s in self.steps if s.rebuilt)

    @property
    def rebuild_rate(self) -> float:
        if not self.steps:
            return 0.0
        return self.rebuild_count / len(self.steps)

    @property
    def mean_retention_on_rebuild(self) -> float:
        retentions = [s.edge_retention for s in self.steps if s.rebuilt]
        if not retentions:
            return 1.0
        return sum(retentions) / len(retentions)

    @property
    def availability(self) -> float:
        """Fraction of routing probes that delivered across the session."""
        total = sum(s.total_probes for s in self.steps)
        if total == 0:
            return 1.0
        return sum(s.routable_probes for s in self.steps) / total


def run_mobility_session(
    deployment: Deployment,
    *,
    steps: int,
    dt: float = 1.0,
    speed: float = 2.0,
    pause: float = 2.0,
    probe_pairs: Optional[Sequence[tuple[int, int]]] = None,
    seed: int = 0,
) -> SessionResult:
    """Run a random-waypoint session with maintenance and probing.

    ``probe_pairs`` are (source, target) routing checks performed on
    the *current* backbone after every update; defaults to three
    deterministic long-range pairs.  Maintenance is the paper's
    break-triggered full rebuild (the exact incremental engine is
    :func:`repro.incremental.session.run_incremental_session`).
    ``pause`` caps the per-trip waypoint pause time.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    n = len(deployment.points)
    if probe_pairs is None:
        probe_pairs = [(0, n - 1), (1, n // 2), (n // 3, n - 2)]
    probe_pairs = [(s, t) for s, t in probe_pairs if s != t]

    rng = random.Random(seed)
    maintainer = BackboneMaintainer(
        build_backbone(deployment.points, deployment.radius)
    )
    model = RandomWaypointModel(
        list(deployment.points),
        deployment.side,
        rng,
        speed_range=(0.5 * speed, 1.5 * speed),
        pause_range=(0.0, max(pause, 0.0)),
    )

    records: list[SessionStep] = []
    for _ in range(steps):
        report = maintainer.update(model.step(dt))
        routable = sum(
            backbone_route(maintainer.result, s, t).delivered
            for s, t in probe_pairs
        )
        records.append(
            SessionStep(
                time=model.time,
                broken_links=len(report.broken_links),
                rebuilt=report.rebuilt,
                edge_retention=report.edge_retention,
                role_changes=len(report.role_changes),
                routable_probes=routable,
                total_probes=len(probe_pairs),
            )
        )
    return SessionResult(steps=tuple(records))

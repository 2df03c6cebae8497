"""Node mobility and incremental backbone maintenance.

The paper argues its topology "can be constructed locally and is easy
to maintain when the nodes move around" and leaves dynamic updating as
future work; this package supplies the machinery to study that claim:
a random-waypoint mobility model (:mod:`~repro.mobility.waypoint`) and
an incremental maintainer that repairs the backbone after movement and
reports how much of it had to change (:mod:`~repro.mobility.maintenance`).
"""

from repro.mobility.waypoint import RandomWaypointModel
from repro.mobility.maintenance import BackboneMaintainer, MaintenanceReport
from repro.mobility.session import (
    SessionResult,
    SessionStep,
    run_mobility_session,
)

__all__ = [
    "RandomWaypointModel",
    "BackboneMaintainer",
    "MaintenanceReport",
    "SessionResult",
    "SessionStep",
    "run_mobility_session",
]

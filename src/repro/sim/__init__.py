"""The chiSIM-like agent-based model.

chiSIM "simulates individual agents within fine-grained spatial location
compartments associated with daily activities and places ... At each
simulation time step (1 hour) each agent decides their next activity for
that hour and the associated location.  Agents move from location to
location and interact with other agents at the new location."

This subpackage provides:

* :mod:`repro.sim.events` — open activity spells, and event-log records
  back to hourly grids (the "only log changes" rule of Section III);
* :mod:`repro.sim.engine` — the in-memory serial engine, stepping one hour
  at a time, collecting activity-change events and driving the per-hour
  hooks (disease, observers, interventions); the rank step's oracle;
* :mod:`repro.sim.disease` — the SEIR transmission layer chiSIM
  generalizes ("an extension of an infectious disease transmission model"),
  including the transmission-pair log used to trace back to patient zero;
* :mod:`repro.sim.observers` — aggregate per-tick metrics (the
  "aggregate metrics and statistics such as disease incidence" the paper
  contrasts with full network analysis).

The rank step in :mod:`repro.distrib` is the one loop that writes logs
and checkpoints, at any rank count (one included); that it emits this
engine's event stream is a test invariant.
"""

from .events import events_to_grid, OpenSpells
from .engine import Simulation, SimulationResult
from .disease import DiseaseModel, DiseaseState, TransmissionRecord
from .observers import Observer, PrevalenceObserver, OccupancyObserver, MovementObserver
from .interventions import (
    Intervention,
    CloseSchools,
    ClosePlaceKind,
    StayHomeOrder,
    InterventionSchedule,
)

__all__ = [
    "events_to_grid",
    "OpenSpells",
    "Simulation",
    "SimulationResult",
    "DiseaseModel",
    "DiseaseState",
    "TransmissionRecord",
    "Observer",
    "PrevalenceObserver",
    "OccupancyObserver",
    "MovementObserver",
    "Intervention",
    "CloseSchools",
    "ClosePlaceKind",
    "StayHomeOrder",
    "InterventionSchedule",
]

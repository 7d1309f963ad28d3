"""repro — Endogenous social networks from large-scale agent-based models.

A full-stack Python reproduction of Tatara, Collier, Ozik & Macal,
*Endogenous Social Networks from Large-Scale Agent-Based Models* (IPPS
2017): a chiSIM-style urban agent-based model, parallel event-based
activity logging, and the parallel collocation-network synthesis and
analysis pipeline.

Quickstart
----------
>>> import repro
>>> pop = repro.generate_population(repro.ScaleConfig(n_persons=2000))
>>> sim = repro.Simulation(pop, repro.SimulationConfig(
...     scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK))
>>> result = sim.run()
>>> net, report = repro.synthesize_network(
...     result.records, pop.n_persons, 0, repro.HOURS_PER_WEEK)
>>> net.n_edges > 0
True

Subpackages
-----------
- :mod:`repro.synthpop` — synthetic population (persons, places, schedules)
- :mod:`repro.sim` — the agent-based model (serial engine, SEIR layer)
- :mod:`repro.distrib` — rank-based distributed runtime and partitioning
- :mod:`repro.evlog` — chunked binary event logging (EVL format)
- :mod:`repro.core` — collocation network synthesis (the paper's method)
- :mod:`repro.analysis` — degree/clustering/ego/group network analysis
- :mod:`repro.viz` — ForceAtlas2 layout, GEXF/GraphML export, ASCII plots
"""

from .config import (
    AGE_GROUPS,
    HOURS_PER_DAY,
    HOURS_PER_WEEK,
    PAPER_SCALE,
    DiseaseConfig,
    ScaleConfig,
    ScheduleConfig,
    SimulationConfig,
    age_group_labels,
)
from .errors import ReproError
from .synthpop import (
    SyntheticPopulation,
    generate_population,
    load_population,
    save_population,
)
from .sim import Simulation, SimulationResult, DiseaseModel, DiseaseState
from .distrib import (
    DistributedSimulation,
    PlacePartition,
    RetryPolicy,
    PoolReport,
    TaskPool,
    estimate_migration,
    movement_matrix,
    random_partition,
    refine_partition,
    spatial_partition,
)
from .evlog import CachedLogWriter, LogReader, LogSet
from .core import (
    CollocationNetwork,
    SynthesisReport,
    TileCache,
    synthesize_from_logs,
    synthesize_network,
)
from .analysis import (
    age_group_degree_distributions,
    clustering_histogram,
    compare_fits,
    degree_distribution,
    ego_network,
    local_clustering,
    summarize,
)
from .viz import forceatlas2_layout, write_gexf, write_graphml
from .service import (
    NetworkQueryService,
    ServiceClient,
    ServiceConfig,
    SyncServiceClient,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # config
    "AGE_GROUPS",
    "HOURS_PER_DAY",
    "HOURS_PER_WEEK",
    "PAPER_SCALE",
    "DiseaseConfig",
    "ScaleConfig",
    "ScheduleConfig",
    "SimulationConfig",
    "age_group_labels",
    "ReproError",
    # population
    "SyntheticPopulation",
    "generate_population",
    "load_population",
    "save_population",
    # simulation
    "Simulation",
    "SimulationResult",
    "DiseaseModel",
    "DiseaseState",
    # distributed
    "DistributedSimulation",
    "PlacePartition",
    "RetryPolicy",
    "PoolReport",
    "estimate_migration",
    "TaskPool",
    "movement_matrix",
    "random_partition",
    "refine_partition",
    "spatial_partition",
    # logging
    "CachedLogWriter",
    "LogReader",
    "LogSet",
    # synthesis
    "CollocationNetwork",
    "SynthesisReport",
    "TileCache",
    "synthesize_from_logs",
    "synthesize_network",
    # analysis
    "age_group_degree_distributions",
    "clustering_histogram",
    "compare_fits",
    "degree_distribution",
    "ego_network",
    "local_clustering",
    "summarize",
    # viz
    "forceatlas2_layout",
    "write_gexf",
    "write_graphml",
    # service
    "NetworkQueryService",
    "ServiceClient",
    "ServiceConfig",
    "SyncServiceClient",
]

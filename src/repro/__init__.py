"""BQSched reproduction: a non-intrusive RL scheduler for batch concurrent queries.

The public API re-exports the pieces a downstream user needs to schedule a
batch query set end-to-end:

* :mod:`repro.workloads` — synthetic TPC-DS / TPC-H / JOB query catalogues.
* :mod:`repro.dbms` — the black-box concurrent execution substrate.
* :mod:`repro.core` — BQSched itself plus heuristic and LSched baselines.

The experiment harness reproducing the paper's tables and figures is not
part of the package; it lives in ``benchmarks/harness/``.

Quickstart::

    from repro import BQSched, BQSchedConfig, DatabaseEngine, DBMSProfile, make_workload

    workload = make_workload("tpcds", scale_factor=1.0, seed=0)
    engine = DatabaseEngine(DBMSProfile.dbms_x(), seed=0)
    scheduler = BQSched(workload, engine, BQSchedConfig(seed=0))
    scheduler.prepare(history_rounds=3)   # logs, adaptive mask, learned simulator
    scheduler.train(num_updates=10)       # simulator pre-training + DBMS fine-tuning
    print(scheduler.schedule(round_id=0).makespan)
"""

from .version import __version__
from .config import (
    AdmissionPolicy,
    AutoscalePolicy,
    BQSchedConfig,
    EncoderConfig,
    PPOConfig,
    RetryPolicy,
    SchedulerConfig,
    SimulatorConfig,
)
from .exceptions import (
    BQSchedError,
    ConfigurationError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)
from .workloads import (
    ArrivalProcess,
    BatchQuerySet,
    BurstyArrivals,
    ClosedArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    Query,
    Workload,
    make_arrival_process,
    make_workload,
)
from .dbms import (
    Cluster,
    DatabaseEngine,
    DBMSProfile,
    ExecutionLog,
    FailureProfile,
    OutageWindow,
    RunningParameters,
)
from .runtime import (
    ClassReport,
    ControlPlane,
    ExecutionRuntime,
    RuntimeTenant,
    ServiceReport,
    TenantClass,
    TenantSession,
)
from .seeding import SeedSpawner
from .core import (
    BQSched,
    FIFOScheduler,
    GreedyCostPlacementScheduler,
    LeastOutstandingWorkScheduler,
    LSchedScheduler,
    MCFScheduler,
    RandomScheduler,
    RoundRobinPlacementScheduler,
    SchedulingEnv,
    SchedulingResult,
)

__all__ = [
    "__version__",
    "AdmissionPolicy",
    "AutoscalePolicy",
    "BQSchedConfig",
    "EncoderConfig",
    "PPOConfig",
    "RetryPolicy",
    "SchedulerConfig",
    "SimulatorConfig",
    "BQSchedError",
    "ConfigurationError",
    "SchedulingError",
    "SimulationError",
    "WorkloadError",
    "ArrivalProcess",
    "BatchQuerySet",
    "BurstyArrivals",
    "ClosedArrivals",
    "FlashCrowdArrivals",
    "PoissonArrivals",
    "Query",
    "Workload",
    "make_arrival_process",
    "make_workload",
    "ClassReport",
    "ControlPlane",
    "ExecutionRuntime",
    "RuntimeTenant",
    "ServiceReport",
    "TenantClass",
    "TenantSession",
    "Cluster",
    "DatabaseEngine",
    "DBMSProfile",
    "ExecutionLog",
    "FailureProfile",
    "OutageWindow",
    "RunningParameters",
    "SeedSpawner",
    "BQSched",
    "FIFOScheduler",
    "GreedyCostPlacementScheduler",
    "LeastOutstandingWorkScheduler",
    "LSchedScheduler",
    "MCFScheduler",
    "RandomScheduler",
    "RoundRobinPlacementScheduler",
    "SchedulingEnv",
    "SchedulingResult",
]

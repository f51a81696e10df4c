"""Black-box DBMS substrate: profiles, buffer pool, fluid engine, clusters, logs."""

from .buffer import BufferPool
from .cluster import Cluster, ClusterSession
from .engine import CompletionEvent, DatabaseEngine, ExecutionSession, RunningQueryState
from .faults import (
    FAILURE_ERROR,
    FAILURE_OUTAGE,
    FAILURE_TIMEOUT,
    FailureProfile,
    InstanceWindows,
    OutageWindow,
    QueryFate,
)
from .logs import ConcurrencySnapshot, ExecutionLog, QueryExecutionRecord, RoundLog
from .params import ConfigurationSpace, RunningParameters
from .profiles import DBMSProfile
from .soa import INSTANCE_FEATURE_DIM, FleetSession, SessionStateArrays

__all__ = [
    "BufferPool",
    "Cluster",
    "ClusterSession",
    "INSTANCE_FEATURE_DIM",
    "CompletionEvent",
    "DatabaseEngine",
    "ExecutionSession",
    "RunningQueryState",
    "FAILURE_ERROR",
    "FAILURE_OUTAGE",
    "FAILURE_TIMEOUT",
    "FailureProfile",
    "InstanceWindows",
    "OutageWindow",
    "QueryFate",
    "ConcurrencySnapshot",
    "ExecutionLog",
    "QueryExecutionRecord",
    "RoundLog",
    "ConfigurationSpace",
    "RunningParameters",
    "DBMSProfile",
    "FleetSession",
    "SessionStateArrays",
]

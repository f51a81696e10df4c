"""Synthetic benchmark workloads (TPC-DS, TPC-H, JOB) and batch query sets."""

from .arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    ClosedArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    make_arrival_process,
)
from .base import BatchQuerySet, Query, Workload
from .generator import BENCHMARKS, make_workload, perturb_workload
from .job import JOB_TABLES, NUM_JOB_TEMPLATES, build_job_catalog, build_job_specs
from .tpcds import (
    TPCDS_FACT_TABLES,
    TPCDS_HEAVY_TEMPLATES,
    TPCDS_TABLES,
    build_tpcds_catalog,
    build_tpcds_specs,
)
from .tpch import TPCH_TABLES, build_tpch_catalog, build_tpch_specs

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "ClosedArrivals",
    "FlashCrowdArrivals",
    "PoissonArrivals",
    "make_arrival_process",
    "BatchQuerySet",
    "Query",
    "Workload",
    "BENCHMARKS",
    "make_workload",
    "perturb_workload",
    "TPCDS_TABLES",
    "TPCDS_FACT_TABLES",
    "TPCDS_HEAVY_TEMPLATES",
    "build_tpcds_catalog",
    "build_tpcds_specs",
    "TPCH_TABLES",
    "build_tpch_catalog",
    "build_tpch_specs",
    "JOB_TABLES",
    "NUM_JOB_TEMPLATES",
    "build_job_catalog",
    "build_job_specs",
]

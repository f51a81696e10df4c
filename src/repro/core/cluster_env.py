"""Fleet placement helpers and ``ClusterSchedulingEnv``, an old name the performance ledger still patches.

Placement is part of the one :class:`~repro.core.env.SchedulingEnv`: a single
engine is a fleet of one instance.  The two placement helpers are defined in
:mod:`repro.core.env` and re-exported here.  ``ClusterSchedulingEnv`` exists
only because ``benchmarks/ledger/spans.py`` names
``ClusterSchedulingEnv.action_mask`` in this module (its
``masking.action_mask`` row of ``TARGETS``); the tracer finds the method
already wrapped on the one class.  The alias goes when the ledger re-keys its
span targets on layer names (the alias table in ROADMAP.md).
"""

from __future__ import annotations

from .env import SchedulingEnv, cluster_instance_count, greedy_cost_instance

__all__ = ["cluster_instance_count", "greedy_cost_instance"]

ClusterSchedulingEnv = SchedulingEnv

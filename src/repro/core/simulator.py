"""``SimulatedSession``: an old name the performance ledger still patches.

The learned simulator is :class:`repro.perf.SimulatedCluster` (a single engine
is a simulated fleet of one) and its rounds are
:class:`repro.perf.SimulatedClusterSession`.  This alias exists only because
``benchmarks/ledger/spans.py`` names ``SimulatedSession.advance`` /
``advance_features`` / ``apply_advance`` in this module; it goes when the
ledger re-keys its span targets on layer names (the alias table in
ROADMAP.md).
"""

from __future__ import annotations

from ..perf import SimulatedClusterSession

__all__ = ["SimulatedSession"]

SimulatedSession = SimulatedClusterSession

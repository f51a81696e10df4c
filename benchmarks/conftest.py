"""Shared helpers for the paper-reproduction benchmarks."""

from __future__ import annotations

import pytest

from harness.harness import get_profile


@pytest.fixture(scope="session")
def profile():
    return get_profile()

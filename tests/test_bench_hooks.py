"""The benchmark's traced run wraps package functions at these module globals.

``bench/spans.py`` skips a global that no longer exists, so a refactor that
drops one would silently remove its per-layer metrics. This test only
imports the list and resolves each name; it changes nothing under bench/.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
from spans import WRAPPED  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in WRAPPED])
def test_wrapped_global_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))

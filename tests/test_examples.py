"""Every example script imports cleanly against the current API.

Only the modules are imported — no ``main()`` runs, so nothing is
simulated and no committed example output is rewritten.  A deprecation
warning counts as an error: the examples must use the supported API.
"""

from __future__ import annotations

import importlib.util
import warnings
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_without_deprecation_warnings(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5

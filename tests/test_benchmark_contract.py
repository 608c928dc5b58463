"""The qflip names that the benchmark's unit of work, ``perfbench/unit.py``, uses.

A change that deletes or renames one of them fails here, in the test suite,
instead of in a benchmark run.  Change this list together with ``unit.py``.
"""

import importlib

import pytest

UNIT_NAMES = [
    ("qflip.cli", "main"),
    ("qflip.cli", "build_parser"),
    ("qflip.constructions", "general_flip_experiment"),
    ("qflip.schmidt", "verdict"),
    ("qflip.schmidt", "incomparable_3dim"),
    ("qflip.kernels", "BACKEND"),
    ("qflip.bloch", "FlipParams"),
    ("qflip", "__version__"),
]


@pytest.mark.parametrize("module, name", UNIT_NAMES, ids=lambda x: x)
def test_benchmark_unit_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)

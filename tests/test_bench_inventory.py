"""The traced bench wraps library functions by name (``bench/layers.py``);
each name must still exist, so a rename or an inline fails here rather than
in a traced run."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_layers", Path(__file__).resolve().parents[1] / "bench" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def _resolve(name: str):
    module, func = name.split(".")
    return getattr(importlib.import_module(f"mixspec.{module}"), func, None)


@pytest.mark.parametrize("name", sorted(layers.TIMED))
def test_timed_name_is_a_callable(name):
    assert callable(_resolve(name)), name


@pytest.mark.parametrize("name", layers.GENERATORS)
def test_generator_name_is_a_generator_function(name):
    assert inspect.isgeneratorfunction(_resolve(name)), name

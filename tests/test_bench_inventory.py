"""The traced bench wraps library functions by name (``bench/layers.py``);
each name must still exist, so a rename or an inline fails here rather than
in a traced run, and its module must be loaded by ``import mixspec.cli``.
The count layers that ``layers.EXPECTED`` requires must also still be fed: a
request that stops reaching the function a count is read from leaves that
layer at zero, and the traced run then fails."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixspec.cli import main

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def _resolve(name: str):
    module, func = name.split(".")
    return getattr(importlib.import_module(f"mixspec.{module}"), func, None)


@pytest.mark.parametrize("name", sorted(layers.TIMED))
def test_timed_name_is_a_callable(name):
    assert callable(_resolve(name)), name


def test_cli_import_loads_every_timed_module_and_no_dataclasses():
    # The traced child wraps the TIMED names right after ``import mixspec.cli``,
    # so their modules must be loaded by then.  The records are NamedTuples:
    # ``dataclasses`` and the ``inspect`` it imports would only slow each start.
    script = ("import sys; before = set(sys.modules); import mixspec.cli; "
              "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    assert {f"mixspec.{name.split('.')[0]}" for name in layers.TIMED} <= loaded


@pytest.mark.parametrize("name", layers.GENERATORS)
def test_generator_name_is_a_generator_function(name):
    assert inspect.isgeneratorfunction(_resolve(name)), name


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Wrap ``mixspec.<name>`` wherever a mixspec module holds it, as the
    traced run does, and return the list each call appends to."""
    original = _resolve(name)
    calls: list[int] = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name == "mixspec" or module_name.startswith("mixspec."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


# (count or time layers, the function whose calls feed them, a small request
# of the kind ``large_n`` sends).  A change to ``bench/`` that moves a layer
# updates these cases together with ``layers.EXPECTED``.  The CLI picks the
# path or cycle function by looking it up on its module when the request
# runs, so a function bound at import would escape the wrappers and fail here.
_LARGE_N_COUNTS = [
    (("genfunc.rows", "genfunc.coeff_bits"), "genfunc.cycle_gf_coeffs",
     "moments --family cycle --n 20"),
    (("bounds.alpha_calls",), "bounds.alpha", "bound --family cycle --n 50"),
    (("families.draws",), "families.sample_path", "sample --family path --n 60 --seed 1 --count 3"),
    (("families.draws",), "families.sample_cycle", "sample --family cycle --n 60 --seed 1 --count 3"),
    (("families.pmf_s",), "families.path_pmf", "pmf --family path --n 30"),
    (("families.pmf_s",), "families.cycle_pmf", "pmf --family cycle --n 30"),
    (("genfunc.rows_s",), "genfunc.path_gf_coeff", "gf --family path --n 30"),
    (("genfunc.rows_s",), "genfunc.cycle_gf_coeff", "gf --family cycle --n 30"),
    (("genfunc.clt_s",), "genfunc.clt_diagnostics", "moments --family path --n 20"),
    (("bounds.general_s",), "bounds.bound_general", "bound --family cycle --n 50"),
    (("bounds.specialized_s",), "bounds.bound_specialized", "bound --family cycle --n 50"),
]


@pytest.mark.parametrize("metrics, name, argv", _LARGE_N_COUNTS)
def test_large_n_count_layers_are_reached(monkeypatch, capsys, metrics, name, argv):
    assert set(metrics) <= set(layers.EXPECTED["large_n"])
    calls = _count_calls(monkeypatch, name)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert calls, f"{argv!r} no longer reaches {name}, which feeds {metrics}"

"""The per-layer metrics of BENCHMARK.json name functions that exist.

A metric ``<layer>.<function>.<field>`` is read off the span of the public
function ``qhjlab.<layer>.<function>``; deleting or renaming that function
must fail here rather than when the benchmark aggregates its trace.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def function_metrics():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    return [name for name in names if len(name.split(".")) == 3]


def test_some_metrics_name_functions():
    assert len(function_metrics()) >= 10


@pytest.mark.parametrize("metric", function_metrics())
def test_metric_names_a_public_function_of_its_layer(metric):
    layer, function, _ = metric.split(".")
    module = importlib.import_module(f"qhjlab.{layer}")
    obj = getattr(module, function, None)
    assert not function.startswith("_"), f"{metric}: {function} is private"
    assert inspect.isfunction(obj), f"{metric}: qhjlab.{layer} has no function {function}"
    assert obj.__module__ == module.__name__, f"{metric}: {function} is not defined in {layer}"

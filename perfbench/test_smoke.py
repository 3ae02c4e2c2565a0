"""Smoke test of the benchmark itself, at tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py

Rounds shrink to one or two fast modules (the ``infer`` workload is left
out: one inference alone takes over ten seconds).  Checks that every
metric ``BENCHMARK.json`` names is reported with a unit, that a tampered
reference digest shows up as a failed request instead of aborting the
run, and that the traced run's per-layer self times add up to no more
than its wall time.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import load_reference  # noqa: E402

WORKERS = 2


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _reported(metrics: dict) -> dict[str, str]:
    return {name: unit for name, (_value, unit) in metrics.items()}


def test_end_to_end_metrics_and_tampered_digest():
    reference = load_reference()
    logs, metrics = run.end_to_end("attack", ("C12",), 0, 0.0, WORKERS,
                                   reference)
    assert _reported(metrics) == _declared("end_to_end")
    assert sum(log.failed for log in logs) == 0
    assert metrics["correct_frac"][0] == 1.0

    tampered = dict(reference, C12="0" * 64)
    logs, metrics = run.end_to_end("attack", ("C12",), 0, 0.0, WORKERS,
                                   tampered)
    assert sum(log.attempted for log in logs) == 1
    assert sum(log.failed for log in logs) == 1
    assert metrics["correct_frac"][0] == 0.0


@pytest.mark.parametrize("workload", ["attack", "sweep"])
def test_traced_layers_sum_within_wall(workload):
    logs, metrics = run.traced(workload, ("C12", "C13"), 0, WORKERS,
                               load_reference())
    assert _reported(metrics) == _declared("per_layer")
    assert sum(log.failed for log in logs) == 0
    traced_wall = logs[-1].wall_s
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    assert 0 < self_total <= traced_wall
    if workload == "sweep":
        assert metrics["cache.hit_ratio"][0] > 0
        assert metrics["parallel.sum_unit_s"][0] > 0
    else:
        assert metrics["dram.self_s"][0] > 0
        assert metrics["attacks.runs"][0] > 0

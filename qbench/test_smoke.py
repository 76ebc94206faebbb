"""Tiny-size smoke run of every workload, untraced and traced: each metric
BENCHMARK.json names is printed with its unit, and no item fails.

    python -m pytest -q qbench
"""

import json
import os

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def printed_metrics(text):
    """{name: (value, unit)} from the report's indented metric lines."""
    out = {}
    for line in text.splitlines():
        if line.startswith("  "):
            name, value, unit = line.split()
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke(workload, trace, capsys):
    result = run.run(workload, seed=3, seconds=0.0, trace=bool(trace), min_items=3, setup_reps=1)
    text = capsys.readouterr().out
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = printed_metrics(text)
    for m in expected:
        assert printed[m["name"]][1] == m["unit"], m["name"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    assert printed["error_frac"] == (0.0, "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert json.loads(text.strip().splitlines()[-1]) == result

"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q

They run each workload as ``run.py`` does, in a child process, so the whole
module takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from cornmaps import (  # noqa: E402
    SymGroup,
    build_antiprism,
    build_torus_grid,
    enumerate_invariant_cornerations,
    is_isomorphic,
)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_summary_is_the_same_for_two_seeds(workload):
    expected = run.expected_summary(workload)
    assert run.child(workload, 0)["summary"] == expected
    assert run.child(workload, 1)["summary"] == expected


def test_traced_sweep_reproduces_the_untraced_summary():
    out = run.child("sweep-opposite", 2, "--trace")
    assert out["summary"] == run.expected_summary("sweep-opposite")
    layers = {name: m["value"] for name, m in out["layers"].items()}
    assert layers["cornerations.distinct"] == 32
    assert layers["cornerations.transitive"] == 32
    assert layers["splitgraph.graphs"] > 0
    assert layers["verify.split-graph-laws_s"] == 0


def test_relabel_gives_an_isomorphic_map_with_other_labels():
    m = build_torus_grid(3, 4)
    relabelled = workloads.relabel(m, 5)
    assert workloads.relabel(m, 0) is m
    assert relabelled.involutions() != m.involutions()
    assert is_isomorphic(m, relabelled) is not None


def test_local_cover_count():
    assert [workloads.local_cover_count(4, j) for j in (1, 2)] == [2, 1]
    assert workloads.local_cover_count(8, 2) == 4
    m = build_antiprism(3)
    trivial = SymGroup(m, (tuple(m.flags()),))
    assert len(enumerate_invariant_cornerations(m, trivial, 1)) == 2**6


def test_decoders_read_the_format_examples():
    # Examples from the graph6/sparse6 format description.
    assert workloads.decode_graph6("DQc") == (5, {(0, 2), (0, 4), (1, 3), (3, 4)})
    assert workloads.decode_sparse6(":Fa@x^") == (7, {(0, 1), (0, 2), (1, 2), (5, 6)})


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = workloads.LAYER_METRICS + (("bench.trace_overhead_s", "s"),)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers)


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cover-trivial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

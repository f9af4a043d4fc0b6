"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

The seed test runs every workload twice and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYER_METRICS, RUN_METRICS  # noqa: E402

EXACT_COUNTS = ("modmat.rref_calls", "group.i_mul_calls", "structure.class_count", "chardeg.coeff_entries")


@pytest.fixture(scope="module")
def dc():
    return run.import_degclass()


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of the built-in corpus at one seed, with their wall times."""
    out = []
    for _ in range(2):
        start = perf_counter()
        tally, metrics, tracer = run.traced_run("builtin", 7)
        out.append((tally, metrics, tracer, perf_counter() - start))
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seeds_give_the_expected_answers(dc, workload):
    expected = wl.load_expected(workload)
    for seed in (1, 2):
        records = dc.parse_corpus(wl.corpus_text(workload, seed))
        _, verify = run.verify_pass(dc, records)
        _, invariants = run.invariants_pass(dc, records)
        assert wl.failed_groups(verify, expected, wl.VERIFY_KEYS) == []
        assert wl.failed_groups(invariants, expected, wl.INVARIANT_KEYS) == []


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_changes_the_input_but_not_the_group(dc, workload):
    one, two = wl.corpus_text(workload, 1), wl.corpus_text(workload, 2)
    assert wl.corpus_text(workload, 1) == one != two
    for a, b in zip(dc.parse_corpus(one), dc.parse_corpus(two)):
        assert a.group.elements == b.group.elements


def test_expected_files_match_published_orders_and_degrees():
    for workload in wl.WORKLOADS:
        for name, answer in wl.load_expected(workload).items():
            order, degrees = wl.PUBLISHED[name]
            assert answer["order"] == order, name
            assert answer["m"] == [[d, c] for d, c in sorted(degrees.items())], name
            assert sum(c * d * d for d, c in answer["m"]) == order


def test_corrupted_expected_entry_fails(dc):
    records = dc.parse_corpus(wl.corpus_text("builtin", 3))
    expected = wl.load_expected("builtin")
    expected["S4"] = dict(expected["S4"], verdict_digest="0" * 64)
    expected["C5"] = dict(expected["C5"], m=[[1, 4], [2, 1]])
    tally = run.Tally(expected)
    tally.check(run.verify_pass, wl.VERIFY_KEYS, dc, records)
    tally.check(run.invariants_pass, wl.INVARIANT_KEYS, dc, records)
    assert (tally.attempted, tally.failed) == (2 * len(expected), 3)
    assert tally.failed / tally.attempted > 0


def test_traced_run_is_correct_and_self_times_fit_in_wall_time(traced):
    for tally, _, tracer, wall in traced:
        assert tally.failed == 0
        assert all(span[5] is not None for span in tracer.spans)
        assert sum(tracer.self_times().values()) <= tracer.root_time() + 1e-9
        assert tracer.root_time() <= wall


def test_every_layer_metric_is_reported(traced):
    _, metrics, _, _ = traced[0]
    names = [name for name, *_ in LAYER_METRICS + RUN_METRICS]
    assert list(metrics) == names
    assert all(isinstance(value, (int, float)) for value, _ in metrics.values())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == names


def test_exact_counts_repeat(traced):
    (_, first, _, _), (_, second, _, _) = traced
    for name in EXACT_COUNTS:
        assert first[name][0] == second[name][0] > 0, name


def test_speedometer_ticks_and_restores_the_handler():
    meter = speed.Speedometer()
    before = signal.getsignal(signal.SIGALRM)
    with meter.sampling():
        deadline = perf_counter() + 0.3
        while perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.ticks) >= 3 and len(meter.scales) == 1 and meter.scales[0] > 0
    with meter.sampling():  # shorter than a tick: one tick is taken afterwards
        pass
    assert len(meter.scales) == 2 and meter.scales[1] > 0


def test_timed_run_prints_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "builtin", "--seed", "5", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "builtin", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

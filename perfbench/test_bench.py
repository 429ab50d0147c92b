"""The benchmark's own checks: determinism, fresh inputs, clean seeds.

    python3 -m pytest perfbench/test_bench.py     # from the repository root

Slow by design (about two minutes): it runs the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from tracer import PER_LAYER, BindingError, Tracer  # noqa: E402


def bench(workload, seed, trace, cwd=ROOT, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_no_job_repeats_an_input_and_every_pass_has_the_same_mix(workload, tmp_path):
    run = W.Run(ROOT, 5, tmp_path)
    passes = [W.WORKLOADS[workload](run, p) for p in range(4)]
    keys = [job.key for jobs in passes for job in jobs]
    assert len(keys) == len(set(keys))
    mixes = {tuple(job.slot for job in jobs) for jobs in passes}
    assert len(mixes) == 1


def test_jobs_pass_no_sampler_arguments(tmp_path, monkeypatch):
    import eulersym
    calls = []
    monkeypatch.setattr(eulersym, "implicitize",
                        lambda *args, **kwargs: calls.append((args, kwargs)))
    run = W.Run(ROOT, 5, tmp_path)
    for job in W.model_pass(run, 1):
        if job.slot.endswith("/implicitize"):
            job.run()
    assert calls and all(len(a) == 2 and not kw for a, kw in calls)
    for job in W.cli_pass(run, 1):
        argv = job.key.split()
        assert "--samples" not in argv
        if argv[0] == "implicitize":
            assert "--seed" not in argv


def test_a_missed_binding_fails_loudly(monkeypatch):
    import eulersym
    from eulersym import jets
    monkeypatch.setattr(jets, "rref", lambda rows: ([], []))
    with pytest.raises(BindingError):
        Tracer().install(eulersym)


@pytest.mark.parametrize("workload", ["cli", "model"])
def test_traced_runs_repeat_their_call_counts(workload):
    first, second = (result(bench(workload, 9, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert set(first["metrics"]) == {name for name, _ in PER_LAYER}


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_a_second_seed_runs_clean(workload):
    out = result(bench(workload, 7, trace=0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= W.MIN_JOBS


def test_without_a_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cli", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

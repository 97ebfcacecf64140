"""Tests of the benchmark itself, at tiny sizes.  Run from the repo root:

    python3 -m pytest perfbench/selftest.py -q

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

# Smallest sizes at which each workload's checks pass today.
TINY = {"free_evolve": 8, "coupled_evolve": 8, "em_check": 32, "landau": 16}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    run.configure_env()


def _bench(workload, trace, seed=3, seconds=0.5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", str(TINY[workload])],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["free_evolve", "coupled_evolve", "landau"])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result, _ = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.load(open("BENCHMARK.json"))[section]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_traced_run_covers_every_layer():
    result, stdout = _bench("free_evolve", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["dynamics.evolve_calls"] == 33  # three exact evolves per record
    assert metrics["dynamics.diag_records"] == 11
    for name in ("cli.import_s", "cli.csv_write_s", "algebra.matrix_set_s", "fields.fft_s",
                 "fields.random_state_s", "dynamics.propagator_build_s",
                 "snapshots.write_s", "snapshots.read_s"):
        assert metrics[name] > 0, name
    assert "tracing overhead" in stdout
    result, _ = _bench("coupled_evolve", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["em_coupling.rk4_steps"] == 50
    assert metrics["em_coupling.diag_records"] == 6
    assert metrics["em_coupling.ffts_per_generator"] == 54


def _one_run(tmp_path, workload, cfg_edit=None):
    r = run.Run(workloads.WORKLOADS[workload], 3, str(tmp_path), TINY[workload])
    if cfg_edit is not None:
        cfg_edit(r.cfg)
        with open(r.cfg_path, "w") as fh:
            json.dump(r.cfg, fh)
    return r


def test_corrupted_csv_counts_as_failed(tmp_path):
    r = _one_run(tmp_path, "coupled_evolve")
    r.untraced()
    assert r.failures == [] and r.attempted == 1
    out = r._out_dir("cli")
    op = run.Op(run._cli(r.w.argv(r.cfg_path, out, r.size)), out)
    path = os.path.join(out, "diag.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])  # a record lost
    r.record(op, "cli")
    assert r.attempted == 2 and len(r.failures) == 1
    assert "CSV rows" in r.failures[0]


def test_changed_csv_byte_counts_as_failed(tmp_path):
    r = _one_run(tmp_path, "free_evolve")
    r.untraced()
    out = r._out_dir("cli")
    op = run.Op(run._cli(r.w.argv(r.cfg_path, out, r.size)), out)
    path = os.path.join(out, "diag.csv")
    text = open(path).read()
    open(path, "w").write(text.replace("e-1", "e-2", 1))
    r.record(op, "cli")
    assert len(r.failures) == 1 and "differs" in r.failures[0]


def test_failing_config_counts_as_failed(tmp_path):
    r = _one_run(tmp_path, "coupled_evolve", lambda cfg: cfg["evolution"].pop("dt"))
    r.untraced()
    assert r.attempted == 1 and len(r.failures) == 1
    assert "exit code 2" in r.failures[0]


def test_failed_verification_counts_as_failed(tmp_path):
    # e = 1, amplitude 0.3 fails projected_identity_residual today (NOTES.md)
    def strong(cfg):
        cfg["charge"] = 1.0
        cfg["external_field"]["random"]["amplitude"] = 0.3
        cfg["grid"] = workloads._grid(24)

    r = _one_run(tmp_path, "em_check", strong)
    r.untraced()
    assert len(r.failures) == 1 and "projected_identity_residual" in r.failures[0]


def test_differing_counts_are_failures():
    same = dict.fromkeys(run.DETERMINISTIC, 7)
    assert run.compare_counts([same, dict(same)]) == []
    other = {**same, "em_coupling.cg_iterations": 8}
    (failure,) = run.compare_counts([same, other])
    assert "em_coupling.cg_iterations" in failure


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy("BENCHMARK.json", tmp_path)
    shutil.copytree("perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "landau", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

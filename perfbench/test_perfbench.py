"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _bench("--workload", "dichotomy", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """One verified output of every tiny command, keyed by label."""
    pkg = run.import_package(run.ROOT)
    found = {}
    for name, workload in workloads.WORKLOADS.items():
        commands = workload.build(pkg, 5, tmp_path_factory.mktemp(name),
                                  tiny=True)
        for index, command in enumerate(commands):
            sample = run.run_command(pkg.cli, index, command)
            assert run.verify(commands, [sample]) == []
            found[command.label] = (command, sample)
    return found


def _mutated(command, sample, mutate):
    report = json.loads(sample.output)
    mutate(report)
    bad = run.Sample(0, sample.seconds, sample.code, json.dumps(report), None)
    return run.verify([command], [bad])


def _strong(report):
    return next(v for v in report["verdicts"] if v["claim"].startswith("(4)"))


def _shift_first(values):
    values[0] = str(Fraction(values[0]) + Fraction(1, 7))


def test_corrupted_cycle_gap_is_an_error(samples):
    def corrupt(report):
        witness = report["verdicts"][1]["witness"]
        witness["gap"] = str(Fraction(witness["gap"]) + 1)

    assert len(_mutated(*samples["check product4"], corrupt)) == 1


def test_shifted_phi_is_an_error(samples):
    for label in ("check random", "check zero-one", "check ap"):
        failures = _mutated(*samples[label],
                            lambda r: _shift_first(_strong(r)["witness"]["phi"]))
        assert len(failures) == 1, label


def test_wrong_p_is_an_error(samples):
    for label in ("dichotomy plane3", "dichotomy sparse2x2x3-0"):
        def corrupt(report):
            report["notes"]["p"] = str(Fraction(report["notes"]["p"]) / 2)

        assert len(_mutated(*samples[label], corrupt)) == 1, label


def test_wrong_p_of_a_plane_set_is_caught_by_its_reference():
    report = {"notes": {"p": "4/5", "l": "1", "l_relaxed": "4/5"}}
    problems = checks.dichotomy(0, report, n_spaces=3,
                                p_ref=workloads.PLANE_P[4], l_ref=Fraction(1))
    assert problems == ["p = 4/5, expected 3/4"]


def test_improve_trajectory_must_reach_the_optimum(samples):
    def stop_early(report):
        report["notes"]["trajectory"] = report["notes"]["trajectory"][:-1]
        report["notes"]["iterations"] -= 1

    assert len(_mutated(*samples["improve product4"], stop_early)) == 1


def test_floored_attack_must_not_improve(samples):
    def improve(report):
        report["verdicts"][0]["witness"]["max_improvement"] = "1/3"

    assert len(_mutated(*samples["adversary random-a z=1"], improve)) == 1


def test_exception_and_malformed_output_are_errors(samples):
    command, sample = samples["check shift"]
    raised = run.Sample(0, 0.1, None, "", "Traceback\nValueError: boom")
    garbled = run.Sample(0, 0.1, 0, "not json", None)
    failures = run.verify([command], [raised, garbled])
    assert len(failures) == 2
    assert failures[0] == ("check shift", ["ValueError: boom"])
    assert failures[1][1][0].startswith("malformed output")

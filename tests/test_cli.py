"""Command-line behavior: reports, exit codes, batch mode."""

import json
from fractions import Fraction

import pytest

from transport_certify import cli
from transport_certify.cli import main
from transport_certify import instance_to_dict, make_plan
from transport_certify.generators import ap_shift_plan, gen_ap, gen_random


@pytest.fixture
def write_instance(tmp_path):
    def _write(instance, plan=None, name="instance.json"):
        path = tmp_path / name
        path.write_text(json.dumps(instance_to_dict(instance, plan)))
        return str(path)

    return _write


def test_solve_reports_value(write_instance, capsys):
    path = write_instance(gen_ap(3, 2, 1))
    code = main(["solve", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "value: 1" in out


def test_solve_infeasible_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mu": [1], "nu": [1], "cost": [["inf"]]}))
    code = main(["solve", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "no finite plan" in out


def test_check_optimal_plan_all_pass(write_instance, capsys):
    path = write_instance(gen_random(3, 1))
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 5


def test_check_bad_plan_fails_with_cycle_witness(write_instance, capsys):
    inst = gen_ap(3, 1, 2)
    path = write_instance(inst, ap_shift_plan(3))
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] (1) optimal" in out
    assert "[FAIL] (2) cyclically monotone" in out
    assert "gap" in out
    assert "[PASS] implication diagram consistent" in out


def test_check_json_output(write_instance, capsys):
    path = write_instance(gen_random(3, 2))
    code = main(["--json", "check", path])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["command"] == "check"
    assert len(data["verdicts"]) == 5
    assert all(v["passed"] for v in data["verdicts"])
    strong = data["verdicts"][3]
    assert strong["witness"]["phi"]
    assert strong["witness"]["psi"]


def test_check_multi_class_certificate_serialized(write_instance, capsys):
    from transport_certify.generators import gen_zero_one, zero_one_diagonal_plan

    path = write_instance(gen_zero_one(4), zero_one_diagonal_plan(4))
    code = main(["--json", "check", path])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    strong = data["verdicts"][3]["witness"]
    assert strong["classes"] == 5
    assert len(strong["decomposition"]) == 5
    assert strong["decomposition"][0] == {"C": [0], "D": [0], "pairs": [[0, 0]]}
    # Potentials decrease along the grid and keep the -inf marker format.
    phi = strong["phi"]
    assert all(isinstance(v, (int, float, str)) for v in phi)


def test_improve_trajectory(write_instance, capsys):
    inst = gen_ap(3, 1, 2)
    path = write_instance(inst, ap_shift_plan(3))
    code = main(["improve", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "trajectory: [2, 1]" in out


def test_improve_already_optimal_single_entry(write_instance, capsys):
    inst = gen_ap(3, 1, 2)
    path = write_instance(inst)
    code = main(["improve", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "trajectory: [1]" in out


def test_gen_emits_parseable_instance(capsys):
    code = main(["gen", "ap", "--n", "3", "--a", "1", "--b", "2"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["cost"][0] == [1, 2, "inf"]


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "gen.json"
    code = main(["gen", "zero-one", "--n", "2", "--out", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert len(data["cost"]) == 3


def test_dichotomy_command(tmp_path, capsys):
    path = tmp_path / "mmi.json"
    path.write_text(
        json.dumps(
            {"weights": [["1/2", "1/2"], ["1/2", "1/2"]], "B": [[0, 0]]}
        )
    )
    code = main(["dichotomy", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "p: 1/2" in out
    assert "l: 1/2" in out


def test_adversary_command(write_instance, capsys):
    path = write_instance(gen_random(3, 5))
    code = main(["adversary", path, "--trials", "10", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no sampled toll beats the defended plan" in out


def test_input_error_exit_code_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["solve", str(path)])
    assert code == 2


def test_validation_error_exit_code_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"mu": [0.9, 0.2], "nu": [0.5, 0.5],
                    "cost": [[0, 1], [1, 0]]})
    )
    code = main(["solve", str(path)])
    assert code == 2
    assert "marginal sum" in capsys.readouterr().err


def test_float_mode(write_instance, capsys):
    path = write_instance(gen_random(3, 6))
    code = main(["--float", "check", path])
    assert code == 0


def test_plan_file_flag(tmp_path, write_instance, capsys):
    inst = gen_ap(3, 1, 2)
    inst_path = write_instance(inst)
    plan_path = tmp_path / "plan.json"
    third = Fraction(1, 3)
    plan = make_plan(
        [[0, third, 0], [0, 0, third], [third, 0, 0]]
    )
    plan_path.write_text(
        json.dumps({"plan": [["0", "1/3", "0"], ["0", "0", "1/3"],
                             ["1/3", "0", "0"]]})
    )
    code = main(["check", inst_path, "--plan", str(plan_path)])
    assert code == 1  # shift plan is not optimal for a < b


def test_batch_mode(tmp_path, capsys):
    for seed in range(3):
        inst = gen_random(3, seed)
        (tmp_path / f"i{seed}.json").write_text(
            json.dumps(instance_to_dict(inst))
        )
    code = main(["check", "ignored", "--batch", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("== check ==") == 3


def test_batch_worker_reports_unexpected_exception(tmp_path, monkeypatch,
                                                   capsys):
    def broken(args):
        raise RuntimeError("handler broke")

    monkeypatch.setattr(cli, "cmd_check", broken)
    path = str(tmp_path / "i.json")
    args = cli.build_parser().parse_args(["check", "ignored", "--batch", "d"])
    out_path, report, status = cli._batch_worker((args, path))
    assert (out_path, status) == (path, 2)
    verdict = report.to_dict()["verdicts"]
    assert [v["claim"] for v in verdict] == ["input parsed"]
    assert verdict[0]["passed"] is False
    assert verdict[0]["witness"] == "RuntimeError: handler broke"
    assert "Traceback" in capsys.readouterr().err


VALID = '{"mu": [1], "nu": [1], "cost": [[1]]}'


@pytest.mark.parametrize("argv,text", [
    (["solve"], '{"mu": [1], "nu": [1], "cost": [["abc"]]}'),
    (["solve"], '{"mu": [1], "nu": [1], "cost": [["1/0"]]}'),
    (["--float", "solve"], '{"mu": [1], "nu": [1], "cost": [["1/0"]]}'),
    (["solve"], '{"mu": 5, "nu": [1], "cost": [[1]]}'),
    (["solve"], '[1, 2]'),
    (["solve"], '{"mu": [1], "nu": [1], "cost": [["nan"]]}'),
    (["--float", "solve"], '{"mu": [1], "nu": [1], "cost": [["nan"]]}'),
    (["solve"], '{"mu": [1], "nu": [1], "cost": [[NaN]]}'),
    (["--float", "solve"], '{"mu": [1], "nu": [1], "cost": [[NaN]]}'),
    (["solve"], '{"mu": [1], "nu": [1], "cost": [[Infinity]]}'),
    (["--float", "solve"], '{"mu": [1], "nu": [1], "cost": [[Infinity]]}'),
    (["dichotomy"], '{"weights": [[1], [1]], "B": [["x", 0]]}'),
    (["dichotomy"], '{"weights": [[1], [1]], "B": [[0.5, 0]]}'),
    (["dichotomy"], '{"weights": [[1], [1]], "B": [5]}'),
    (["dichotomy"], '{"weights": [["inf"], [1]], "B": [[0, 0]]}'),
    (["--float", "--tolerance", "-1", "solve"], VALID),
    (["--tolerance", "-1", "solve"], VALID),
    (["--float", "--tolerance", "nan", "solve"], VALID),
    (["solve"], b"\xff\xfe not utf-8"),
])
def test_malformed_input_exits_two(tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = main(argv + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    assert "[PASS]" not in captured.out


def test_malformed_plan_file_exits_two(tmp_path, capsys):
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(VALID)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text('{"plan": [["abc"]]}')
    code = main(["check", str(inst_path), "--plan", str(plan_path)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_zero_tolerance_honoured():
    from transport_certify.cli import _policy_from_args, build_parser

    args = build_parser().parse_args(["--float", "--tolerance", "0", "solve", "x"])
    assert _policy_from_args(args).tolerance == 0

"""Command-line behavior: reports, exit codes, batch mode."""

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from transport_certify import cli
from transport_certify.cli import main
from transport_certify import instance_to_dict, make_plan, solve_exact
from transport_certify.generators import (
    ap_shift_plan,
    gen_ap,
    gen_blocks,
    gen_random,
)


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


@pytest.mark.parametrize("flags", [[], ["--float"]])
def test_dichotomy_is_exact_in_both_modes(tmp_path, capsys, flags):
    # Thirds read as floats do not sum to 1 exactly; the bounds never see
    # them, because dichotomy always reads the weights as Fractions.
    path = tmp_path / "mmi.json"
    path.write_text(json.dumps(
        {"weights": [["1/3", "1/3", "1/3"], ["1/2", "1/2"]],
         "B": [[0, 0], [1, 1]]}))
    assert main(flags + ["--json", "dichotomy", str(path)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["notes"] == {
        "p": "2/3", "l": "2/3", "l_relaxed": "2/3"}


@pytest.mark.parametrize("flags", [[], ["--float"]])
def test_dichotomy_weights_must_sum_to_exactly_one(tmp_path, capsys, flags):
    path = tmp_path / "mmi.json"
    path.write_text(json.dumps(
        {"weights": [["1/2", "1/2"], ["1/2", "5000000001/10000000000"]],
         "B": [[0, 0], [1, 1]]}))
    assert main(flags + ["dichotomy", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "marginal weights sum to 10000000001/10000000000, expected 1" in err


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
    (["adversary", "--trials", "-3"], VALID),
    (["adversary", "--trials", "0"], VALID),
    (["adversary", "--z-size", "-1"], VALID),
    (["adversary", "--lambda", "nan"], VALID),
    (["check", "--z-size", "-1"], VALID),
    (["check", "--lambda", "-1"], VALID),
    (["check", "--lambda", "nan"], VALID),
    (["check", "--lambda", "inf"], VALID),
    (["improve", "--max-iters", "-2"], VALID),
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


def test_check_marks_robust_as_derived(write_instance, capsys):
    path = write_instance(gen_random(3, 2))
    assert main(["--json", "check", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["notes"]["derived"] == {"(3)": "(4)"}
    assert report["notes"]["by_construction"] == ["robust == strong"]
    assert list(report["timings"]) == ["solve", "optimal", "strong", "robust"]


@pytest.mark.parametrize("flags", [[], ["--float"]])
def test_mass_on_infinite_cost_pair_fails_verdicts(tmp_path, capsys, flags):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "mu": ["1/2", "1/2"], "nu": ["1/2", "1/2"],
        "cost": [[1, "inf"], [2, 1]],
        "plan": [["1/4", "1/4"], ["1/4", "1/4"]]}))
    assert main(flags + ["--json", "check", str(path)]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["passed"] for v in verdicts] == [False] * 4 + [True]
    assert verdicts[0]["witness"] == "plan has infinite cost"
    for verdict in verdicts[1:4]:
        assert "support pair (0,1) has infinite cost" in verdict["witness"]
    assert main(flags + ["--json", "improve", str(path)]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts == [{"claim": "reached a cyclically monotone plan",
                         "passed": False,
                         "witness": "support pair (0,1) has infinite cost"}]
    assert main(flags + ["--json", "adversary", "--trials", "2",
                         str(path)]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts == [{"claim": "no sampled toll beats the defended plan",
                         "passed": False,
                         "witness": "plan has infinite cost"}]


_OVERFLOW = {
    "mu": ["1/3", "1/3", "1/3"], "nu": ["1/3", "1/3", "1/3"],
    "cost": [[1.7e308, 1.7e308, 0], [1.7e308, 0, 1.7e308],
             [0, 1.7e308, 1.7e308]],
    "plan": [["1/3", 0, 0], [0, "1/3", 0], [0, 0, "1/3"]],
}


@pytest.mark.parametrize("command", [["solve"], ["check"], ["improve"],
                                     ["adversary", "--trials", "2"]])
def test_float_overflow_rejected_at_load(tmp_path, capsys, command):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_OVERFLOW))
    assert main(["--float", "--json", *command, str(path)]) == 2
    assert "too large for float mode" in capsys.readouterr().err


def test_overflow_instance_fails_with_cycle_in_rational_mode(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_OVERFLOW))
    assert main(["--json", "check", str(path)]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["passed"] for v in verdicts] == [False] * 4 + [True]
    assert verdicts[1]["witness"]["pairs"] == [[0, 0], [2, 2]]


@pytest.mark.parametrize("command", [["check"], ["improve"],
                                     ["adversary", "--trials", "2"]])
def test_base_solve_is_timed(write_instance, capsys, command):
    inst = gen_random(3, 2)
    for plan, timed in ((None, True), (solve_exact(inst).plan, False)):
        path = write_instance(inst, plan)
        assert main(["--json", *command, path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["notes"]["plan_source"] == ("solver" if timed
                                                  else "input")
        assert ("solve" in report["timings"]) == timed


def _family_cases():
    """One small instance of each bench family, checked with the solver's
    plan and, where the family has one, a non-optimal plan."""
    from transport_certify.generators import (
        gen_shift, gen_zero_one, zero_one_diagonal_plan)

    def product(inst):
        return make_plan([[a * b for b in inst.nu] for a in inst.mu])

    random, blocks = gen_random(5, 31), gen_blocks((2, 3), seed=5)
    random_inf = next(inst for seed in range(32, 64) if solve_exact(
        inst := gen_random(5, seed, 0.5)).feasible)
    cases = [
        ("ap", gen_ap(6, 1, 2), ap_shift_plan(6)),
        ("shift", gen_shift(4), None),
        ("zero-one", gen_zero_one(6), zero_one_diagonal_plan(6)),
        ("random", random, product(random)),
        ("random-inf", random_inf, None),
        ("blocks", blocks, product(blocks)),
    ]
    for name, inst, plan in cases:
        yield name + "-solver", inst, None
        if plan is not None:
            yield name + "-plan", inst, plan


@pytest.mark.parametrize("case", list(_family_cases()), ids=lambda c: c[0])
def test_float_mode_verdicts_match_rational(write_instance, capsys, case):
    _, inst, plan = case
    path = write_instance(inst, plan)
    flags = {}
    for mode in ([], ["--float"]):
        code = main(mode + ["--json", "check", path])
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        flags[tuple(mode)] = (code, [v["passed"] for v in verdicts])
    assert flags[()] == flags[("--float",)]


def _count_calls(monkeypatch, name):
    """Record every call of the package function ``name``, in each package
    module that binds it."""
    modules = [module for key, module in sorted(sys.modules.items())
               if key.startswith("transport_certify.")]
    original = next(getattr(m, name) for m in modules if hasattr(m, name))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def _plan_cases():
    inst = gen_blocks((2, 3), seed=5)
    shifted = gen_ap(4, 1, 2)
    return {
        # One base solve, which also supplies the plan, and one extension.
        "solver-plan": (inst, None, 0, 2),
        "embedded-plan": (inst, solve_exact(inst).plan, 0, 2),
        # No certificate, so the extension is never solved.
        "embedded-cycle": (shifted, ap_shift_plan(4), 1, 1),
    }


@pytest.mark.parametrize("case", sorted(_plan_cases()))
def test_check_computes_each_artifact_once(write_instance, monkeypatch,
                                           capsys, case):
    inst, plan, code, solves = _plan_cases()[case]
    path = write_instance(inst, plan)
    counted = ("residual_graph", "certify_strong", "solve_exact")
    calls = {name: _count_calls(monkeypatch, name) for name in counted}
    assert main(["--json", "check", path]) == code
    assert {name: len(c) for name, c in calls.items()} == {
        "residual_graph": 1, "certify_strong": 1, "solve_exact": solves}


def test_dichotomy_computes_each_bound_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "mmi.json"
    path.write_text(json.dumps(
        {"weights": [["1/3"] * 3] * 3,
         "B": [[i, j, 2 - i - j] for i in range(3) for j in range(3 - i)]}))
    counted = ("p_value", "l_value", "l_value_relaxed", "solve_lp")
    calls = {name: _count_calls(monkeypatch, name) for name in counted}
    assert main(["--json", "dichotomy", str(path)]) == 0
    assert {name: len(c) for name, c in calls.items()} == {
        "p_value": 1, "l_value": 1, "l_value_relaxed": 1, "solve_lp": 2}
    # Columns: |B| = 6 tuples plus 9 marginal points, never the 27 cells.
    assert all(len(costs) <= 6 + 9 for costs, *_ in calls["solve_lp"])


# Arbitrary JSON, and instance-shaped documents that are mostly well formed,
# with one field or one cost entry sometimes replaced by arbitrary JSON.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
_entry = st.sampled_from([2, 0, 3, 1, "1/2", "5/3", "inf"])
_size = st.sampled_from([2, 3, 1])


def _weights(size):
    return st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(
        any).map(lambda raw: [str(Fraction(r, sum(raw))) for r in raw])


@st.composite
def _document(draw):
    rows, cols = draw(_size), draw(_size)
    mu, nu = draw(_weights(rows)), draw(_weights(cols))
    doc = {"mu": mu, "nu": nu, "cost": [
        [draw(_entry) for _ in range(cols)] for _ in range(rows)]}
    plans = [[[str(Fraction(a) * Fraction(b)) for b in nu] for a in mu]]
    if rows == cols:
        plans.append([[a if i == j else 0 for j in range(cols)]
                      for i, a in enumerate(mu)])
    plan = draw(st.sampled_from(plans) | st.lists(
        st.lists(_entry, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    if draw(st.booleans()):
        doc["plan"] = plan
    corrupt = draw(st.sampled_from([None] * 8 + ["entry", *doc]))
    if corrupt == "entry":
        doc["cost"][draw(st.integers(0, rows - 1))][0] = draw(_json)
    elif corrupt is not None:
        doc[corrupt] = draw(_json)
    return doc


@st.composite
def _mmi_document(draw):
    """A dichotomy instance: exact weights, sometimes nudged off a sum of 1
    by 1e-10 or written as floats, and a B sometimes malformed."""
    sizes = draw(st.lists(_size, min_size=2, max_size=3))
    weights = [draw(_weights(size)) for size in sizes]
    nudge = draw(st.sampled_from([None, None, "near", "float"]))
    if nudge == "near":
        step = Fraction(draw(st.sampled_from([1, -1])), 10**10)
        weights[-1][-1] = str(Fraction(weights[-1][-1]) + step)
    elif nudge == "float":
        weights = [[float(Fraction(w)) for w in space] for space in weights]
    cells = list(product(*map(range, sizes)))
    b_set = [list(cell) for cell in
             draw(st.lists(st.sampled_from(cells), max_size=6))]
    corrupt = draw(st.sampled_from([None] * 4 + ["index", "arity", "B"]))
    if corrupt == "index" and b_set:
        b_set[0][draw(st.integers(0, len(sizes) - 1))] = draw(
            st.sampled_from([-1, 3, 0.5, True]) | _json)
    elif corrupt == "arity" and b_set:
        b_set[0].append(0)
    doc = {"weights": weights, "B": b_set}
    if corrupt == "B":
        doc["B"] = draw(_json)
    return doc


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(
        [["solve"], ["check"], ["improve"], ["adversary", "--trials", "2"],
         ["dichotomy"]]),
    flags=st.sampled_from([[], ["--float"], ["--json"]]),
    data=st.data(),
)
def test_any_json_exits_zero_one_or_two(command, flags, data):
    if command == ["dichotomy"]:
        instance = data.draw(st.one_of(_mmi_document(), _mmi_document(), _json))
        plan = None
    else:
        instance = data.draw(
            st.one_of(_document(), _document(), _document(), _json))
        plan = data.draw(st.one_of(
            st.none(), st.none(), _json,
            _document().map(lambda doc: doc.get("plan"))))
    with tempfile.TemporaryDirectory() as work:
        instance_path = Path(work) / "instance.json"
        instance_path.write_text(json.dumps(instance))
        argv = flags + command + [str(instance_path)]
        if plan is not None and command != ["solve"]:
            plan_path = Path(work) / "plan.json"
            plan_path.write_text(json.dumps({"plan": plan}))
            argv += ["--plan", str(plan_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

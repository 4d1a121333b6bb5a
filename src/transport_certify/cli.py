"""Command-line front end.

Subcommands map one-to-one onto the certification questions: ``solve`` for
the exact optimum, ``check`` for the four plan predicates and their
implication diagram, ``improve`` for iterated cycle rerouting, ``gen`` for
the bundled instance families, and ``dichotomy`` for the multi-marginal
coupling/cover bounds.

Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .core import (
    InstanceError,
    Policy,
    RATIONAL,
    float_policy,
    format_scalar,
    instance_to_dict,
    load_instance,
    plan_from_dict,
    validate_plan,
)
from .generators import GENERATORS, generate
from .monotonicity import improve_to_monotone
from .multimarginal import check_dichotomy, load_mmi
from .potentials import CertifyResult, certify_strong
from .robustness import adversarial_search, check_robust_defense
from .solver import is_optimal, solve_exact


@dataclass
class Verdict:
    claim: str
    passed: bool
    witness: object = None


@dataclass
class Report:
    command: str
    verdicts: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    quiet: bool = False

    def add(self, claim, passed, witness=None):
        self.verdicts.append(Verdict(claim=claim, passed=bool(passed),
                                     witness=witness))

    @property
    def all_passed(self):
        return all(v.passed for v in self.verdicts)

    def to_dict(self):
        return {
            "command": self.command,
            "verdicts": [
                {"claim": v.claim, "passed": v.passed, "witness": v.witness}
                for v in self.verdicts
            ],
            "timings": self.timings,
            "notes": self.notes,
        }

    def render(self):
        lines = [f"== {self.command} =="]
        for key, value in self.notes.items():
            lines.append(f"   {key}: {value}")
        bulky = ("phi", "psi", "decomposition", "plan", "anchor")
        for v in self.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            line = f"[{mark}] {v.claim}"
            witness = v.witness
            if v.passed and isinstance(witness, dict):
                witness = {k: w for k, w in witness.items() if k not in bulky}
                witness = witness or None
            if witness is not None and not v.passed:
                line += f"  witness: {witness}"
            elif witness is not None:
                line += f"  ({witness})"
            lines.append(line)
        for stage, seconds in self.timings.items():
            lines.append(f"   {stage}: {seconds:.3f}s")
        return "\n".join(lines)


class _Timer:
    def __init__(self, report, stage):
        self.report = report
        self.stage = stage

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.report.timings[self.stage] = time.perf_counter() - self.start
        return False


def _fmt(value):
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    return format_scalar(value) if not isinstance(value, (str, bool)) else value


def _cycle_witness(cycle):
    return {"pairs": [list(p) for p in cycle.pairs], "gap": _fmt(cycle.gap)}


def _policy_from_args(args) -> Policy:
    """The arithmetic policy, once the numeric options are in range:
    --z-size and --max-iters at least 0, --trials at least 1, --tolerance
    and --lambda finite and at least 0."""
    for name, least in (("z_size", 0), ("max_iters", 0), ("trials", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise InstanceError(f"{flag} must be >= {least}, got {value}")
    tolerance = getattr(args, "tolerance", 1e-9)
    for flag, value in (("--tolerance", tolerance),
                        ("--lambda", getattr(args, "lam", 0.0))):
        if not (math.isfinite(value) and value >= 0):
            raise InstanceError(f"{flag} must be a finite number >= 0, got {value}")
    if getattr(args, "float_mode", False):
        return float_policy(tolerance)
    return RATIONAL


def _load_plan(args, instance, embedded, policy):
    """(plan, source, optimum): the --plan file, else the embedded plan, else
    the solver's plan with its ``solve_exact`` result as optimum."""
    if getattr(args, "plan", None):
        with open(args.plan) as handle:
            plan = plan_from_dict(json.load(handle), policy)
    elif embedded is not None:
        plan = embedded
    else:
        optimum = solve_exact(instance, policy)
        if not optimum.feasible:
            raise InstanceError("no finite plan exists and none was provided")
        return optimum.plan, "solver", optimum
    return validate_plan(instance, plan, policy), "input", None


def cmd_solve(args) -> Report:
    policy = _policy_from_args(args)
    report = Report(command="solve")
    instance, _ = load_instance(args.instance, policy)
    with _Timer(report, "solve"):
        result = solve_exact(instance, policy)
    if result.feasible:
        report.notes["value"] = _fmt(result.value)
        report.notes["plan"] = _fmt([list(r) for r in result.plan.mass])
        report.add("finite-cost plan exists", True, _fmt(result.value))
    else:
        report.notes["value"] = "inf"
        report.add("finite-cost plan exists", False, "no finite plan")
    return report


def cmd_check(args) -> Report:
    policy = _policy_from_args(args)
    report = Report(command="check")
    instance, embedded = load_instance(args.instance, policy)
    plan, source, optimum = _load_plan(args, instance, embedded, policy)
    report.notes["plan_source"] = source
    report.notes["support_threshold"] = _fmt(policy.support_threshold)
    # The defense of (3) is built from the certificate of (4), so the
    # diagram's robust == strong clause holds by construction.
    report.notes["derived"] = {"(3)": "(4)"}
    report.notes["by_construction"] = ["robust == strong"]
    z_size = args.z_size
    lam = tuple([args.lam] * z_size)

    with _Timer(report, "optimal"):
        try:
            if optimum is None:
                optimum = solve_exact(instance, policy)
            optimal, gap = is_optimal(instance, plan, optimum, policy)
            report.add("(1) optimal", optimal, {"gap": _fmt(gap)})
        except InstanceError as exc:
            optimal = False
            report.add("(1) optimal", False, str(exc))
    with _Timer(report, "strong"):
        try:
            cert = certify_strong(instance, plan, policy)
            monotone = cert.cycle is None
            witness = None if monotone else _cycle_witness(cert.cycle)
        except InstanceError as exc:  # mass on an infinite-cost pair
            cert = CertifyResult(ok=False, pair=None, reason=str(exc))
            monotone, witness = False, cert.reason
    report.add("(2) cyclically monotone", monotone, witness)
    with _Timer(report, "robust"):
        try:
            defense = check_robust_defense(instance, plan, cert, z_size, lam,
                                           policy)
            robust = defense.ok
            witness = {"extended_gap": _fmt(defense.gap),
                       "z_size": z_size, "lambda": _fmt(list(lam)),
                       "classes": cert.class_count}
        except InstanceError as exc:
            robust = False
            witness = str(exc)
        report.add("(3) robustly optimal (defense mode)", robust, witness)
    if cert.ok:
        witness = {
            "classes": cert.class_count,
            "phi": _fmt(list(cert.pair.phi)),
            "psi": _fmt(list(cert.pair.psi)),
            "anchor": list(cert.pair.anchor),
        }
        if cert.class_count > 1:
            witness["decomposition"] = [
                {"C": list(cls.sources), "D": list(cls.targets),
                 "pairs": [list(p) for p in cls.pairs]}
                for cls in cert.classes
            ]
    else:
        witness = cert.reason
    report.add("(4) strongly cyclically monotone", cert.ok, witness)
    diagram_ok = (
        (robust == cert.ok)
        and (not robust or optimal)
        and (optimal == monotone)
    )
    report.add("implication diagram consistent", diagram_ok,
               {"optimal": optimal, "monotone": monotone,
                "robust": robust, "strong": cert.ok})
    return report


def cmd_improve(args) -> Report:
    policy = _policy_from_args(args)
    report = Report(command="improve")
    instance, embedded = load_instance(args.instance, policy)
    plan, source, _ = _load_plan(args, instance, embedded, policy)
    report.notes["plan_source"] = source
    with _Timer(report, "improve"):
        try:
            _, trajectory, converged = improve_to_monotone(
                instance, plan, args.max_iters, policy)
        except InstanceError as exc:  # e.g. mass on an infinite-cost pair
            report.add("reached a cyclically monotone plan", False, str(exc))
            return report
    report.notes["trajectory"] = _fmt(trajectory)
    report.notes["iterations"] = len(trajectory) - 1
    report.add("reached a cyclically monotone plan", converged,
               None if converged else "iteration budget exhausted")
    return report


def cmd_gen(args) -> Report:
    report = Report(command="gen")
    instance = generate(args.example, args.n, a=args.a, b=args.b,
                        seed=args.seed, inf_density=args.inf_density)
    payload = json.dumps(instance_to_dict(instance), indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        report.notes["written"] = args.out
    else:
        print(payload)
        report.quiet = True
    report.add(f"generated {args.example} instance", True,
               f"{instance.x_size}x{instance.y_size}")
    return report


def cmd_dichotomy(args) -> Report:
    policy = _policy_from_args(args)
    report = Report(command="dichotomy")
    mmi = load_mmi(args.instance, policy)
    with _Timer(report, "dichotomy"):
        outcome = check_dichotomy(mmi)
    p, l_exact = outcome.p, outcome.l_exact
    report.notes["p"] = _fmt(p)
    report.notes["l"] = _fmt(l_exact)
    report.notes["l_relaxed"] = _fmt(outcome.l_relaxed)
    n = mmi.n_spaces
    report.add(f"p >= l / {n}", outcome.bound_ok,
               {"p": _fmt(p), "l": _fmt(l_exact)})
    report.add("p <= l", outcome.sandwich_ok)
    if n == 2:
        report.add("p = l (two marginals)", bool(outcome.n2_equality))
    report.add(
        "classification",
        True,
        "L-shaped null" if outcome.l_shaped_null
        else f"charged by a coupling with mass {_fmt(outcome.p)}",
    )
    return report


def _run_single(args) -> Report:
    handler = {
        "solve": cmd_solve,
        "check": cmd_check,
        "improve": cmd_improve,
        "gen": cmd_gen,
        "dichotomy": cmd_dichotomy,
        "adversary": cmd_adversary,
    }[args.command]
    return handler(args)


def _batch_worker(payload):
    args, path = payload
    args = argparse.Namespace(**vars(args))
    args.instance = path
    args.batch = None
    try:
        report = _run_single(args)
        return path, report, 0 if report.all_passed else 1
    except (InstanceError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        detail = str(exc)
    except Exception as exc:  # one bad file must not sink the whole batch
        traceback.print_exc()
        detail = f"{type(exc).__name__}: {exc}"
    failure = Report(command=args.command)
    failure.add("input parsed", False, detail)
    return path, failure, 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transport-certify",
        description="Certify optimality, monotonicity, and robustness of "
                    "finite transport plans.",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit reports as JSON")
    parser.add_argument("--rational", dest="float_mode", action="store_false",
                        help="exact rational arithmetic (the default)")
    parser.add_argument("--float", dest="float_mode", action="store_true",
                        help="use float arithmetic instead of exact rationals")
    parser.set_defaults(float_mode=False)
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="absolute comparison tolerance in float mode")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="exact minimum-cost plan")
    p_solve.add_argument("instance")
    p_solve.add_argument("--batch", help="directory of instance files")

    p_check = sub.add_parser("check", help="run all four plan predicates")
    p_check.add_argument("instance")
    p_check.add_argument("--plan", help="plan JSON file (default: embedded or solver)")
    p_check.add_argument("--z-size", type=int, default=1,
                         help="storage points for the defense check")
    p_check.add_argument("--lambda", dest="lam", type=float, default=1.0,
                         help="weight per storage point")
    p_check.add_argument("--batch", help="directory of instance files")

    p_improve = sub.add_parser("improve", help="iterated cycle rerouting")
    p_improve.add_argument("instance")
    p_improve.add_argument("--plan")
    p_improve.add_argument("--max-iters", type=int, default=None)

    p_gen = sub.add_parser("gen", help="generate a bundled instance family")
    p_gen.add_argument("example", choices=sorted(GENERATORS))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--a", type=int, default=1)
    p_gen.add_argument("--b", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--inf-density", type=float, default=0.0)
    p_gen.add_argument("--out", help="write the instance JSON here")

    p_dich = sub.add_parser(
        "dichotomy", help="multi-marginal coupling/cover bounds"
    )
    p_dich.add_argument("instance")

    p_adv = sub.add_parser("adversary", help="sampled toll attack on a plan")
    p_adv.add_argument("instance")
    p_adv.add_argument("--plan")
    p_adv.add_argument("--z-size", type=int, default=1)
    p_adv.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_adv.add_argument("--trials", type=int, default=100)
    p_adv.add_argument("--seed", type=int, default=0)
    return parser


def cmd_adversary(args) -> Report:
    policy = _policy_from_args(args)
    report = Report(command="adversary")
    instance, embedded = load_instance(args.instance, policy)
    plan, source, _ = _load_plan(args, instance, embedded, policy)
    report.notes["plan_source"] = source
    report.notes["seed"] = args.seed
    lam = tuple([args.lam] * args.z_size)
    with _Timer(report, "search"):
        outcome = adversarial_search(
            instance, plan, args.z_size, lam, args.trials, args.seed, policy
        )
    report.notes["floored"] = outcome.floored
    report.notes["trials"] = outcome.trials
    improvement = outcome.max_improvement
    found = improvement is not None and improvement > policy.tolerance
    report.add("no sampled toll beats the defended plan", not found,
               {"max_improvement": _fmt(improvement),
                "trial": outcome.improving_trial})
    return report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    batch_dir = getattr(args, "batch", None)
    try:
        if batch_dir:
            paths = sorted(str(p) for p in Path(batch_dir).glob("*.json"))
            if not paths:
                raise InstanceError(f"no instance files in {batch_dir}")
            with ProcessPoolExecutor() as pool:
                results = list(
                    pool.map(_batch_worker, [(args, p) for p in paths])
                )
            code = 0
            for path, report, status in results:
                report.notes["file"] = path
                if args.json:
                    print(json.dumps(report.to_dict()))
                else:
                    print(report.render())
                code = max(code, status)
            return code
        report = _run_single(args)
    except (InstanceError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not report.quiet:
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: instance families, command mixes and the
reference values their outputs are checked against.

A workload's ``build`` generates its instances from the benchmark seed with
the package's own generators, writes them as instance files, computes the
reference values, and returns the command mix of one pass.  The program
under test only ever sees the written files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable

import checks


class SetupError(RuntimeError):
    """Set-up could not produce a valid workload."""


@dataclass(frozen=True)
class Command:
    """One CLI call: arguments after ``--json`` and its output check."""

    label: str
    argv: tuple
    check: Callable


@dataclass(frozen=True)
class Workload:
    """A command mix run in passes.

    ``tail_pct`` is the latency percentile reported as the tail.  It is fixed
    per workload so that runs stay comparable; ``min_passes`` passes of the
    mix leave at least ten samples above it.
    """

    name: str
    tail_pct: int
    min_passes: int
    build: Callable


def derive(seed, *tags) -> int:
    """Deterministic generator seed for one instance of a family."""
    return random.Random(":".join(map(str, ("perfbench", seed) + tags))).randrange(2**31)


def _write(workdir: Path, stem: str, data: dict) -> str:
    path = workdir / f"{stem}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _optimum(pkg, inst, dense: checks.Dense) -> Fraction | None:
    """Optimal value from the solver, accepted only after the returned plan
    is re-checked here to be a plan with exactly that cost."""
    result = pkg.solver.solve_exact(inst)
    if not result.feasible:
        return None
    value = checks.plan_cost(dense, result.plan.mass)
    if value is None or value != result.value:
        raise SetupError("solver plan does not reproduce the solver's value")
    return value


def _instance(pkg, make, stem, plan_of=None, need=lambda dense, opt: True):
    """First instance of a seeded family that is feasible and passes ``need``.

    ``make(k)`` builds the k-th candidate; returns (data, dense, optimum).
    """
    for k in range(32):
        inst = make(k)
        plan = plan_of(inst) if plan_of else None
        data = pkg.core.instance_to_dict(inst, plan)
        dense = checks.dense_from_dict(data)
        optimum = _optimum(pkg, inst, dense)
        if optimum is not None and need(dense, optimum):
            return data, dense, optimum
    raise SetupError(f"no usable {stem} instance in 32 candidates")


def _product_plan(pkg, inst):
    return pkg.core.make_plan([[a * b for b in inst.nu] for a in inst.mu])


def build_certify_optimal(pkg, seed, workdir, tiny=False):
    g = pkg.generators
    n, blocks, grid, shift, ap = (
        (6, (3, 3), 5, 4, 8) if tiny else (40, (8,) * 6, 40, 30, 120)
    )
    families = {
        "random": lambda k: g.gen_random(n, derive(seed, "random", k)),
        "random-2": lambda k: g.gen_random(n, derive(seed, "random-2", k)),
        "random-inf": lambda k: g.gen_random(
            n, derive(seed, "random-inf", k), 0.5),
        "blocks": lambda k: g.gen_blocks(blocks, derive(seed, "blocks", k)),
        "zero-one": lambda k: g.gen_zero_one(grid),
        "shift": lambda k: g.gen_shift(shift),
        "ap": lambda k: g.gen_ap(ap, 1, 2),
    }
    commands = []
    for stem, make in families.items():
        data, dense, optimum = _instance(pkg, make, stem)
        path = _write(workdir, stem, data)
        commands.append(Command(
            f"check {stem}", ("check", path),
            partial(checks.certified, inst=dense, optimum=optimum),
        ))
    return commands


def build_repair_dense(pkg, seed, workdir, tiny=False):
    g = pkg.generators
    sizes, ap = ((3, 4, 5), 5) if tiny else ((5, 6, 7), 60)
    commands = []
    cases = [
        (f"product{n}", lambda k, n=n: g.gen_random(n, derive(seed, "product", n, k)),
         partial(_product_plan, pkg), pos < 2)
        for pos, n in enumerate(sizes)
    ]
    cases.append((f"ap{ap}-shift", lambda k: g.gen_ap(ap, 1, 2),
                  lambda inst: g.ap_shift_plan(ap), True))
    for stem, make, plan_of, with_improve in cases:
        data, dense, optimum = _instance(
            pkg, make, stem, plan_of,
            need=lambda d, opt: checks.plan_cost(d, d.plan) > opt,
        )
        path = _write(workdir, stem, data)
        plan_value = checks.plan_cost(dense, dense.plan)
        commands.append(Command(
            f"check {stem}", ("check", path),
            partial(checks.violating_cycle, inst=dense,
                    plan_value=plan_value, optimum=optimum),
        ))
        if with_improve:
            commands.append(Command(
                f"improve {stem}", ("improve", path),
                partial(checks.improved, plan_value=plan_value, optimum=optimum),
            ))
    return commands


def build_toll_attack(pkg, seed, workdir, tiny=False):
    g = pkg.generators
    n, blocks, ap, trials = (6, (3, 3), 5, 3) if tiny else (40, (8,) * 5, 40, 20)
    attack = ("--trials", str(trials), "--seed", "7")
    one = {"z=1": ()}
    both = {"z=1": (), "z=2": ("--z-size", "2", "--lambda", "0.5")}
    cases = [
        ("random-a", lambda k: g.gen_random(n, derive(seed, "toll-a", k), 0.3),
         None, both),
        ("random-b", lambda k: g.gen_random(n, derive(seed, "toll-b", k), 0.3),
         None, both),
        ("blocks-a", lambda k: g.gen_blocks(blocks, derive(seed, "toll-blocks-a", k)),
         None, one),
        ("blocks-b", lambda k: g.gen_blocks(blocks, derive(seed, "toll-blocks-b", k)),
         None, one),
        (f"ap{ap}-shift", lambda k: g.gen_ap(ap, 1, 2),
         lambda inst: g.ap_shift_plan(ap), one),
    ]
    commands = []
    for stem, make, plan_of, storages in cases:
        data, _, _ = _instance(pkg, make, stem, plan_of)
        path = _write(workdir, stem, data)
        for storage, extra in storages.items():
            commands.append(Command(
                f"adversary {stem} {storage}", ("adversary", path) + attack + extra,
                partial(checks.toll_attack, floored=plan_of is None, trials=trials),
            ))
    return commands


def plane_set(m: int) -> dict:
    """B_m = {(i, j, k) : i + j + k = m - 1} in [m]^3, uniform weights."""
    return {
        "weights": [[f"1/{m}"] * m for _ in range(3)],
        "B": [[i, j, k] for i, j, k in product(range(m), repeat=3)
              if i + j + k == m - 1],
    }


def sparse_set(sizes, seed: int, density: float = 0.15) -> dict:
    """Seeded B holding ``density`` of the product's cells; random weights."""
    rng = random.Random(seed)
    cells = list(product(*(range(s) for s in sizes)))
    b_set = sorted(map(list, rng.sample(cells, max(2, round(density * len(cells))))))
    weights = []
    for size in sizes:
        raw = [rng.randint(1, 4) for _ in range(size)]
        weights.append([str(Fraction(r, sum(raw))) for r in raw])
    return {"weights": weights, "B": b_set}


# Published values of p and l for the plane sets (l = 1 for every m).
PLANE_P = {4: Fraction(3, 4), 5: Fraction(18, 25)}


def build_dichotomy(pkg, seed, workdir, tiny=False):
    planes, shapes = ((3,), {(2, 2, 2, 2): 1, (2, 2, 3): 1, (2, 2, 2): 3}) if tiny else (
        (4, 5), {(3, 3, 3, 3): 1, (4, 4, 5): 1, (3, 3, 4): 3})
    commands = []
    for m in planes:
        path = _write(workdir, f"plane{m}", plane_set(m))
        commands.append(Command(
            f"dichotomy plane{m}", ("dichotomy", path),
            partial(checks.dichotomy, n_spaces=3, p_ref=PLANE_P.get(m),
                    l_ref=Fraction(1) if m in PLANE_P else None),
        ))
    for sizes, copies in shapes.items():
        for copy in range(copies):
            stem = "sparse" + "x".join(map(str, sizes)) + f"-{copy}"
            data = sparse_set(sizes, derive(seed, stem))
            path = _write(workdir, stem, data)
            commands.append(Command(
                f"dichotomy {stem}", ("dichotomy", path),
                partial(checks.dichotomy, n_spaces=len(sizes)),
            ))
    return commands


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-optimal", tail_pct=79, min_passes=7,
                 build=build_certify_optimal),
        Workload("repair-dense", tail_pct=64, min_passes=4,
                 build=build_repair_dense),
        Workload("toll-attack", tail_pct=65, min_passes=4,
                 build=build_toll_attack),
        Workload("dichotomy", tail_pct=60, min_passes=4,
                 build=build_dichotomy),
    )
}

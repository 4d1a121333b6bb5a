"""Exact solver: agreement with enumeration, feasibility, monotone value."""

import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transport_certify import (
    INFINITY,
    InstanceError,
    Instance,
    brute_force_optimal,
    float_policy,
    instance_from_dict,
    instance_to_dict,
    is_optimal,
    solve_exact,
    total_cost,
    validate_instance,
    make_instance,
)
from transport_certify.solver import _min_cost_flow, solve_transport
from transport_certify.generators import (
    ap_shift_plan,
    gen_ap,
    gen_blocks,
    gen_random,
    gen_zero_one,
)
from conftest import permutation_plan, random_feasible_plan, uniform_instance


class TestSolveExact:
    def test_zero_diagonal(self, square_instance):
        result = solve_exact(square_instance)
        assert result.feasible
        assert result.value == 0
        assert result.plan.mass == permutation_plan(2, (0, 1)).mass

    def test_cyclic_two_track_prefers_cheap_track(self):
        inst = gen_ap(3, 1, 2)
        result = solve_exact(inst)
        assert result.value == 1
        assert result.plan.mass[0][0] == Fraction(1, 3)

    def test_infeasible_single_cell(self):
        inst = Instance(mu=(Fraction(1),), nu=(Fraction(1),),
                        cost=((INFINITY,),))
        result = solve_exact(inst)
        assert not result.feasible
        assert result.value is INFINITY
        assert result.plan is None

    def test_value_matches_plan_cost(self):
        for seed in range(20):
            inst = gen_random(4, seed)
            result = solve_exact(inst)
            assert total_cost(inst, result.plan) == result.value

    def test_result_plan_has_instance_marginals(self):
        from transport_certify import marginals

        inst = gen_random(5, 7)
        result = solve_exact(inst)
        rows, cols = marginals(result.plan)
        assert rows == inst.mu
        assert cols == inst.nu


    def test_only_tight_path_runs_through_a_reverse_arc(self):
        # The Dijkstra path takes x0 -> y0; x1 reaches only y0, so the one
        # tight path left is source -> x1 -> y0 -> x0 (back along the flow
        # on x0 -> y0) -> y1 -> sink.
        arcs = [(0, 0, 0), (0, 1, 0), (1, 0, 0)]
        flows, objective = _min_cost_flow(2, 2, arcs, [1, 1], [1, 1], 0)
        assert flows == {(0, 1): 1, (1, 0): 1}
        assert objective == 0
        result = solve_exact(uniform_instance([[0, 0], [0, "inf"]]))
        half = Fraction(1, 2)
        assert result.plan.mass == ((0, half), (half, 0))
        assert result.value == 0

    def test_result_follows_the_number_domain_of_the_input(self):
        cost = ((0, 3), (2, 0))
        mass, value = solve_transport((1, 2), (2, 1), cost)
        assert mass == ((1, 0), (1, 1)) and value == 2
        assert type(value) is int
        assert all(type(m) is int for row in mass for m in row)
        third = Fraction(1, 3)
        mass, value = solve_transport((third, 2 * third), (2 * third, third),
                                      cost)
        assert mass == ((third, 0), (third, third)) and value == 2 * third
        assert type(value) is Fraction
        assert all(type(m) is Fraction for row in mass for m in row)


class TestBruteForce:
    def test_all_ones_cube(self):
        inst = uniform_instance([[1, 1, 1]] * 3)
        assert brute_force_optimal(inst) == 1

    def test_zero_diagonal(self, square_instance):
        assert brute_force_optimal(square_instance) == 0

    def test_agrees_with_solver_on_random_uniform(self):
        for seed in range(40):
            inst = gen_random(4, 1000 + seed)
            assert brute_force_optimal(inst) == solve_exact(inst).value

    def test_general_marginals_vertex_enumeration(self):
        mu = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        nu = [Fraction(1, 4)] * 4
        cost = [
            [Fraction((i * j) % 5 + (i + j) % 3, 2) for j in range(4)]
            for i in range(3)
        ]
        inst = validate_instance(make_instance(mu, nu, cost))
        assert brute_force_optimal(inst) == solve_exact(inst).value

    def test_too_large_rejected(self):
        inst = gen_random(9, 0)
        with pytest.raises(InstanceError, match="too large"):
            brute_force_optimal(inst)

    def test_infeasible_reports_infinity(self):
        inst = uniform_instance([["inf", "inf"], ["inf", "inf"]])
        assert brute_force_optimal(inst) is INFINITY


class TestIsOptimal:
    def test_diagonal_is_optimal(self, square_instance):
        ok, gap = is_optimal(square_instance, permutation_plan(2, (0, 1)),
                             solve_exact(square_instance))
        assert ok and gap == 0

    def test_antidiagonal_gap_one(self, square_instance):
        ok, gap = is_optimal(square_instance, permutation_plan(2, (1, 0)),
                             solve_exact(square_instance))
        assert not ok
        assert gap == 1

    def test_cheap_shift_track_selected(self):
        inst = gen_ap(3, 2, 1)
        ok, gap = is_optimal(inst, ap_shift_plan(3), solve_exact(inst))
        assert ok and gap == 0

    def test_infinite_plan_rejected(self):
        inst = uniform_instance([[0, 1], [1, "inf"]])
        with pytest.raises(InstanceError, match="infinite"):
            is_optimal(inst, permutation_plan(2, (0, 1)), solve_exact(inst))


class TestSolverInvariants:
    def test_optimum_below_100_random_feasible_plans(self, rng):
        inst = gen_random(5, 99)
        optimum = solve_exact(inst).value
        for _ in range(100):
            plan = random_feasible_plan(inst, rng)
            assert optimum <= total_cost(inst, plan)

    def test_raising_an_entry_never_lowers_value(self):
        base = gen_random(4, 5)
        value = solve_exact(base).value
        rng = random.Random(5)
        for _ in range(15):
            i = rng.randrange(4)
            j = rng.randrange(4)
            if base.cost[i][j] is INFINITY:
                continue
            bumped = [list(row) for row in base.cost]
            bumped[i][j] += Fraction(rng.randint(1, 8), 3)
            inst = Instance(mu=base.mu, nu=base.nu,
                            cost=tuple(tuple(r) for r in bumped))
            assert solve_exact(inst).value >= value

    def test_feasibility_tracks_max_flow_structure(self):
        # Mass 1/2 must reach column 1 but only row 0 can serve it, and
        # row 0 also exclusively serves column 0.
        inst = uniform_instance([[0, 1], ["inf", "inf"]])
        assert not solve_exact(inst).feasible
        inst2 = uniform_instance([[0, 1], [1, "inf"]])
        assert solve_exact(inst2).feasible

    def test_float_mode_agrees_with_rational(self):
        policy = float_policy()
        cases = [(4, 0.25)] * 10 + [(n, 0.5) for n in range(2, 13)] * 2
        for seed, (n, inf_density) in enumerate(cases):
            inst = gen_random(n, 3000 + seed, inf_density=inf_density)
            as_float = instance_from_dict(instance_to_dict(inst), policy)
            exact = solve_exact(inst)
            approx = solve_exact(as_float, policy)
            assert exact.feasible == approx.feasible
            if exact.feasible:
                assert abs(float(exact.value) - approx.value) < 1e-9

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                        reason="needs SIGALRM to bound the run time")
    def test_float_mode_terminates_when_rounding_leaves_no_tight_arc(self):
        # Float rounding can leave a shortest path's reduced costs about
        # 1e-16 above zero, so that no path passes the tightness test right
        # after a Dijkstra; every phase must still make progress.
        def give_up(signum, frame):
            raise TimeoutError

        policy = float_policy()
        cases = [(12, 5032, 0.3), (8, 8003, 0.3), (8, 8002, 0.5),
                 (10, 10012, 0)]
        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(5)
        approx = None
        try:
            approx = [
                solve_exact(instance_from_dict(
                    instance_to_dict(gen_random(n, seed, inf_density=d)),
                    policy), policy).value
                for n, seed, d in cases
            ]
        except TimeoutError:
            pass
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert approx is not None, "float solve did not finish within 5 s"
        exact = [solve_exact(gen_random(n, seed, inf_density=d)).value
                 for n, seed, d in cases]
        assert exact[0] == Fraction(23, 48)
        for a, e in zip(approx, exact):
            assert abs(a - float(e)) < 1e-9


def _oracle_instances():
    """About 300 seeded instances: gen_random over N 2..15 and infinite
    density 0..0.85 (every other one with random marginals), plus ap,
    zero-one and block-diagonal families."""
    rng = random.Random(2024)
    densities = (0, 0.2, 0.4, 0.55, 0.7, 0.85)
    for n in range(2, 16):
        for k, inf_density in enumerate(densities):
            for rep in range(3):
                inst = gen_random(n, 40000 + 100 * n + 10 * k + rep,
                                  inf_density=inf_density)
                if rep == 1:
                    mu = [rng.randint(1, 9) for _ in range(n)]
                    nu = [rng.randint(1, 9) for _ in range(n)]
                    inst = Instance(
                        mu=tuple(Fraction(m, sum(mu)) for m in mu),
                        nu=tuple(Fraction(v, sum(nu)) for v in nu),
                        cost=inst.cost,
                    )
                yield inst
    for n in range(2, 12):
        yield gen_ap(n, 1, 2)
        yield gen_ap(n, 3, Fraction(1, 2))
        yield gen_zero_one(n)
    for seed in range(20):
        yield gen_blocks((1 + seed % 3, 2, 3 + seed % 2), seed)


def _linprog(inst):
    """scipy's HiGHS result for the transport LP over the finite cells,
    None when every cost is infinite; asserts it is optimal or infeasible."""
    from scipy.optimize import linprog

    n_src, n_dst = inst.x_size, inst.y_size
    cells = [(i, j) for i in range(n_src) for j in range(n_dst)
             if inst.cost[i][j] is not INFINITY]
    if not cells:
        return None
    rows = [[1.0 if i == r else 0.0 for i, _ in cells] for r in range(n_src)]
    rows += [[1.0 if j == c else 0.0 for _, j in cells] for c in range(n_dst)]
    reference = linprog(
        [float(inst.cost[i][j]) for i, j in cells],
        A_eq=rows,
        b_eq=[float(w) for w in inst.mu + inst.nu],
        bounds=[(0, None)] * len(cells),
        method="highs",
    )
    assert reference.status in (0, 2)
    return reference


def test_solver_matches_linprog_oracle():
    pytest.importorskip("scipy")

    policy = float_policy()
    counts = {True: 0, False: 0}
    for inst in _oracle_instances():
        reference = _linprog(inst)
        feasible = reference is not None and reference.status == 0
        result = solve_exact(inst)
        assert result.feasible == feasible
        approx = solve_exact(instance_from_dict(instance_to_dict(inst), policy),
                             policy)
        assert approx.feasible == feasible
        counts[feasible] += 1
        if feasible:
            assert abs(float(result.value) - reference.fun) < 1e-7
            assert total_cost(inst, result.plan) == result.value
            assert abs(approx.value - float(result.value)) < 1e-9
    assert counts[True] >= 150 and counts[False] >= 60


@st.composite
def _large_instances(draw):
    """Up to 30x30, random marginals with zeros, rational costs with
    denominators up to 6, and up to 85% infinite entries."""
    n_src, n_dst = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    inf_density = draw(st.sampled_from([0, 0.3, 0.6, 0.85]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mu = [rng.randint(0, 9) for _ in range(n_src)]
    nu = [rng.randint(0, 9) for _ in range(n_dst)]
    mu[0] += 1
    nu[0] += 1
    cost = [[INFINITY if rng.random() < inf_density
             else Fraction(rng.randint(0, 60), rng.randint(1, 6))
             for _ in range(n_dst)] for _ in range(n_src)]
    return Instance(mu=tuple(Fraction(w, sum(mu)) for w in mu),
                    nu=tuple(Fraction(w, sum(nu)) for w in nu),
                    cost=tuple(map(tuple, cost)))


@settings(max_examples=40, deadline=None)
@given(_large_instances())
def test_solver_matches_linprog_up_to_30x30(inst):
    pytest.importorskip("scipy")
    reference = _linprog(inst)
    feasible = reference is not None and reference.status == 0
    result = solve_exact(inst)
    assert result.feasible == feasible
    if feasible:
        assert abs(float(result.value) - reference.fun) < 1e-7
        assert total_cost(inst, result.plan) == result.value

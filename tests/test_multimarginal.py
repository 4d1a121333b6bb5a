"""Coupling/cover bounds: exact values, duality, and the dichotomy."""

import random
from fractions import Fraction
from itertools import product

import pytest

from transport_certify import (
    InstanceError,
    check_dichotomy,
    l_value,
    l_value_relaxed,
    make_mmi,
    p_value,
)
from transport_certify.multimarginal import mmi_from_dict, mmi_to_dict, rounded_cover

from conftest import exhaustive_l_value, product_p_value

HALF = Fraction(1, 2)


def uniform_mmi(n_spaces, size, b_set):
    weights = [[Fraction(1, size)] * size] * n_spaces
    return make_mmi(weights, b_set)


class TestPValue:
    def test_single_corner(self):
        mmi = uniform_mmi(2, 2, [(0, 0)])
        assert p_value(mmi) == HALF

    def test_diagonal_fully_charged(self):
        mmi = uniform_mmi(2, 2, [(0, 0), (1, 1)])
        assert p_value(mmi) == 1

    def test_empty_set(self):
        mmi = uniform_mmi(2, 2, [])
        assert p_value(mmi) == 0

    def test_witness_is_a_coupling_on_b(self):
        mmi = uniform_mmi(2, 3, [(0, 1), (1, 0), (2, 2)])
        value, witness = p_value(mmi, with_witness=True)
        assert value == 1
        mass_on_b = sum(witness.get(tup, 0) for tup in mmi.b_set)
        assert mass_on_b == value
        for space in range(2):
            for point in range(3):
                got = sum(m for tup, m in witness.items() if tup[space] == point)
                assert got == Fraction(1, 3)

    def test_agrees_with_transport_solver_for_two_marginals(self):
        # Independent route: max pi(B) = 1 - min-cost with cost 1 off B.
        from transport_certify import solve_exact, make_instance, validate_instance

        rng = random.Random(4)
        for _ in range(10):
            size = rng.choice([2, 3])
            b_set = [
                (i, j)
                for i in range(size)
                for j in range(size)
                if rng.random() < 0.4
            ]
            mmi = uniform_mmi(2, size, b_set)
            cost = [
                [Fraction(0) if (i, j) in set(b_set) else Fraction(1) for j in range(size)]
                for i in range(size)
            ]
            inst = validate_instance(
                make_instance(
                    [Fraction(1, size)] * size, [Fraction(1, size)] * size, cost
                )
            )
            assert p_value(mmi) == 1 - solve_exact(inst).value

    def test_size_limit(self):
        weights = [[Fraction(1, 10)] * 10] * 5
        mmi = make_mmi(weights, [])
        with pytest.raises(InstanceError, match="cells"):
            p_value(mmi)


class TestLValue:
    def test_single_corner_cover(self):
        mmi = uniform_mmi(2, 2, [(0, 0)])
        value, cover = l_value(mmi, with_witness=True)
        assert value == HALF
        assert sum(len(side) for side in cover) == 1

    def test_diagonal_needs_unit_weight(self):
        mmi = uniform_mmi(2, 2, [(0, 0), (1, 1)])
        assert l_value(mmi) == 1

    def test_empty_set_empty_cover(self):
        mmi = uniform_mmi(2, 2, [])
        assert l_value(mmi) == 0

    def test_zero_weight_point_is_l_null(self):
        weights = [[Fraction(1), Fraction(0)], [HALF, HALF]]
        mmi = make_mmi(weights, [(1, 0), (1, 1)])
        assert l_value(mmi) == 0

    def test_size_limit(self):
        weights = [[Fraction(1, 11)] * 11] * 2
        mmi = make_mmi(weights, [])
        with pytest.raises(InstanceError, match="exhaustive"):
            l_value(mmi)


class TestDuality:
    def test_relaxed_cover_equals_p(self):
        rng = random.Random(8)
        for trial in range(15):
            n = 2 if trial % 2 == 0 else 3
            size = 2 if n == 3 else rng.choice([2, 3])
            tuples = list(product(*(range(size) for _ in range(n))))
            b_set = [tup for tup in tuples if rng.random() < 0.45]
            mmi = uniform_mmi(n, size, b_set)
            assert l_value_relaxed(mmi) == p_value(mmi)

    def test_rounded_cover_is_valid_and_sandwiched(self):
        rng = random.Random(9)
        for _ in range(10):
            tuples = list(product(range(2), range(2), range(2)))
            b_set = [tup for tup in tuples if rng.random() < 0.5]
            mmi = uniform_mmi(3, 2, b_set)
            _, chi = l_value_relaxed(mmi, with_witness=True)
            cover, weight = rounded_cover(mmi, chi)
            for tup in b_set:
                assert any(tup[k] in set(cover[k]) for k in range(3))
            assert weight >= l_value(mmi)


class TestDichotomy:
    def test_two_marginal_equality(self):
        mmi = uniform_mmi(2, 2, [(0, 0)])
        report = check_dichotomy(mmi)
        assert report.bound_ok and report.sandwich_ok
        assert report.n2_equality
        assert not report.l_shaped_null
        assert report.witness_coupling

    def test_strict_gap_for_three_marginals(self):
        # Exactly-one-positive corner set on three uniform binary spaces:
        # couplings cap at 3/4 while any cylinder cover weighs 1.
        mmi = uniform_mmi(3, 2, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
        report = check_dichotomy(mmi)
        assert report.p == Fraction(3, 4)
        assert report.l_exact == 1
        assert report.bound_ok
        assert report.sandwich_ok
        assert report.n2_equality is None

    def test_null_classification(self):
        weights = [[Fraction(1), Fraction(0)], [HALF, HALF]]
        mmi = make_mmi(weights, [(1, 0)])
        report = check_dichotomy(mmi)
        assert report.l_shaped_null
        assert report.p == 0
        assert report.witness_coupling is None

    def test_monotone_in_b(self):
        rng = random.Random(10)
        tuples = [(i, j) for i in range(3) for j in range(3)]
        for _ in range(10):
            small = [tup for tup in tuples if rng.random() < 0.3]
            extra = [tup for tup in tuples if tup not in small and rng.random() < 0.3]
            mmi_small = uniform_mmi(2, 3, small)
            mmi_big = uniform_mmi(2, 3, small + extra)
            assert p_value(mmi_small) <= p_value(mmi_big)
            assert l_value(mmi_small) <= l_value(mmi_big)


class TestInstanceHandling:
    def test_round_trip(self):
        mmi = uniform_mmi(3, 2, [(0, 0, 1), (1, 1, 0)])
        assert mmi_from_dict(mmi_to_dict(mmi)) == mmi

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InstanceError, match="arity"):
            make_mmi([[HALF, HALF], [HALF, HALF]], [(0, 0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InstanceError, match="out of range"):
            make_mmi([[HALF, HALF], [HALF, HALF]], [(0, 5)])

    def test_bad_weights_rejected(self):
        with pytest.raises(InstanceError, match="sum"):
            make_mmi([[HALF, HALF], [HALF, Fraction(1, 3)]], [])

    def test_weights_must_sum_to_exactly_one(self):
        near = HALF + Fraction(1, 10**10)
        with pytest.raises(InstanceError, match="sum"):
            make_mmi([[HALF, HALF], [HALF, near]], [(0, 0), (1, 1)])


def plane_mmi(m):
    """B_m = {(i, j, k) : i + j + k = m - 1} with uniform weights."""
    return uniform_mmi(3, m, [tup for tup in product(range(m), repeat=3)
                              if sum(tup) == m - 1])


def random_mmi(rng):
    """2-4 spaces of 2-4 points, weights with some zeros, B of random
    density."""
    sizes = [rng.randint(2, 4) for _ in range(rng.randint(2, 4))]
    weights = []
    for size in sizes:
        raw = [rng.randint(0, 4) for _ in range(size)]
        raw[rng.randrange(size)] += 1
        weights.append([Fraction(r, sum(raw)) for r in raw])
    density = rng.choice([0.1, 0.2, 0.35])
    b_set = [tup for tup in product(*map(range, sizes))
             if rng.random() < density]
    return make_mmi(weights, b_set)


def _oracle_cases():
    rng = random.Random(2026)
    yield "plane4", plane_mmi(4)
    yield "plane5", plane_mmi(5)
    for seed in range(100):
        yield f"random-{seed}", random_mmi(rng)


class TestAgainstProductOracles:
    @pytest.mark.parametrize("name", ["plane4", "plane5", "random"])
    def test_bounds_match_product_lp_and_full_enumeration(self, name):
        cases = [mmi for case, mmi in _oracle_cases()
                 if case.split("-")[0] == name]
        for mmi in cases:
            p_ref = product_p_value(mmi)
            l_ref = exhaustive_l_value(mmi)
            report = check_dichotomy(mmi)
            assert (report.p, report.l_exact, report.l_relaxed) == (
                p_ref, l_ref, p_ref)
            assert report.l_shaped_null == (l_ref == 0)

    def test_witness_is_a_coupling_with_mass_p_on_b(self):
        for _, mmi in _oracle_cases():
            p, witness = p_value(mmi, with_witness=True)
            assert all(x > 0 for x in witness.values())
            for space, weights in enumerate(mmi.weights):
                for point, weight in enumerate(weights):
                    assert sum(x for tup, x in witness.items()
                               if tup[space] == point) == weight
            assert sum(witness.get(tup, 0) for tup in mmi.b_set) == p

    def test_cover_witness_covers_b_at_weight_l(self):
        for _, mmi in _oracle_cases():
            value, cover = l_value(mmi, with_witness=True)
            assert all(any(tup[k] in cover[k] for k in range(mmi.n_spaces))
                       for tup in mmi.b_set)
            assert sum(mmi.weights[k][point] for k in range(mmi.n_spaces)
                       for point in cover[k]) == value


class TestDualityCertificate:
    """check_dichotomy refuses a packing and cover that do not certify
    each other, whichever part is off."""

    CORNERS = uniform_mmi(3, 2, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])

    def _tamper(self, monkeypatch, name, change):
        from transport_certify import multimarginal

        original = getattr(multimarginal, name)
        monkeypatch.setattr(multimarginal, name, lambda mmi, with_witness:
                            change(*original(mmi, with_witness=True)))
        with pytest.raises(InstanceError, match="certificate"):
            check_dichotomy(self.CORNERS)

    def test_refuses_cover_value_that_differs(self, monkeypatch):
        # A feasible cover of twice the weight: no longer equal to p.
        self._tamper(monkeypatch, "l_value_relaxed", lambda value, chi: (
            2 * value, tuple(tuple(2 * x for x in side) for side in chi)))

    def test_refuses_infeasible_cover(self, monkeypatch):
        # Same weight and value, but tuple (0, 0, 1) is no longer covered.
        self._tamper(monkeypatch, "l_value_relaxed", lambda value, chi: (
            value, (tuple(reversed(chi[0])),) + chi[1:]))

    def test_refuses_witness_with_wrong_marginals(self, monkeypatch):
        def drop_cell_off_b(value, coupling):
            coupling = dict(coupling)
            del coupling[(1, 1, 1)]
            return value, coupling
        self._tamper(monkeypatch, "p_value", drop_cell_off_b)

    def test_refuses_witness_with_other_mass_on_b(self, monkeypatch):
        # An exchange that keeps every marginal but moves mass off B.
        def exchange(value, coupling):
            coupling = dict(coupling)
            for cell, sign in (((1, 1, 1), -1), ((0, 1, 0), -1),
                               ((0, 1, 1), 1), ((1, 1, 0), 1)):
                coupling[cell] = coupling.get(cell, 0) + sign * Fraction(1, 8)
            return value, coupling
        self._tamper(monkeypatch, "p_value", exchange)

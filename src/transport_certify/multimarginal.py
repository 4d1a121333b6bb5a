"""Multi-marginal coupling bounds on product sets.

For a set B of index tuples over n weighted finite spaces, p_value is the
largest mass any coupling with the given marginals can place on B, and
l_value is the smallest total weight of per-space sets whose coordinate
cylinders cover B.  The two are sandwiched: p <= l <= n * p, with equality
p = l when n = 2.  A set with l = 0 is an L-shaped null set; otherwise some
coupling charges B positively and the p-optimizer is an explicit witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import InstanceError, format_scalar, Policy, RATIONAL
from .simplex import solve_lp

MAX_PRODUCT_CELLS = 10**4
MAX_EXACT_COVER_POINTS = 20


@dataclass(frozen=True)
class MultiMarginalInstance:
    """n weighted finite spaces and a set B of product-index tuples."""

    weights: tuple
    b_set: tuple

    @property
    def n_spaces(self) -> int:
        return len(self.weights)

    @property
    def sizes(self) -> tuple:
        return tuple(len(w) for w in self.weights)

    def product_cells(self) -> int:
        cells = 1
        for size in self.sizes:
            cells *= size
        return cells


def make_mmi(weights, b_set) -> MultiMarginalInstance:
    weights = tuple(tuple(w) for w in weights)
    if len(weights) < 2:
        raise InstanceError("need at least two marginal spaces")
    for space in weights:
        if not space:
            raise InstanceError("empty marginal space")
        for w in space:
            if w < 0:
                raise InstanceError("negative marginal weight")
        total = sum(space)
        if total != 1 and abs(total - 1) > Fraction(1, 10**9):
            raise InstanceError(f"marginal weights sum to {total}, expected 1")
    sizes = tuple(len(w) for w in weights)
    seen = set()
    cleaned = []
    for tup in b_set:
        tup = tuple(tup)
        if len(tup) != len(weights):
            raise InstanceError(f"tuple {tup} has wrong arity")
        for k, idx in enumerate(tup):
            if type(idx) is not int or not 0 <= idx < sizes[k]:
                raise InstanceError(f"tuple index {idx!r} out of range in space {k}")
        if tup not in seen:
            seen.add(tup)
            cleaned.append(tup)
    return MultiMarginalInstance(weights=weights, b_set=tuple(sorted(cleaned)))


def mmi_from_dict(data: dict, policy: Policy = RATIONAL) -> MultiMarginalInstance:
    try:
        weights = [
            [policy.number(v) for v in space] for space in data["weights"]
        ]
        b_set = [tuple(tup) for tup in data["B"]]
    except KeyError as exc:
        raise InstanceError(f"missing field {exc}") from exc
    except TypeError as exc:
        raise InstanceError(f"malformed instance: {exc}") from exc
    return make_mmi(weights, b_set)


def mmi_to_dict(mmi: MultiMarginalInstance) -> dict:
    return {
        "weights": [[format_scalar(v) for v in space] for space in mmi.weights],
        "B": [list(tup) for tup in mmi.b_set],
    }


def load_mmi(path, policy: Policy = RATIONAL) -> MultiMarginalInstance:
    with open(path) as handle:
        return mmi_from_dict(json.load(handle), policy)


def _check_size(mmi: MultiMarginalInstance):
    if mmi.product_cells() > MAX_PRODUCT_CELLS:
        raise InstanceError(
            f"product space has {mmi.product_cells()} cells, "
            f"limit is {MAX_PRODUCT_CELLS}"
        )


def p_value(mmi: MultiMarginalInstance, with_witness: bool = False):
    """Maximum coupling mass on B, as an exact linear program over the
    product cells with one marginal constraint family per space."""
    _check_size(mmi)
    tuples = list(product(*(range(size) for size in mmi.sizes)))
    index = {tup: pos for pos, tup in enumerate(tuples)}
    b_positions = {index[tup] for tup in mmi.b_set}
    costs = [Fraction(-1) if pos in b_positions else Fraction(0)
             for pos in range(len(tuples))]
    rows = []
    rhs = []
    for space, weights in enumerate(mmi.weights):
        for point, weight in enumerate(weights):
            rows.append(
                [Fraction(1) if tup[space] == point else Fraction(0)
                 for tup in tuples]
            )
            rhs.append(Fraction(weight))
    value, solution = solve_lp(costs, rows, rhs)
    best = -value
    if not with_witness:
        return best
    witness = {tup: solution[index[tup]] for tup in tuples
               if solution[index[tup]] > 0}
    return best, witness


def l_value(mmi: MultiMarginalInstance, with_witness: bool = False):
    """Minimum total marginal weight of a cylinder cover, by exhaustive
    enumeration over all per-space subsets."""
    points = sum(mmi.sizes)
    if points > MAX_EXACT_COVER_POINTS:
        raise InstanceError(
            f"{points} marginal points exceed the exhaustive-cover limit "
            f"{MAX_EXACT_COVER_POINTS}"
        )
    n = mmi.n_spaces
    best = None
    best_cover = None
    subset_masks = [range(1 << size) for size in mmi.sizes]
    for masks in product(*subset_masks):
        covered = all(
            any(masks[k] >> tup[k] & 1 for k in range(n)) for tup in mmi.b_set
        )
        if not covered:
            continue
        weight = sum(
            mmi.weights[k][point]
            for k in range(n)
            for point in range(mmi.sizes[k])
            if masks[k] >> point & 1
        )
        if best is None or weight < best:
            best = weight
            best_cover = masks
    cover = tuple(
        tuple(point for point in range(mmi.sizes[k]) if best_cover[k] >> point & 1)
        for k in range(mmi.n_spaces)
    )
    if with_witness:
        return best, cover
    return best


def l_value_relaxed(mmi: MultiMarginalInstance, with_witness: bool = False):
    """Fractional cover value: per-point indicator variables in [0, 1] whose
    sums dominate 1 on B.  Equals p_value by exact duality."""
    _check_size(mmi)
    n = mmi.n_spaces
    offsets = []
    acc = 0
    for size in mmi.sizes:
        offsets.append(acc)
        acc += size
    n_chi = acc
    # Variables: chi (n_chi), upper slacks u (n_chi, chi + u = 1),
    # cover surpluses s (one per tuple in B, sum chi - s = 1).
    n_vars = 2 * n_chi + len(mmi.b_set)
    costs = [Fraction(0)] * n_vars
    for k in range(n):
        for point in range(mmi.sizes[k]):
            costs[offsets[k] + point] = Fraction(mmi.weights[k][point])
    rows = []
    rhs = []
    for var in range(n_chi):
        row = [Fraction(0)] * n_vars
        row[var] = Fraction(1)
        row[n_chi + var] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))
    for pos, tup in enumerate(mmi.b_set):
        row = [Fraction(0)] * n_vars
        for k in range(n):
            row[offsets[k] + tup[k]] = Fraction(1)
        row[2 * n_chi + pos] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(1))
    value, solution = solve_lp(costs, rows, rhs)
    if not with_witness:
        return value
    chi = tuple(
        tuple(solution[offsets[k] + point] for point in range(mmi.sizes[k]))
        for k in range(n)
    )
    return value, chi


def rounded_cover(mmi: MultiMarginalInstance, chi):
    """Threshold a fractional cover at 1/n; always yields a valid cover."""
    n = mmi.n_spaces
    cutoff = Fraction(1, n)
    cover = tuple(
        tuple(point for point in range(mmi.sizes[k]) if chi[k][point] >= cutoff)
        for k in range(n)
    )
    weight = sum(
        mmi.weights[k][point] for k in range(n) for point in cover[k]
    )
    return cover, weight


@dataclass(frozen=True)
class DichotomyReport:
    p: object
    l_exact: object
    l_relaxed: object
    bound_ok: bool
    sandwich_ok: bool
    n2_equality: bool | None
    l_shaped_null: bool
    witness_coupling: dict | None
    rounded_cover_sets: tuple | None
    rounded_cover_weight: object | None


def check_dichotomy(mmi: MultiMarginalInstance) -> DichotomyReport:
    """Evaluate p, l, their sandwich p <= l <= n * p, the n = 2 equality,
    and classify B as L-shaped null or charged by a witness coupling."""
    n = mmi.n_spaces
    p, coupling = p_value(mmi, with_witness=True)
    l_exact = l_value(mmi)
    l_relaxed, chi = l_value_relaxed(mmi, with_witness=True)
    cover, cover_weight = rounded_cover(mmi, chi)
    covered = all(
        any(tup[k] in set(cover[k]) for k in range(n)) for tup in mmi.b_set
    )
    if not covered:
        raise InstanceError("rounded fractional cover failed to cover B")
    bound_ok = p * n >= l_exact
    sandwich_ok = p <= l_exact
    n2_equality = (p == l_exact) if n == 2 else None
    null = l_exact == 0
    return DichotomyReport(
        p=p,
        l_exact=l_exact,
        l_relaxed=l_relaxed,
        bound_ok=bound_ok,
        sandwich_ok=sandwich_ok,
        n2_equality=n2_equality,
        l_shaped_null=null,
        witness_coupling=None if null else coupling,
        rounded_cover_sets=cover,
        rounded_cover_weight=cover_weight,
    )

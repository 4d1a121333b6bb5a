"""Multi-marginal coupling bounds on product sets.

For a set B of index tuples over n weighted finite spaces, p_value is the
largest mass any coupling with the given marginals can place on B, and
l_value is the smallest total weight of per-space sets whose coordinate
cylinders cover B.  The two are sandwiched: p <= l <= n * p, with equality
p = l when n = 2.  A set with l = 0 is an L-shaped null set; otherwise some
coupling charges B positively and the p-optimizer is an explicit witness.

Every bound is computed on B and the marginal points, never on the product.
p is the packing LP over B's tuples (Kellerer, 1984: a packing completes to
a coupling), its LP dual is the fractional cover l_value_relaxed, and
check_dichotomy accepts the pair only when the two certify each other.  The
exact l forces the largest space's cover.  Weights are exact Fractions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from .core import InstanceError, RATIONAL, format_scalar, integer_scale
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


def make_mmi(weights, b_set) -> MultiMarginalInstance:
    """Validate weights and B; each space's weights, read as exact
    Fractions, must be nonnegative and sum to exactly 1."""
    weights = tuple(tuple(Fraction(w) for w in space) for space in weights)
    if len(weights) < 2:
        raise InstanceError("need at least two marginal spaces")
    for space in weights:
        if not space:
            raise InstanceError("empty marginal space")
        if any(w < 0 for w in space):
            raise InstanceError("negative marginal weight")
        if sum(space) != 1:
            raise InstanceError(f"marginal weights sum to {sum(space)}, expected 1")
    tuples = set()
    for tup in map(tuple, b_set):
        if len(tup) != len(weights):
            raise InstanceError(f"tuple {tup} has wrong arity")
        for k, idx in enumerate(tup):
            if type(idx) is not int or not 0 <= idx < len(weights[k]):
                raise InstanceError(f"tuple index {idx!r} out of range in space {k}")
        tuples.add(tup)
    return MultiMarginalInstance(weights=weights, b_set=tuple(sorted(tuples)))


def mmi_from_dict(data: dict) -> MultiMarginalInstance:
    try:
        return make_mmi([[RATIONAL.number(v) for v in space]
                         for space in data["weights"]], data["B"])
    except KeyError as exc:
        raise InstanceError(f"missing field {exc}") from exc
    except TypeError as exc:
        raise InstanceError(f"malformed instance: {exc}") from exc


def mmi_to_dict(mmi: MultiMarginalInstance) -> dict:
    return {
        "weights": [[format_scalar(v) for v in space] for space in mmi.weights],
        "B": [list(tup) for tup in mmi.b_set],
    }


def load_mmi(path) -> MultiMarginalInstance:
    with open(path) as handle:
        return mmi_from_dict(json.load(handle))


def _check_size(mmi: MultiMarginalInstance):
    if prod(mmi.sizes) > MAX_PRODUCT_CELLS:
        raise InstanceError(
            f"product space has {prod(mmi.sizes)} cells, "
            f"limit is {MAX_PRODUCT_CELLS}"
        )


def p_value(mmi: MultiMarginalInstance, with_witness: bool = False):
    """Maximum coupling mass on B, as the packing LP over B's tuples:
    maximize sum x_t subject to sum over {t : t_k = i} of x_t <= w_k(i).

    The witness completes the optimal packing to a coupling.  The slacks are
    the residual marginals r_k, each of mass 1 - p, and the witness adds
    prod_k r_k(t_k) / (1 - p)^(n-1) on every cell t.  That term charges no
    tuple of B, or the packing could grow there."""
    _check_size(mmi)
    points = [(k, i) for k, size in enumerate(mmi.sizes) for i in range(size)]
    # The slacks come first, so that phase 1 finds them as its basis.
    rows = [[int(pos == slack) for pos in range(len(points))]
            + [int(tup[k] == i) for tup in mmi.b_set]
            for slack, (k, i) in enumerate(points)]
    value, solution = solve_lp([0] * len(points) + [-1] * len(mmi.b_set),
                               rows, [mmi.weights[k][i] for k, i in points])
    p = -value
    if not with_witness:
        return p
    witness = {tup: x for tup, x in zip(mmi.b_set, solution[len(points):])
               if x > 0}
    # When p = 1 every residual is 0 and the product below is empty.
    residual = iter(solution[:len(points)])
    supports = [[(i, r) for i in range(size) if (r := next(residual)) > 0]
                for size in mmi.sizes]
    for cell in product(*supports):
        tup = tuple(i for i, _ in cell)
        witness[tup] = (witness.get(tup, 0) + prod(r for _, r in cell)
                        / (1 - p) ** (mmi.n_spaces - 1))
    return p, witness


def l_value(mmi: MultiMarginalInstance, with_witness: bool = False):
    """Minimum total marginal weight of a cylinder cover.

    Enumerates the subsets of every space except the largest, whose set is
    then forced: the points of the tuples left uncovered, which any cover
    with the same other sets contains (weights are nonnegative)."""
    points = sum(mmi.sizes)
    if points > MAX_EXACT_COVER_POINTS:
        raise InstanceError(
            f"{points} marginal points exceed the exhaustive-cover limit "
            f"{MAX_EXACT_COVER_POINTS}"
        )
    sizes = mmi.sizes
    forced = sizes.index(max(sizes))
    _, scaled = integer_scale([w for space in mmi.weights for w in space])
    through = {(k, i): 0 for k, size in enumerate(sizes) for i in range(size)}
    for pos, tup in enumerate(mmi.b_set):
        for point in enumerate(tup):
            through[point] |= 1 << pos
    # (point, scaled weight, bit set of B's tuples through it), with the
    # points of the enumerated spaces first.
    entries = sorted(zip(through, scaled, through.values()),
                     key=lambda entry: entry[0][0] == forced)
    n_free = points - sizes[forced]
    best = None
    for mask in range(1 << n_free):
        chosen = [entry for bit, entry in enumerate(entries[:n_free])
                  if mask >> bit & 1]
        covered = 0
        for _, _, tuples in chosen:
            covered |= tuples
        chosen += [entry for entry in entries[n_free:] if entry[2] & ~covered]
        weight = sum(entry[1] for entry in chosen)
        if best is None or weight < best:
            best, cover = weight, chosen
    value = sum(mmi.weights[k][i] for (k, i), _, _ in cover)
    if not with_witness:
        return value
    return value, tuple(tuple(i for (k, i), _, _ in cover if k == space)
                        for space in range(mmi.n_spaces))


def l_value_relaxed(mmi: MultiMarginalInstance, with_witness: bool = False):
    """Fractional cover value: per-point variables chi >= 0 whose sums
    dominate 1 on every tuple of B; the LP dual of the packing, so it equals
    p_value.  chi <= 1 is not imposed: capping a cover at 1 costs nothing."""
    _check_size(mmi)
    points = [(k, i) for k, size in enumerate(mmi.sizes) for i in range(size)]
    n_b = len(mmi.b_set)
    # One surplus per tuple comes first: on dense B this order takes far
    # fewer pivots than chi first.
    rows = [[-int(pos == surplus) for pos in range(n_b)]
            + [int(tup[k] == i) for k, i in points]
            for surplus, tup in enumerate(mmi.b_set)]
    value, solution = solve_lp(
        [0] * n_b + [mmi.weights[k][i] for k, i in points], rows, [1] * n_b)
    if not with_witness:
        return value
    chi = iter(solution[n_b:])
    return value, tuple(tuple(next(chi) for _ in range(size))
                        for size in mmi.sizes)


def rounded_cover(mmi: MultiMarginalInstance, chi):
    """Threshold a fractional cover at 1/n; always yields a valid cover."""
    cutoff = Fraction(1, mmi.n_spaces)
    cover = tuple(tuple(point for point, x in enumerate(side) if x >= cutoff)
                  for side in chi)
    return cover, sum(w[point] for w, side in zip(mmi.weights, cover)
                      for point in side)


def _certified(mmi: MultiMarginalInstance, p, coupling, relaxed, chi) -> bool:
    """Whether the packing and cover values agree, chi is a fractional
    cover of that weight, and the coupling is nonnegative with exactly the
    marginals and mass p on B.  Then both are optimal by LP duality."""
    marginals = [[0] * size for size in mmi.sizes]
    for tup, x in coupling.items():
        for k, point in enumerate(tup):
            marginals[k][point] += x
    return (p == relaxed
            and min(coupling.values(), default=0) >= 0
            and marginals == [list(space) for space in mmi.weights]
            and sum(coupling.get(tup, 0) for tup in mmi.b_set) == p
            and min(min(side) for side in chi) >= 0
            and all(sum(chi[k][i] for k, i in enumerate(tup)) >= 1
                    for tup in mmi.b_set)
            and sum(w * x for ws, xs in zip(mmi.weights, chi)
                    for w, x in zip(ws, xs)) == relaxed)


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
    and classify B as L-shaped null or charged by a witness coupling.

    Raises InstanceError unless the packing and its dual cover certify each
    other (see _certified)."""
    n = mmi.n_spaces
    p, coupling = p_value(mmi, with_witness=True)
    l_exact = l_value(mmi)
    l_relaxed, chi = l_value_relaxed(mmi, with_witness=True)
    if not _certified(mmi, p, coupling, l_relaxed, chi):
        raise InstanceError(f"duality certificate failed: packing value {p}, "
                            f"cover value {l_relaxed}")
    cover, cover_weight = rounded_cover(mmi, chi)
    null = l_exact == 0
    return DichotomyReport(
        p=p,
        l_exact=l_exact,
        l_relaxed=l_relaxed,
        bound_ok=p * n >= l_exact,
        sandwich_ok=p <= l_exact,
        n2_equality=(p == l_exact) if n == 2 else None,
        l_shaped_null=null,
        witness_coupling=None if null else coupling,
        rounded_cover_sets=cover,
        rounded_cover_weight=cover_weight,
    )

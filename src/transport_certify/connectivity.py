"""Connecting classes of a support and the confinement property of
feasible plans.

A support pair p can pass work to p' when the crossing cost
cost(x_of_p', y_of_p) is finite.  In the residual graph of the support (see
``monotonicity``) that is the path y_of_p' -> x_of_p' -> y_of_p, so the
classes of mutual reachability are the strongly connected components that
hold a support arc.  They partition the support into classes C_i x D_i with
mutually disjoint projections; a support is connecting when there is a
single class.  Any feasible finite-cost plan must keep all its mass inside
the union of the class rectangles, which the confinement check certifies by
maximizing the escaping mass with one solver call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    INFINITY,
    Instance,
    InstanceError,
    Policy,
    RATIONAL,
    SupportSet,
)
from .monotonicity import ResidualGraph, residual_graph
from .solver import solve_transport


@dataclass(frozen=True)
class ConnectivityClass:
    sources: tuple
    targets: tuple
    pairs: tuple


@dataclass(frozen=True)
class ConnectivityDecomposition:
    classes: tuple


@dataclass(frozen=True)
class ConfinementReport:
    feasible: bool
    off_class_mass: object
    witness_plan: tuple | None


def _strongly_connected_components(n, arcs):
    """Iterative Tarjan over arcs[u] = (node, weight) lists; components
    returned as sorted index tuples."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, edge_pos = work.pop()
            if edge_pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for pos in range(edge_pos, len(arcs[node])):
                succ = arcs[node][pos][0]
                if index[succ] == -1:
                    work.append((node, pos + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                component = []
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    component.append(top)
                    if top == node:
                        break
                components.append(tuple(sorted(component)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def decompose_graph(graph: ResidualGraph) -> ConnectivityDecomposition:
    """Classes of a residual graph, ordered by their smallest source index.

    A support pair's two nodes are joined both ways by its finite cost and
    its support arc, so each class is one component; components are
    disjoint, and so are the projections of distinct classes.
    """
    x_size = graph.x_size
    classes = []
    for comp in _strongly_connected_components(len(graph.arcs), graph.arcs):
        pairs = tuple(sorted(
            (x, u - x_size) for u in comp if u >= x_size
            for x, _ in graph.arcs[u]
        ))
        if pairs:
            classes.append(ConnectivityClass(
                sources=tuple(u for u in comp if u < x_size),
                targets=tuple(u - x_size for u in comp if u >= x_size),
                pairs=pairs,
            ))
    classes.sort(key=lambda cls: cls.sources[0])
    return ConnectivityDecomposition(classes=tuple(classes))


def decompose(instance: Instance, support_set: SupportSet,
              policy: Policy = RATIONAL) -> ConnectivityDecomposition:
    """Equivalence classes of the mutual-reachability relation."""
    return decompose_graph(residual_graph(instance, support_set, policy))


def is_connecting(instance: Instance, support_set: SupportSet,
                  policy: Policy = RATIONAL) -> bool:
    """True when every support pair reaches every other one.

    Fast path: a cost matrix without infinite entries makes every support
    trivially connecting.
    """
    if len(support_set.pairs) == 0:
        raise InstanceError("empty support")
    if not instance.has_infinite_cost():
        return True
    return len(decompose(instance, support_set, policy).classes) == 1


def check_class_confinement(instance: Instance,
                            decomposition: ConnectivityDecomposition,
                            policy: Policy = RATIONAL) -> ConfinementReport:
    """Maximum feasible mass outside the union of class rectangles.

    Implemented as a single solve with a 0/1 objective: finite arcs inside
    some C_i x D_i cost one unit, finite arcs outside cost nothing, so the
    minimum equals total mass minus the maximal escaping mass.
    """
    inside = set()
    for cls in decomposition.classes:
        for x in cls.sources:
            for y in cls.targets:
                inside.add((x, y))
    one = 1 if policy.exact else 1.0
    objective = tuple(
        tuple(
            INFINITY
            if instance.cost[i][j] is INFINITY
            else (one if (i, j) in inside else 0 * one)
            for j in range(instance.y_size)
        )
        for i in range(instance.x_size)
    )
    solved = solve_transport(instance.mu, instance.nu, objective, policy)
    if solved is None:
        return ConfinementReport(feasible=False, off_class_mass=None, witness_plan=None)
    mass, inside_mass = solved
    total = sum(instance.mu)
    off_mass = total - inside_mass
    witness = mass if off_mass > policy.tolerance else None
    return ConfinementReport(
        feasible=True, off_class_mass=off_mass, witness_plan=witness
    )

"""Exact minimum-cost transport over finite-cost arcs.

Infinite-cost arcs are deleted outright rather than big-M-ed: a problem is
infeasible exactly when the finite-arc bipartite graph admits no plan with
the prescribed marginals, which the one successive shortest path pass finds
as the sink becoming unreachable while supply remains.  Each of its phases
runs one Dijkstra and then routes flow along every path that is tight under
the updated potentials (the primal-dual method), found by a stack-order
search that follows the newest tight arc first instead of sweeping every
source before it reaches a target.  In rational mode the flow network runs
on integers: Fraction marginals and costs are put on their common
denominators, and int ones (``Instance.scaled_cost`` in ``solve_exact``,
the adversary's trial networks) are taken as they are.  Float mode works
directly on floats with the policy tolerance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .core import (
    INFINITY,
    Instance,
    InstanceError,
    Policy,
    RATIONAL,
    TransportPlan,
    integer_scale,
    total_cost,
)


@dataclass(frozen=True)
class OptimalResult:
    """Outcome of an exact solve: a minimizing plan or an infeasibility flag."""

    plan: TransportPlan | None
    value: object
    feasible: bool


def _min_cost_flow(n_src, n_dst, arcs, supply, demand, zero):
    """Primal-dual successive shortest paths over reduced costs.

    ``arcs`` is a list of (i, j, cost) with cost >= 0.  Each phase runs one
    Dijkstra, raises the node potentials by the distances (capped at the
    sink's), augments along the Dijkstra path and then along every residual
    path whose arcs are all tight, reduced cost ``cost + p[u] - p[v] <=
    zero``, before the next Dijkstra.  Tight paths are searched in stack
    order: a node is marked when first reached and the newest one is
    expanded next, so a search heads for the sink instead of expanding
    every source first.  Returns a dict (i, j) -> flow and the objective,
    or None when the sink becomes unreachable while supply remains, i.e.
    the arcs cannot carry the marginals.  All arithmetic stays in the
    caller's number domain.
    """
    n = n_src + n_dst + 2
    source, sink = n_src + n_dst, n_src + n_dst + 1
    big = sum(supply)
    nil = 0 * big
    edges = [(i, n_src + j, big, c) for i, j, c in arcs]
    edges += [(source, i, s, nil) for i, s in enumerate(supply) if s > zero]
    edges += [(n_src + j, sink, d, nil) for j, d in enumerate(demand) if d > zero]
    # Residual network: edge 2k is the k-th of ``edges``, 2k+1 its reverse.
    adj = [[] for _ in range(n)]
    to, cap, cost = [], [], []
    for u, v, c, w in edges:
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, nil)
        cost += (w, -w)

    potential = [nil] * n
    unreached = object()
    remaining = big
    heappush, heappop = heapq.heappush, heapq.heappop

    def augment(prev_edge):
        path = []
        v = sink
        while v != source:
            path.append(prev_edge[v])
            v = to[prev_edge[v] ^ 1]
        bottleneck = min(remaining, *(cap[eid] for eid in path))
        for eid in path:
            cap[eid] -= bottleneck
            cap[eid ^ 1] += bottleneck
        return bottleneck

    def tight_path():
        """Stack-order path from source to sink over tight residual arcs."""
        prev_edge = [-1] * n
        prev_edge[source] = -2
        stack = [source]
        while stack:
            u = stack.pop()
            for eid in adj[u]:
                v = to[eid]
                if (prev_edge[v] == -1 and cap[eid] > zero
                        and cost[eid] + potential[u] - potential[v] <= zero):
                    prev_edge[v] = eid
                    if v == sink:
                        return prev_edge
                    stack.append(v)
        return None

    while remaining > zero:
        dist = [unreached] * n
        dist[source] = nil
        prev_edge = [-1] * n
        done = [False] * n
        heap = [(dist[source], source)]
        while heap:
            d_u, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == sink:
                break
            base = d_u + potential[u]
            for eid in adj[u]:
                if cap[eid] <= zero:
                    continue
                v = to[eid]
                if done[v]:
                    continue
                nd = base + cost[eid] - potential[v]
                if dist[v] is unreached or nd < dist[v]:
                    dist[v] = nd
                    prev_edge[v] = eid
                    heappush(heap, (nd, v))
        if dist[sink] is unreached:
            return None
        d_sink = dist[sink]
        for v in range(n):
            if dist[v] is unreached or dist[v] > d_sink:
                potential[v] += d_sink
            else:
                potential[v] += dist[v]
        # The Dijkstra path goes first: it is tight by construction, while
        # float rounding may leave its reduced costs a hair above zero.
        while prev_edge is not None and remaining > zero:
            remaining -= augment(prev_edge)
            prev_edge = tight_path()

    flows = {}
    objective = nil
    for k, (i, j, c) in enumerate(arcs):
        sent = cap[2 * k + 1]
        if sent > zero:
            flows[(i, j)] = sent
            objective += sent * c
    return flows, objective


def solve_transport(mu, nu, cost, policy: Policy = RATIONAL):
    """Solve min-cost transport for arbitrary balanced nonnegative marginals.

    Returns (mass matrix as tuple-of-tuples, value) or None if infeasible.
    This is the raw engine behind solve_exact; it does not require the
    marginals to sum to one, only to balance.  In rational mode the masses
    and the finite costs are each put on their common denominator and the
    result is built in Fractions; when every one of them is an int already
    the network uses them as they are and the result stays in ints.
    """
    n_src, n_dst = len(mu), len(nu)
    total = sum(mu)
    if not policy.eq(total, sum(nu)):
        raise InstanceError(f"unbalanced marginals: {total} vs {sum(nu)}")
    cells = [(i, j) for i in range(n_src) for j in range(n_dst)
             if cost[i][j] is not INFINITY]
    costs = [cost[i][j] for i, j in cells]
    masses = list(mu) + list(nu)
    rescale = policy.exact and not (
        all(type(v) is int for v in masses)
        and all(type(c) is int for c in costs))
    if rescale:
        mass_den, masses = integer_scale(masses)
        cost_den, costs = integer_scale(costs)
    if costs and min(costs) < 0:
        raise InstanceError("solver requires nonnegative costs")
    nil = Fraction(0) if rescale else 0 if policy.exact else 0.0
    mass = [[nil] * n_dst for _ in range(n_src)]
    if total <= policy.tolerance:
        return tuple(map(tuple, mass)), nil
    solved = _min_cost_flow(
        n_src, n_dst, [(i, j, c) for (i, j), c in zip(cells, costs)],
        masses[:n_src], masses[n_src:], 0 if policy.exact else policy.tolerance,
    )
    if solved is None:
        return None
    flows, value = solved
    if rescale:
        flows = {cell: Fraction(sent, mass_den) for cell, sent in flows.items()}
        value = Fraction(value, mass_den * cost_den)
    for (i, j), sent in flows.items():
        mass[i][j] = sent
    return tuple(map(tuple, mass)), value


def solve_exact(instance: Instance, policy: Policy = RATIONAL) -> OptimalResult:
    """Cost-minimizing plan over finite-cost arcs, or feasible=False.

    In rational mode the network is built on ``instance.scaled_cost``, the
    instance's costs already on one integer scale.
    """
    scaled = instance.scaled_cost
    cost = scaled.rows if policy.exact else instance.cost
    solved = solve_transport(instance.mu, instance.nu, cost, policy)
    if solved is None:
        return OptimalResult(plan=None, value=INFINITY, feasible=False)
    mass, value = solved
    if policy.exact:
        value = Fraction(value, scaled.scale)
    return OptimalResult(plan=TransportPlan(mass=mass), value=value, feasible=True)


def _tree_vertex_masses(n_src, n_dst, cells, mu, nu):
    """Solve the marginal system on a spanning tree of cells by leaf peeling.

    Returns the mass per cell or None when some mass comes out negative.
    """
    nodes = n_src + n_dst
    adj = {u: [] for u in range(nodes)}
    for idx, (i, j) in enumerate(cells):
        adj[i].append((n_src + j, idx))
        adj[n_src + j].append((i, idx))
    need = list(mu) + list(nu)
    degree = {u: len(adj[u]) for u in range(nodes)}
    removed = [False] * len(cells)
    masses = [None] * len(cells)
    leaves = [u for u in range(nodes) if degree[u] == 1]
    processed = 0
    while leaves:
        u = leaves.pop()
        edge = next(
            ((v, idx) for v, idx in adj[u] if not removed[idx]), None
        )
        if edge is None:
            continue
        v, idx = edge
        amount = need[u]
        if amount < 0:
            return None
        masses[idx] = amount
        removed[idx] = True
        processed += 1
        need[u] -= amount
        need[v] -= amount
        degree[u] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            leaves.append(v)
    if processed != len(cells):
        return None
    if any(abs(r) > 0 for r in need):
        return None
    return masses


def _spanning_cells(n_src, n_dst, cells):
    """True when the cell set is a spanning tree of the bipartite node set."""
    nodes = n_src + n_dst
    if len(cells) != nodes - 1:
        return False
    parent = list(range(nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in cells:
        a, b = find(i), find(n_src + j)
        if a == b:
            return False
        parent[a] = b
    return True


def brute_force_optimal(instance: Instance, policy: Policy = RATIONAL):
    """Exact optimal value by exhaustive enumeration of polytope vertices.

    Independent of the flow solver: permutation matrices for square uniform
    instances up to 8x8, spanning-tree vertex enumeration when the cost
    matrix has at most 12 cells.  Returns INFINITY when no finite-cost plan
    exists; raises when the instance is too large for enumeration.
    """
    n_src, n_dst = instance.x_size, instance.y_size
    uniform = (
        n_src == n_dst
        and all(policy.eq(w, instance.mu[0]) for w in instance.mu)
        and all(policy.eq(w, instance.mu[0]) for w in instance.nu)
    )
    if uniform and n_src <= 8:
        share = instance.mu[0]
        best = INFINITY
        for perm in permutations(range(n_dst)):
            value = 0
            for i, j in enumerate(perm):
                entry = instance.cost[i][j]
                if entry is INFINITY:
                    value = INFINITY
                    break
                value += entry
            if value is not INFINITY:
                candidate = value * share
                if best is INFINITY or candidate < best:
                    best = candidate
        return best
    if n_src * n_dst <= 12:
        all_cells = [(i, j) for i in range(n_src) for j in range(n_dst)]
        best = INFINITY
        for cells in combinations(all_cells, n_src + n_dst - 1):
            if not _spanning_cells(n_src, n_dst, cells):
                continue
            masses = _tree_vertex_masses(
                n_src, n_dst, cells, instance.mu, instance.nu
            )
            if masses is None:
                continue
            value = 0
            for (i, j), mass in zip(cells, masses):
                if mass > 0:
                    entry = instance.cost[i][j]
                    if entry is INFINITY:
                        value = INFINITY
                        break
                    value += mass * entry
            if value is not INFINITY and (best is INFINITY or value < best):
                best = value
        return best
    raise InstanceError("instance too large for exhaustive enumeration")


def is_optimal(instance: Instance, plan: TransportPlan, optimum: OptimalResult,
               policy: Policy = RATIONAL):
    """(optimal?, gap): gap is the plan's excess cost over ``optimum``, the
    instance's ``solve_exact`` result."""
    plan_value = total_cost(instance, plan)
    if plan_value is INFINITY:
        raise InstanceError("plan has infinite cost")
    if not optimum.feasible:
        raise InstanceError("no finite-cost plan exists yet the plan is finite")
    gap = plan_value - optimum.value
    return policy.leq(gap, 0 * gap), gap

"""Outside-in layer tracer.

Every public function of a layer module is replaced by a wrapper, in every
module of the package that binds it: modules import each other's functions
with ``from .x import f``, so patching only the defining module would miss
most calls.  A call that crosses from one layer into another opens a span
(name, start, end, parent, command id); a call inside the current layer runs
without one.  A layer's self time is the time of its spans minus the time of
their child spans.  Work counts and repeated inputs are computed from the
arguments and return values of wrapped calls, and the time spent computing
them is kept out of every layer's self time.

No layer queues work, so there is no wait time to record.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli", "core", "solver", "monotonicity", "connectivity", "potentials",
    "robustness", "multimarginal", "simplex",
)

# Work counts summed per pass, with their units.
COUNTS = {
    "solver.arcs": "count",
    "monotonicity.graph_builds": "count",
    "monotonicity.exchange_edges": "count",
    "monotonicity.cycles_found": "count",
    "monotonicity.cycle_pairs": "count",
    "monotonicity.improve_steps": "count",
    "connectivity.classes": "count",
    "potentials.chain_calls": "count",
    "robustness.trials": "count",
    "multimarginal.cover_masks": "count",
    "simplex.tableau_cells": "count",
    "cli.output_bytes": "bytes",
}
# Largest values seen, not summed.
MAXIMA = ("potentials.max_den_bits", "simplex.max_den_bits")
# Layers whose repeated inputs are counted: distinct inputs / calls.
DISTINCT = ("solver", "monotonicity", "connectivity", "potentials",
            "multimarginal")


def per_layer_metric_units() -> dict:
    """Every metric of a traced run, with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update(COUNTS)
    for name in MAXIMA:
        units[name] = "bits"
    units["robustness.solves_per_trial"] = "ratio"
    for layer in DISTINCT:
        units[f"{layer}.distinct_ratio"] = "ratio"
    units["tracing.throughput_delta"] = "1/s"
    return units


def _den_bits(values):
    return max((getattr(v, "denominator", 1).bit_length() for v in values),
               default=0)


# Per-function hooks: (tracer, bound arguments, result) -> None.
def _solve_transport(tr, a, result):
    infinity = tr.infinity
    tr.counts["solver.arcs"] += sum(
        1 for row in a["cost"] for entry in row if entry is not infinity)
    if any(frame[3] == "robustness.adversarial_search" for frame in tr.stack):
        tr.counts["robustness.solves"] += 1


def _build_exchange_graph(tr, a, graph):
    tr.counts["monotonicity.graph_builds"] += 1
    tr.counts["monotonicity.exchange_edges"] += sum(map(len, graph.edges))


def _check_c_monotone(tr, a, cycle):
    if cycle is not None:
        tr.counts["monotonicity.cycles_found"] += 1
        tr.counts["monotonicity.cycle_pairs"] += len(cycle.pairs)


def _improve_plan(tr, a, plan):
    tr.counts["monotonicity.improve_steps"] += 1


def _decompose(tr, a, deco):
    tr.counts["connectivity.classes"] += len(deco.classes)


def _chain_potential(tr, a, phi):
    tr.counts["potentials.chain_calls"] += 1


def _certify_strong(tr, a, cert):
    if cert.pair is not None:
        tr.maximum("potentials.max_den_bits",
                   _den_bits(cert.pair.phi + cert.pair.psi))


def _adversarial_search(tr, a, report):
    tr.counts["robustness.trials"] += report.trials


def _l_value(tr, a, value):
    masks = 1
    for size in a["mmi"].sizes:
        masks <<= size
    tr.counts["multimarginal.cover_masks"] += masks


def _solve_lp(tr, a, result):
    m, n = len(a["rows"]), len(a["costs"])
    tr.counts["simplex.tableau_cells"] += m * (n + m + 1)
    value, solution = result
    tr.maximum("simplex.max_den_bits", _den_bits([value, *solution]))


HOOKS = {
    "solver.solve_transport": _solve_transport,
    "monotonicity.build_exchange_graph": _build_exchange_graph,
    "monotonicity.check_c_monotone": _check_c_monotone,
    "monotonicity.improve_plan": _improve_plan,
    "connectivity.decompose": _decompose,
    "potentials.chain_potential": _chain_potential,
    "potentials.certify_strong": _certify_strong,
    "robustness.adversarial_search": _adversarial_search,
    "multimarginal.l_value": _l_value,
    "simplex.solve_lp": _solve_lp,
}

# The input that identifies a unit of work, per function whose repeats
# the distinct ratios count.
INPUTS = {
    "solver.solve_transport": ("mu", "nu", "cost"),
    "monotonicity.check_c_monotone": ("instance", "plan"),
    "connectivity.decompose": ("instance", "support_set"),
    "potentials.certify_strong": ("instance", "plan"),
    "multimarginal.p_value": ("mmi",),
    "multimarginal.l_value": ("mmi",),
}


class Tracer:
    """Spans and counts of one traced run; install, run commands, remove."""

    def __init__(self, modules: dict, package_modules):
        self.modules = modules
        self.infinity = modules["core"].INFINITY
        self.package_modules = tuple(package_modules)
        self.patched = []
        self.spans = []
        self.stack = []
        self.command_id = 0
        self.next_span = 0
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.input_calls = Counter()
        self.inputs = defaultdict(set)
        self._hashes = {}

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer, name))
        for module in self.package_modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self.patched.append((module, name, value))
                    setattr(module, name, wrappers[id(value)][1])

    def uninstall(self):
        for module, name, original in reversed(self.patched):
            setattr(module, name, original)
        self.patched.clear()

    def _wrap(self, fn, layer, name):
        qualified = f"{layer}.{name}"
        hook = HOOKS.get(qualified)
        keys = INPUTS.get(qualified)
        signature = inspect.signature(fn) if hook or keys else None
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            caller = stack[-1] if stack else None
            if caller is not None and caller[1] == layer:
                result = fn(*args, **kwargs)
            else:
                tracer.next_span += 1
                frame = [tracer.next_span, layer, 0.0, qualified]
                tracer.calls[layer] += 1
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    elapsed = end - start
                    tracer.self_time[layer] += elapsed - frame[2]
                    if caller is not None:
                        caller[2] += elapsed
                    tracer.spans.append((
                        frame[0], tracer.command_id, qualified, start, end,
                        caller[0] if caller is not None else None,
                    ))
            if signature is not None:
                begin = clock()
                bound = signature.bind(*args, **kwargs).arguments
                if hook is not None:
                    hook(tracer, bound, result)
                if keys is not None:
                    tracer._note_input(layer, name, [bound[k] for k in keys])
                if stack:
                    stack[-1][2] += clock() - begin
            return result

        return traced

    # -- counting -----------------------------------------------------------

    def begin_command(self):
        self.command_id += 1
        self._hashes.clear()

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def _hash(self, value):
        cached = self._hashes.get(id(value))
        if cached is None or cached[0] is not value:
            try:
                digest = hash(value)
            except TypeError:
                digest = hash(repr(value))
            cached = self._hashes[id(value)] = (value, digest)
        return cached[1]

    def _note_input(self, layer, name, values):
        key = (name, tuple(self._hash(v) for v in values))
        self.input_calls[layer] += 1
        self.inputs[layer].add((self.command_id, key))

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int, throughput_delta: float,
                speed_scale: float) -> dict:
        """Per-pass layer metrics; names and units as
        :func:`per_layer_metric_units`.  Self times are multiplied by the
        run's mean machine-speed scale, like the end-to-end times."""
        values = {}
        total = sum(self.self_time.values()) or 1.0
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_time[layer] * speed_scale / passes
            values[f"{layer}.self_share"] = self.self_time[layer] / total
            values[f"{layer}.calls"] = self.calls[layer] / passes
        for name in COUNTS:
            values[name] = self.counts[name] / passes
        for name in MAXIMA:
            values[name] = self.maxima[name]
        trials = self.counts["robustness.trials"]
        solves = self.counts["robustness.solves"]
        values["robustness.solves_per_trial"] = solves / trials if trials else 0.0
        for layer in DISTINCT:
            calls = self.input_calls[layer]
            values[f"{layer}.distinct_ratio"] = (
                len(self.inputs[layer]) / calls if calls else 1.0)
        values["tracing.throughput_delta"] = throughput_delta
        units = per_layer_metric_units()
        return {name: {"value": values[name], "unit": unit}
                for name, unit in units.items()}

    def write_spans(self, path):
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w") as handle:
            for span_id, command, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "command": command, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")

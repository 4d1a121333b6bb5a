#!/usr/bin/env python3
"""Closed-loop benchmark of the transport-certify command line.

One client in one process runs the commands of a workload one after another
through ``transport_certify.cli.main(["--json", ...])`` on generated instance
files, checks every output, and prints the metrics; the last line of standard
output is one JSON object.  Run from the repository root:

    python3 perfbench/run.py --workload certify-optimal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports per-layer
self time and work counts from a traced run and writes its spans to
``perfbench/_out/``.  Times are wall times scaled to a reference machine
speed (see ``speed.py``); the unscaled figures are printed beside them.
Exit code 0: every output verified; 1: some output failed its check; 2: the
benchmark could not set up (no result printed).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PACKAGE = "transport_certify"
SETUP_REPS = 3
END_TO_END = {
    "throughput": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_package(root: Path) -> SimpleNamespace:
    """Import the package afresh from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no package source under {src}")
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    modules = {
        name: importlib.import_module(f"{PACKAGE}.{name}")
        for name in tracing.LAYERS + ("generators",)
    }
    package = sys.modules[PACKAGE]
    if Path(package.__file__).resolve().parent != src / PACKAGE:
        raise BenchError(f"{PACKAGE} was imported from {package.__file__}")
    return SimpleNamespace(package=package, **modules)


@dataclass
class Sample:
    """One command: wall seconds, the speed scale around it, its output."""

    index: int
    wall: float
    code: int | None
    output: str
    error: str | None
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


@dataclass
class Phase:
    samples: list = field(default_factory=list)
    passes: int = 0


def run_command(cli, index, command) -> Sample:
    buffer = io.StringIO()
    code = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["--json", *command.argv])
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start
    return Sample(index, elapsed, code, buffer.getvalue(), error)


def run_passes(pkg, commands, seconds, min_passes, tracer=None) -> Phase:
    """Whole passes of the mix until ``seconds`` of command time have run
    and at least ``min_passes`` passes are done.  Each command is scaled by
    the speed probes taken just before and just after it."""
    gc.collect()
    phase = Phase()
    spent = 0.0
    before = speed.probe()
    while phase.passes < min_passes or spent < seconds:
        for index, command in enumerate(commands):
            if tracer is not None:
                tracer.begin_command()
            sample = run_command(pkg.cli, index, command)
            after = speed.probe()
            sample.scale = speed.scale(before, after)
            before = after
            spent += sample.wall
            phase.samples.append(sample)
        phase.passes += 1
    return phase


def verify(commands, samples) -> list:
    """(label, problems) for every sample whose output fails its check.
    Identical outputs of one command are checked once."""
    failures = []
    checked = {}
    for s in samples:
        label = commands[s.index].label
        if s.error is not None:
            failures.append((label, [s.error.strip().splitlines()[-1]]))
            continue
        key = (s.index, s.code, s.output)
        if key not in checked:
            try:
                problems = commands[s.index].check(s.code, json.loads(s.output))
            except (ValueError, KeyError, TypeError, IndexError,
                    AttributeError, ZeroDivisionError) as exc:
                problems = [f"malformed output: {exc!r}"]
            checked[key] = problems
        if checked[key]:
            failures.append((label, checked[key]))
    return failures


def throughput(samples, failed, scaled=True) -> float:
    """Verified commands per second of command time."""
    busy = sum(s.seconds if scaled else s.wall for s in samples)
    return (len(samples) - failed) / busy


def latency_stats(samples, tail_pct, scaled=True):
    latencies = [s.seconds if scaled else s.wall for s in samples]
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[tail_pct - 1]
    return {
        "p50": statistics.median(latencies),
        "tail": tail,
        "above_tail": sum(1 for t in latencies if t > tail),
    }


def commit_of(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload, args, work):
    """Import, generate and write the inputs, compute reference values;
    ``SETUP_REPS`` times, each timed and scaled like a command.  Returns the
    last set-up and the median scaled set-up time."""
    times = []
    before = speed.probe()
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        pkg = import_package(ROOT)
        work.mkdir(parents=True)
        try:
            commands = workload.build(pkg, args.seed, work, tiny=args.scale == "tiny")
        except workloads.SetupError as exc:
            raise BenchError(str(exc)) from exc
        elapsed = time.perf_counter() - start
        after = speed.probe()
        times.append(elapsed * speed.scale(before, after))
        before = after
    return pkg, commands, statistics.median(times)


def run_workload(args) -> tuple:
    workload = workloads.WORKLOADS[args.workload]
    context = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_of(ROOT),
        "loadavg_start": os.getloadavg(),
        "client": "closed loop, one client, one process",
    }
    work = HERE / "_work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    try:
        for _ in range(3):
            speed.probe()
        pkg, commands, setup_once = set_up(workload, args, work)
        warmup = run_passes(pkg, commands, 0, 1)
        setup_s = setup_once + sum(s.seconds for s in warmup.samples)
        context.update(setup_s=setup_s, setup_without_warmup_s=setup_once,
                       commands_per_pass=[c.label for c in commands])
        if args.trace:
            return traced_run(args, workload, pkg, commands, context)
        return timed_run(args, workload, pkg, commands, setup_s, context)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed_run(args, workload, pkg, commands, setup_s, context):
    phase = run_passes(pkg, commands, args.seconds, workload.min_passes)
    failures = verify(commands, phase.samples)
    attempted = len(phase.samples)
    lat = latency_stats(phase.samples, workload.tail_pct)
    wall = latency_stats(phase.samples, workload.tail_pct, scaled=False)
    values = {
        "throughput": throughput(phase.samples, len(failures)),
        "latency_p50_s": lat["p50"],
        "latency_tail_s": lat["tail"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unscaled = {
        "throughput": throughput(phase.samples, len(failures), scaled=False),
        "latency_p50_s": wall["p50"], "latency_tail_s": wall["tail"],
    }
    context.update(
        passes=phase.passes, latency_samples=attempted,
        tail_percentile=workload.tail_pct, samples_above_tail=lat["above_tail"],
        mean_speed_scale=statistics.mean(s.scale for s in phase.samples),
        unscaled=unscaled,
    )
    lines = [
        f"workload {workload.name}  seed {args.seed}  passes {phase.passes}  "
        f"commands {attempted}  mean speed scale "
        f"{context['mean_speed_scale']:.3f}",
        f"  {'metric':<16}{'scaled':>12}{'wall':>12}",
    ]
    for name, unit in END_TO_END.items():
        raw = f"{unscaled[name]:>12.6g}" if name in unscaled else f"{'':>12}"
        note = ""
        if name == "latency_tail_s":
            note = (f"  p{workload.tail_pct} of {attempted} samples, "
                    f"{lat['above_tail']} above")
        lines.append(f"  {name:<16}{values[name]:>12.6g}{raw} {unit}{note}")
    lines.append("  median scaled latency by command:")
    for index, command in enumerate(commands):
        times = [s.seconds for s in phase.samples if s.index == index]
        lines.append(f"    {command.label:<30}{statistics.median(times):.4f} s")
    return finish(lines, context, attempted, failures,
                  {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()})


def traced_run(args, workload, pkg, commands, context):
    """Half the time untraced, half traced; layer figures come from the
    traced half, the overhead from the difference."""
    half = args.seconds / 2
    plain = run_passes(pkg, commands, half, 1)
    tracer = tracing.Tracer(
        {layer: getattr(pkg, layer) for layer in tracing.LAYERS},
        [pkg.package] + [getattr(pkg, n) for n in tracing.LAYERS + ("generators",)],
    )
    tracer.install()
    try:
        traced = run_passes(pkg, commands, half, 1, tracer)
    finally:
        tracer.uninstall()
    samples = plain.samples + traced.samples
    failures = verify(commands, samples)
    tracer.counts["cli.output_bytes"] += sum(
        len(s.output.encode()) for s in traced.samples)
    delta = throughput(traced.samples, 0) - throughput(plain.samples, 0)
    scale = statistics.mean(s.scale for s in traced.samples)
    metrics = tracer.metrics(traced.passes, delta, scale)
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{workload.name}-s{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    context.update(untraced_passes=plain.passes, traced_passes=traced.passes,
                   spans=len(tracer.spans), mean_speed_scale=scale,
                   spans_file=str(spans_path.relative_to(ROOT)))
    lines = [
        f"workload {workload.name}  seed {args.seed}  traced passes "
        f"{traced.passes}  (values per pass; shares of traced self time)",
        f"  {'layer':<15}{'self_s':>10}{'share':>8}{'calls':>9}",
    ]
    for layer in tracing.LAYERS:
        lines.append(
            f"  {layer:<15}{metrics[layer + '.self_s']['value']:>10.4f}"
            f"{metrics[layer + '.self_share']['value']:>8.1%}"
            f"{metrics[layer + '.calls']['value']:>9.1f}")
    for name, metric in metrics.items():
        if not name.endswith((".self_s", ".self_share", ".calls")):
            lines.append(f"  {name:<32}{metric['value']:.6g} {metric['unit']}")
    lines.append("  wait time: none recorded; no layer queues work")
    lines.append(f"  tracing overhead: {delta:+.4g} commands/s "
                 f"(traced minus untraced throughput)")
    return finish(lines, context, len(samples), failures, metrics)


def finish(lines, context, attempted, failures, metrics):
    failed = len(failures)
    context["loadavg_end"] = os.getloadavg()
    context["error_rate"] = failed / attempted
    lines.append(f"  {'error_rate':<16}{failed / attempted:>12.6g} "
                 f"({failed} of {attempted} commands failed their check)")
    for label, problems in failures[:10]:
        lines.append(f"  FAILED {label}: {'; '.join(problems)}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, context, result


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny instances, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        lines, context, result = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print("context " + json.dumps(context))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

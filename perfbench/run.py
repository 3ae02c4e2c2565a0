#!/usr/bin/env python3
"""End-to-end benchmark of the U-TRR simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload infer --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``infer`` (TRR reverse engineering),
``attack`` (pattern selection + vulnerability sweep) and ``sweep`` (the
attack modules through the process pool and the result cache).  Each is
a closed loop with one client; rounds of requests repeat until starting
another would overrun ``--seconds``, and a round is never cut, so a run
always measures at least one (``MIN_ROUNDS``).

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs one untraced round for reference, then one round with every layer
boundary wrapped in spans, and reports the per-layer metrics; the spans
are written to ``perfbench/out/``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: Rounds every run measures at least: a ``sweep`` round is the shortest
#: and, with its pool and the coordinator contending for every core, the
#: noisiest, so its runs average two.
MIN_ROUNDS = {"infer": 1, "attack": 1, "sweep": 2}
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
#: What a fresh process imports before it can serve any workload.
IMPORT_PROBE = ("import repro.core, repro.eval.runner, repro.eval.table1, "
                "repro.cache, repro.parallel")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=("infer", "attack", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Context:
    """What a round's requests share: instruments, reference, tracer."""

    def __init__(self, reference: dict, workers: int, tracer=None) -> None:
        from repro.obs import CommandProfiler, MetricsRegistry
        self.reference = reference
        self.workers = workers
        self.tracer = tracer
        self.scratch = OUT
        # The eval CLI always runs with a metrics registry; so does the
        # benchmark, which reads its host.acts / host.refs counters.
        self.metrics = MetricsRegistry()
        self.profiler = CommandProfiler() if tracer is not None else None
        self.cache_totals = {"hits": 0, "misses": 0, "dedups": 0,
                             "bytes": 0}
        self._requests = 0

    def obs(self):
        from repro.obs import Observability
        return Observability(metrics=self.metrics, profiler=self.profiler)

    @contextmanager
    def request(self):
        if self.tracer is None:
            yield
            return
        self.tracer.request = self._requests
        self._requests += 1
        with self.tracer.span("bench.request"):
            yield

    def watch_host(self, host) -> None:
        if self.tracer is not None:
            self.tracer.cmd_probe = lambda: (
                host.ref_count + sum(host.acts_per_bank.values()))

    def cache_summary(self, cache) -> None:
        summary = cache.summary()
        for key in ("hits", "misses", "dedups"):
            self.cache_totals[key] += summary[key]
        self.cache_totals["bytes"] += cache.stats()["bytes"]

    def commands(self) -> int:
        """ACT+REF the host issued (each RD/WR rides on its own ACT)."""
        return (self.metrics.counter("host.acts")
                + self.metrics.counter("host.refs"))


def measure_setup(workload: str, modules, seed: int, workers: int) -> float:
    """Median over SETUP_REPEATS of: a fresh interpreter's imports, the
    round's chip construction and, for ``sweep``, a pool start."""
    from repro.eval.scale import get_scale
    from repro.parallel import WorkUnit, run_units
    from workloads import build_hosts
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                       check=True)
        build_hosts(workload, modules, seed)
        if workload == "sweep":
            run_units([WorkUnit(unit_id=f"setup/{index}", fn=get_scale,
                                args=("quick",))
                       for index in range(workers)], workers)
        times.append(perf_counter() - started)
    return statistics.median(times)


def run_round(workload: str, modules, seed: int, ctx):
    from workloads import RUNNERS, RoundLog
    log = RoundLog()
    started = perf_counter()
    RUNNERS[workload](modules, seed, ctx, log)
    log.wall_s = perf_counter() - started
    return log


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (pool worker or
    set-up probe), in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def end_to_end(workload, modules, seed, seconds, workers, reference):
    setup_s = measure_setup(workload, modules, seed, workers)
    ctx = Context(reference, workers)
    logs = []
    began = perf_counter()
    while True:
        logs.append(run_round(workload, modules, seed, ctx))
        if (len(logs) >= MIN_ROUNDS[workload]
                and perf_counter() - began + logs[-1].wall_s > seconds):
            break
    wall = sum(log.wall_s for log in logs)
    samples = [s for log in logs for s in log.samples]
    served = sum(log.modules for log in logs)
    checks = sum(log.checks_total for log in logs)
    metrics = {
        "modules_per_s": (served / wall, "1/s"),
        "module_p50_s": (statistics.median(samples) if samples else 0.0,
                         "s"),
        "sim_cmds_per_s": (ctx.commands() / wall, "1/s"),
        "commands_to_discovery": (ctx.commands() / max(served, 1), "count"),
        "correct_frac": (sum(log.checks_passed for log in logs)
                         / max(checks, 1), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    print(f"# {workload} seed={seed} modules={','.join(modules)} "
          f"rounds={len(logs)} wall={wall:.2f}s samples={len(samples)} "
          f"max={max(samples, default=0.0):.2f}s "
          f"latencies=[{', '.join(f'{s:.2f}' for s in samples)}]")
    return logs, metrics


def traced(workload, modules, seed, workers, reference):
    from layers import install, layer_metrics
    from spans import Tracer
    untraced_log = run_round(workload, modules, seed,
                             Context(reference, workers))
    tracer = Tracer()
    chips: list = []
    ctx = Context(reference, workers, tracer=tracer)
    install(tracer, chips)
    try:
        log = run_round(workload, modules, seed, ctx)
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}.npz"))
    metrics = layer_metrics(tracer, chips, ctx.metrics, ctx.profiler,
                            ctx.cache_totals, log.vulnerable,
                            log.wall_s, untraced_log.wall_s)
    print(f"# {workload} seed={seed} traced={log.wall_s:.2f}s "
          f"untraced={untraced_log.wall_s:.2f}s spans={len(tracer)}")
    return [untraced_log, log], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import load_reference, round_modules
    reference = load_reference()
    modules = round_modules(args.workload, args.seed)
    workers = os.cpu_count() or 1
    if args.trace:
        logs, metrics = traced(args.workload, modules, args.seed, workers,
                               reference)
    else:
        logs, metrics = end_to_end(args.workload, modules, args.seed,
                                   args.seconds, workers, reference)
    failed = sum(log.failed for log in logs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(log.attempted for log in logs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

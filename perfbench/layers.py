"""Per-layer metrics of the traced run.

:func:`install` wraps the public boundary of every simulator layer in
:class:`~spans.Tracer` spans; :func:`layer_metrics` turns the spans, the
program's own counters (``MetricsRegistry``, ``CommandProfiler``,
``ChipStats``, ``ParallelRun``, ``ResultCache``) and the traced/untraced
wall times into the ``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

#: Span-name prefixes, one per layer (``bench`` is the benchmark's own
#: request loop: host construction and output checks).
LAYERS = ("dram", "trr", "softmc", "program", "core", "attacks",
          "parallel", "cache", "eval", "bench")
#: ``TrrInference`` stages, in pipeline order.
STAGES = ("mapping", "cycle", "ref_independence", "period", "neighbors",
          "persistence", "detection", "capacity", "per_bank")
OPCODES = ("ACT", "REF", "RD", "WR", "WAIT")

_DRAM_METHODS = ("write_row", "read_row", "read_row_mismatches", "hammer",
                 "hammer_repeated", "hammer_multi", "refresh",
                 "raw_activate", "raw_read", "raw_write", "raw_refresh")
_TRR_METHODS = ("on_activations", "immediate_refreshes", "on_refresh")
_HOST_METHODS = ("write_row", "read_row", "read_row_mismatches", "hammer",
                 "hammer_single", "hammer_multi", "refresh", "wait",
                 "_hammer_prebuilt", "_hammer_multi_prebuilt")
_STAGE_METHODS = {"test_ref_independence": "ref_independence",
                  "find_trr_period": "period",
                  "find_refreshed_neighbors": "neighbors",
                  "test_state_persistence": "persistence",
                  "classify_detection": "detection",
                  "estimate_capacity": "capacity",
                  "test_per_bank": "per_bank",
                  "regular_refresh_cycle": "cycle"}


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found += _subclasses(sub)
    return found


def install(tracer, chips: list) -> None:
    """Wrap each layer's public boundary; *chips* collects every
    ``DramChip`` built while the wrappers are in place."""
    import repro.attacks
    import repro.core.inference
    import repro.parallel
    import repro.program
    from repro.attacks import AttackExecutor
    from repro.cache import ResultCache
    from repro.core import TrrInference
    from repro.dram import DramChip
    from repro.eval import runner
    from repro.softmc import SoftMCHost
    from repro.softmc.program import SoftMCProgram
    from repro.trr.base import TrrMechanism

    tracer.patch(DramChip, "__init__", "dram.build",
                 on_result=lambda args, _r, _s: chips.append(args[0]))
    for method in _DRAM_METHODS:
        tracer.patch(DramChip, method, f"dram.{method}")
    for cls in _subclasses(TrrMechanism):
        for method in _TRR_METHODS:
            fn = cls.__dict__.get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__",
                                              False):
                tracer.patch(cls, method, f"trr.{method}")
    for method in _HOST_METHODS:
        tracer.patch(SoftMCHost, method, f"softmc.{method.lstrip('_')}")

    def fused(args, result, _seconds):
        if result:
            tracer.count("fused_acts", args[2])

    tracer.patch(SoftMCHost, "_try_fused_hammer", "softmc.try_fused_hammer",
                 on_result=fused)
    tracer.patch(SoftMCHost, "execute_payload", "program.execute")
    tracer.patch(SoftMCProgram, "compile", "program.compile")
    tracer.patch_function(repro.program, "compile_program",
                          "program.compile")
    tracer.patch(TrrInference, "run", "core.run")
    tracer.patch(TrrInference, "acquire", "core.acquire")
    for method, stage in _STAGE_METHODS.items():
        tracer.patch(TrrInference, method, f"core.stage.{stage}",
                     count_cmds=True)
    tracer.patch_function(repro.core.inference, "discover_row_mapping",
                          "core.stage.mapping", count_cmds=True)
    tracer.patch(AttackExecutor, "run", "attacks.run")
    tracer.patch_function(repro.attacks, "run_vulnerability_sweep",
                          "attacks.sweep")
    tracer.patch_function(
        repro.parallel, "run_units", "parallel.run_units",
        on_result=lambda _a, run, seconds:
        tracer.parallel_runs.append((run, seconds)))
    tracer.patch(ResultCache, "lookup", "cache.get")
    tracer.patch(ResultCache, "publish_unit", "cache.put")
    tracer.patch_function(runner, "evaluate_module", "eval.evaluate_module")
    tracer.patch_function(runner, "evaluate_modules",
                          "eval.evaluate_modules")


def _parallel_metrics(runs) -> dict:
    """Pool accounting over every traced ``run_units`` call.

    Only units that executed count (cache hits replay the wall time of
    the run that stored them).  The ideal wall of one call is the larger
    of its slowest unit and its unit time spread evenly over the
    workers; the rest is pool overhead (start-up, pickling, scheduling).
    """
    overhead = max_unit = sum_unit = capacity = 0.0
    retries = 0
    for run, wall in runs:
        walls = [o.wall_s or 0.0 for o in run.outcomes
                 if not (o.cached or o.coalesced)]
        if walls:
            slowest, total = max(walls), sum(walls)
            overhead += wall - max(slowest, total / run.workers)
            max_unit = max(max_unit, slowest)
            sum_unit += total
            capacity += wall * run.workers
        retries += run.retries
    return {"parallel.pool_overhead_s": (overhead, "s"),
            "parallel.max_unit_s": (max_unit, "s"),
            "parallel.sum_unit_s": (sum_unit, "s"),
            "parallel.idle_frac": ((1 - sum_unit / capacity
                                    if capacity else 0.0), "frac"),
            "parallel.retries": (retries, "count")}


def layer_metrics(tracer, chips, metrics, profiler, cache_totals,
                  vulnerable, traced_wall, untraced_wall) -> dict:
    """Metric name -> (value, unit) for the traced round."""
    own = tracer.self_times()
    calls = tracer.calls()
    out: dict = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(
            seconds for name, seconds in own.items()
            if name.startswith(layer + ".")), "s")
    out["dram.calls"] = (sum(count for name, count in calls.items()
                             if name.startswith("dram.")), "count")
    out["dram.acts"] = (sum(chip.stats.activates for chip in chips),
                        "count")
    out["dram.trr_refreshes"] = (sum(chip.stats.trr_refreshes
                                     for chip in chips), "count")
    out["trr.calls"] = (sum(count for name, count in calls.items()
                            if name.startswith("trr.")), "count")
    for opcode in OPCODES:
        out[f"softmc.cmds.{opcode}"] = (profiler.counts.get(opcode, 0),
                                        "count")
    for opcode in OPCODES[:4]:
        out[f"softmc.busy_s.{opcode}"] = (profiler.seconds.get(opcode, 0.0),
                                          "s")
    acts = profiler.counts.get("ACT", 0)
    out["program.compile_s"] = (tracer.inclusive("program.compile"), "s")
    out["program.execute_s"] = (tracer.inclusive("program.execute"), "s")
    out["program.payloads"] = (calls.get("program.execute", 0), "count")
    out["program.fused_act_frac"] = (
        tracer.counts.get("fused_acts", 0) / acts if acts else 0.0, "frac")
    for stage in STAGES:
        out[f"core.stage_s.{stage}"] = (
            tracer.inclusive(f"core.stage.{stage}"), "s")
        out[f"core.stage_cmds.{stage}"] = (
            tracer.span_cmds.get(f"core.stage.{stage}", 0), "count")
    out["rowscout.groups_formed"] = (
        metrics.counter("rowscout.groups_formed"), "count")
    out["rowscout.rows_rejected"] = (
        metrics.counter("rowscout.rows_rejected"), "count")
    experiments = metrics.counter("analyzer.experiments")
    out["analyzer.experiments"] = (experiments, "count")
    out["analyzer.hit_frac"] = (
        metrics.counter("analyzer.trr_hits") / experiments
        if experiments else 0.0, "frac")
    out["attacks.canary_s"] = (
        tracer.inclusive("attacks.run", outside="attacks.sweep"), "s")
    out["attacks.sweep_s"] = (tracer.inclusive("attacks.sweep"), "s")
    out["attacks.runs"] = (metrics.counter("attack.runs"), "count")
    out["attacks.acts_issued"] = (metrics.counter("attack.acts_issued"),
                                  "count")
    out["attacks.vulnerable_rows_frac"] = (
        sum(vulnerable) / len(vulnerable) if vulnerable else 0.0, "frac")
    out.update(_parallel_metrics(tracer.parallel_runs))
    consulted = cache_totals["hits"] + cache_totals["misses"]
    out["cache.hit_ratio"] = (cache_totals["hits"] / consulted
                              if consulted else 0.0, "frac")
    out["cache.get_s"] = (tracer.inclusive("cache.get"), "s")
    out["cache.put_s"] = (tracer.inclusive("cache.put"), "s")
    out["cache.stored_bytes"] = (cache_totals["bytes"], "bytes")
    out["cache.dedups"] = (cache_totals["dedups"], "count")
    out["obs.trace_overhead_frac"] = (traced_wall / untraced_wall - 1,
                                      "frac")
    out["obs.spans"] = (len(tracer), "count")
    return out

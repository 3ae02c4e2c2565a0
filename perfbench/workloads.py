"""The benchmark's three workloads, their inputs and their output checks.

Every workload is a closed loop with one client: the next request goes
out only when the previous one has returned.  A *round* is the
workload's fixed set of requests; ``run.py`` repeats rounds for the
measured time and never cuts one short.

* ``infer`` — full U-TRR reverse engineering (``TrrInference.run`` with
  the Table-1 effort config) of one module per vendor family, one
  request per module.  Checked against the implanted ground truth.
* ``attack`` — ``evaluate_module`` at ``quick`` scale (canary pattern
  selection, then the vulnerability sweep) of six modules covering six
  of the eight TRR implementations, one request per module.  Checked
  against result digests recorded in ``reference.json``.
* ``sweep`` — the ``attack`` modules through ``evaluate_modules`` with a
  process pool and a fresh ``ResultCache``, sent as two overlapping
  requests (first half cold, then the full set).  Every result, cold or
  served from the cache, must match the same digests, and each warm
  result must pickle to the same bytes as its cold twin.

The workload seed draws which Table-1 module stands in for each family
(among the modules of the same Table-1 row group, which share TRR
version, organisation and date code) and, for ``infer`` where the
benchmark builds the host itself, the chip serial.  Seed 0 is the
default module set.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import random
import shutil
import sys
import traceback
from time import perf_counter

from repro.cache import ResultCache
from repro.core import TrrInference
from repro.dram import DramChip
from repro.eval import runner
from repro.eval.scale import QUICK
from repro.eval.table1 import TABLE1_INFERENCE
from repro.obs import Observability
from repro.rng import derive_seed
from repro.softmc import SoftMCHost
from repro.vendors import get_module

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: One tuple per vendor family: the default module first, then the
#: other modules of its Table-1 row group.
INFER_FAMILIES = (("A5", "A1", "A2", "A3", "A4"), ("B0",), ("C7", "C8"))
#: A_TRR1, A_TRR2, B_TRR1, C_TRR1, C_TRR2, C_TRR3.  B_TRR3 (B13: a
#: phase-locked calibration of ~60 s) and B_TRR2 (B9: 0% vulnerable, a
#: documented deviation) are left out only to keep a round short.
ATTACK_FAMILIES = (("A0",), ("A13", "A14"), ("B0",), ("C7", "C8"),
                   ("C9", "C10", "C11"), ("C12", "C13", "C14"))


def draw_modules(families, seed: int) -> tuple[str, ...]:
    """The module standing in for each family under *seed*."""
    if seed == 0:
        return tuple(family[0] for family in families)
    rng = random.Random(f"perfbench/{seed}")
    return tuple(rng.choice(family) for family in families)


def round_modules(workload: str, seed: int) -> tuple[str, ...]:
    families = INFER_FAMILIES if workload == "infer" else ATTACK_FAMILIES
    return draw_modules(families, seed)


def chip_serial(module_id: str, seed: int) -> int:
    """Serial of the chip the benchmark builds for *module_id*; seed 0
    keeps the module's own serial (the Table 1 harness's chip)."""
    if seed == 0:
        return get_module(module_id).device_config().serial
    return derive_seed("perfbench-serial", seed, module_id)


def build_inference_host(module_id: str, seed: int,
                         obs: Observability) -> SoftMCHost:
    """The Table 1 harness's inference chip: dense weak rows, no VRT,
    unscaled RowHammer thresholds."""
    spec = get_module(module_id)
    config = spec.device_config(rows_per_bank=8192,
                                row_bits=QUICK.row_bits,
                                weak_cells_per_row_mean=2.0,
                                vrt_fraction=0.0)
    config = dataclasses.replace(
        config, serial=chip_serial(module_id, seed),
        refresh_cycle_refs=max(QUICK.scaled_cycle(spec),
                               2048 * spec.refresh_cycle_refs // 8192))
    return SoftMCHost(DramChip(config, spec.make_trr()), obs=obs)


def build_hosts(workload: str, modules, seed: int) -> None:
    """Set-up probe: build every chip one round simulates first."""
    for module_id in modules:
        if workload == "infer":
            build_inference_host(module_id, seed, Observability())
        else:
            QUICK.build_host(get_module(module_id))


# -- output checks ------------------------------------------------------------

def recovered_checks(module_id: str, profile) -> list[bool]:
    """Kind, TRR-to-REF period, capacity and per-bank against the
    implanted ground truth (a window TRR's capacity is unknown: None)."""
    truth = get_module(module_id).make_trr().ground_truth
    return [profile.detection == truth.kind,
            profile.trr_ref_period == truth.trr_ref_period,
            profile.aggressor_capacity == truth.aggressor_capacity,
            profile.per_bank == truth.per_bank]


def evaluation_digest(evaluation) -> str:
    """Digest of everything an evaluation reports (canonical JSON, so it
    does not depend on how the result classes pickle)."""
    result = evaluation.result
    material = {
        "module": evaluation.spec.module_id,
        "pattern": evaluation.pattern_name,
        "hammers_per_ref": repr(evaluation.hammers_per_aggressor_per_ref),
        "windows": result.windows,
        "positions": list(result.positions),
        "flips": sorted((int(row), [int(bit) for bit in bits])
                        for row, bits in result.flips_by_row.items()),
    }
    blob = json.dumps(material, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["digests"]


# -- one round ----------------------------------------------------------------

class RoundLog:
    """Everything one round produced: latency samples, checks, counts."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.checks_passed = 0
        self.checks_total = 0
        self.modules = 0
        self.vulnerable: list[float] = []
        self.wall_s = 0.0

    def request(self, ok: bool, checks: list[bool]) -> None:
        self.attempted += 1
        self.checks_total += len(checks)
        self.checks_passed += sum(checks)
        if not (ok and all(checks)):
            self.failed += 1


def _report_error(what: str) -> None:
    print(f"perfbench: {what} raised:\n{traceback.format_exc()}",
          file=sys.stderr)


def run_infer(modules, seed, ctx, log: RoundLog) -> None:
    for module_id in modules:
        with ctx.request():
            host = build_inference_host(module_id, seed, ctx.obs())
            ctx.watch_host(host)
            started = perf_counter()
            try:
                profile = TrrInference(host, TABLE1_INFERENCE).run()
            except Exception:
                _report_error(f"infer {module_id}")
                log.request(False, [False] * 4)
                continue
            log.samples.append(perf_counter() - started)
        log.modules += 1
        checks = recovered_checks(module_id, profile)
        if not all(checks) or profile.partial:
            print(f"perfbench: infer {module_id} recovered "
                  f"{profile.summary()}", file=sys.stderr)
        log.request(not profile.partial, checks)


def run_attack(modules, seed, ctx, log: RoundLog) -> None:
    reference = ctx.reference
    for module_id in modules:
        with ctx.request():
            started = perf_counter()
            try:
                evaluation = runner.evaluate_module(
                    get_module(module_id), QUICK, obs=ctx.obs())
            except Exception:
                _report_error(f"attack {module_id}")
                log.request(False, [False])
                continue
            log.samples.append(perf_counter() - started)
        log.modules += 1
        log.vulnerable.append(evaluation.vulnerable_fraction)
        log.request(True, [_digest_ok(evaluation, module_id, reference)])


def _digest_ok(evaluation, module_id: str, reference: dict) -> bool:
    digest = evaluation_digest(evaluation)
    if digest == reference.get(module_id):
        return True
    print(f"perfbench: {module_id} result digest {digest[:16]} does not "
          f"match the reference", file=sys.stderr)
    return False


class _CompletionLog:
    """``StructuredLog`` stand-in timing each unit's completion."""

    def __init__(self) -> None:
        self.started = perf_counter()
        self.done: dict[str, float] = {}

    def info(self, event: str, **fields) -> None:
        if event in ("unit-done", "unit-cached", "unit-coalesced"):
            self.done[fields["unit"]] = perf_counter() - self.started

    def warning(self, event: str, **fields) -> None:
        pass


def run_sweep(modules, seed, ctx, log: RoundLog) -> None:
    reference = ctx.reference
    store = os.path.join(ctx.scratch, f"cache-{os.getpid()}")
    shutil.rmtree(store, ignore_errors=True)
    cache = ResultCache(store)
    cold: dict[str, bytes] = {}
    try:
        for request in (modules[:len(modules) // 2], modules):
            completions = _CompletionLog()
            with ctx.request():
                try:
                    values = runner.evaluate_modules(
                        request, QUICK, workers=ctx.workers,
                        log=completions, metrics=ctx.metrics,
                        profiler=ctx.profiler, cache=cache)
                except Exception:
                    _report_error(f"sweep {request}")
                    for _ in request:
                        log.request(False, [False])
                    continue
            for module_id, evaluation in zip(request, values):
                log.samples.append(completions.done[f"eval/{module_id}"])
                log.modules += 1
                log.vulnerable.append(evaluation.vulnerable_fraction)
                blob = pickle.dumps(evaluation, protocol=4)
                same = cold.setdefault(module_id, blob) == blob
                log.request(True, [
                    _digest_ok(evaluation, module_id, reference), same])
        ctx.cache_summary(cache)
    finally:
        shutil.rmtree(store, ignore_errors=True)


RUNNERS = {"infer": run_infer, "attack": run_attack, "sweep": run_sweep}

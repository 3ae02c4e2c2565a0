#!/usr/bin/env python3
"""Record the attack result digests the benchmark checks against.

Run from the root of a checkout::

    python3 perfbench/record_reference.py

Evaluates every module any seed can draw for the ``attack`` and
``sweep`` workloads (``evaluate_module`` at ``quick`` scale, one worker)
and writes their digests to ``perfbench/reference.json``, together with
the module sets of the default seed (0) and the held-out seed (1).
Re-record only when a change is meant to alter attack results.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.eval import runner  # noqa: E402
from repro.eval.scale import QUICK  # noqa: E402
from repro.vendors import get_module  # noqa: E402
from workloads import (ATTACK_FAMILIES, REFERENCE_PATH,  # noqa: E402
                       evaluation_digest, round_modules)


def main() -> int:
    digests = {}
    for family in ATTACK_FAMILIES:
        for module_id in family:
            evaluation = runner.evaluate_module(get_module(module_id), QUICK)
            digests[module_id] = evaluation_digest(evaluation)
            print(f"{module_id} {digests[module_id]} "
                  f"vulnerable={evaluation.vulnerable_fraction:.3f}")
    seeds = {str(seed): {workload: list(round_modules(workload, seed))
                         for workload in ("infer", "attack")}
             for seed in (0, 1)}
    with open(REFERENCE_PATH, "w") as out:
        json.dump({"scale": QUICK.name, "seeds": seeds,
                   "digests": digests}, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

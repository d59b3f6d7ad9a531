"""Rewrite goldens.json: every workload's simulated per-mode statistics on
its golden seed, at the lengths the benchmark uses.

Run it from the root of a checkout whose outputs are the reference:

    python3 bench/record_goldens.py
"""

import json

import run
import workloads

GOLDEN_SEED = 0


def main():
    goldens = {}
    for name, workload in workloads.WORKLOADS.items():
        checks = workloads.Checks()
        stats = workload.run(workload.inputs(GOLDEN_SEED), checks).stats
        if checks.failed:
            raise SystemExit(f"{name}: checks failed: {checks.failures}")
        goldens[name] = {"seed": GOLDEN_SEED, "stats": stats}
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Record ``reference.json``: each workload's outputs on the fixed reference input.

Run from the root of a checkout of the commit whose outputs are the
reference (the commit before a change that must keep its numbers):

    python3 perfbench/record_reference.py

Every benchmark run repeats the reference op and requires its output values
to match within ``workloads.compare_digests``'s tolerance and its discrete
choices (VAR orders, spans, taper counts, rejected tests) to be identical.
"""

import json
import os
import shutil
import sys

import run


def main():
    if not run.prepare():
        print(f"error: no package source under {run.SRC}", file=sys.stderr)
        return 2
    import specshrink.cli as cli
    from workloads import WORKLOADS
    workdir = os.path.join(run.ROOT, ".bench_work", f"reference-{os.getpid()}")
    os.makedirs(workdir)
    recorded = {}
    try:
        for name in run.WORKLOAD_NAMES:
            op, _ = run.reference_op(WORKLOADS[name], cli, workdir)
            if op.errors:
                print(f"error: {name} reference op failed: {op.errors}", file=sys.stderr)
                return 1
            recorded[name] = op.digest
            print(f"{name}: {op.wall:.2f} s, {len(op.digest['values'])} value arrays, "
                  f"{len(op.digest['choices'])} choices")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"recorded_from": run.environment(None), "workloads": recorded}, handle,
                  sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Show that every output check of the benchmark catches one corrupted output.

    python3 bench/perturb.py [--workload NAME] [--seed N]

Run it from the repository root.  For each workload it runs one pass,
requires the checks to pass on the true outputs, and then, once per
entry of the workload's `perturbations()`, edits one output (or one
reference figure) in a fresh copy and requires the named check to fail.
It also reports whether the pass-to-pass identity check would see the
edit (it sees every edit of an output; reference edits are not outputs).
Exits 1 if a check lets a corrupted output through.
"""

from __future__ import annotations

import argparse
import copy
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("ladder", "voronoi", "sweeps", "expsums"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    run.limit_threads()
    wl = run.load_workloads()
    run.OUT.mkdir(exist_ok=True)
    missed = 0
    for name, cls in wl.WORKLOADS.items():
        if args.workload and name != args.workload:
            continue
        workdir = Path(tempfile.mkdtemp(prefix=f"perturb-{name}-", dir=run.OUT))
        try:
            workload = cls(args.seed, workdir)
            _, outputs, _, failed = run.run_pass(workload, workdir, 0)
            reference = workload.reference()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        clean = workload.checks(outputs, reference)
        if failed or clean:
            print(f"{name}: true outputs fail: {failed} operations raised, checks {clean}")
            missed += 1
            continue
        for check, mutate in workload.perturbations():
            out, ref = copy.deepcopy(outputs), copy.deepcopy(reference)
            mutate(out, ref)
            caught = {c for c, _ in workload.checks(out, ref)}
            # an edit of an output must also differ from the true pass
            identity = "reference edit" if run.same(outputs, out) else "passes differ"
            status = "caught" if check in caught else "MISSED"
            missed += status == "MISSED"
            print(f"{name}: {mutate.__name__:>16} -> {check:<20} {status}, {identity}"
                  f"  (failing checks: {', '.join(sorted(caught))})")
    print("every perturbation caught" if not missed else f"{missed} perturbations missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare the sweep workload of two checkouts, pass by pass.

    python3 scripts/ab_sweep.py PARENT CHANGE PASSES

PARENT and CHANGE are the roots of two genrep checkouts. The script runs
``perfbench/sweep.py`` of each in turn, PASSES times each, alternating, every
pass in a fresh interpreter that imports genrep from that checkout's
``src``, all pinned to one CPU (``perfbench/pace.py``). It prints each
suite's median paced seconds over the passes, and the pass metrics
``checks_per_s``, ``op_ms.p50`` and ``op_ms.p90`` computed from those
medians as ``perfbench/run.py`` computes them. Then it runs one more pass
of each checkout in a child that records, through ``gc.callbacks``, the
suite in which each collection of generation 1 or 2 starts, and prints
them: a suite whose time moves by about a collection's cost, with no
change in its work, has most likely gained or lost one. It exits 1 if a
pass reports a wrong checked count or a failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Put first on a child's path as ``sitecustomize``: it records, through
# ``gc.callbacks``, the generation of each collection of generation 1 or 2
# and where it starts: in a suite (the ``name`` of ``sweep.run_suites``), in
# the pacing between two (``pace``) or before the first (``import``), and
# prints them to stderr at exit. Nothing else changes in the pass, but
# observing it allocates too, so a collection near the edge of a suite may
# start in the suite next to it in an unobserved pass.
_SITECUSTOMIZE = """
import atexit, gc, json, sys

starts = []


def _where():
    frame, where = sys._getframe(), "import"
    while frame is not None:
        if frame.f_code.co_name == "run_suites":
            return where if where == "pace" else frame.f_locals.get("name", "import")
        if frame.f_code.co_name == "pace":
            where = "pace"
        frame = frame.f_back
    return "import"


def _started(phase, info):
    if phase == "start" and info["generation"] > 0:
        starts.append((_where(), info["generation"]))


gc.callbacks.append(_started)
atexit.register(lambda: print(json.dumps(starts), file=sys.stderr))
"""


def _env(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def one_pass(checkout: Path) -> dict:
    """One sweep pass of ``checkout``: its JSON line."""
    out = subprocess.run([sys.executable, str(checkout / "perfbench" / "sweep.py")],
                         cwd=checkout, env=_env(checkout), capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def metrics(medians: dict[str, float], checks: dict[str, int]) -> dict[str, float]:
    """The pass metrics of ``perfbench/run.py`` from each suite's median
    paced seconds and its checked count."""
    op_ms = sorted(t * 1000 for t in medians.values())
    return {
        "checks_per_s": sum(checks.values()) / sum(medians.values()),
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p90": statistics.quantiles(op_ms, n=10)[8],
    }


def collections(checkout: Path) -> dict[str, list[int]]:
    """The generations of the gen-1 and gen-2 collections of one pass of
    ``checkout``, by where they start."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sitecustomize.py").write_text(_SITECUSTOMIZE, encoding="utf-8")
        env = dict(_env(checkout), PYTHONPATH=os.pathsep.join([tmp, str(checkout / "src")]))
        out = subprocess.run([sys.executable, str(checkout / "perfbench" / "sweep.py")],
                             cwd=checkout, env=env, capture_output=True, text=True, check=True)
    found: dict[str, list[int]] = {}
    for where, generation in json.loads(out.stderr.splitlines()[-1]):
        found.setdefault(where, []).append(generation)
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("passes", type=int, help="sweep passes of each checkout")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("PASSES must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "sweep.py").is_file():
            parser.error(f"no perfbench/sweep.py under {root}")
    sys.path.insert(0, str(PERFBENCH))
    import pace
    import sweep

    pace.pin()
    paced = {side: {} for side in roots}
    status = 0
    for _ in range(args.passes):
        for side, root in roots.items():
            suites = one_pass(root)["suites"]
            problems, _ = sweep.check_pass(suites)
            for problem in problems:
                print(f"FAILED {side}: {problem}")
                status = 1
            for name, (_, _, _, seconds) in suites.items():
                paced[side].setdefault(name, []).append(seconds)

    medians = {side: {name: statistics.median(t) for name, t in times.items()}
               for side, times in paced.items()}
    print(f"{'suite':24} {'parent ms':>10} {'change ms':>10} {'ratio':>6}")
    for name in sweep.PINNED:
        before, after = medians["parent"][name], medians["change"][name]
        print(f"{name:24} {before * 1000:10.3f} {after * 1000:10.3f} {after / before:6.2f}")
    found = {side: metrics(medians[side], sweep.PINNED) for side in roots}
    for key in found["parent"]:
        before, after = found["parent"][key], found["change"][key]
        print(f"{key:24} {before:10.3f} {after:10.3f} {after / before:6.2f}")
    for side, root in roots.items():
        starts = collections(root)
        shown = ", ".join(f"{name} {gens}" for name, gens in starts.items()) or "none"
        print(f"gen-1/2 collections, {side}: {shown}")
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The genrep benchmark.

    python3 perfbench/run.py --workload sweep|values|cli|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; genrep is imported from ``src/`` there.
Each workload is a closed loop with one client and at most one child
process at a time. Times are paced against a reference loop (``pace.py``)
so that the shared host's slow spells cancel. ``--trace 0`` prints the
end-to-end metrics, ``--trace
1`` a separate traced run's per-layer metrics. Every output is checked; the
last line is one JSON object, and the exit code is 1 if anything differed
from its reference. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "values", "cli")
SETUP_FIRST = 5  # set-up samples before the first round; one more after each
MIN_ROUNDS = 3
# Wrappers add a frame to every traced call; the traced run raises the
# recursion limit so that it fails on no value the untraced run completes.
TRACED_RECURSION_LIMIT = 4000

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
}


class Outcome:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, problems: list[str], failed: int | None = None) -> None:
        self.attempted += attempted
        self.failed += len(problems) if failed is None else failed
        self.messages += problems[: max(0, 20 - len(self.messages))]


def _run(argv: list[str], env: dict, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)


def _mb(rusage_who: int) -> float:
    return resource.getrusage(rusage_who).ru_maxrss / 1024


def import_seconds(env: dict, pacer: pace.Pacer) -> float:
    """Paced time to ``import genrep`` (which builds the corpus) in a fresh
    interpreter, as the interpreter itself measures it."""
    code = ("import time; t = time.perf_counter(); import genrep; "
            "print(time.perf_counter() - t)")
    pacer.begin()
    proc = _run([sys.executable, "-c", code], env, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import genrep failed:\n{proc.stderr}")
    return pacer.pace(float(proc.stdout))


class Rounds:
    """Repeated rounds of the same operations, timed per operation.

    genrep keeps no state between calls, so every round does the same work,
    and an operation's time is the median of its paced rounds. Set-up is
    timed between rounds so that its median covers the whole run.
    """

    def __init__(self, seconds: float, env: dict) -> None:
        self.seconds, self.env = seconds, env
        self.pacer = pace.Pacer()
        self.samples: dict[object, list[float]] = {}
        self.checks: dict[object, int] = {}
        import_seconds(env, self.pacer)  # compiles the bytecode cache; not kept
        self.setup = [import_seconds(env, self.pacer) for _ in range(SETUP_FIRST)]
        self.count = 0
        self._t0 = time.perf_counter()

    def more(self) -> bool:
        if self.count:
            self.setup.append(import_seconds(self.env, self.pacer))
        self.count += 1
        return self.count <= MIN_ROUNDS or time.perf_counter() - self._t0 < self.seconds

    def record(self, key, paced: float | None, checks: int = 1) -> None:
        if paced is None:
            return
        self.samples.setdefault(key, []).append(paced)
        self.checks[key] = checks

    def op_seconds(self) -> dict[object, float]:
        """Each operation's median paced seconds."""
        return {key: statistics.median(times) for key, times in self.samples.items()}

    def metrics(self, peak_rss_mb: float) -> dict:
        """The end-to-end metrics; none if no operation succeeded."""
        op_s = self.op_seconds()
        if not op_s:
            return {}
        op_ms = sorted(t * 1000 for t in op_s.values())
        p90 = statistics.quantiles(op_ms, n=10)[8] if len(op_ms) > 1 else op_ms[0]
        return {
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": peak_rss_mb,
            "checks_per_s": sum(self.checks.values()) / sum(op_s.values()),
            "op_ms.p50": statistics.median(op_ms),
            "op_ms.p90": p90,
        }


# ---------------------------------------------------------------------------
# untraced workloads


def run_sweep(seconds: float, seed: int, env: dict, outcome: Outcome) -> tuple[dict, dict]:
    import sweep

    proc = _run([sys.executable, str(HERE / "sweep.py"), "--brute"], env)
    if proc.returncode != 0:
        outcome.add(1, [f"brute-force check crashed:\n{proc.stderr[-2000:]}"])
    else:
        outcome.add(1, json.loads(proc.stdout.splitlines()[-1]))
    rounds = Rounds(seconds, env)
    peak_mb = 0.0
    while rounds.more():
        proc = _run([sys.executable, str(HERE / "sweep.py")], env)
        if proc.returncode != 0:
            outcome.add(sweep.TOTAL_CHECKS, [f"sweep pass crashed:\n{proc.stderr[-2000:]}"],
                        sweep.TOTAL_CHECKS)
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        outcome.add(sweep.TOTAL_CHECKS, *sweep.check_pass(result["suites"]))
        for name, (checked, _, _, paced) in result["suites"].items():
            rounds.record(name, paced, checked)
        peak_mb = max(peak_mb, result["peak_rss_mb"])
    return rounds.metrics(peak_mb), {"speed": rounds.pacer.speed()}


def run_values(seconds: float, seed: int, env: dict, outcome: Outcome) -> tuple[dict, dict]:
    import values

    rng = random.Random(seed)
    ops = values.make_cycle(rng)
    rounds = Rounds(seconds, env)
    while rounds.more():
        times, failures = values.run_cycle(ops, pacer=rounds.pacer)
        outcome.add(len(ops), failures)
        for i, elapsed in enumerate(times):
            rounds.record(i, elapsed)
    metrics = rounds.metrics(_mb(resource.RUSAGE_SELF))
    if not metrics:
        return metrics, {}
    op_s = rounds.op_seconds()
    return metrics, {"nodes_per_s": sum(ops[i].nodes for i in op_s) / sum(op_s.values()),
                     "speed": rounds.pacer.speed()}


def run_cli(seconds: float, seed: int, env: dict, outcome: Outcome) -> tuple[dict, dict]:
    import coldcli

    rounds = Rounds(seconds, env)
    while rounds.more():
        for argv, expected in coldcli.rotation(seed):
            start = time.perf_counter()
            proc = _run([sys.executable, "-m", "genrep", *argv], env, timeout=60)
            paced = rounds.pacer.pace(time.perf_counter() - start)
            problem = coldcli.mismatch(argv, proc.returncode, proc.stdout, expected)
            outcome.add(1, [problem] if problem else [])
            rounds.record(" ".join(argv), None if problem else paced)
    metrics = rounds.metrics(_mb(resource.RUSAGE_CHILDREN))
    if not metrics:
        return metrics, {}
    return metrics, {"cold_ms.p50": metrics["op_ms.p50"], "cold_ms.p90": metrics["op_ms.p90"],
                     "speed": rounds.pacer.speed()}


# ---------------------------------------------------------------------------
# traced workloads: each round runs the same work untraced, then traced


# Each builder returns the round's work twice: to run untraced, then traced.


def _sweep_round(seed, rng, outcome, tracer):
    import sweep
    from genrep import oracle

    def work():
        suites = sweep.run_suites(oracle.run_property, oracle.EnumBudget(max_size=sweep.MAX_SIZE))
        outcome.add(sweep.TOTAL_CHECKS, *sweep.check_pass(suites))
    return work, work


def _values_round(seed, rng, outcome, tracer):
    import values

    ops = values.make_cycle(rng)

    def traced_eq(a, b):
        tracer.calls["gvalue.eq"] += 1
        return tracer.span("gvalue.eq", lambda: a == b)

    def work(eq):
        _, failures = values.run_cycle(ops, eq)
        outcome.add(len(ops), failures)
    return (lambda: work(values.plain_eq)), (lambda: work(traced_eq))


def _cli_round(seed, rng, outcome, tracer):
    import coldcli
    import genrep.cli

    def work():
        for argv, expected in coldcli.rotation(seed):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = genrep.cli.run_cli(argv)
            problem = coldcli.mismatch(argv, code, out.getvalue(), expected)
            outcome.add(1, [problem] if problem else [])
    return work, work


def run_traced(workload: str, seconds: float, seed: int, env: dict, outcome: Outcome) -> dict:
    import depth
    import spans
    import values

    depths, failures = depth.probe()
    outcome.add(len(depths), failures)
    metrics: dict[str, float] = dict(depths)
    metrics.update(spans.import_times(sys.executable, env, str(ROOT)))

    build = {"sweep": _sweep_round, "values": _values_round, "cli": _cli_round}[workload]
    tracer = spans.Tracer()
    rng = random.Random(seed)
    rounds, untraced_s, traced_s = 0, 0.0, 0.0
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        plain, traced = build(seed, rng, outcome, tracer)
        start = time.perf_counter()
        plain()
        untraced_s += time.perf_counter() - start
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(TRACED_RECURSION_LIMIT)
        tracer.install()
        try:
            start = time.perf_counter()
            traced()
            traced_s += time.perf_counter() - start
        finally:
            tracer.uninstall()
            sys.setrecursionlimit(limit)
        rounds += 1

    metrics.update(spans.layer_metrics(tracer, rounds, values.count_nodes))
    metrics["trace.overhead"] = traced_s / untraced_s
    metrics["trace.coverage"] = sum(tracer.self_times().values()) / traced_s
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{workload}.tsv"))
    return metrics


# ---------------------------------------------------------------------------


def _measure(workload: str, seconds: float, seed: int, traced: bool, env: dict,
             outcome: Outcome) -> tuple[dict, dict]:
    """The workload's metrics, and figures printed but not in BENCHMARK.json."""
    if traced:
        return run_traced(workload, seconds, seed, env, outcome), {}
    run = {"sweep": run_sweep, "values": run_values, "cli": run_cli}[workload]
    return run(seconds, seed, env, outcome)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="genrep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "genrep" / "__init__.py").is_file():
        print(f"error: no genrep sources at {SRC}; run from a genrep checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    pace.pin()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    outcome = Outcome()
    found, extra = _measure(args.workload, args.seconds, args.seed, bool(args.trace), env,
                            outcome)
    print(f"{args.workload}: {outcome.attempted} attempted, {outcome.failed} failed")
    if args.trace:
        import spans
        unit_of = spans.unit_of
    else:
        unit_of = UNITS.__getitem__
    metrics = {}
    for name, value in found.items():
        unit = unit_of(name)
        print(f"  {name:36} {value:14.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    extra["fail_ratio"] = outcome.failed / outcome.attempted
    for name, value in extra.items():
        unit = {"nodes_per_s": "1/s", "fail_ratio": "ratio", "speed": "ratio"}.get(name, "ms")
        print(f"  {name:36} {value:14.6f} {unit} (not in BENCHMARK.json)")
    for message in outcome.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.failed == 0 else 1


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            print(f"error: the {workload} workload printed no result", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

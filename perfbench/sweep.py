"""The ``sweep`` workload: the 24 property suites over the default corpus at
``max_size`` 32, each pass in a fresh interpreter.

Run as a script, this file is one pass: it imports genrep, runs every suite
and prints one JSON line with each suite's checked count, failure count,
seconds and paced seconds (see ``pace.py``), and the pass's peak memory;
with ``--brute`` it prints the brute-force mismatches instead. Both run in a
child so that the benchmark process never grows by genrep's size,
which a forked child's peak memory would inherit. The list of suites is
fixed here rather than read from ``property_names()``, so a change that adds
suites does not change the workload.
"""

from __future__ import annotations

import json
import resource
import sys
import time

MAX_SIZE = 32

# checked_count of every suite at MAX_SIZE; 3,244 in all.
PINNED = {
    "iso-i-ig": 109, "iso-m-i": 12, "iso-p-i": 378, "iso-r-m": 76,
    "iso-r-p": 76, "isoMu-r-p": 76, "map-commute-r-p": 81, "map-comp-i": 56,
    "map-comp-m": 7, "map-comp-p": 189, "map-comp-r": 81, "map-id-i": 56,
    "map-id-m": 7, "map-id-p": 189, "map-id-r": 81, "par-comp": 1179,
    "par-cong": 131, "par-id": 131, "pitfall-comp": 2, "transport-i-ig": 56,
    "transport-m-i": 6, "transport-p-i": 189, "transport-r-m": 38,
    "transport-r-p": 38,
}
TOTAL_CHECKS = sum(PINNED.values())

BRUTE_CEILING = 6


def run_suites(run_property, budget, pacer=None) -> dict[str, list]:
    """Run every pinned suite once: name -> [checked, failures, seconds],
    and the paced seconds after those if a ``pace.Pacer`` is given."""
    out = {}
    for name in PINNED:
        t0 = time.perf_counter()
        report = run_property(name, budget=budget)
        elapsed = time.perf_counter() - t0
        out[name] = [report.checked_count, len(report.failures), elapsed]
        if pacer is not None:
            out[name].append(pacer.pace(elapsed))
    return out


def check_pass(suites: dict[str, list]) -> tuple[list[str], int]:
    """Mismatches of one pass against the pinned counts, and the number of
    checks they cost: every failure and every check missing or extra."""
    problems, wrong = [], 0
    for name, expected in PINNED.items():
        checked, failures = suites.get(name, [0, 0])[:2]
        if checked != expected or failures:
            problems.append(f"{name}: checked {checked} (pinned {expected}), {failures} failures")
            wrong += failures + abs(checked - expected)
    return problems, min(wrong, TOTAL_CHECKS)


# ---------------------------------------------------------------------------
# brute-force cross-check of the enumerators


def _all_trees(limit: int, ctors, leaves) -> list[list]:
    """trees[n] is every tree of exactly n nodes over the given alphabet."""
    unary, pair = ctors
    trees: list[list] = [[], list(leaves)]
    for n in range(2, limit + 1):
        level = [c(t) for c in unary for t in trees[n - 1]]
        for k in range(1, n - 1):
            level += [pair(a, b) for a in trees[k] for b in trees[n - 1 - k]]
        trees.append(level)
    return trees


def brute_force_mismatches() -> list[str]:
    """Compare each enumerator's count with a filter over every small tree."""
    import genrep
    from genrep import FuelExhausted, In1, In2, Konst, Pair, RecV, Refl, Roll, TT, payload
    from genrep import corpus, indexed, instant, multirec, oracle, polyp, regular
    from genrep.gvalue import PayloadSlot

    top = PayloadSlot("⊤")
    trees = _all_trees(
        BRUTE_CEILING,
        ((In1, In2, Roll, Konst, RecV), Pair),
        (TT(), Refl(), payload("⊤", 0), payload("⊤", 1)),
    )
    every = [t for level in trees for t in level]
    budget = oracle.EnumBudget(max_size=BRUTE_CEILING)

    cases = []
    for name, code in corpus.REGULAR_CODES.items():
        cases.append((name, lambda t, c=code: regular.conform_mu_r(c, t),
                      lambda c=code: oracle.enum_mu_regular(c, budget)))
    for name, code in corpus.POLYP_CODES.items():
        cases.append((name, lambda t, c=code: polyp.conform_mu_p(c, top, t),
                      lambda c=code: oracle.enum_mu_polyp(c, top, budget)))
    for name, code in corpus.MULTIREC_CODES.items():
        for at in code.indices:
            cases.append((f"{name}@{genrep.print_label(at)}",
                          lambda t, c=code, a=at: multirec.conform_mu_m(c, a, t),
                          lambda c=code, a=at: oracle.enum_mu_multirec(c, a, budget)))
    for name, code in corpus.INDEXED_CODES.items():
        assign = oracle.standard_assign(code)
        for at in code.outs:
            cases.append((f"{name}@{genrep.print_label(at)}",
                          lambda t, c=code, s=assign, a=at: indexed.conform_i(c, s, a, t),
                          lambda c=code, s=assign, a=at: oracle.enum_indexed(c, s, a, budget)))
    for name, code in corpus.INSTANT_CODES.items():
        env = corpus.INSTANT_ENVS[name]
        cases.append((name, lambda t, c=code, e=env: instant.conform_ig(e, c, t),
                      lambda c=code, e=env: oracle.enum_instant(e, c, budget)))

    problems = []
    for name, conforms, enumerate_ in cases:
        brute = 0
        for t in every:
            try:
                brute += bool(conforms(t))
            except FuelExhausted:
                pass
        found = len(enumerate_())
        if found != brute:
            problems.append(f"enumeration of {name} at size {BRUTE_CEILING}: "
                            f"{found} values, brute force finds {brute}")
    return problems


def main(argv: list[str]) -> int:
    if argv == ["--brute"]:
        print(json.dumps(brute_force_mismatches()))
        return 0
    from genrep import oracle

    import pace

    suites = run_suites(oracle.run_property, oracle.EnumBudget(max_size=MAX_SIZE), pace.Pacer())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"suites": suites, "peak_rss_mb": peak_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One test per acceptance criterion.  Each prints a single verdict line,
visible under ``pytest -s``; the assert carries the same condition so the
suite stays red whenever a criterion is."""

import subprocess
import sys
import time

from genrep import label, left, print_value, right
from genrep.corpus import (
    A_LIST,
    A_NAT,
    BIN_C,
    INDEXED_CODES,
    INSTANT_CODES,
    INSTANT_ENVS,
    L_ROSE,
    LIST_TOP_ENV,
    LIST_TOP_NAME,
    MULTIREC_CODES,
    NAT_C,
    POLYP_CODES,
    REGULAR_CODES,
    ROSE_C,
    S_ROSE,
    TREE_LIST_NAIVE,
    TREE_LIST_PROPER,
    TREE_OF_LISTS,
    VALUES,
    ZIG_ZAG_C,
    ZIG_ZAG_END,
)
from genrep.dsl import parse_code, parse_value, print_code
from genrep.gvalue import PayloadSlot
from genrep.instant import size_ig
from genrep.multirec import conform_mu_m
from genrep.oracle import (
    EnumBudget,
    enum_indexed,
    enum_instant,
    enum_mu_multirec,
    enum_mu_polyp,
    enum_mu_regular,
    run_property,
    standard_assign,
)
from genrep.polyp import conform_mu_p
from genrep.regular import cata_r, conform_mu_r, to_nat_alg
from genrep.gvalue import payload

from helpers import child_env

STAR = label("⋆")
TOP = PayloadSlot("⊤")


def _criterion(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    assert ok, name


def test_golden_examples():
    start = time.perf_counter()
    ok = conform_mu_r(NAT_C, A_NAT)
    ok = ok and cata_r(NAT_C, to_nat_alg, A_NAT) == payload("nat", 2)
    ok = ok and conform_mu_p(ROSE_C, TOP, S_ROSE)
    ok = ok and conform_mu_p(ROSE_C, TOP, L_ROSE)
    ok = ok and conform_mu_m(ZIG_ZAG_C, left(STAR), ZIG_ZAG_END)
    ok = ok and not conform_mu_m(ZIG_ZAG_C, right(STAR), ZIG_ZAG_END)
    ok = ok and size_ig(LIST_TOP_ENV, LIST_TOP_ENV[LIST_TOP_NAME], A_LIST) == 2
    elapsed = time.perf_counter() - start
    _criterion("golden-examples", ok and elapsed < 1.0, f"{elapsed:.3f}s < 1s")


def test_exhaustive_isomorphisms():
    start = time.perf_counter()
    budget = EnumBudget(max_size=12)
    reports = {
        name: run_property(name, budget=budget)
        for name in ["iso-r-p", "iso-r-m", "iso-p-i", "iso-m-i", "iso-i-ig"]
    }
    elapsed = time.perf_counter() - start
    bad = {name: r.failures for name, r in reports.items() if not r.ok()}
    checked = sum(r.checked_count for r in reports.values())
    _criterion(
        "exhaustive-isomorphisms",
        not bad and elapsed < 60.0,
        f"{checked} round trips, {elapsed:.1f}s < 60s",
    )
    assert not bad, bad


def test_functor_laws():
    budget = EnumBudget(max_size=10)
    names = [
        "map-id-r", "map-comp-r",
        "map-id-p", "map-comp-p",
        "map-id-m", "map-comp-m",
        "map-id-i", "map-comp-i",
    ]
    reports = {name: run_property(name, budget=budget) for name in names}
    bad = {name: r.failures for name, r in reports.items() if not r.ok()}
    checked = sum(r.checked_count for r in reports.values())
    _criterion("functor-laws", not bad, f"{checked} applications")
    assert not bad, bad


def test_map_commutes_with_conversion():
    budget = EnumBudget(max_size=10)
    codes = {"NatC": NAT_C, "BinC": BIN_C}
    report = run_property("map-commute-r-p", codes=codes, budget=budget)
    _criterion(
        "map-conversion-commutation", report.ok(), f"{report.checked_count} layers"
    )
    assert report.ok(), report.failures


def test_parallel_combinator_lemmas():
    budget = EnumBudget(max_size=10)
    reports = {
        name: run_property(name, budget=budget)
        for name in ["par-id", "par-comp", "par-cong"]
    }
    bad = {name: r.failures for name, r in reports.items() if not r.ok()}
    checked = sum(r.checked_count for r in reports.values())
    _criterion("parallel-combinator-lemmas", not bad, f"{checked} inputs")
    assert not bad, bad


def test_composition_pitfall():
    naive = conform_mu_p(TREE_LIST_NAIVE, TOP, TREE_OF_LISTS)
    proper = conform_mu_p(TREE_LIST_PROPER, TOP, TREE_OF_LISTS)
    report = run_property("pitfall-comp")
    ok = (not naive) and proper and report.ok()
    _criterion("composition-pitfall", ok)


def test_conformance_transport():
    budget = EnumBudget(max_size=12)
    names = [
        "transport-r-p",
        "transport-r-m",
        "transport-p-i",
        "transport-m-i",
        "transport-i-ig",
    ]
    reports = {name: run_property(name, budget=budget) for name in names}
    bad = {name: r.failures for name, r in reports.items() if not r.ok()}
    checked = sum(r.checked_count for r in reports.values())
    _criterion("conformance-transport", not bad, f"{checked} conversions")
    assert not bad, bad


def _enumerate_everything(budget):
    for code in REGULAR_CODES.values():
        yield from enum_mu_regular(code, budget)
    for code in POLYP_CODES.values():
        yield from enum_mu_polyp(code, TOP, budget)
    for code in MULTIREC_CODES.values():
        for at in code.indices:
            yield from enum_mu_multirec(code, at, budget)
    for code in INDEXED_CODES.values():
        assign = standard_assign(code)
        for at in code.outs:
            yield from enum_indexed(code, assign, at, budget)
    for name, code in INSTANT_CODES.items():
        yield from enum_instant(INSTANT_ENVS[name], code, budget)


def test_dsl_round_trip_and_stable_transcripts():
    tables = {
        "regular": REGULAR_CODES,
        "polyp": POLYP_CODES,
        "multirec": MULTIREC_CODES,
        "indexed": INDEXED_CODES,
        "instant": INSTANT_CODES,
    }
    ok = True
    for universe, table in tables.items():
        for code in table.values():
            ok = ok and parse_code(universe, print_code(universe, code)) == code
    for v in VALUES.values():
        ok = ok and parse_value(print_value(v)) == v
    count = 0
    for v in _enumerate_everything(EnumBudget(max_size=10)):
        ok = ok and parse_value(print_value(v)) == v
        count += 1

    commands = [
        ("check", "--universe", "regular", "--code", "NatC", "--value", "aNat"),
        ("enum", "--universe", "multirec", "--code", "ZigZagC", "--max-size", "10"),
        ("lift", "--from", "indexed", "--to", "instant", "--code", "ZigZagI"),
        ("roundtrip", "--from", "regular", "--to", "polyp", "--code", "NatC",
         "--max-size", "12"),
    ]
    stable = True
    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "genrep", *args], capture_output=True, env=child_env()
            )
            for _ in range(2)
        ]
        stable = stable and runs[0].stdout == runs[1].stdout
        stable = stable and runs[0].stderr == runs[1].stderr
        stable = stable and runs[0].returncode == runs[1].returncode

    _criterion(
        "dsl-round-trip-and-stable-transcripts",
        ok and stable,
        f"{count} enumerated values",
    )

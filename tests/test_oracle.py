"""The enumerators are trusted by every other suite, so this file checks them
against a generator that shares none of their structure: build every tree
over the value alphabet and keep the ones the conformance checkers accept."""

import subprocess
import sys
import textwrap
from functools import partial

import pytest

from genrep import index_set, label, left, print_label, print_value, value_size
from genrep.corpus import (
    INDEXED_CODES,
    INSTANT_CODES,
    INSTANT_ENVS,
    LIST_C,
    LIST_I,
    LIST_TOP_ENV,
    LIST_TOP_NAME,
    MULTIREC_CODES,
    NAT_C,
    NAT_I,
    POLYP_CODES,
    REGULAR_CODES,
    ZIG_ZAG_C,
)
from genrep.gvalue import FuelExhausted, IndexNotInSet, PayloadSlot, Refl, Roll
from genrep.indexed import conform_i
from genrep.instant import conform_ig
from genrep.multirec import MultirecCode, Tag, conform_mu_m
from genrep.oracle import (
    EnumBudget,
    UnknownProperty,
    enum_indexed,
    enum_instant,
    enum_mu_multirec,
    enum_mu_polyp,
    enum_mu_regular,
    property_names,
    run_property,
    standard_assign,
)
from genrep.polyp import conform_mu_p
from genrep.regular import conform_mu_r

from helpers import all_trees_upto, child_env

STAR = label("⋆")
LSTAR = left(STAR)
TOP = PayloadSlot("⊤")


def _accepted(check, limit):
    kept = []
    for t in all_trees_upto(limit):
        try:
            if check(t):
                kept.append(t)
        except FuelExhausted:
            pass
    return sorted(set(kept), key=lambda v: (value_size(v), print_value(v)))


def test_brute_force_agrees_regular():
    brute = _accepted(lambda t: conform_mu_r(NAT_C, t), 6)
    assert enum_mu_regular(NAT_C, EnumBudget(max_size=6)) == brute
    assert len(brute) == 2


def test_brute_force_agrees_polyp():
    brute = _accepted(lambda t: conform_mu_p(LIST_C, TOP, t), 7)
    assert enum_mu_polyp(LIST_C, TOP, EnumBudget(max_size=7)) == brute
    assert len(brute) == 2


def test_brute_force_agrees_multirec():
    brute = _accepted(lambda t: conform_mu_m(ZIG_ZAG_C, LSTAR, t), 6)
    assert enum_mu_multirec(ZIG_ZAG_C, LSTAR, EnumBudget(max_size=6)) == brute
    assert len(brute) == 1


def test_brute_force_agrees_indexed():
    assign = standard_assign(NAT_I)
    brute = _accepted(lambda t: conform_i(NAT_I, assign, STAR, t), 6)
    assert enum_indexed(NAT_I, assign, STAR, EnumBudget(max_size=6)) == brute


def test_brute_force_agrees_instant():
    body = LIST_TOP_ENV[LIST_TOP_NAME]
    brute = _accepted(lambda t: conform_ig(LIST_TOP_ENV, body, t, fuel=7), 7)
    assert enum_instant(LIST_TOP_ENV, body, EnumBudget(max_size=7)) == brute
    assert len(brute) == 2


BRUTE_CEILING = 6


def _corpus_cases():
    """(conformance check, enumerator) per corpus code and index or output."""
    budget = EnumBudget(max_size=BRUTE_CEILING)
    for name, code in REGULAR_CODES.items():
        yield pytest.param(
            partial(conform_mu_r, code),
            partial(enum_mu_regular, code, budget),
            id=f"regular-{name}",
        )
    for name, code in POLYP_CODES.items():
        yield pytest.param(
            partial(conform_mu_p, code, TOP),
            partial(enum_mu_polyp, code, TOP, budget),
            id=f"polyp-{name}",
        )
    for name, code in MULTIREC_CODES.items():
        for at in code.indices:
            yield pytest.param(
                partial(conform_mu_m, code, at),
                partial(enum_mu_multirec, code, at, budget),
                id=f"multirec-{name}-{print_label(at)}",
            )
    for name, code in INDEXED_CODES.items():
        assign = standard_assign(code)
        for at in code.outs:
            yield pytest.param(
                partial(conform_i, code, assign, at),
                partial(enum_indexed, code, assign, at, budget),
                id=f"indexed-{name}-{print_label(at)}",
            )
    for name, code in INSTANT_CODES.items():
        env = INSTANT_ENVS[name]
        yield pytest.param(
            partial(conform_ig, env, code, fuel=BRUTE_CEILING),
            partial(enum_instant, env, code, budget),
            id=f"instant-{name}",
        )


@pytest.mark.parametrize("conforms, enumerate_", list(_corpus_cases()))
def test_brute_force_agrees_on_every_corpus_code(conforms, enumerate_):
    assert enumerate_() == _accepted(conforms, BRUTE_CEILING)


def test_enumeration_is_sorted_and_duplicate_free():
    values = enum_mu_regular(NAT_C, EnumBudget(max_size=11))
    keys = [(value_size(v), print_value(v)) for v in values]
    assert keys == sorted(keys)
    assert len(set(values)) == len(values)


def test_nat_counts_follow_the_closed_form():
    # numeral(n) has size 2n + 3, so a ceiling of 9 admits numerals 0..3
    assert len(enum_mu_regular(NAT_C, EnumBudget(max_size=9))) == 4
    assert enum_mu_regular(NAT_C, EnumBudget(max_size=2)) == []
    assert [value_size(v) for v in enum_mu_regular(NAT_C, EnumBudget(max_size=9))] == [
        3,
        5,
        7,
        9,
    ]


def test_budget_validation():
    with pytest.raises(ValueError):
        EnumBudget(max_size=0)


def test_property_registry_is_complete():
    names = property_names()
    assert names == sorted(names)
    assert len(names) == 24
    assert "iso-r-p" in names and "pitfall-comp" in names
    with pytest.raises(UnknownProperty):
        run_property("nosuch")


@pytest.mark.parametrize("name", property_names())
def test_every_property_holds_at_small_sizes(name):
    report = run_property(name, budget=EnumBudget(max_size=7))
    assert report.ok(), report.failures
    assert report.checked_count > 0


# Checked counts at max_size 10, so a registry refactor that drops or repeats
# checks fails here and not only in the benchmark.
CHECKED_AT_10 = {
    "iso-i-ig": 21, "iso-m-i": 4, "iso-p-i": 16, "iso-r-m": 12, "iso-r-p": 12,
    "isoMu-r-p": 12, "map-commute-r-p": 7, "map-comp-i": 11, "map-comp-m": 2,
    "map-comp-p": 8, "map-comp-r": 7, "map-id-i": 11, "map-id-m": 2, "map-id-p": 8,
    "map-id-r": 7, "par-comp": 99, "par-cong": 11, "par-id": 11, "pitfall-comp": 2,
    "transport-i-ig": 11, "transport-m-i": 2, "transport-p-i": 8, "transport-r-m": 6,
    "transport-r-p": 6,
}


@pytest.mark.parametrize("name", property_names())
def test_checked_counts_are_pinned_at_size_ten(name):
    report = run_property(name, budget=EnumBudget(max_size=10))
    assert report.failures == []
    assert report.checked_count == CHECKED_AT_10[name]


def test_missing_indexed_slot_is_reported_as_in_conformance():
    with pytest.raises(IndexNotInSet, match=r"^no slot for index L\.⋆$"):
        enum_indexed(LIST_I, {}, STAR, EnumBudget(max_size=6))


A, B = label("a"), label("b")


@pytest.mark.parametrize(
    "code, at, missing",
    [(MultirecCode(index_set(A), Tag(B)), A, "b"), (ZIG_ZAG_C, label("nosuch"), "nosuch")],
    ids=["tag", "index"],
)
def test_multirec_labels_outside_the_index_set_raise(code, at, missing):
    message = f"^index {missing} is not in the code's index set$"
    with pytest.raises(IndexNotInSet, match=message):
        conform_mu_m(code, at, Roll(Refl()))
    with pytest.raises(IndexNotInSet, match=message):
        enum_mu_multirec(code, at, EnumBudget(max_size=4))


def test_known_check_counts():
    assert run_property("iso-m-i", budget=EnumBudget(max_size=8)).checked_count == 2
    assert run_property("iso-m-i", budget=EnumBudget(max_size=12)).checked_count == 4
    assert run_property("pitfall-comp").checked_count == 2


# The child replaces each generator in turn with one that emits ``refl``,
# which conforms to none of the codes asked for, and prints what the
# enumerator does then.
_BROKEN_GENERATORS = textwrap.dedent(
    """
    from genrep import Refl, corpus, embed, oracle
    from genrep.gvalue import TOP_SLOT

    budget = oracle.EnumBudget(max_size=6)
    cases = {
        "_gen_mu_r": lambda: oracle.enum_mu_regular(corpus.NAT_C, budget),
        "_gen_mu_p": lambda: oracle.enum_mu_polyp(corpus.LIST_C, TOP_SLOT, budget),
        "_gen_mu_m": lambda: oracle.enum_mu_multirec(corpus.ZIG_ZAG_C, embed.LSTAR, budget),
        "_gen_i": lambda: oracle.enum_indexed(
            corpus.NAT_I, oracle.standard_assign(corpus.NAT_I), embed.STAR, budget
        ),
        "_gen_ig": lambda: oracle.enum_instant(
            corpus.LIST_TOP_ENV, corpus.LIST_TOP_ENV[corpus.LIST_TOP_NAME], budget
        ),
    }
    for name, enumerate_ in cases.items():
        setattr(oracle, name, lambda *args: [Refl()])
        try:
            print(name, "returned", enumerate_())
        except RuntimeError as err:
            print(name, "raised", err)
    builder = embed._EnvBuilder({})
    builder.entries["ig0"] = None
    try:
        print("env returned", builder.finished())
    except RuntimeError as err:
        print("env raised", err)
    """
)


def test_inline_rechecks_survive_optimized_mode():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_GENERATORS],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"{name} raised enumerator emitted a non-conforming value: refl"
        for name in ("_gen_mu_r", "_gen_mu_p", "_gen_mu_m", "_gen_i", "_gen_ig")
    ] + ["env raised environment entries never built: ig0"]


# The same with the one-layer generators, whose enumerators re-check too.
_BROKEN_ONE_LAYER_GENERATORS = textwrap.dedent(
    """
    from genrep import Refl, corpus, embed, multirec, oracle, polyp, regular
    from genrep.gvalue import TOP_SLOT

    budget = oracle.EnumBudget(max_size=6)
    list_slots = polyp.SlotPair(TOP_SLOT, polyp.MuSlot(corpus.LIST_C, TOP_SLOT))
    zig_zag = multirec.mu_assignment(corpus.ZIG_ZAG_C)
    cases = {
        "_gen_r": lambda: oracle.enum_regular(
            corpus.NAT_C, regular.MuSlot(corpus.NAT_C), budget
        ),
        "_gen_p": lambda: oracle.enum_polyp(corpus.LIST_C, list_slots, budget),
        "_gen_body_m": lambda: oracle.enum_multirec(
            corpus.ZIG_ZAG_C, zig_zag, embed.LSTAR, budget
        ),
    }
    for name, enumerate_ in cases.items():
        setattr(oracle, name, lambda *args: [Refl()])
        try:
            print(name, "returned", enumerate_())
        except RuntimeError as err:
            print(name, "raised", err)
    """
)


def test_one_layer_rechecks_survive_optimized_mode():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_ONE_LAYER_GENERATORS],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"{name} raised enumerator emitted a non-conforming value: refl"
        for name in ("_gen_r", "_gen_p", "_gen_body_m")
    ]

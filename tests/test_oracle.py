"""The enumerators are trusted by every other suite, so this file checks them
against a generator that shares none of their structure: build every tree
over the value alphabet and keep the ones the conformance checkers accept."""

import json
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter
from functools import partial

import pytest

from genrep import index_set, label, left, print_label, print_value, value_size
from genrep import corpus, dsl, embed, indexed, oracle, regular
from genrep.corpus import (
    BIN_C,
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
    ROSE_C,
    ROSE_I,
    ZIG_ZAG_C,
    ZIG_ZAG_I,
)
from genrep.gvalue import (
    NAT_SORT, TT, EmptySlot, In1, In2, IndexNotInSet, MalformedValue, PayloadSlot, Refl, Roll
)
from genrep.indexed import conform_i
from genrep.instant import Prim, conform_ig
from genrep.multirec import MultirecCode, Tag, conform_m, conform_mu_m, mu_assignment
from genrep.oracle import (
    EnumBudget,
    UnknownProperty,
    _layers,
    enum_context,
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
from genrep.regular import MuSlot, conform_mu_r, conform_r

from helpers import _fuzz_code, all_trees_upto, child_env, corpus_contexts, fuzz_indexed_codes

STAR = label("⋆")
LSTAR = left(STAR)
TOP = PayloadSlot("⊤")


def _accepted(check, limit):
    kept = [t for t in all_trees_upto(limit) if check(t)]
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


def test_brute_force_agrees_on_an_empty_slot():
    """A list of an empty slot has only the empty list: the generator's
    empty leaf has no size."""
    assign = {STAR: EmptySlot()}
    brute = _accepted(lambda t: conform_i(LIST_I, assign, STAR, t), BRUTE_CEILING)
    assert enum_indexed(LIST_I, assign, STAR, EnumBudget(max_size=BRUTE_CEILING)) == brute
    values = enum_indexed(LIST_I, assign, STAR, EnumBudget(max_size=8))
    assert [print_value(v) for v in values] == ["<in1 tt>"]


def test_brute_force_agrees_instant():
    body = LIST_TOP_ENV[LIST_TOP_NAME]
    brute = _accepted(lambda t: conform_ig(LIST_TOP_ENV, body, t), 7)
    assert enum_instant(LIST_TOP_ENV, body, EnumBudget(max_size=7)) == brute
    assert len(brute) == 2


BRUTE_CEILING = 6


def _corpus_cases(ceiling=BRUTE_CEILING):
    """(conformance check, enumerator up to ``ceiling``) per corpus code and
    index or output; for regular and multirec also of one layer, whose
    values the law suites read through ``oracle._layers``."""
    budget = EnumBudget(max_size=ceiling)
    for name, code in REGULAR_CODES.items():
        yield pytest.param(
            partial(conform_mu_r, code),
            partial(enum_mu_regular, code, budget),
            id=f"regular-{name}",
        )
        yield pytest.param(
            partial(conform_r, code, MuSlot(code)),
            partial(_layers, embed.regular_context(code), budget),
            id=f"regular-layer-{name}",
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
            yield pytest.param(
                partial(conform_m, code, mu_assignment(code), at),
                partial(_layers, embed.multirec_context(code, at), budget),
                id=f"multirec-layer-{name}-{print_label(at)}",
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
            partial(conform_ig, env, code),
            partial(enum_instant, env, code, budget),
            id=f"instant-{name}",
        )


@pytest.mark.parametrize("conforms, enumerate_", list(_corpus_cases()))
def test_brute_force_agrees_on_every_corpus_code(conforms, enumerate_):
    assert enumerate_() == _accepted(conforms, BRUTE_CEILING)


def _fuzz_contexts(seeds):
    """The contexts of the regular, polyp, multirec and indexed codes that
    ``_fuzz_code`` gives per seed; text that does not parse gives none."""
    for seed in seeds:
        rng = random.Random(seed)
        for universe in ("regular", "polyp", "multirec", "indexed"):
            try:
                code = dsl.parse_code(universe, _fuzz_code(rng, universe))
            except dsl.ParseError:
                continue
            yield from embed.contexts(universe, code)


FUZZ_CEILING = 5


def test_brute_force_agrees_on_generated_codes():
    """The indexed generator serves regular, polyp and multirec through
    their lift, so its completeness is checked on generated codes of each,
    and on indexed codes that no lift gives, against every tree the
    context's own conformer accepts."""
    contexts = list(_fuzz_contexts(range(150)))
    counts = Counter(ctx.universe for ctx in contexts)
    assert counts == {"regular": 117, "polyp": 117, "multirec": 19, "indexed": 32}
    for ctx in contexts:
        brute = _accepted(embed.conformer(ctx), FUZZ_CEILING)
        assert enum_context(ctx, EnumBudget(max_size=FUZZ_CEILING)) == brute, ctx


# Nothing removes repeats after enumeration: every value is built once by
# construction, and this checks that on every corpus context.
@pytest.mark.parametrize("conforms, enumerate_", list(_corpus_cases(14)))
def test_enumeration_is_sorted_and_duplicate_free(conforms, enumerate_):
    values = enumerate_()
    keys = [(value_size(v), print_value(v)) for v in values]
    assert keys == sorted(keys)
    assert len(set(values)) == len(values)


def _in_printed_order(values):
    keys = [(value_size(v), print_value(v)) for v in values]
    return keys == sorted(keys)


def test_each_size_is_in_printed_order_beyond_the_corpus():
    """``oracle._finish`` sorts a size by branch choices, never printing a
    value; that is the printed order on generated codes of every universe,
    on generated indexed codes whose every input holds ``nat`` tokens (two
    a position, so token order counts too), and on every corpus context,
    instant images included, at a larger size than the test above."""
    for ctx in _fuzz_contexts(range(300)):
        assert _in_printed_order(enum_context(ctx, EnumBudget(max_size=10))), ctx
    for code in fuzz_indexed_codes(range(200)):
        assign = embed.payload_slots(dict.fromkeys(code.ins, Prim(NAT_SORT)))
        for at in code.outs:
            assert _in_printed_order(enum_indexed(code, assign, at, EnumBudget(max_size=8))), code
    for param in corpus_contexts():
        [ctx] = param.values
        assert _in_printed_order(enum_context(ctx, EnumBudget(max_size=24))), param.id


@pytest.mark.parametrize(
    "enumerate_",
    [
        lambda: enum_mu_regular(BIN_C, EnumBudget(max_size=16)),
        lambda: enum_mu_polyp(LIST_C, TOP, EnumBudget(max_size=16)),
    ],
    ids=["regular-BinC", "polyp-ListC"],
)
def test_each_fixed_point_value_is_built_once(monkeypatch, enumerate_):
    """From a cold table, one top-level enumeration builds each fixed-point
    value once and shares it as a subtree of every larger value."""
    monkeypatch.setattr(oracle, "_ENUMERATED", {})
    built = []
    monkeypatch.setattr(indexed, "Roll", lambda w: built.append(w) or Roll(w))
    values = enumerate_()
    assert len(built) == len(values)


@pytest.mark.parametrize("code, builds", [(LIST_I, 2), (ROSE_I, 4)], ids=["ListI", "RoseI"])
def test_one_enumeration_builds_each_fixed_points_table_once(monkeypatch, code, builds):
    """An indexed enumeration and the conformer that rechecks its values
    each build the table under a fixed point once, at every size: RoseI's
    inner fixed point sits under a composition and still builds once."""
    calls = []
    original = indexed.mu_assign
    monkeypatch.setattr(
        indexed, "mu_assign", lambda inner, assign: calls.append(inner) or original(inner, assign)
    )
    (ctx,) = embed.contexts("indexed", code)
    counts = []
    for max_size in (8, 14, 20):
        calls.clear()
        oracle._enumerate(ctx, EnumBudget(max_size=max_size))
        counts.append(len(calls))
    assert counts == [builds] * 3


@pytest.mark.parametrize("slot", [PayloadSlot("nat"), EmptySlot()], ids=["nat", "empty"])
def test_polyp_enumerates_at_the_top_slot_only(slot):
    with pytest.raises(ValueError, match="^only the ⊤ parameter slot enumerates"):
        enum_mu_polyp(LIST_C, slot, EnumBudget(max_size=6))


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


ZERO = Roll(In1(TT()))
ONE = Roll(In2(ZERO))


def _broken_walks():
    """Builders of r→p walks that fail every way a suite can see: forward
    raises on zero and turns any other value into ``tt``; backward keeps
    the value."""

    def forward(v):
        if v == ZERO:
            raise MalformedValue("no zero")
        return TT()

    return {"forward": lambda ctx: forward, "backward": lambda ctx: lambda v: v}


def broken_r_p(monkeypatch):
    """Give the r→p row of ``embed.STEPS`` the broken walks."""
    monkeypatch.setitem(embed.STEPS, "r-p", embed.STEPS["r-p"]._replace(walks=_broken_walks()))


# suite -> the failures the broken r→p walks give on NatC at max_size 5,
# whose values are zero and one
BROKEN_R_P = {
    "iso-r-p": [
        (ZERO, "forward", "MalformedValue: no zero"),
        (ONE, "forward", "round trip produced tt"),
        (ZERO, "backward", "MalformedValue: no zero"),
        (ONE, "backward", "round trip produced tt"),
    ],
    "transport-r-p": [
        (ZERO, "forward", "MalformedValue: no zero"),
        (ONE, "forward", "tt does not conform"),
    ],
}


@pytest.mark.parametrize("name", BROKEN_R_P)
def test_a_suite_reports_each_failure_of_the_walks(monkeypatch, name):
    """A round trip or a transport that raises, a round trip that gives
    another value and an image that does not conform are each one entry:
    the value, the direction it was sent first and the reason."""
    broken_r_p(monkeypatch)
    report = run_property(name, {"NatC": NAT_C}, EnumBudget(max_size=5))
    assert report.failures == BROKEN_R_P[name]
    assert report.checked_count == len(BROKEN_R_P[name])


def test_pitfall_comp_reports_each_failure(monkeypatch):
    """With the naive and proper codes swapped, the naive one accepts the
    witness and the proper one rejects it: two checks, two failures, in
    that order."""
    naive, proper = corpus.TREE_LIST_NAIVE, corpus.TREE_LIST_PROPER
    monkeypatch.setattr(corpus, "TREE_LIST_NAIVE", proper)
    monkeypatch.setattr(corpus, "TREE_LIST_PROPER", naive)
    report = run_property("pitfall-comp")
    assert report.checked_count == 2
    assert report.failures == [
        (corpus.TREE_OF_LISTS, "naive", "naive composition accepted the witness"),
        (corpus.TREE_OF_LISTS, "proper", "proper code rejected the witness"),
    ]


# The same at max_size 32, the benchmark's sweep size: 3,244 checks in all.
CHECKED_AT_32 = {
    "iso-i-ig": 109, "iso-m-i": 12, "iso-p-i": 378, "iso-r-m": 76, "iso-r-p": 76,
    "isoMu-r-p": 76, "map-commute-r-p": 81, "map-comp-i": 56, "map-comp-m": 7,
    "map-comp-p": 189, "map-comp-r": 81, "map-id-i": 56, "map-id-m": 7, "map-id-p": 189,
    "map-id-r": 81, "par-comp": 1179, "par-cong": 131, "par-id": 131, "pitfall-comp": 2,
    "transport-i-ig": 56, "transport-m-i": 6, "transport-p-i": 189, "transport-r-m": 38,
    "transport-r-p": 38,
}


@pytest.mark.parametrize("name", property_names())
def test_checked_counts_are_pinned_at_size_thirty_two(name):
    assert sum(CHECKED_AT_32.values()) == 3244
    report = run_property(name, budget=EnumBudget(max_size=32))
    assert report.failures == []
    assert report.checked_count == CHECKED_AT_32[name]


# And at max_size 40: 14,885 checks in all.
CHECKED_AT_40 = {
    "iso-i-ig": 478, "iso-m-i": 16, "iso-p-i": 1854, "iso-r-m": 432, "iso-r-p": 432,
    "isoMu-r-p": 432, "map-commute-r-p": 217, "map-comp-i": 243, "map-comp-m": 8,
    "map-comp-p": 927, "map-comp-r": 217, "map-id-i": 243, "map-id-m": 8,
    "map-id-p": 927, "map-id-r": 217, "par-comp": 5418, "par-cong": 602, "par-id": 602,
    "pitfall-comp": 2, "transport-i-ig": 243, "transport-m-i": 8, "transport-p-i": 927,
    "transport-r-m": 216, "transport-r-p": 216,
}


@pytest.mark.parametrize("name", property_names())
def test_checked_counts_are_pinned_at_size_forty(name):
    assert sum(CHECKED_AT_40.values()) == 14885
    report = run_property(name, budget=EnumBudget(max_size=40))
    assert report.failures == []
    assert report.checked_count == CHECKED_AT_40[name]


# The indexed suites over the 1,298 codes ``fuzz_indexed_codes(range(500))``
# gives, generated indexed codes and closed polyp, multirec and regular ones,
# at max_size 12: about 0.8 s for all four.
GENERATED_CODES = 1298
CHECKED_ON_GENERATED = {"iso-i-ig": 4782, "transport-i-ig": 2465, "map-id-i": 2465,
                        "map-comp-i": 2465}


@pytest.fixture(scope="module")
def generated_codes():
    return dict(enumerate(fuzz_indexed_codes(range(500))))


@pytest.mark.parametrize("name", sorted(CHECKED_ON_GENERATED))
def test_the_indexed_suites_hold_on_generated_codes(generated_codes, name):
    assert len(generated_codes) == GENERATED_CODES
    report = run_property(name, codes=generated_codes, budget=EnumBudget(max_size=12))
    assert report.failures == []
    assert report.checked_count == CHECKED_ON_GENERATED[name]


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


@pytest.mark.parametrize("max_size", [2.5, 3.0, "3", True, None])
def test_a_budget_is_an_int(max_size):
    """Any other size would build and then fail inside the enumeration."""
    with pytest.raises(ValueError, match=f"^max_size must be an int: {re.escape(repr(max_size))}$"):
        EnumBudget(max_size=max_size)


def test_known_check_counts():
    assert run_property("iso-m-i", budget=EnumBudget(max_size=8)).checked_count == 2
    assert run_property("iso-m-i", budget=EnumBudget(max_size=12)).checked_count == 4
    assert run_property("pitfall-comp").checked_count == 2


# The child replaces the generator behind each universe's enumerator in turn
# with one that emits ``refl``, which conforms to none of the codes asked
# for, and prints what the enumerator does then. Regular, polyp and multirec
# are enumerated through their indexed lift, so ``indexed.Generator`` is
# behind them.
_BROKEN_GENERATORS = textwrap.dedent(
    """
    from genrep import Refl, corpus, embed, indexed, instant, oracle
    from genrep.gvalue import TOP_SLOT

    budget = oracle.EnumBudget(max_size=6)
    # (owner, name, a generator that emits refl at every size)
    gen_i = (indexed.Generator, "__call__", lambda self, n: [Refl()])
    gen_ig = (instant._Generator, "__call__", lambda self, n: [Refl()])
    cases = {
        "regular": (gen_i, lambda: oracle.enum_mu_regular(corpus.NAT_C, budget)),
        "polyp": (gen_i, lambda: oracle.enum_mu_polyp(corpus.LIST_C, TOP_SLOT, budget)),
        "multirec": (gen_i, lambda: oracle.enum_mu_multirec(
            corpus.ZIG_ZAG_C, embed.LSTAR, budget
        )),
        "indexed": (gen_i, lambda: oracle.enum_indexed(
            corpus.NAT_I, oracle.standard_assign(corpus.NAT_I), embed.STAR, budget
        )),
        "instant": (gen_ig, lambda: oracle.enum_instant(
            corpus.LIST_TOP_ENV, corpus.LIST_TOP_ENV[corpus.LIST_TOP_NAME], budget
        )),
    }
    for name, ((owner, generator, broken), enumerate_) in cases.items():
        setattr(owner, generator, broken)
        try:
            print(name, "returned", enumerate_())
        except RuntimeError as err:
            print(name, "raised", err)
    builder = embed._EnvBuilder()
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
        for name in ("regular", "polyp", "multirec", "indexed", "instant")
    ] + ["env raised environment entries never built: ig0"]


# ---------------------------------------------------------------------------
# the table of enum_context: one enumeration per context value


def _cold_code():
    """A regular code that no other test enumerates, so its table entry
    starts cold; built afresh on every call, as the suites build codes."""
    rest = regular.Sum(regular.Id(), regular.Prod(regular.Id(), regular.Unit()))
    return regular.Sum(regular.Unit(), rest)


def _count_finish(monkeypatch) -> list:
    """Record every ``_finish`` call, that is every generator run."""
    calls = []
    finish = oracle._finish
    monkeypatch.setattr(oracle, "_finish", lambda *args: calls.append(args) or finish(*args))
    return calls


def test_equal_contexts_share_one_enumeration(monkeypatch):
    calls = _count_finish(monkeypatch)
    first, second = embed.regular_context(_cold_code()), embed.regular_context(_cold_code())
    assert first.code is not second.code
    values = enum_context(first, EnumBudget(max_size=9))
    assert len(calls) == 1
    assert enum_context(second, EnumBudget(max_size=9)) == values
    assert enum_context(second, EnumBudget(max_size=5)) == [v for v in values if value_size(v) <= 5]
    assert len(calls) == 1


@pytest.mark.parametrize("ctx", list(corpus_contexts()))
@pytest.mark.parametrize("sizes, runs", [((14, 10), 1), ((10, 14), 2)], ids=["down", "up"])
def test_the_table_serves_each_budget_as_a_fresh_enumeration(monkeypatch, ctx, sizes, runs):
    """From a cold table, a smaller budget after a larger one is served
    from the entry; a larger one after a smaller one enumerates again."""
    uncached = {n: oracle._enumerate(ctx, EnumBudget(max_size=n)) for n in sizes}
    monkeypatch.setattr(oracle, "_ENUMERATED", {})
    calls = _count_finish(monkeypatch)
    for n in sizes:
        assert enum_context(ctx, EnumBudget(max_size=n)) == uncached[n]
    assert len(calls) == runs


@pytest.mark.parametrize(
    "universe, code, twin",
    [("regular", NAT_C, NAT_I), ("polyp", LIST_C, LIST_I), ("multirec", ZIG_ZAG_C, ZIG_ZAG_I)],
    ids=["NatC", "ListC", "ZigZagC"],
)
def test_a_context_and_its_closed_indexed_lift_share_one_enumeration(
    monkeypatch, universe, code, twin
):
    """From a cold table, the indexed twin of a regular, polyp or multirec
    context is served from the entry that the context's lift filled: one
    enumeration per index."""
    monkeypatch.setattr(oracle, "_ENUMERATED", {})
    calls = _count_finish(monkeypatch)
    budget = EnumBudget(max_size=12)
    sources = embed.contexts(universe, code)
    values = [enum_context(ctx, budget) for ctx in sources]
    assert [enum_context(ctx, budget) for ctx in embed.contexts("indexed", twin)] == values
    assert len(calls) == len(sources)


# The child makes the r→p step carry every regular context to the lift of
# BinC, whose values the regular conformer of NatC must then refuse.
_WRONG_LIFT = textwrap.dedent(
    """
    from genrep import corpus, embed, oracle

    wrong = lambda ctx: embed.polyp_context(embed.lift_r_to_p(corpus.BIN_C))
    embed.STEPS["r-p"] = embed.STEPS["r-p"]._replace(context=wrong)
    try:
        print("returned", oracle.enum_mu_regular(corpus.NAT_C, oracle.EnumBudget(max_size=9)))
    except RuntimeError as err:
        print("raised", err)
    """
)


def test_the_source_conformer_catches_a_wrong_lift():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_LIFT],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "raised enumerator emitted a non-conforming value: <in2 (<in1 tt> , <in1 tt>)>"
    ]


def test_a_returned_list_is_the_callers_own():
    ctx = embed.polyp_context(ROSE_C)
    for n in (12, 9, 12):
        values = enum_context(ctx, EnumBudget(max_size=n))
        kept = list(values)
        values.reverse()
        values.pop()
        values.append(Refl())
        assert enum_context(ctx, EnumBudget(max_size=n)) == kept


# The child breaks the generator behind each universe's contexts in turn and
# asks enum_context twice for a context it reaches: no entry is stored, so
# both calls recheck and raise.
_BROKEN_CONTEXT_GENERATORS = textwrap.dedent(
    """
    from genrep import Refl, corpus, embed, indexed, instant, oracle

    budget = oracle.EnumBudget(max_size=6)
    list_top = corpus.LIST_TOP_ENV[corpus.LIST_TOP_NAME]
    # (owner, name, a generator that emits refl at every size)
    gen_i = (indexed.Generator, "__call__", lambda self, n: [Refl()])
    gen_ig = (instant._Generator, "__call__", lambda self, n: [Refl()])
    cases = {
        "regular": (gen_i, embed.regular_context(corpus.NAT_C)),
        "polyp": (gen_i, embed.polyp_context(corpus.LIST_C)),
        "multirec": (gen_i, embed.multirec_context(corpus.ZIG_ZAG_C, embed.LSTAR)),
        "indexed": (gen_i, embed.contexts("indexed", corpus.NAT_I)[0]),
        "instant": (gen_ig, embed.contexts("instant", list_top, corpus.LIST_TOP_ENV)[0]),
    }
    for name, ((owner, generator, broken), ctx) in cases.items():
        setattr(owner, generator, broken)
        for call in (1, 2):
            try:
                print(name, call, "returned", oracle.enum_context(ctx, budget))
            except RuntimeError as err:
                print(name, call, "raised", err)
    """
)


def test_a_broken_generator_raises_on_every_context_call():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_CONTEXT_GENERATORS],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"{name} {call} raised enumerator emitted a non-conforming value: refl"
        for name in ("regular", "polyp", "multirec", "indexed", "instant")
        for call in (1, 2)
    ]


# The child runs all 24 suites at max_size 12 in the order given and prints
# each suite's checked count and failures.
_SUITES_IN_ORDER = textwrap.dedent(
    """
    import json, sys
    from genrep import oracle, print_value

    names = oracle.property_names()
    if sys.argv[1] == "reversed":
        names.reverse()
    out = {}
    for name in names:
        report = oracle.run_property(name, budget=oracle.EnumBudget(max_size=12))
        failures = [[print_value(v), d, m] for v, d, m in report.failures]
        out[name] = [report.checked_count, failures]
    print(json.dumps(out))
    """
)


def test_suite_reports_do_not_depend_on_the_order_suites_run_in():
    reports = []
    for order in ("sorted", "reversed"):
        out = subprocess.run(
            [sys.executable, "-c", _SUITES_IN_ORDER, order],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )
        assert out.returncode == 0, out.stderr
        reports.append(json.loads(out.stdout))
    assert list(reports[0]) == property_names()
    assert list(reports[1]) == property_names()[::-1]
    for name in property_names():
        assert reports[0][name] == reports[1][name], name
        assert reports[0][name][0] > 0

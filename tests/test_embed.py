"""Round-trip checks for every conversion pair, on golden values and on
everything the enumerators produce at small sizes."""

import hashlib
import re
from functools import partial

import pytest

from genrep import (
    In1,
    In2,
    IndexNotInSet,
    Konst,
    MalformedValue,
    Pair,
    RecV,
    Refl,
    Roll,
    TT,
    index_set,
    label,
    payload,
    print_label,
    print_value,
)
from genrep import dsl, embed, indexed, multirec, parse_code, polyp, regular
from genrep.corpus import (
    A_LIST,
    A_NAT,
    BIN_C,
    CODES,
    INSTANT_ENVS,
    LIST_C,
    LIST_I,
    MULTIREC_CODES,
    NAT_C,
    NAT_I,
    POLYP_CODES,
    REGULAR_CODES,
    ROSE_C,
    ROSE_I,
    S_ROSE,
    ZIG_ZAG_C,
    ZIG_ZAG_END,
    ZIG_ZAG_I,
)
from genrep.embed import (
    LSTAR,
    RSTAR,
    STAR,
    STEPS,
    compose_path,
    conforms,
    contexts,
    convert_i_ig,
    convert_m_i,
    convert_p_i,
    convert_r_m,
    convert_r_p,
    fix_m_code,
    fix_p_code,
    indexed_context,
    lift_i_to_ig,
    lift_m_to_i,
    lift_r_to_m,
    lift_r_to_p,
    multirec_context,
    payload_slots,
    polyp_context,
    regular_context,
)
from genrep.gvalue import EmptySlot, PayloadSlot
from genrep.instant import EqWitness, OfCode, Prim, R, conform_ig
from genrep.indexed import conform_i
from genrep.multirec import conform_mu_m
from genrep.oracle import (
    EnumBudget,
    enum_context,
    enum_indexed,
    enum_mu_multirec,
    enum_mu_polyp,
    enum_mu_regular,
    standard_assign,
    standard_table,
)
from genrep.polyp import conform_mu_p
from genrep.regular import conform_mu_r

from helpers import all_trees_upto, fuzz_indexed_codes, indexed_list, rose

BUDGET = EnumBudget(max_size=8)
TOP_TABLE = {STAR: Prim("⊤")}


def test_regular_values_are_polyp_values():
    lifted = lift_r_to_p(NAT_C)
    image = convert_r_p(NAT_C, A_NAT, "forward")
    assert image == A_NAT
    assert conform_mu_p(lifted, EmptySlot(), image)
    assert convert_r_p(NAT_C, image, "backward") == A_NAT


def test_regular_values_are_multirec_values():
    lifted = lift_r_to_m(NAT_C)
    image = convert_r_m(NAT_C, A_NAT, "forward")
    assert image == A_NAT
    assert conform_mu_m(lifted, STAR, image)


def test_polyp_values_are_indexed_values():
    fixed = fix_p_code(ROSE_C)
    image = convert_p_i(ROSE_C, S_ROSE, "forward")
    assert conform_i(fixed, {STAR: PayloadSlot("⊤")}, STAR, image)
    assert convert_p_i(ROSE_C, image, "backward") == S_ROSE


def test_multirec_values_are_indexed_values():
    fixed = fix_m_code(ZIG_ZAG_C)
    image = convert_m_i(ZIG_ZAG_C, LSTAR, ZIG_ZAG_END, "forward")
    assert conform_i(fixed, {}, LSTAR, image)
    assert convert_m_i(ZIG_ZAG_C, LSTAR, image, "backward") == ZIG_ZAG_END


def test_indexed_list_converts_to_the_named_environment():
    two = Roll(In2(Pair(TT(), Roll(In2(Pair(TT(), Roll(In1(TT()))))))))
    out, env = lift_i_to_ig(LIST_I, TOP_TABLE)
    assert out == {STAR: R("ig0")}
    assert list(env) == ["ig0"]

    image = convert_i_ig(LIST_I, TOP_TABLE, STAR, two, "forward")
    assert image == RecV(A_LIST)
    assert conform_ig(env, out[STAR], image)
    assert convert_i_ig(LIST_I, TOP_TABLE, STAR, image, "backward") == two


def test_lifting_to_named_codes_is_deterministic():
    first = lift_i_to_ig(LIST_I, TOP_TABLE)
    second = lift_i_to_ig(LIST_I, TOP_TABLE)
    assert first == second


@pytest.mark.parametrize("code", [NAT_C, BIN_C])
def test_round_trips_on_enumerated_regular_values(code):
    for v in enum_mu_regular(code, BUDGET):
        assert convert_r_p(code, convert_r_p(code, v, "forward"), "backward") == v
        assert convert_r_m(code, convert_r_m(code, v, "forward"), "backward") == v


def test_round_trips_on_enumerated_polyp_values():
    for v in enum_mu_polyp(LIST_C, PayloadSlot("⊤"), BUDGET):
        assert convert_p_i(LIST_C, convert_p_i(LIST_C, v, "forward"), "backward") == v


@pytest.mark.parametrize("at", [LSTAR, RSTAR])
def test_round_trips_on_enumerated_multirec_values(at):
    for v in enum_mu_multirec(ZIG_ZAG_C, at, EnumBudget(max_size=12)):
        assert convert_m_i(ZIG_ZAG_C, at, convert_m_i(ZIG_ZAG_C, at, v, "forward"), "backward") == v


def test_round_trips_on_enumerated_indexed_values():
    assign = standard_assign(LIST_I)
    table = standard_table(LIST_I)
    for v in enum_indexed(LIST_I, assign, STAR, BUDGET):
        image = convert_i_ig(LIST_I, table, STAR, v, "forward")
        assert convert_i_ig(LIST_I, table, STAR, image, "backward") == v


def test_nested_compositions_convert_a_value_they_add_layers_to():
    """Each composition layer becomes a rec node but consumes no node of the
    indexed value, so the image is larger than the value it came from."""
    x = label("x")
    code = parse_code("indexed", "in: x\nout: x\n(U @ I@x) @ I@x")
    table = standard_table(code)
    image = convert_i_ig(code, table, x, TT(), "forward")
    assert image == RecV(RecV(TT()))
    assert convert_i_ig(code, table, x, image, "backward") == TT()


def test_i_ig_builds_each_fixed_points_entries_once(monkeypatch):
    """i→ig reads a code through the assignments of indexed conformance,
    each built once per walk, so the tagging work does not grow with depth,
    also for the list under every layer of a rose. Each value gets a
    converter of its own: ``convert_i_ig`` borrows walks that keep their
    tables from call to call."""
    calls = []
    for module in (embed, indexed):
        for name in ("left", "right"):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda lbl, original=original: calls.append(lbl) or original(lbl)
            )
    inputs = {
        "ListI": (LIST_I, [indexed_list([TT()] * (layers - 1)) for layers in (2, 120)]),
        "RoseI": (ROSE_I, [rose(1), rose(5)]),
    }
    for name, (code, values) in inputs.items():
        counts = []
        for v in values:
            calls.clear()
            ctx, walks = indexed_context(code, TOP_TABLE, STAR), embed.STEPS["i-ig"].walks
            walks["backward"](ctx)(walks["forward"](ctx)(v))
            counts.append(len(calls))
        assert counts[0] == counts[1], name


# The lift of every code ``fuzz_indexed_codes(range(2000))`` gives, 5,269
# codes, 1,016 of them with two or more environment entries: the outs and
# the environment, printed one code after the other. Seeds below 1,000
# alone would not notice a lift that names a fixed point's entries by the
# node's identity instead of its value.
GENERATED_LIFTS_SHA256 = "6001786ddc8f00cd185ad66a9b657794e22ea2f190c1db4da07dbe0c6f1b1042"


def test_the_lift_of_generated_codes_is_pinned():
    """Compositions and fixed points nested in ways the corpus does not
    have, also in codes closed from polyp, multirec and regular, lift to the
    same outs and entries, named in the same order."""
    lines = []
    for code in fuzz_indexed_codes(range(2000)):
        outs, env = lift_i_to_ig(code, standard_table(code))
        lines += [f"out {print_label(o)} = {dsl.print_code('instant', c)}\n" for o, c in outs.items()]
        lines += [dsl.print_env(env), "\n"]
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == GENERATED_LIFTS_SHA256


@pytest.mark.parametrize(
    "direction, code, at, v, message",
    [
        ("forward", ZIG_ZAG_I, LSTAR, Roll(In1(Pair(TT(), In2(TT())))),
         "tag position is not refl: tt"),
        ("forward", NAT_I, STAR, In1(TT()), "fixed-point layer is not rolled: in1 tt"),
        ("forward", LIST_I, STAR, Roll(In2(Pair(TT(), In1(TT())))),
         "fixed-point layer is not rolled: in1 tt"),
        ("backward", ZIG_ZAG_I, LSTAR, RecV(In1(Pair(Refl(), In2(TT())))),
         "tag position is not k refl: refl"),
        ("backward", ROSE_I, STAR, RecV(Pair(Konst(TT()), In1(TT()))),
         "composition layer is not a rec node: in1 tt"),
        ("backward", ROSE_I, STAR,
         RecV(Pair(Konst(TT()), RecV(RecV(In2(Pair(TT(), RecV(In1(TT())))))))),
         "composition argument is not a constant: tt"),
        ("backward", NAT_I, STAR, In1(TT()), "fixed-point layer is not a rec node: in1 tt"),
        ("backward", LIST_I, STAR, RecV(In2(Pair(Konst(TT()), In1(TT())))),
         "fixed-point layer is not a rec node: in1 tt"),
        ("backward", LIST_I, STAR, RecV(In2(Pair(TT(), RecV(In1(TT()))))),
         "parameter position is not a constant: tt"),
        ("forward", LIST_I, STAR, Roll(In2(Pair(payload("nat", 0), Roll(In1(TT()))))),
         "parameter position does not inhabit K ⊤: nat#0"),
        ("backward", LIST_I, STAR, RecV(In2(Pair(Konst(payload("nat", 0)), RecV(In1(TT()))))),
         "parameter position does not inhabit K ⊤: nat#0"),
    ],
    ids=[
        "fwd-tag",
        "fwd-fix",
        "fwd-fix-inner",
        "bwd-tag",
        "bwd-comp-layer",
        "bwd-comp-argument",
        "bwd-fix",
        "bwd-fix-inner",
        "bwd-parameter",
        "fwd-parameter-content",
        "bwd-parameter-content",
    ],
)
def test_i_ig_names_what_is_malformed(direction, code, at, v, message):
    with pytest.raises(MalformedValue, match=f"^{re.escape(message)}$"):
        convert_i_ig(code, standard_table(code), at, v, direction)


@pytest.mark.parametrize(
    "kset", [OfCode("List⊤"), EqWitness(STAR, STAR)], ids=["of-code", "eq-witness"]
)
def test_i_ig_reads_any_constant_set_as_a_parameter(kset):
    """Whatever constant set an input has, its contents become constants."""
    v = indexed_list([TT()])
    image = convert_i_ig(LIST_I, {STAR: kset}, STAR, v, "forward")
    assert image == RecV(In2(Pair(Konst(TT()), RecV(In1(TT())))))
    assert convert_i_ig(LIST_I, {STAR: kset}, STAR, image, "backward") == v


@pytest.mark.parametrize("code", [LIST_I, ROSE_I], ids=["ListI", "RoseI"])
def test_i_ig_keeps_the_contents_of_a_nat_parameter(code):
    """Forward, a parameter's content becomes a constant of its sort, so the
    image conforms to the lifted code; backward gives the value back."""
    table = {lbl: Prim("nat") for lbl in code.ins}
    out, env = lift_i_to_ig(code, table)
    values = enum_indexed(code, payload_slots(table), STAR, EnumBudget(8))
    printed = " ".join(map(print_value, values))
    assert "nat#0" in printed and "nat#1" in printed
    for v in values:
        image = convert_i_ig(code, table, STAR, v, "forward")
        assert conform_ig(env, out[STAR], image)
        assert convert_i_ig(code, table, STAR, image, "backward") is v


def test_map_commutes_with_the_polyp_lift():
    """Mapping the lifted code then converting back equals mapping directly."""
    from genrep import polyp, regular

    succ = lambda v: Roll(In2(v))
    lifted = lift_r_to_p(NAT_C)
    lifted_map = polyp.Mapper(polyp.InterpSlot(lifted, polyp.SlotPair(lambda u: u, succ)))
    direct_map = regular.mapper(NAT_C, succ)
    for v in enum_mu_regular(NAT_C, BUDGET):
        match v:
            case Roll(w):
                assert lifted_map(w) == direct_map(w)


def test_conversion_paths_agree():
    """aNat reaches the indexed universe through polyp and through multirec;
    every step before the named-environment universe is an identity walk, so
    both paths hand back the same tree."""
    via_p = compose_path(["r-p", "p-i"], regular_context(NAT_C), A_NAT)
    via_m = compose_path(["r-m", "m-i"], regular_context(NAT_C), A_NAT)
    assert via_p == A_NAT
    assert via_m == A_NAT
    back_p = compose_path(["r-p", "p-i"], regular_context(NAT_C), via_p, "backward")
    back_m = compose_path(["r-m", "m-i"], regular_context(NAT_C), via_m, "backward")
    assert back_p == A_NAT
    assert back_m == A_NAT


def test_empty_path_is_identity():
    assert compose_path([], regular_context(NAT_C), A_NAT) == A_NAT
    assert compose_path([], regular_context(NAT_C), A_NAT, "backward") == A_NAT


@pytest.mark.parametrize(
    "step, start, v, universe",
    [
        ("m-i", regular_context(NAT_C), A_NAT, "regular"),
        ("p-i", regular_context(NAT_C), A_NAT, "regular"),
        ("r-p", polyp_context(LIST_C), A_LIST, "polyp"),
        ("i-ig", regular_context(NAT_C), A_NAT, "regular"),
    ],
    ids=["m-i", "p-i", "r-p", "i-ig"],
)
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_a_step_must_start_from_the_current_universe(step, start, v, universe, direction):
    with pytest.raises(ValueError, match=f"^step {step} does not start from {universe}$"):
        compose_path([step], start, v, direction)


SIDEWAYS = "^direction must be forward or backward: 'sideways'$"


@pytest.mark.parametrize(
    "call",
    [
        lambda: compose_path([], regular_context(NAT_C), A_NAT, "sideways"),
        lambda: compose_path(["r-p", "p-i"], regular_context(NAT_C), A_NAT, "sideways"),
        lambda: convert_r_p(NAT_C, A_NAT, "sideways"),
        lambda: embed.convert("x-y", regular_context(NAT_C), A_NAT, "sideways"),
        # the direction is checked before the output index and the table
        lambda: convert_i_ig(NAT_I, {}, label("nosuch"), Roll(In1(TT())), "sideways"),
    ],
    ids=["empty-path", "path", "convert_r_p", "before-the-step", "before-the-index"],
)
def test_a_direction_other_than_forward_or_backward_is_refused(call):
    with pytest.raises(ValueError, match=SIDEWAYS):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: compose_path(["r-p", "x-y"], regular_context(NAT_C), A_NAT),
        lambda: embed.convert("x-y", regular_context(NAT_C), A_NAT, "forward"),
    ],
    ids=["compose_path", "convert"],
)
def test_an_unknown_step_is_refused(call):
    with pytest.raises(ValueError, match="^unknown conversion step: 'x-y'$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: lift_i_to_ig(LIST_I, {}),
        lambda: convert_i_ig(LIST_I, {}, STAR, Roll(In1(TT())), "forward"),
        lambda: convert_i_ig(LIST_I, {label("x"): Prim("⊤")}, STAR, RecV(In1(TT())), "backward"),
    ],
    ids=["lift", "forward", "backward"],
)
def test_a_table_that_misses_an_input_is_refused(call):
    with pytest.raises(MalformedValue, match="^no constant set for input index ⋆$"):
        call()


def test_an_identity_outside_the_inputs_has_no_constant_set():
    """An ill-formed code whose ``Id`` names a label outside ``ins`` is
    refused where the lift meets it."""
    code = indexed.IndexedCode(
        index_set(STAR), index_set(STAR),
        indexed.Sum(indexed.Unit(), indexed.Id(label("x"))),
    )
    with pytest.raises(MalformedValue, match="^no constant set for input index x$"):
        lift_i_to_ig(code, TOP_TABLE)


FOREIGN_NODES = {
    "r-p": (embed.lift_r_to_p, (regular.Sum(regular.Unit(), polyp.Par()),),
            "not a regular code: Par()"),
    "r-m": (embed.lift_r_to_m, (regular.Sum(regular.Unit(), polyp.Par()),),
            "not a regular code: Par()"),
    "p-i": (embed.lift_p_to_i, (polyp.Sum(polyp.Unit(), regular.Id()),),
            "not a polyp code: Id()"),
    "m-i": (embed.lift_m_to_i, (multirec.MultirecCode(index_set(STAR), polyp.Par()),),
            "not a multirec body: Par()"),
    "i-ig": (embed.lift_i_to_ig, (indexed.IndexedCode(index_set(STAR), index_set(STAR),
                                                      polyp.Par()), TOP_TABLE),
             "not an indexed body: Par()"),
}


@pytest.mark.parametrize("lift, args, message", FOREIGN_NODES.values(), ids=FOREIGN_NODES)
def test_a_lift_refuses_a_node_of_another_universe(lift, args, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        lift(*args)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_one_step_must_start_from_the_contexts_universe(direction):
    with pytest.raises(ValueError, match="^step i-ig does not start from regular$"):
        embed.convert("i-ig", regular_context(NAT_C), A_NAT, direction)


def test_full_path_lands_in_a_checkable_environment():
    image = compose_path(["r-m", "m-i", "i-ig"], regular_context(NAT_C), A_NAT)
    lifted = lift_m_to_i(lift_r_to_m(NAT_C))
    fixed = fix_m_code(lift_r_to_m(NAT_C))
    out, env = lift_i_to_ig(fixed, {})
    assert conform_ig(env, out[STAR], image)
    back = compose_path(["r-m", "m-i", "i-ig"], regular_context(NAT_C), image, "backward")
    assert back == A_NAT
    assert lifted.outs == fixed.outs


@pytest.mark.parametrize(
    "convert, v",
    [
        (lambda v, d: convert_r_p(NAT_C, v, d), A_NAT),
        (lambda v, d: convert_r_m(NAT_C, v, d), A_NAT),
        (lambda v, d: convert_p_i(ROSE_C, v, d), S_ROSE),
        (lambda v, d: convert_m_i(ZIG_ZAG_C, LSTAR, v, d), ZIG_ZAG_END),
    ],
    ids=["r-p", "r-m", "p-i", "m-i"],
)
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_identity_arrows_return_their_input(convert, v, direction):
    assert convert(v, direction) is v


# A token at a ⊤ parameter position, and refl under the tag of the other index.
NAT_AT_PARAM = Roll(In2(Pair(payload("nat", 0), Roll(In1(TT())))))
REFL_UNDER_WRONG_TAG = Roll(In2(Pair(Refl(), Roll(In1(Pair(Refl(), In2(TT())))))))


@pytest.mark.parametrize(
    "convert",
    [
        lambda d: convert_p_i(LIST_C, NAT_AT_PARAM, d),
        lambda d: convert_m_i(ZIG_ZAG_C, LSTAR, REFL_UNDER_WRONG_TAG, d),
    ],
    ids=["token-at-parameter", "refl-under-wrong-tag"],
)
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_non_conforming_values_do_not_pass_through(convert, direction):
    with pytest.raises(MalformedValue):
        convert(direction)


def _reflection_cases():
    top = PayloadSlot("⊤")
    for name, code in REGULAR_CODES.items():
        in_regular = partial(conform_mu_r, code)
        lifted_p = partial(conform_mu_p, lift_r_to_p(code), EmptySlot())
        lifted_m = partial(conform_mu_m, lift_r_to_m(code), STAR)
        yield pytest.param(in_regular, lifted_p, id=f"r-p-{name}")
        yield pytest.param(in_regular, lifted_m, id=f"r-m-{name}")
    for name, code in POLYP_CODES.items():
        lifted = partial(conform_i, fix_p_code(code), {STAR: top}, STAR)
        yield pytest.param(partial(conform_mu_p, code, top), lifted, id=f"p-i-{name}")
    for name, code in MULTIREC_CODES.items():
        for at in code.indices:
            lifted = partial(conform_i, fix_m_code(code), {}, at)
            yield pytest.param(
                partial(conform_mu_m, code, at), lifted, id=f"m-i-{name}-{print_label(at)}"
            )


@pytest.mark.parametrize("in_source, in_target", _reflection_cases())
def test_lifts_reflect_conformance(in_source, in_target):
    """Conformance in the source universe equals conformance under the lifted
    code on every small tree, so one check serves both directions."""
    for t in all_trees_upto(6):
        assert in_source(t) == in_target(t), t


# The output index must be one of the code's outputs, and a refl must sit
# under the tag of the index it is read at, in both directions.
@pytest.mark.parametrize(
    "direction, v",
    [("forward", Roll(In1(TT()))), ("backward", RecV(In1(TT())))],
    ids=["forward", "backward"],
)
def test_i_ig_rejects_an_index_outside_the_outputs(direction, v):
    with pytest.raises(IndexNotInSet, match="^index nosuch is not an output of the code$"):
        convert_i_ig(NAT_I, standard_table(NAT_I), label("nosuch"), v, direction)


REFL_UNDER_WRONG_TAG_IG = RecV(
    In2(Pair(Konst(Refl()), RecV(In1(Pair(Konst(Refl()), In2(TT()))))))
)


@pytest.mark.parametrize(
    "direction, v",
    [("forward", REFL_UNDER_WRONG_TAG), ("backward", REFL_UNDER_WRONG_TAG_IG)],
    ids=["forward", "backward"],
)
def test_i_ig_rejects_refl_under_the_other_index_tag(direction, v):
    with pytest.raises(MalformedValue, match="^refl under tag R.⋆ at index L.⋆$"):
        convert_i_ig(ZIG_ZAG_I, {}, LSTAR, v, direction)


@pytest.mark.parametrize(
    "steps, start, v",
    [
        (["i-ig"], indexed_context(LIST_I, standard_table(LIST_I), STAR), Roll(In1(TT()))),
        (["p-i", "i-ig"], polyp_context(LIST_C), Roll(In1(TT()))),
    ],
    ids=["i-ig", "p-i-i-ig"],
)
def test_compose_path_lifts_nothing_past_the_last_step(monkeypatch, steps, start, v):
    image = compose_path(steps, start, v)
    calls = []
    original = embed.lift_i_to_ig
    monkeypatch.setattr(embed, "lift_i_to_ig", lambda *args: calls.append(args) or original(*args))
    assert compose_path(steps, start, v) == image
    assert compose_path(steps, start, image, "backward") == v
    assert calls == []


def test_contexts_read_a_family_at_each_index_or_at_one():
    assert [ctx.at for ctx in contexts("multirec", ZIG_ZAG_C)] == [LSTAR, RSTAR]
    assert contexts("multirec", ZIG_ZAG_C, at=RSTAR) == [multirec_context(ZIG_ZAG_C, RSTAR)]
    assert [ctx.at for ctx in contexts("indexed", ZIG_ZAG_I)] == [LSTAR, RSTAR]
    assert contexts("indexed", LIST_I) == [
        indexed_context(LIST_I, standard_table(LIST_I), STAR)
    ]
    assert contexts("regular", NAT_C, at=STAR) == [regular_context(NAT_C)]


@pytest.mark.parametrize(
    "call",
    [lambda: contexts("bogus", NAT_C), lambda: embed.family("bogus", NAT_C),
     lambda: embed.conformer(embed.PathContext("bogus", NAT_C))],
    ids=["contexts", "family", "conformer"],
)
def test_an_unknown_universe_is_refused_where_it_enters(call):
    """No context of an unknown universe is built, to fail later."""
    with pytest.raises(ValueError, match="^unknown universe: 'bogus'$"):
        call()


def test_an_instant_context_needs_an_environment():
    """Without one, neither conformance nor enumeration could resolve the
    code's references, so the context is not built."""
    code = CODES["instant"]["List⊤"]
    with pytest.raises(ValueError, match="^an instant context needs an environment$"):
        contexts("instant", code)
    [ctx] = contexts("instant", code, INSTANT_ENVS["List⊤"])
    assert conforms(ctx, A_LIST)
    one = In2(Pair(Konst(TT()), RecV(In1(TT()))))
    assert enum_context(ctx, EnumBudget(max_size=7)) == [In1(TT()), one]


@pytest.mark.parametrize("universe", list(CODES))
def test_every_value_enumerated_in_a_context_conforms_there(universe):
    for name, code in CODES[universe].items():
        for ctx in contexts(universe, code, INSTANT_ENVS.get(name)):
            values = enum_context(ctx, EnumBudget(max_size=7))
            assert all(conforms(ctx, v) for v in values), (name, ctx.at)


@pytest.mark.parametrize("at", [LSTAR, RSTAR], ids=print_label)
def test_the_i_ig_step_targets_the_lifted_code_at_the_index(at):
    source = indexed_context(ZIG_ZAG_I, {}, at)
    target = STEPS["i-ig"].context(source)
    lifted, env = lift_i_to_ig(ZIG_ZAG_I, {})
    assert (target.universe, target.code, target.env) == ("instant", lifted[at], env)
    for v in enum_context(source, BUDGET):
        assert conforms(target, convert_i_ig(ZIG_ZAG_I, {}, at, v, "forward"))


def test_only_payload_constant_sets_have_slots():
    assert payload_slots(TOP_TABLE) == {STAR: PayloadSlot("⊤")}
    with pytest.raises(ValueError):
        payload_slots({STAR: EqWitness(STAR, STAR)})

import re

import pytest

from genrep import dsl, embed, indexed, print_value
from genrep import In1, In2, Pair, Refl, Roll, TT, index_set, label, left, payload, right
from genrep.corpus import (
    BIN_C,
    BIN_I,
    LIST_I,
    NAT_C,
    NAT_I,
    ROSE_I,
    ZIG_ZAG_I,
    ZIG_ZAG_END,
)
from genrep.gvalue import IndexNotInSet, MalformedValue, PayloadSlot, identity
from genrep.oracle import EnumBudget, enum_context
from genrep.indexed import (
    Mapper,
    conform_i,
    mu_assign,
    split_tables,
    wellformed_i,
)
from genrep.regular import mapper
from helpers import indexed_list, rose

STAR = label("⋆")
TOP_ASSIGN = {STAR: PayloadSlot("⊤")}
NAT_ASSIGN = {STAR: PayloadSlot("nat")}


@pytest.mark.parametrize("code", [NAT_I, BIN_I, LIST_I, ROSE_I, ZIG_ZAG_I])
def test_corpus_codes_are_wellformed(code):
    assert wellformed_i(code)


def test_wellformedness_refuses_a_node_of_another_universe():
    code = indexed.IndexedCode(index_set(STAR), index_set(STAR), In1(TT()))
    with pytest.raises(TypeError, match=r"^not an indexed body: In1\(value=TT\(\)\)$"):
        wellformed_i(code)


def test_nat_values_conform():
    assert conform_i(NAT_I, TOP_ASSIGN, STAR, Roll(In1(TT())))
    assert conform_i(NAT_I, TOP_ASSIGN, STAR, Roll(In2(Roll(In1(TT())))))
    assert not conform_i(NAT_I, TOP_ASSIGN, STAR, Roll(In2(TT())))


def test_list_parameter_slot_is_respected():
    nats = indexed_list([payload("nat", 0), payload("nat", 1)])
    assert conform_i(LIST_I, NAT_ASSIGN, STAR, nats)
    assert not conform_i(LIST_I, TOP_ASSIGN, STAR, nats)
    assert conform_i(LIST_I, TOP_ASSIGN, STAR, indexed_list([TT()]))


def test_zig_zag_conforms_per_output_index():
    assert conform_i(ZIG_ZAG_I, {}, left(STAR), ZIG_ZAG_END)
    assert not conform_i(ZIG_ZAG_I, {}, right(STAR), ZIG_ZAG_END)


def test_conform_rejects_index_outside_outputs():
    with pytest.raises(IndexNotInSet):
        conform_i(ZIG_ZAG_I, {}, STAR, ZIG_ZAG_END)


def test_map_reaches_parameters_under_the_fixed_point():
    bump = lambda v: payload("nat", v.token.ident + 1)
    nats = indexed_list([payload("nat", 0), payload("nat", 4)])
    assert Mapper(LIST_I, {STAR: bump}, STAR)(nats) == indexed_list(
        [payload("nat", 1), payload("nat", 5)]
    )


def test_map_identity_preserves_rose_values():
    rose = Roll(Pair(TT(), Roll(In1(TT()))))
    assert Mapper(ROSE_I, {STAR: lambda v: v}, STAR)(rose) == rose


def test_split_tables_tag_left_and_right():
    joined = split_tables({STAR: PayloadSlot("a")}, {STAR: PayloadSlot("b")})
    assert set(joined) == {left(STAR), right(STAR)}
    assert joined[left(STAR)] == PayloadSlot("a")

    fns = split_tables({STAR: lambda v: In1(v)}, {STAR: lambda v: In2(v)})
    assert fns[left(STAR)](TT()) == In1(TT())
    assert fns[right(STAR)](TT()) == In2(TT())


def _count_tagging(monkeypatch):
    """Record every ``left``/``right`` call the indexed walks make."""
    calls = []
    for name in ("left", "right"):
        original = getattr(indexed, name)
        monkeypatch.setattr(
            indexed, name, lambda lbl, original=original: calls.append(lbl) or original(lbl)
        )
    return calls


@pytest.mark.parametrize(
    "walk",
    [
        lambda code, v: indexed.Conformer(code, TOP_ASSIGN, STAR)(v),
        lambda code, v: Mapper(code, {STAR: lambda w: w}, STAR)(v),
    ],
    ids=["conform_i", "map_i"],
)
def test_walks_build_each_fixed_points_table_once(monkeypatch, walk):
    """The table under a fixed point is built when the walk enters it, not
    again at every layer, so the tagging work does not grow with depth. A
    fixed point under a composition (the list inside each rose layer) is
    entered at every layer of the outer one, and still builds its table
    once per walk. Each value gets a walk of its own: ``conform_i`` borrows
    a walk that keeps its tables from call to call."""
    calls = _count_tagging(monkeypatch)
    inputs = {
        "ListI": (LIST_I, [indexed_list([TT()] * (layers - 1)) for layers in (2, 120)]),
        "RoseI": (ROSE_I, [rose(1), rose(5)]),
    }
    for name, (code, values) in inputs.items():
        counts = []
        for v in values:
            calls.clear()
            assert walk(code, v)
            counts.append(len(calls))
        assert counts[0] == counts[1], name


@pytest.mark.parametrize(
    "walk",
    [
        lambda v: indexed.Conformer(LIST_I, TOP_ASSIGN, STAR)(v),
        lambda v: Mapper(LIST_I, {STAR: lambda w: w}, STAR)(v),
    ],
    ids=["conform_i", "map_i"],
)
def test_walks_check_the_output_index_once(monkeypatch, walk):
    """Only the index a caller gives can lie outside the outputs: in a
    well-formed code every inner walk's index is an output of its code. A
    walk checks it once, when it is built; ``conform_i`` borrows a walk
    built for its index."""
    calls = []
    original = indexed.check_output
    monkeypatch.setattr(
        indexed, "check_output", lambda *args: calls.append(args) or original(*args)
    )
    counts = []
    for layers in (2, 120):
        calls.clear()
        assert walk(indexed_list([TT()] * (layers - 1)))
        counts.append(len(calls))
    assert counts == [1, 1]


@pytest.mark.parametrize(
    "walk, message, error",
    [
        (lambda: Mapper(LIST_I, {STAR: identity}, STAR)(In1(TT())),
         "fixed-point layer is not rolled: in1 tt", MalformedValue),
        (lambda: Mapper(LIST_I, {STAR: identity}, STAR)(Roll(In2(Pair(TT(), In1(TT()))))),
         "fixed-point layer is not rolled: in1 tt", MalformedValue),
        (lambda: Mapper(ZIG_ZAG_I, {}, left(STAR))(Roll(In1(Pair(TT(), In2(TT()))))),
         "tag position is not refl: tt", MalformedValue),
        (lambda: Mapper(LIST_I, {}, STAR)(indexed_list([TT()])),
         "no transformer for index L.⋆", IndexNotInSet),
        (lambda: Mapper(NAT_I, {STAR: identity}, label("nosuch"))(Roll(In1(TT()))),
         "index nosuch is not an output of the code", IndexNotInSet),
        (lambda: mapper(NAT_C, identity)(TT()),
         "sum layer is not an injection: tt", MalformedValue),
        (lambda: mapper(BIN_C, identity)(In2(TT())),
         "product layer is not a pair: tt", MalformedValue),
        (lambda: mapper(BIN_C, identity)(In1(Refl())),
         "unit layer is not tt: refl", MalformedValue),
    ],
    ids=["fix", "fix-inner", "tag", "no-transformer", "index", "sum", "product", "unit"],
)
def test_maps_name_what_is_malformed(walk, message, error):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        walk()


def test_tagged_labels_are_interned():
    assert left(STAR) is left(STAR)
    assert right(left(STAR)) is right(left(STAR))
    assert left(STAR) != right(STAR)


def test_a_fixed_points_table_holds_its_own_slots():
    inner = LIST_I.body.inner
    under = mu_assign(inner, TOP_ASSIGN)
    slot = under[right(STAR)]
    assert slot.under is under
    assert under[left(STAR)] == PayloadSlot("⊤")
    assert "..." in repr(under)


def test_a_foreign_slot_fails_the_generator_when_it_is_built():
    with pytest.raises(TypeError, match="^not an indexed slot: 'nat'$"):
        indexed.Generator(LIST_I, {STAR: "nat"}, STAR)


def test_a_fixed_point_that_lacks_the_index_fails_only_when_a_value_reaches_it():
    """The fixed point's inner outputs miss ``a``, so no slot sits at
    ``R.a``: the unit summand passes, the other raises."""
    a, b = label("a"), label("b")
    inner = indexed.IndexedCode(index_set(left(STAR), right(b)), index_set(b), indexed.Unit())
    body = indexed.Sum(indexed.Unit(), indexed.Fix(inner))
    code = indexed.IndexedCode(index_set(STAR), index_set(a), body)
    conformer = indexed.Conformer(code, TOP_ASSIGN, a)
    assert conformer(In1(TT()))
    with pytest.raises(IndexNotInSet, match="^no slot for index R.a$"):
        conformer(In2(Roll(TT())))


@pytest.mark.parametrize(
    "text, values",
    [
        ("in: a, b\nout: ⋆\nmid: x, y\n(I@x * I@y) @ (!x * I@a + !y * I@b)",
         ["(in1 (refl , tt) , in2 (refl , tt))"]),
        ("in:\nout: ⋆\nmid: x, y\nI@y @ !y", ["refl"]),
    ],
    ids=["pair-of-middles", "second-middle"],
)
def test_a_composition_reads_its_right_code_at_each_middle_label(text, values):
    """The left code's input ``x`` holds the right code's values at ``x``, and
    ``y`` at ``y``: each middle label tags its own branch of the right code,
    so a composition that read every middle label at the first one would
    enumerate other values, or none, and its conformer reject these."""
    [ctx] = embed.contexts("indexed", dsl.parse_code("indexed", text))
    found = enum_context(ctx, EnumBudget(max_size=10))
    assert [print_value(v) for v in found] == values
    assert all(embed.conforms(ctx, dsl.parse_value(v)) for v in values)

import copy
import gc
import pickle
import re
import sys
import threading
import weakref
from dataclasses import FrozenInstanceError

from hypothesis import given
import pytest

from genrep import (
    In1,
    In2,
    IndexLabel,
    IndexSet,
    Konst,
    MalformedValue,
    Pair,
    Payload,
    PayloadToken,
    RecV,
    Refl,
    Roll,
    TT,
    compose_path,
    corpus,
    embed,
    disjoint_union,
    index_set,
    label,
    left,
    parse_value,
    payload,
    print_label,
    print_value,
    right,
    value_size,
)
from genrep.gvalue import (
    VALUE_KEYWORDS,
    PayloadSlot,
    compose,
    identity,
    payload_slot_accepts,
    token_successor,
    valid_name,
)

from helpers import gvalues, indexed_list

STAR = label("⋆")


def test_print_value_goldens():
    assert print_value(TT()) == "tt"
    assert print_value(Refl()) == "refl"
    assert print_value(In1(TT())) == "in1 tt"
    assert print_value(In2(Refl())) == "in2 refl"
    assert print_value(Roll(TT())) == "<tt>"
    assert print_value(Pair(TT(), Refl())) == "(tt , refl)"
    assert print_value(Konst(TT())) == "k tt"
    assert print_value(payload("nat", 3)) == "nat#3"
    assert print_value(Roll(In2(Pair(payload("a", 0), Roll(In1(TT())))))) == (
        "<in2 (a#0 , <in1 tt>)>"
    )


def test_value_size_counts_every_node():
    assert value_size(TT()) == 1
    assert value_size(Roll(In1(TT()))) == 3
    assert value_size(Pair(TT(), Pair(TT(), TT()))) == 5
    assert value_size(Konst(payload("a", 7))) == 2


@pytest.mark.parametrize(
    "v", ["tt", Pair(TT(), "tt"), In1(None)], ids=["alone", "paired", "injected"]
)
def test_value_size_of_a_non_value_is_malformed(v):
    """The first node that is no value is named, however deep."""
    with pytest.raises(MalformedValue, match="^not a generic value: ('tt'|None)$"):
        value_size(v)


@given(gvalues())
def test_value_size_positive(v):
    assert value_size(v) >= 1


@given(gvalues())
def test_values_hash_and_compare(v):
    assert v == v
    assert hash(v) == hash(v)
    assert In1(v) != In2(v)


def test_labels_print_outside_in():
    assert print_label(STAR) == "⋆"
    assert print_label(left(STAR)) == "L.⋆"
    assert print_label(right(left(STAR))) == "R.L.⋆"


def test_labels_compare_and_hash_by_value():
    """A label built directly equals its interned ``left``/``right`` copy and
    hashes the same, so either finds the other's entry in a table."""
    for tagged, tag in ((left(STAR), "L"), (right(STAR), "R"), (right(left(STAR)), "R")):
        direct = IndexLabel(tagged.name, tagged.tags)
        assert direct is not tagged
        assert direct == tagged and hash(direct) == hash(tagged)
        assert {tagged: 1}[direct] == 1
        assert direct.tags[0] == tag
    assert IndexLabel("⋆", ("L",)) != IndexLabel("⋆", ("R",))
    assert label("a") != label("b") and hash(label("a")) == hash(label("a"))


def test_label_rejects_reserved_characters():
    with pytest.raises(ValueError):
        label("a.b")
    with pytest.raises(ValueError):
        label("")
    assert valid_name("zig")
    assert not valid_name("x;y")


@pytest.mark.parametrize("name", ["7", "٣", "007"])
def test_an_all_decimal_name_is_refused(name):
    """The lexer reads such a word as a nat, so a label or a token sort of
    that name would print to text that does not parse back."""
    assert not valid_name(name)
    with pytest.raises(ValueError, match="^bad index label name: "):
        label(name)
    with pytest.raises(ValueError, match="^bad token sort: "):
        payload(name, 1)
    assert valid_name("x7") and valid_name("7x")


@pytest.mark.parametrize("sort", sorted(VALUE_KEYWORDS))
def test_a_value_keyword_is_no_token_sort(sort):
    """A token of that sort would print as text that the value parser reads
    as the keyword."""
    with pytest.raises(ValueError, match=f"^bad token sort: '{sort}'$"):
        payload(sort, 0)
    assert payload(sort + "s", 0).token.sort == sort + "s"


@pytest.mark.parametrize("ident", [True, False, 1.5, 2.0, "3", None])
def test_a_token_ident_is_an_int(ident):
    """Tokens compare by value and ``True == 1``, so a bool ident would
    intern as the int's node and print as text that does not parse back."""
    with pytest.raises(ValueError, match=f"^bad token ident: {ident!r}$"):
        payload("nat", ident)
    assert print_value(payload("nat", 1)) == "nat#1"
    assert parse_value(print_value(payload("nat", 1))) is payload("nat", 1)


@pytest.mark.parametrize("name", [3, ("a",), None, b"a"], ids=["int", "tuple", "none", "bytes"])
def test_a_name_is_a_str(name):
    """A label name or a sort of another type is refused as a bad name, not
    with the ``AttributeError`` that reading it as a ``str`` would raise."""
    assert not valid_name(name)
    with pytest.raises(ValueError, match="^bad index label name: "):
        IndexLabel(name)
    with pytest.raises(ValueError, match="^bad token sort: "):
        PayloadToken(name, 0)
    with pytest.raises(ValueError, match="^bad slot sort: "):
        PayloadSlot(name)


@pytest.mark.parametrize("sort", [3, "x;y", "7", "", *sorted(VALUE_KEYWORDS)])
def test_a_slot_refuses_a_sort_no_token_has(sort):
    """Such a slot would accept nothing, and a constant set of that sort
    would not print back."""
    with pytest.raises(ValueError, match=f"^bad slot sort: {re.escape(repr(sort))}$"):
        PayloadSlot(sort)
    with pytest.raises(ValueError, match="^bad token sort: "):
        PayloadToken(sort, 0)
    assert PayloadSlot("⊤").sort == "⊤" and PayloadSlot("nat").sort == "nat"


@pytest.mark.parametrize("tags", ["L", ["L"], ("L", "X"), None])
def test_label_tags_are_a_tuple_of_sides(tags):
    with pytest.raises(ValueError, match="^bad index label tags: "):
        IndexLabel("a", tags)


@pytest.mark.parametrize("labels", [[STAR], (STAR, "b"), ("⋆",), None])
def test_an_index_set_holds_a_tuple_of_labels(labels):
    with pytest.raises(ValueError, match="^bad index set labels: "):
        IndexSet(labels)
    assert IndexSet((STAR, left(STAR))).labels == (STAR, left(STAR))


def test_disjoint_union_tags_both_sides():
    both = disjoint_union(index_set(STAR), index_set(STAR))
    assert set(both) == {left(STAR), right(STAR)}
    assert len(both) == 2


def test_top_slot_accepts_only_tt():
    top = PayloadSlot("⊤")
    assert payload_slot_accepts(top, TT())
    assert not payload_slot_accepts(top, payload("⊤", 0))
    nat = PayloadSlot("nat")
    assert payload_slot_accepts(nat, payload("nat", 5))
    assert not payload_slot_accepts(nat, payload("bit", 5))
    assert not payload_slot_accepts(nat, TT())


def test_token_successor():
    assert token_successor(payload("nat", 1)) == payload("nat", 2)
    with pytest.raises(MalformedValue):
        token_successor(TT())


def test_compose_and_identity():
    succ2 = compose(token_successor, token_successor)
    assert succ2(payload("nat", 0)) == payload("nat", 2)
    assert identity(Refl()) == Refl()


# ---------------------------------------------------------------------------
# hash-consing: equal values are one object


def _interned():
    """The number of nodes in the intern tables."""
    return sum(len(cls._table) for cls in (In1, In2, Roll, Konst, RecV, Pair, Payload))


def test_equal_values_are_one_object():
    """Constructors, the parser and a backward conversion all build through
    the intern tables."""
    assert TT() is TT() and Refl() is Refl()
    assert payload("nat", 3) is Payload(PayloadToken("nat", 3))
    built = Roll(In2(Pair(payload("nat", 3), Roll(In1(TT())))))
    assert Roll(In2(Pair(payload("nat", 3), Roll(In1(TT()))))) is built
    assert parse_value("<in2 (nat#3 , <in1 tt>)>") is built
    assert parse_value(print_value(corpus.L_ROSE)) is corpus.L_ROSE
    assert copy.deepcopy(built) is built and pickle.loads(pickle.dumps(built)) is built
    steps = ["r-p", "p-i", "i-ig"]
    start = embed.regular_context(corpus.NAT_C)
    v = corpus.numeral(4)
    image = compose_path(steps, start, v, "forward")
    assert image is not v
    assert compose_path(steps, start, image, "backward") is v
    assert compose_path(steps, start, parse_value(print_value(image)), "backward") is v


def test_a_dropped_value_leaves_the_tables_without_the_collector():
    gc.disable()
    try:
        before = _interned()
        v = parse_value("<in2 (k fresh#918273 , rec in1 fresh#918273)>")
        assert _interned() == before + 7  # every node holds the fresh token once
        nodes = [weakref.ref(node) for node in (v, v.inner, v.inner.value)]
        del v
        assert all(ref() is None for ref in nodes)
        assert _interned() == before
    finally:
        gc.enable()


def test_threads_building_equal_values_build_one_object():
    """Four threads build the same fresh values at once, switching as often
    as the interpreter allows; each value is still one object."""
    built: list = [None] * 4

    def build(i):
        built[i] = [Roll(In1(payload("race", k))) for k in range(10_000)]

    threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(values[k] is built[0][k] for values in built for k in range(10_000))


def test_values_are_immutable():
    v = Pair(TT(), Roll(In1(Refl())))
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'first'"):
        v.first = Refl()
    with pytest.raises(FrozenInstanceError):
        del v.second.inner
    with pytest.raises(FrozenInstanceError):
        TT().value = Refl()
    assert v.first is TT() and v.second.inner.value is Refl()


def test_repr_is_the_dataclass_one():
    v = Roll(In2(Pair(payload("nat", 3), RecV(Konst(In1(Refl()))))))
    assert repr(v) == (
        "Roll(inner=In2(value=Pair(first=Payload(token=PayloadToken(sort='nat', ident=3)), "
        "second=RecV(inner=Konst(inner=In1(value=Refl()))))))"
    )
    assert (repr(TT()), repr(Refl())) == ("TT()", "Refl()")


def test_fields_pass_by_keyword_as_repr_prints_them():
    v = Roll(In2(Pair(payload("nat", 3), RecV(Konst(In1(Refl()))))))
    assert eval(repr(v)) is v
    assert Roll(inner=TT()) is Roll(TT()) and In2(value=TT()) is In2(TT())
    assert Pair(first=TT(), second=Refl()) is Pair(TT(), Refl())
    assert Payload(token=PayloadToken("nat", 3)) is payload("nat", 3)
    with pytest.raises(TypeError, match=r"Roll.__new__\(\) got an unexpected keyword argument 'value'"):
        Roll(value=TT())


def test_class_patterns_bind():
    match Roll(In2(Pair(payload("nat", 3), RecV(Konst(In1(TT())))))):
        case Roll(In2(Pair(Payload(PayloadToken(sort, n)), RecV(Konst(In1(leaf)))))):
            assert (sort, n, leaf) == ("nat", 3, TT())
        case _:
            pytest.fail("no case bound")
    match In1(Refl()):
        case In2(_) | Roll(_):
            pytest.fail("a wrong class bound")
        case In1(Refl()):
            pass
        case _:
            pytest.fail("no case bound")


@pytest.mark.parametrize("build", [
    lambda: corpus.numeral(100_000),
    lambda: indexed_list([TT()] * 100_000),
], ids=["numeral", "ListI"])
def test_eq_and_hash_do_not_recurse(build):
    a, b = build(), build()
    assert a == b and a is b
    assert hash(a) == hash(b)
    assert a != In1(a) and {a: 1}[b] == 1


def test_print_value_refuses_a_nat_longer_than_int_writes():
    limit = sys.get_int_max_str_digits()
    assert print_value(payload("a", 10 ** (limit - 1))) == "a#1" + "0" * (limit - 1)
    with pytest.raises(MalformedValue) as err:
        print_value(Pair(TT(), payload("a", 10 ** limit)))
    assert str(err.value) == f"token a# has a nat of more than {limit} digits"

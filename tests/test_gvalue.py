from hypothesis import given
import pytest

from genrep import (
    In1,
    In2,
    IndexLabel,
    Konst,
    MalformedValue,
    Pair,
    Refl,
    Roll,
    TT,
    disjoint_union,
    index_set,
    label,
    left,
    payload,
    print_label,
    print_value,
    right,
    value_size,
)
from genrep.gvalue import (
    PayloadSlot,
    compose,
    identity,
    payload_slot_accepts,
    token_successor,
    valid_name,
)

from helpers import gvalues

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


def test_disjoint_union_tags_both_sides():
    both = disjoint_union(index_set(STAR), index_set(STAR))
    assert set(both) == {left(STAR), right(STAR)}


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

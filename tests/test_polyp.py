from genrep import Pair, Roll, TT, In1, In2, payload
from genrep.corpus import (
    L_ROSE,
    LIST_C,
    ROSE_C,
    S_ROSE,
    TREE_C,
    TREE_LIST_NAIVE,
    TREE_LIST_PROPER,
    TREE_OF_LISTS,
)
from genrep.gvalue import PayloadSlot
from genrep.polyp import conform_mu_p, conform_p, pmap, InterpSlot, Mapper, MuSlot, SlotPair

TOP = PayloadSlot("⊤")
NAT = PayloadSlot("nat")


def _list_of(items):
    out = Roll(In1(TT()))
    for item in reversed(items):
        out = Roll(In2(Pair(item, out)))
    return out


def test_roses_conform():
    assert conform_mu_p(ROSE_C, TOP, S_ROSE)
    assert conform_mu_p(ROSE_C, TOP, L_ROSE)
    assert not conform_mu_p(ROSE_C, TOP, Roll(TT()))


def test_lists_conform_with_matching_parameter():
    nats = _list_of([payload("nat", 0), payload("nat", 1)])
    assert conform_mu_p(LIST_C, NAT, nats)
    assert not conform_mu_p(LIST_C, TOP, nats)
    assert conform_mu_p(LIST_C, TOP, _list_of([TT(), TT()]))


def test_one_layer_conformance_with_slot_pair():
    slots = SlotPair(param=NAT, rec=MuSlot(LIST_C, NAT))
    assert conform_p(LIST_C, slots, In1(TT()))
    assert conform_p(LIST_C, slots, In2(Pair(payload("nat", 0), _list_of([]))))
    assert not conform_p(LIST_C, slots, In2(Pair(TT(), _list_of([]))))


def test_composition_pitfall():
    """The witness nests the list inside the tree; composing the codes the
    naive way puts the parameter on the wrong side, so only the reassociated
    sum-of-products form accepts it."""
    assert conform_mu_p(TREE_LIST_PROPER, TOP, TREE_OF_LISTS)
    assert not conform_mu_p(TREE_LIST_NAIVE, TOP, TREE_OF_LISTS)


def test_tree_code_accepts_leaf_and_fork():
    leaf = Roll(In1(TT()))
    fork = Roll(In2(Pair(leaf, leaf)))
    assert conform_mu_p(TREE_C, TOP, leaf)
    assert conform_mu_p(TREE_C, TOP, fork)


def test_pmap_relabels_every_parameter():
    bump = lambda v: payload("nat", v.token.ident + 1)
    nats = _list_of([payload("nat", 0), payload("nat", 4)])
    assert pmap(LIST_C, bump, nats) == _list_of([payload("nat", 1), payload("nat", 5)])


def test_pmap_reaches_parameters_under_composition():
    bump = lambda v: payload("nat", v.token.ident + 1)
    rose = Roll(Pair(payload("nat", 0), _list_of([])))
    assert pmap(ROSE_C, bump, rose) == Roll(Pair(payload("nat", 1), _list_of([])))


def test_map_p_identity_on_one_layer():
    ident = lambda v: v
    layer = In2(Pair(TT(), Roll(In1(TT()))))
    assert Mapper(InterpSlot(LIST_C, SlotPair(ident, ident)))(layer) == layer

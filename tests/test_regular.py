import pytest

from genrep import (
    In1,
    In2,
    MalformedValue,
    Pair,
    Roll,
    TT,
    payload,
    value_size,
)
from genrep.corpus import A_NAT, BIN_C, NAT_C, numeral
from genrep.gvalue import EmptySlot
from genrep.regular import (
    MuSlot,
    cata_r,
    conform_mu_r,
    conform_r,
    mapper,
    to_nat_alg,
)


def test_a_nat_conforms_at_fixed_point():
    assert conform_mu_r(NAT_C, A_NAT)
    assert not conform_mu_r(NAT_C, TT())
    assert not conform_mu_r(NAT_C, Roll(TT()))


def test_numerals_conform_and_have_linear_size():
    for n in range(6):
        v = numeral(n)
        assert conform_mu_r(NAT_C, v)
        assert value_size(v) == 2 * n + 3


def test_one_layer_conformance():
    slot = MuSlot(NAT_C)
    assert conform_r(NAT_C, slot, In1(TT()))
    assert conform_r(NAT_C, slot, In2(numeral(0)))
    assert not conform_r(NAT_C, slot, In2(TT()))
    assert not conform_r(NAT_C, EmptySlot(), In2(numeral(0)))


def test_bin_code_needs_both_children():
    leaf = Roll(In1(TT()))
    node = Roll(In2(Pair(leaf, leaf)))
    assert conform_mu_r(BIN_C, node)
    assert not conform_mu_r(BIN_C, Roll(In2(leaf)))


def test_cata_counts_a_nat_to_two():
    assert cata_r(NAT_C, to_nat_alg, A_NAT) == payload("nat", 2)
    assert cata_r(NAT_C, to_nat_alg, numeral(0)) == payload("nat", 0)
    assert cata_r(NAT_C, to_nat_alg, numeral(5)) == payload("nat", 5)


def test_cata_with_re_roll_is_identity():
    assert cata_r(NAT_C, Roll, A_NAT) == A_NAT
    node = Roll(In2(Pair(Roll(In1(TT())), Roll(In1(TT())))))
    assert cata_r(BIN_C, Roll, node) == node


def test_cata_rejects_non_conforming_input():
    with pytest.raises(MalformedValue):
        cata_r(NAT_C, to_nat_alg, Roll(TT()))


def test_the_nat_algebra_refuses_a_layer_of_another_code():
    leaf = Roll(In1(TT()))
    with pytest.raises(MalformedValue, match=r"^to_nat_alg cannot consume in2 \(nat#0 , nat#0\)$"):
        cata_r(BIN_C, to_nat_alg, Roll(In2(Pair(leaf, leaf))))


def test_map_r_applies_at_identity_positions():
    relabel = lambda v: Roll(In2(v))
    assert mapper(NAT_C, relabel)(In1(TT())) == In1(TT())
    assert mapper(NAT_C, relabel)(In2(numeral(0))) == In2(Roll(In2(numeral(0))))

import pytest

from genrep import In1, In2, Pair, Refl, Roll, TT, index_set, label, left, payload, right
from genrep.corpus import ZIG_ZAG_C, ZIG_ZAG_END
from genrep.gvalue import TOP_SLOT, IndexNotInSet
from genrep.multirec import (
    MultirecCode,
    MuSlot,
    Unit,
    conform_m,
    conform_mu_m,
    mapper,
    mu_assignment,
)

STAR = label("⋆")
LSTAR = left(STAR)
RSTAR = right(STAR)

# The shortest inhabitant at the zig index stops immediately.
ZIG_STOP = Roll(In1(Pair(Refl(), In2(TT()))))


def test_zig_zag_end_is_a_zig_not_a_zag():
    assert conform_mu_m(ZIG_ZAG_C, LSTAR, ZIG_ZAG_END)
    assert not conform_mu_m(ZIG_ZAG_C, RSTAR, ZIG_ZAG_END)


def test_shortest_zig():
    assert conform_mu_m(ZIG_ZAG_C, LSTAR, ZIG_STOP)
    assert not conform_mu_m(ZIG_ZAG_C, RSTAR, ZIG_STOP)


def test_zag_wraps_a_zig():
    zag = Roll(In2(Pair(Refl(), ZIG_STOP)))
    assert conform_mu_m(ZIG_ZAG_C, RSTAR, zag)
    assert not conform_mu_m(ZIG_ZAG_C, LSTAR, zag)


def test_unknown_index_raises():
    with pytest.raises(IndexNotInSet):
        conform_mu_m(ZIG_ZAG_C, STAR, ZIG_ZAG_END)
    with pytest.raises(IndexNotInSet):
        conform_m(ZIG_ZAG_C, mu_assignment(ZIG_ZAG_C), label("other"), TT())


def test_mu_assignment_covers_every_index():
    assign = mu_assignment(ZIG_ZAG_C)
    assert set(assign) == {LSTAR, RSTAR}
    assert all(isinstance(slot, MuSlot) for slot in assign.values())


def test_map_m_with_identity_family():
    fam = {LSTAR: lambda v: v, RSTAR: lambda v: v}
    layer = In1(Pair(Refl(), In2(TT())))
    assert mapper(ZIG_ZAG_C, fam, LSTAR)(layer) == layer


def test_map_m_applies_per_index():
    tag = {LSTAR: lambda v: In1(v), RSTAR: lambda v: In2(v)}
    layer = In2(Pair(Refl(), ZIG_STOP))
    assert mapper(ZIG_ZAG_C, tag, RSTAR)(layer) == In2(Pair(Refl(), In1(ZIG_STOP)))


def test_one_layer_reads_a_payload_slot_at_an_identity_position():
    """A zig layer whose recursive position is a ``⊤`` parameter holds
    ``tt`` there, and no other content."""
    assign = {LSTAR: TOP_SLOT, RSTAR: TOP_SLOT}
    assert conform_m(ZIG_ZAG_C, assign, LSTAR, In1(Pair(Refl(), In1(TT()))))
    assert not conform_m(ZIG_ZAG_C, assign, LSTAR, In1(Pair(Refl(), In1(payload("nat", 0)))))


def test_a_fixed_point_that_lacks_the_index_fails_only_when_a_value_reaches_it():
    """Both indices are read as the fixed point of a family of ``⋆`` alone:
    the zig layer that stops passes, and the one that recurses at ``R.⋆``
    raises."""
    family = MultirecCode(index_set(STAR), Unit())
    assign = dict.fromkeys((LSTAR, RSTAR), MuSlot(family))
    assert conform_m(ZIG_ZAG_C, assign, LSTAR, ZIG_STOP.inner)
    with pytest.raises(IndexNotInSet, match="^index R.⋆ is not in the code's index set$"):
        conform_m(ZIG_ZAG_C, assign, LSTAR, In1(Pair(Refl(), In1(ZIG_STOP))))

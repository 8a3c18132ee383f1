import pytest

from genrep import (
    In1,
    In2,
    Konst,
    MalformedValue,
    Pair,
    RecV,
    Refl,
    TT,
    label,
    payload,
)
from genrep.corpus import A_LIST, LIST_TOP_ENV, LIST_TOP_NAME
from genrep.dsl import print_code
from genrep.instant import (
    EqWitness,
    K,
    OfCode,
    Prim,
    Prod,
    R,
    SIZE_SPEC,
    Sum,
    Unit,
    conform_ig,
    conformer,
    crush,
    nat_add,
    size_ig,
)
from genrep.oracle import EnumBudget, enum_instant

from helpers import all_trees_upto

LIST_CODE = R(LIST_TOP_NAME)


def test_a_list_conforms():
    assert conform_ig(LIST_TOP_ENV, LIST_TOP_ENV[LIST_TOP_NAME], A_LIST)
    assert conform_ig(LIST_TOP_ENV, LIST_CODE, RecV(A_LIST))
    assert not conform_ig(LIST_TOP_ENV, LIST_CODE, A_LIST)


@pytest.mark.parametrize(
    "sort",
    [3, None, "x;y", "rec", "7", ""],
    ids=["int", "none", "reserved", "keyword", "digits", "empty"],
)
def test_a_constant_set_refuses_a_sort_no_token_has(sort):
    """No token has such a sort, and ``K`` of it would not print back as the
    same code; ``⊤`` is a sort."""
    with pytest.raises(ValueError, match="^bad constant sort: "):
        Prim(sort)
    assert print_code("instant", K(Prim("⊤"))) == "K ⊤"


def test_constant_sets():
    env = {}
    assert conform_ig(env, K(Prim("⊤")), Konst(TT()))
    assert not conform_ig(env, K(Prim("⊤")), Konst(payload("⊤", 0)))
    assert conform_ig(env, K(Prim("nat")), Konst(payload("nat", 7)))

    same = EqWitness(label("a"), label("a"))
    diff = EqWitness(label("a"), label("b"))
    assert conform_ig(env, K(same), Konst(Refl()))
    assert not conform_ig(env, K(diff), Konst(Refl()))


def test_size_of_a_list_is_two():
    assert size_ig(LIST_TOP_ENV, LIST_TOP_ENV[LIST_TOP_NAME], A_LIST) == 2
    assert size_ig(LIST_TOP_ENV, LIST_TOP_ENV[LIST_TOP_NAME], In1(TT())) == 0
    assert size_ig(LIST_TOP_ENV, LIST_CODE, RecV(A_LIST)) == 3


def test_crush_combines_across_products():
    code = Sum(Unit(), Prod(LIST_CODE, LIST_CODE))
    two = RecV(In1(TT()))
    v = In2(Pair(two, two))
    assert crush(LIST_TOP_ENV, code, SIZE_SPEC, v) == payload("nat", 2)


def test_nat_add_rejects_non_naturals():
    assert nat_add(payload("nat", 2), payload("nat", 3)) == payload("nat", 5)
    with pytest.raises(MalformedValue):
        nat_add(TT(), payload("nat", 0))


def test_crush_rejects_mismatched_shape():
    with pytest.raises(MalformedValue):
        crush(LIST_TOP_ENV, LIST_CODE, SIZE_SPEC, TT())
    # the shape fits, but the constant is not a ⊤ token
    with pytest.raises(MalformedValue, match="does not conform to the code"):
        size_ig(LIST_TOP_ENV, LIST_TOP_ENV[LIST_TOP_NAME],
                In2(Pair(Konst(payload("nat", 5)), RecV(In1(TT())))))


# Environments whose references lead back into themselves; only List⊤ has
# finite inhabitants.
SELF_REFERENTIAL_ENVS = {
    "list": LIST_TOP_ENV,  # List⊤ = U + K ⊤ * R List⊤
    "rec-self": {"A": R("A")},  # A = R A
    "const-self": {"A": K(OfCode("A"))},  # A = K@A
    "cycle": {"A": K(OfCode("B")), "B": Sum(K(OfCode("A")), R("A"))},  # A = K@B; B = K@A + R A
}


@pytest.mark.parametrize("env", SELF_REFERENTIAL_ENVS.values(), ids=SELF_REFERENTIAL_ENVS)
def test_walks_end_on_every_small_tree(env):
    """Every unfold consumes a rec or k node of the value, so conformance and
    size end on every tree with no budget, and size folds exactly the trees
    that conform."""
    codes = {env[name] for name in env} | {R(name) for name in env}
    for code in codes:
        for t in all_trees_upto(6):
            ok = conform_ig(env, code, t)
            assert isinstance(ok, bool)
            try:
                size = size_ig(env, code, t)
            except MalformedValue:
                assert not ok, (code, t)
            else:
                assert ok and isinstance(size, int), (code, t)


# "A" refers on to "B", which no entry defines: once through a recursive
# reference and once through a constant drawn from a named code.
DANGLING_ENV = {"A": R("B")}
DANGLING_CONST_ENV = {"A": K(OfCode("B"))}


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda: conform_ig(DANGLING_ENV, R("A"), RecV(RecV(TT()))),
        lambda: size_ig(DANGLING_ENV, R("A"), RecV(RecV(TT()))),
        lambda: enum_instant(DANGLING_ENV, R("A"), EnumBudget(max_size=4)),
        lambda: conform_ig(DANGLING_CONST_ENV, R("A"), RecV(Konst(TT()))),
        lambda: enum_instant(DANGLING_CONST_ENV, R("A"), EnumBudget(max_size=4)),
    ],
    ids=["conform_ig", "size_ig", "enum_instant", "conform_ig-const", "enum_instant-const"],
)
def test_dangling_reference_is_a_malformed_value(entry_point):
    with pytest.raises(MalformedValue, match="reference B is not defined"):
        entry_point()


def test_a_constant_of_no_constant_set_fails_only_when_a_value_reaches_it():
    walk = conformer({}, Sum(Unit(), K("x")))
    assert walk(In1(TT()))
    with pytest.raises(TypeError, match="^not a constant set: 'x'$"):
        walk(In2(Konst(TT())))

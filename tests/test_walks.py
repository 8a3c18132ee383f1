"""The compiled walks: every malformed layer named byte for byte, errors of
a code node that fire only when a value reaches it, an argument that is not
a value, one recursion point per key, the depths the walks reach under the
default recursion limit, and walks that free what they were given as soon
as they die."""

import gc
import re
import weakref
from functools import partial

import pytest

from genrep import In1, In2, Konst, MalformedValue, Pair, RecV, Refl, Roll, TT, label, payload
from genrep import corpus, dsl, embed, indexed, instant, multirec, oracle, polyp, value_size
from genrep import regular
from genrep.gvalue import IndexNotInSet, PayloadSlot, identity, index_set
from genrep.oracle import EnumBudget
from genrep.spine import Prod, Sum, Unit

from helpers import corpus_contexts, indexed_list, same_tree

STAR, LSTAR, RSTAR = embed.STAR, embed.LSTAR, embed.RSTAR
ZIG_FAM = dict.fromkeys(corpus.ZIG_ZAG_C.indices, identity)


def _i_ig(code, at, direction):
    """The i→ig walk of ``code`` at ``at`` in one direction."""
    [ctx] = embed.contexts("indexed", code, at=at)
    return embed.STEPS["i-ig"].walks[direction](ctx)


def _fresh(build, *args):
    """A call that compiles a walk ``build(*args)`` for each value."""
    return lambda v: build(*args)(v)


LIST_C_LAYER = polyp.InterpSlot(corpus.LIST_C, polyp.SlotPair(identity, identity))

# walk -> (a fresh call, a factory of a walk held for many values)
WALKS = {
    "map_r-NatC": (_fresh(regular.mapper, corpus.NAT_C, identity),
                   partial(regular.mapper, corpus.NAT_C, identity)),
    "map_r-BinC": (_fresh(regular.mapper, corpus.BIN_C, identity),
                   partial(regular.mapper, corpus.BIN_C, identity)),
    "map_m": (_fresh(multirec.mapper, corpus.ZIG_ZAG_C, ZIG_FAM, LSTAR),
              partial(multirec.mapper, corpus.ZIG_ZAG_C, ZIG_FAM, LSTAR)),
    "pmap-ListC": (partial(polyp.pmap, corpus.LIST_C, identity),
                   lambda: polyp.Mapper(polyp.MuSlot(corpus.LIST_C, identity))),
    "pmap-RoseC": (partial(polyp.pmap, corpus.ROSE_C, identity),
                   lambda: polyp.Mapper(polyp.MuSlot(corpus.ROSE_C, identity))),
    "map_p": (_fresh(polyp.Mapper, LIST_C_LAYER), partial(polyp.Mapper, LIST_C_LAYER)),
    "map_i-ListI": (_fresh(indexed.Mapper, corpus.LIST_I, {STAR: identity}, STAR),
                    partial(indexed.Mapper, corpus.LIST_I, {STAR: identity}, STAR)),
    "map_i-ZigZagI": (_fresh(indexed.Mapper, corpus.ZIG_ZAG_I, {}, LSTAR),
                      partial(indexed.Mapper, corpus.ZIG_ZAG_I, {}, LSTAR)),
    **{
        f"i-ig-{name}-{direction}": (
            lambda v, code=code, at=at, direction=direction: embed.convert_i_ig(
                code, embed.standard_table(code), at, v, direction),
            partial(_i_ig, code, at, direction),
        )
        for name, code, at in [("ListI", corpus.LIST_I, STAR), ("RoseI", corpus.ROSE_I, STAR),
                               ("ZigZagI", corpus.ZIG_ZAG_I, LSTAR)]
        for direction in ("forward", "backward")
    },
}

_E = RecV(In1(TT()))  # the image of the empty list

# (walk, value, the MalformedValue text)
MALFORMED = [
    ("map_r-NatC", TT(), "sum layer is not an injection: tt"),
    ("map_r-BinC", In2(TT()), "product layer is not a pair: tt"),
    ("map_r-BinC", In1(Refl()), "unit layer is not tt: refl"),
    ("map_m", TT(), "sum layer is not an injection: tt"),
    ("map_m", In1(TT()), "product layer is not a pair: tt"),
    ("map_m", In1(Pair(TT(), In2(TT()))), "tag position is not refl: tt"),
    ("map_m", In1(Pair(Refl(), In2(Refl()))), "unit layer is not tt: refl"),
    ("pmap-ListC", In1(TT()), "pmap expects a rolled value: in1 tt"),
    ("pmap-ListC", Roll(TT()), "sum layer is not an injection: tt"),
    ("pmap-ListC", Roll(In2(TT())), "product layer is not a pair: tt"),
    ("pmap-ListC", Roll(In1(Refl())), "unit layer is not tt: refl"),
    ("pmap-ListC", Roll(In2(Pair(TT(), In1(TT())))), "pmap expects a rolled value: in1 tt"),
    ("pmap-RoseC", Roll(Pair(TT(), In1(TT()))), "composition layer is not rolled: in1 tt"),
    ("pmap-RoseC", Roll(Pair(TT(), Roll(In2(Pair(In1(TT()), Roll(In1(TT()))))))),
     "pmap expects a rolled value: in1 tt"),
    ("map_p", TT(), "sum layer is not an injection: tt"),
    ("map_p", In2(Refl()), "product layer is not a pair: refl"),
    ("map_p", In1(Refl()), "unit layer is not tt: refl"),
    ("map_i-ListI", In1(TT()), "fixed-point layer is not rolled: in1 tt"),
    ("map_i-ListI", Roll(In2(Pair(TT(), In1(TT())))), "fixed-point layer is not rolled: in1 tt"),
    ("map_i-ListI", Roll(TT()), "sum layer is not an injection: tt"),
    ("map_i-ListI", Roll(In2(TT())), "product layer is not a pair: tt"),
    ("map_i-ListI", Roll(In1(Refl())), "unit layer is not tt: refl"),
    ("map_i-ZigZagI", Roll(In1(Pair(TT(), In2(TT())))), "tag position is not refl: tt"),
    ("i-ig-ListI-forward", In1(TT()), "fixed-point layer is not rolled: in1 tt"),
    ("i-ig-ListI-forward", Roll(In2(Pair(TT(), In1(TT())))),
     "fixed-point layer is not rolled: in1 tt"),
    ("i-ig-ListI-forward", Roll(TT()), "sum layer is not an injection: tt"),
    ("i-ig-ListI-forward", Roll(In2(TT())), "product layer is not a pair: tt"),
    ("i-ig-ListI-forward", Roll(In1(Refl())), "unit layer is not tt: refl"),
    ("i-ig-ListI-forward", indexed_list([payload("nat", 0)]),
     "parameter position does not inhabit K ⊤: nat#0"),
    ("i-ig-RoseI-forward", Roll(Pair(TT(), In1(TT()))), "fixed-point layer is not rolled: in1 tt"),
    ("i-ig-ZigZagI-forward", Roll(In1(Pair(TT(), In2(TT())))), "tag position is not refl: tt"),
    ("i-ig-ZigZagI-forward", Roll(In2(Pair(Refl(), Roll(In1(Pair(Refl(), In2(TT()))))))),
     "refl under tag R.⋆ at index L.⋆"),
    ("i-ig-ListI-backward", In1(TT()), "fixed-point layer is not a rec node: in1 tt"),
    ("i-ig-ListI-backward", RecV(In2(Pair(Konst(TT()), In1(TT())))),
     "fixed-point layer is not a rec node: in1 tt"),
    ("i-ig-ListI-backward", RecV(TT()), "sum layer is not an injection: tt"),
    ("i-ig-ListI-backward", RecV(In2(TT())), "product layer is not a pair: tt"),
    ("i-ig-ListI-backward", RecV(In1(Refl())), "unit layer is not tt: refl"),
    ("i-ig-ListI-backward", RecV(In2(Pair(TT(), _E))), "parameter position is not a constant: tt"),
    ("i-ig-ListI-backward", RecV(In2(Pair(Konst(payload("nat", 0)), _E))),
     "parameter position does not inhabit K ⊤: nat#0"),
    ("i-ig-RoseI-backward", RecV(Pair(Konst(TT()), In1(TT()))),
     "composition layer is not a rec node: in1 tt"),
    ("i-ig-RoseI-backward", RecV(Pair(Konst(TT()), RecV(RecV(In2(Pair(TT(), _E)))))),
     "composition argument is not a constant: tt"),
    ("i-ig-ZigZagI-backward", RecV(In1(Pair(Refl(), In2(TT())))),
     "tag position is not k refl: refl"),
    ("i-ig-ZigZagI-backward", RecV(In2(Pair(Konst(Refl()), RecV(In1(Pair(Konst(Refl()),
                                                                         In2(TT()))))))),
     "refl under tag R.⋆ at index L.⋆"),
]


@pytest.mark.parametrize(
    "walk, v, message", MALFORMED, ids=[f"{row[0]}-{n}" for n, row in enumerate(MALFORMED)]
)
def test_every_malformed_layer_is_named(walk, v, message):
    """A fresh call and a held walk, asked twice, raise the same text."""
    fresh, held = WALKS[walk]
    once = held()
    for run in (fresh, once, once):
        with pytest.raises(MalformedValue, match=f"^{re.escape(message)}$"):
            run(v)


FOREIGN = Refl  # no universe's code node
NOWHERE = label("nowhere")
X = index_set(STAR)
BAD_M = multirec.MultirecCode(X, Sum(Unit(), Prod(multirec.Tag(NOWHERE), multirec.Id(NOWHERE))))
BAD_I = indexed.IndexedCode(X, X, Sum(Unit(), Prod(indexed.Tag(STAR), indexed.Id(NOWHERE))))
BAD_ENV = {"A": Sum(Unit(), instant.R("B"))}
TOP = PayloadSlot("⊤")

# walk -> (run, the error and its text for a value in2 (refl , …) of the bad branch)
LAZY = {
    "conform_r-node": (partial(regular.conform_r, Sum(Unit(), FOREIGN()), TOP),
                       TypeError, "not a regular code: Refl()"),
    "conform_r-slot": (partial(regular.conform_r, Sum(Unit(), regular.Id()), FOREIGN()),
                       TypeError, "not a regular slot: Refl()"),
    "map_r": (_fresh(regular.mapper, Sum(Unit(), FOREIGN()), identity),
              TypeError, "not a regular code: Refl()"),
    "conform_p": (partial(polyp.conform_p, Sum(Unit(), FOREIGN()), polyp.SlotPair(TOP, TOP)),
                  TypeError, "not a polyp code: Refl()"),
    "map_p": (_fresh(polyp.Mapper, polyp.InterpSlot(Sum(Unit(), FOREIGN()),
                                                    polyp.SlotPair(identity, identity))),
              TypeError, "not a polyp code: Refl()"),
    "conform_m-tag": (partial(multirec.conform_m, BAD_M, {STAR: TOP}, STAR),
                      IndexNotInSet, "index nowhere is not in the code's index set"),
    "map_m": (_fresh(multirec.mapper, multirec.MultirecCode(X, Sum(Unit(), multirec.Id(NOWHERE))),
                     {STAR: identity}, STAR),
              IndexNotInSet, "index nowhere is not in the code's index set"),
    "map_m-node": (_fresh(multirec.mapper, multirec.MultirecCode(X, Sum(Unit(), FOREIGN())),
                          {STAR: identity}, STAR),
                   TypeError, "not a multirec body: Refl()"),
    "conform_i": (partial(indexed.conform_i, BAD_I, {STAR: TOP}, STAR),
                  IndexNotInSet, "no slot for index nowhere"),
    "map_i": (_fresh(indexed.Mapper, BAD_I, {STAR: identity}, STAR),
              IndexNotInSet, "no transformer for index nowhere"),
    "map_i-node": (_fresh(indexed.Mapper, indexed.IndexedCode(X, X, Sum(Unit(), FOREIGN())),
                          {STAR: identity}, STAR),
                   TypeError, "not an indexed body: Refl()"),
    "i-ig-forward": (lambda v: embed.convert_i_ig(BAD_I, {STAR: instant.Prim("⊤")}, STAR, v,
                                                  "forward"),
                     IndexNotInSet, "no slot for index nowhere"),
}


@pytest.mark.parametrize("walk, error, message", LAZY.values(), ids=LAZY)
def test_a_bad_node_fails_only_when_a_value_reaches_it(walk, error, message):
    """The value takes the good branch of a sum whose other branch holds a
    foreign node, an index outside the set or a missing slot: the walk
    answers. A value that takes the bad branch gets the node's error."""
    assert walk(In1(TT())) in (True, In1(TT()))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        walk(In2(Pair(Refl(), TT())))


def test_a_dangling_reference_fails_only_when_a_value_reaches_it():
    conforms = instant.conformer(BAD_ENV, BAD_ENV["A"])
    assert conforms(In1(TT()))
    for _ in range(2):
        with pytest.raises(MalformedValue, match="^reference B is not defined in the environment$"):
            conforms(In2(RecV(TT())))


def test_i_ig_backward_of_a_bad_node_is_lazy_too():
    to_ig = partial(embed.convert_i_ig, BAD_I, {STAR: instant.Prim("⊤")}, STAR)
    assert to_ig(In1(TT()), "backward") == In1(TT())
    with pytest.raises(IndexNotInSet, match="^no slot for index nowhere$"):
        to_ig(In2(Pair(Konst(Refl()), Konst(TT()))), "backward")


def _non_value_walks():
    """Every conformer, which answers ``False``, and a mapper or converter
    of each kind, which raises ``MalformedValue``: (factory, answer)."""
    for param in corpus_contexts():
        yield pytest.param(partial(embed.conformer, *param.values), False, id=param.id)
    yield pytest.param(
        partial(regular.conformer, regular.Id(), regular.MuSlot(corpus.NAT_C)), False,
        id="regular-MuSlot")
    for name in ("pmap-ListC", "map_p", "map_i-ListI", "i-ig-ListI-forward",
                 "i-ig-ListI-backward"):
        yield pytest.param(WALKS[name][1], MalformedValue, id=name)
    r_p = embed.STEPS["r-p"].walks
    yield pytest.param(
        lambda: r_p["forward"](embed.regular_context(corpus.NAT_C)), MalformedValue, id="r-p")


@pytest.mark.parametrize("v", [[], None], ids=["list", "None"])
@pytest.mark.parametrize("build, answer", list(_non_value_walks()))
def test_a_walk_given_a_non_value_says_so(build, answer, v):
    """A walk's memos are keyed by what it is given, and an unhashable
    argument is walked without them, so it is no error of its own; a held
    walk, asked twice, answers the same."""
    walk, message = build(), f"not a generic value: {v!r}"
    for _ in range(2):
        if answer is False:
            assert walk(v) is False
        else:
            with pytest.raises(MalformedValue, match=f"^{re.escape(message)}$"):
                walk(v)


POINT_SIZE = 12

# context -> the recursion points one conformer compiles when it is built
POINTS = {
    "regular-NatC": 1, "regular-BinC": 1,
    "polyp-ListC": 1, "polyp-RoseC": 3, "polyp-TreeC": 1, "polyp-TreeListNaive": 3,
    "polyp-TreeListProper": 3,
    "multirec-ZigZagC@('L',)": 2, "multirec-ZigZagC@('R',)": 2,
    "indexed-NatI@()": 1, "indexed-BinI@()": 1, "indexed-ListI@()": 1, "indexed-RoseI@()": 3,
    "indexed-ZigZagI@('L',)": 2, "indexed-ZigZagI@('R',)": 2,
    "instant-of-NatI@()": 1, "instant-of-BinI@()": 1, "instant-of-ListI@()": 1,
    "instant-of-RoseI@()": 4, "instant-of-ZigZagI@('L',)": 2, "instant-of-ZigZagI@('R',)": 2,
    "instant-List⊤": 1,
}
COMP = polyp.Comp(corpus.LIST_C, polyp.Par())


@pytest.mark.parametrize(
    "ctx, points",
    [
        *(pytest.param(*p.values, POINTS.get(p.id), id=p.id) for p in corpus_contexts()),
        # one composition node in both operands of a sum: its fixed point
        # and its parameter's layer are one point each, as for one operand
        pytest.param(embed.polyp_context(Sum(COMP, COMP)), 3, id="polyp-comp-twice"),
    ],
)
def test_a_walk_keeps_one_recursion_point_per_key(ctx, points):
    """A walk that built a second point where its key should find the first
    would still answer right, from duplicate points: the count shows it. A
    walk compiles every point when it is built, so two passes over every
    value of the context up to POINT_SIZE nodes add none."""
    conforms = embed.conformer(ctx)
    assert len(conforms.memos) == points
    values = oracle.enum_context(ctx, EnumBudget(max_size=POINT_SIZE))
    for _ in range(2):
        assert all(conforms(v) for v in values)
        assert len(conforms.memos) == points


def _numeral(depth):
    return corpus.numeral(depth - 1)


def _list(depth):
    return indexed_list([TT()] * (depth - 1))


NAT_M = embed.lift_r_to_m(corpus.NAT_C)
TOP_TABLE = {STAR: instant.Prim("⊤")}

# walk -> (value of the given number of layers, a run that must complete, depth)
# The depths are the probe's (perfbench/depth.py), rounded down to 50; before
# the walks were compiled they were 249, 199, 248, 248, 198, 198, 197.
DEEP = {
    "conform_mu_r": (_numeral, lambda v: regular.conform_mu_r(corpus.NAT_C, v), 300),
    "conform_mu_p": (_list, lambda v: polyp.conform_mu_p(corpus.LIST_C, PayloadSlot("⊤"), v), 200),
    "convert.r-p": (_numeral, lambda v: embed.convert_r_p(corpus.NAT_C, v, "forward") is v, 300),
    "convert.r-m": (_numeral, lambda v: embed.convert_r_m(corpus.NAT_C, v, "forward") is v, 300),
    "convert.p-i": (_list, lambda v: embed.convert_p_i(corpus.LIST_C, v, "forward") is v, 200),
    "convert.m-i": (_numeral, lambda v: embed.convert_m_i(NAT_M, STAR, v, "forward") is v, 300),
    "convert.i-ig": (_numeral, lambda v: same_tree(embed.convert_i_ig(
        corpus.NAT_I, TOP_TABLE, STAR, embed.convert_i_ig(corpus.NAT_I, TOP_TABLE, STAR, v,
                                                           "forward"), "backward"), v), 300),
}


@pytest.mark.parametrize("build, run, depth", DEEP.values(), ids=DEEP)
def test_walks_complete_values_of_the_probed_depth(build, run, depth):
    assert run(build(depth))


def _comb(n):
    """A value of ``BinC`` whose ``n`` forks each hold a leaf on the right."""
    v = corpus.numeral(0)
    for _ in range(n):
        v = Roll(In2(Pair(v, corpus.numeral(0))))
    return v


def _zig_zag(n):
    """A value of ``ZigZagC`` at ``L.⋆`` of ``n`` zig-zag rounds over an end."""
    v = Roll(In1(Pair(Refl(), In2(TT()))))
    for _ in range(n):
        v = Roll(In1(Pair(Refl(), In1(Roll(In2(Pair(Refl(), v)))))))
    return v


def _rose3(depth):
    """A rose of the given depth whose every inner node has three children."""
    v = corpus.S_ROSE
    for _ in range(depth):
        v = Roll(Pair(TT(), indexed_list([v, v, v])))
    return v


def _held_walks():
    """Factories of walks that keep memos, each with a value of its code
    larger than any value another test or an enumeration holds, and of a
    shape none builds."""
    rose_i = embed.contexts("indexed", corpus.ROSE_I)[0]
    rose = _rose3(3)
    yield partial(embed.conformer, embed.regular_context(corpus.BIN_C)), _comb(20)
    yield partial(embed.conformer, embed.polyp_context(corpus.ROSE_C)), rose
    yield partial(embed.conformer, embed.multirec_context(corpus.ZIG_ZAG_C, LSTAR)), _zig_zag(20)
    yield partial(embed.conformer, rose_i), rose
    yield (partial(embed.conformer, embed.STEPS["i-ig"].context(rose_i)),
           embed.convert_i_ig(corpus.ROSE_I, TOP_TABLE, STAR, rose, "forward"))
    yield partial(polyp.Mapper, polyp.MuSlot(corpus.ROSE_C, identity)), rose
    yield partial(indexed.Mapper, corpus.ROSE_I, {STAR: identity}, STAR), rose
    yield partial(_i_ig, corpus.ROSE_I, STAR, "forward"), rose


def _nodes(v):
    stack, out = [v], []
    while stack:
        node = stack.pop()
        out.append(node)
        if type(node) is Pair:
            stack += [node.first, node.second]
        elif type(node) in (In1, In2):
            stack.append(node.value)
        elif type(node) in (Roll, Konst, RecV):
            stack.append(node.inner)
    return out


# Equal values are one object, so only a node that no other value holds can
# die with the walk: one of more nodes than the largest enumeration of the
# suite keeps (max_size 40), in a value of a shape no other test builds.
OWN_SIZE = 40


@pytest.mark.parametrize("n", range(8))
def test_a_dropped_walk_frees_its_values_without_the_collector(n):
    """The closures of a walk refer to each other in cycles, but none of
    them, and nothing its build left behind, refers to the walk: built with
    the collector off, the walk is freed when it is dropped, and the values
    in its memos with it."""
    build, v = list(_held_walks())[n]
    alive = [weakref.ref(node) for node in _nodes(v) if value_size(node) > OWN_SIZE]
    assert alive
    gc.disable()
    try:
        walk = build()
        dead = weakref.ref(walk)
        walk(v)
        del v
        assert any(ref() is not None for ref in alive)  # held by the walk's memos
        del walk
        assert dead() is None
        assert all(ref() is None for ref in alive)
    finally:
        gc.enable()


GEN_SIZE = 12
FREED = PayloadSlot("freed")  # a sort no other test builds, so no value is held elsewhere


def _generators():
    """Factories of generator walks over binary trees with ``freed`` tokens
    at the leaves, in indexed and in instant, each with a product whose left
    operand is the recursion, so every product keeps values in its memos."""
    tree_i = dsl.parse_code("indexed", "in: ⋆\nout: ⋆\nfix (I@L.⋆ + I@R.⋆ * I@R.⋆)")
    yield partial(indexed.Generator, tree_i, {STAR: FREED}, STAR)
    body = Sum(instant.K(instant.Prim(FREED.sort)), Prod(instant.R("T"), instant.R("T")))
    yield partial(instant.generator, {"T": body}, body)


@pytest.mark.parametrize("build", list(_generators()), ids=["indexed", "instant"])
def test_a_dropped_generator_frees_its_values_without_the_collector(build):
    """A generator keeps what it built in the memos of its recursion points,
    sums and products, and what a product's left operand gave it: dropped,
    with the collector off, it frees every value it generated."""
    gc.disable()
    try:
        gen = build()
        alive = [weakref.ref(v) for n in range(1, GEN_SIZE + 1) for v in gen(n)]
        assert len(alive) == 6  # two leaves, and four forks of two leaves
        del gen
        assert all(ref() is None for ref in alive)
    finally:
        gc.enable()

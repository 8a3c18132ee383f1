"""Conformers and mappers keep one memo for every value they are given, so
they must answer exactly as a fresh one-value call does: over shared and
unshared subtrees, over values that differ in one node, across the indices
of one family, and after values die and their ids are reused."""

import random
from functools import partial
from itertools import permutations

import pytest

from genrep import In1, In2, Konst, MalformedValue, Pair, Payload, RecV, Refl, Roll, TT, payload
from genrep import corpus, embed, indexed, multirec, oracle, print_value
from genrep.gvalue import identity
from genrep.oracle import EnumBudget

from helpers import corpus_contexts, indexed_list

# From 18 on, RoseI enumerates a rose with a child, where one empty-list
# object is both the child's list and the tail of the outer list; its
# mutants put that object at a rose's point too.
MUTATION_SIZE = 18


def _mutants(v):
    """Every copy of ``v`` with one node changed; the copies share every
    subtree off the changed path with ``v``."""
    match v:
        case TT():
            yield Refl()
        case Refl() | Payload():
            yield TT()
        case In1(w):
            yield In2(w)
            yield from map(In1, _mutants(w))
        case In2(w):
            yield In1(w)
            yield from map(In2, _mutants(w))
        case Roll(w):
            yield RecV(w)
            yield from map(Roll, _mutants(w))
        case Konst(w):
            yield RecV(w)
            yield from map(Konst, _mutants(w))
        case RecV(w):
            yield Konst(w)
            yield from map(RecV, _mutants(w))
        case Pair(a, b):
            yield Pair(b, a)
            yield from (Pair(m, b) for m in _mutants(a))
            yield from (Pair(a, m) for m in _mutants(b))


@pytest.mark.parametrize("ctx", list(corpus_contexts()))
def test_one_conformer_answers_as_fresh_calls(ctx):
    """Every enumerated value and each of its one-node mutants, in turn,
    through one conformer of the context and through a fresh one each."""
    conforms = embed.conformer(ctx)
    values = oracle.enum_context(ctx, EnumBudget(max_size=MUTATION_SIZE))
    assert values
    rejected = 0
    for v in values:
        for w in [v, *_mutants(v)]:
            fresh = embed.conforms(ctx, w)
            assert conforms(w) == fresh, print_value(w)
            rejected += not fresh
    assert rejected


def _outcome(walk, v):
    try:
        return walk(v)
    except MalformedValue as err:
        return str(err)


@pytest.mark.parametrize(
    "ctx", [p for p in corpus_contexts() if p.values[0].universe == "indexed"]
)
def test_one_i_ig_converter_answers_as_fresh_calls(ctx):
    """Forward on every enumerated value and each of its one-node mutants,
    backward on every image and each of its mutants: the step's walks of
    the context give the image, or the error text, of a fresh call."""
    walks = {d: build(ctx) for d, build in embed.STEPS["i-ig"].walks.items()}
    values = oracle.enum_context(ctx, EnumBudget(max_size=MUTATION_SIZE))
    images = [walks["forward"](v) for v in values]
    for direction, subjects in (("forward", values), ("backward", images)):
        fresh = partial(embed.convert_i_ig, ctx.code, ctx.table, ctx.at, direction=direction)
        held = walks[direction]
        for v in subjects:
            for w in [v, *_mutants(v)]:
                assert _outcome(held, w) == _outcome(fresh, w), print_value(w)


_EMPTY, _E = Roll(In1(TT())), RecV(In1(TT()))


@pytest.mark.parametrize(
    "direction, accepted, rejected",
    [
        ("forward", Roll(Pair(TT(), _EMPTY)), Roll(Pair(TT(), Roll(In2(Pair(_EMPTY, _EMPTY)))))),
        ("backward", RecV(Pair(Konst(TT()), RecV(_E))),
         RecV(Pair(Konst(TT()), RecV(RecV(In2(Pair(Konst(_E), _E))))))),
    ],
    ids=["forward", "backward"],
)
def test_one_i_ig_converter_keeps_the_points_of_a_subtree_apart(direction, accepted, rejected):
    """The empty list and its image are a rose's list and no rose; after a
    value puts one in the memo as a list, a value that holds it as an
    element of a rose's list is still rejected, in either order, as by
    fresh calls."""
    [ctx] = embed.contexts("indexed", corpus.ROSE_I)
    fresh = partial(embed.convert_i_ig, ctx.code, ctx.table, ctx.at, direction=direction)
    for order in ([accepted, rejected], [rejected, accepted]):
        held = embed.STEPS["i-ig"].walks[direction](ctx)
        outcomes = [_outcome(held, v) for v in order]
        assert outcomes == [_outcome(fresh, v) for v in order]
        assert [type(o) is str for o in outcomes] == [v is rejected for v in order]


def test_i_ig_keeps_a_shared_child_shared():
    """A tree whose two children are one object converts to an image whose
    two children are one object, and an image whose two children are one
    object converts back to such a tree."""
    [ctx] = embed.contexts("indexed", corpus.BIN_I)
    walks = embed.STEPS["i-ig"].walks
    leaf = Roll(In1(TT()))
    tree = Roll(In2(Pair(leaf, leaf)))
    image = walks["forward"](ctx)(tree)
    assert image == embed.convert_i_ig(ctx.code, ctx.table, ctx.at, tree, "forward")
    assert image.inner.value.first is image.inner.value.second
    child = RecV(In1(TT()))
    back = walks["backward"](ctx)(RecV(In2(Pair(child, child))))
    assert back == tree
    assert back.inner.value.first is back.inner.value.second


def test_a_shared_subtree_is_judged_per_point():
    """One object sits at two recursion points of a rose: as an element of
    its list and as the list's tail, or as a whole rose and as its list.
    ``empty`` is the empty list and no rose; ``leaf`` is a rose and no
    list. The memo keeps the answers apart, in every order, in polyp and in
    indexed conformance and in the indexed map."""
    empty = Roll(In1(TT()))
    leaf = Roll(Pair(TT(), empty))
    bad = Roll(Pair(TT(), Roll(In2(Pair(empty, empty)))))
    twice = Roll(Pair(TT(), Roll(In2(Pair(leaf, leaf)))))
    rose_i = embed.contexts("indexed", corpus.ROSE_I)[0]
    top = {embed.STAR: identity}
    for order in permutations([leaf, bad, twice, empty]):
        for ctx in (embed.polyp_context(corpus.ROSE_C), rose_i):
            conforms = embed.conformer(ctx)
            assert [conforms(v) for v in order] == [v is leaf for v in order]
            assert [embed.conforms(ctx, v) for v in order] == [v is leaf for v in order]
        mapper = indexed.Mapper(corpus.ROSE_I, top, embed.STAR)
        fresh = lambda v: indexed.Mapper(corpus.ROSE_I, top, embed.STAR)(v)
        assert [_outcome(mapper, v) for v in order] == [_outcome(fresh, v) for v in order]
    assert _outcome(fresh, bad) == "product layer is not a pair: in1 tt"
    assert _outcome(fresh, twice) == "sum layer is not an injection: (tt , <in1 tt>)"


def test_a_shared_subtree_is_judged_per_named_code():
    """The instant image of the rose names its list layer and its elements
    apart; one object is an empty list layer at the tail and no element."""
    ctx = embed.STEPS["i-ig"].context(embed.contexts("indexed", corpus.ROSE_I)[0])
    empty = In1(TT())

    def rose(layer):
        return RecV(Pair(Konst(TT()), RecV(RecV(layer))))

    good, bad = rose(empty), rose(In2(Pair(Konst(empty), RecV(empty))))
    for order in ([good, bad], [bad, good]):
        conforms = embed.conformer(ctx)
        assert [conforms(v) for v in order] == [v is good for v in order]
        assert [embed.conforms(ctx, v) for v in order] == [v is good for v in order]


def test_one_family_conformer_keeps_its_indices_apart():
    """One object ``x``, a zig-zag value at R, sits below the top of one
    value at index R, where it belongs, and of another at index L, where it
    does not. A conformer at L keeps the two answers apart, in either
    order."""
    code = corpus.ZIG_ZAG_C

    def at_left(w):
        return Roll(In1(Pair(Refl(), w)))

    def at_right(w):
        return Roll(In2(Pair(Refl(), w)))

    x = at_right(at_left(In2(TT())))
    holds = at_left(In1(x))
    misplaces = at_left(In1(at_right(x)))
    for order in ([holds, misplaces], [misplaces, holds]):
        conforms = embed.conformer(embed.multirec_context(code, embed.LSTAR))
        assert [conforms(v) for v in order] == [v is holds for v in order]
        assert [multirec.conform_mu_m(code, embed.LSTAR, v) for v in order] == [
            v is holds for v in order
        ]


# Each builds a new object, so a dropped item's id can come back.
_ITEMS = (TT, lambda: payload("nat", 0), lambda: payload("nat", 1), lambda: In1(TT()))


def test_ids_reused_after_a_value_dies_do_not_hit_the_memo():
    """Lists built and dropped one at a time get the ids of earlier ones;
    one conformer and one mapper still answer for the list they are given,
    as fresh calls do."""
    rng = random.Random(7)
    ctx = embed.polyp_context(corpus.LIST_C)
    conforms = embed.conformer(ctx)
    fam = {embed.STAR: In1}
    mapper = indexed.Mapper(corpus.LIST_I, fam, embed.STAR)
    accepted = 0
    for _ in range(10_000):
        v = indexed_list([rng.choice(_ITEMS)() for _ in range(rng.randrange(4))])
        ok = embed.conforms(ctx, v)
        assert conforms(v) == ok
        assert mapper(v) == indexed.Mapper(corpus.LIST_I, fam, embed.STAR)(v)
        accepted += ok
        del v
    assert 0 < accepted < 10_000


# functor key -> (transformers per family, failures, first and last failing
# value) of the false law below, pinned so that a change in the values a law
# suite reads, or in their order, fails here.
_FALSE_LAWS = {
    "indexed": (1, 5, "<in2 (tt , <in1 tt>)>", "<(tt , <in2 (<(tt , <in1 tt>)> , <in1 tt>)>)>"),
    "p-i": (2, 15, "in2 (tt , tt)", "in1 <in2 (tt , <in2 (tt , <in2 (tt , <in1 tt>)>)>)>"),
    "polyp": (1, 19, "<in2 (tt , <in1 tt>)>",
              "<in2 (<in1 <in2 (tt , <in1 tt>)>> , <in1 <in1 tt>>)>"),
    "regular": (1, 11, "in2 <in1 tt>", "in2 (<in2 (<in1 tt> , <in1 tt>)> , <in1 tt>)"),
    "multirec": (1, 3, "in1 (refl , in1 <in2 (refl , <in1 (refl , in2 tt)>)>)",
                 "in2 (refl , <in1 (refl , in1 <in2 (refl , <in1 (refl , in2 tt)>)>)>)"),
    "r-p": (2, 11, "in2 <in1 tt>", "in2 (<in2 (<in1 tt> , <in1 tt>)> , <in1 tt>)"),
}


@pytest.mark.parametrize("key", list(_FALSE_LAWS))
def test_a_false_law_fails_alike_with_one_mapper_per_family(monkeypatch, key):
    """Mapping by ``identity`` and by ``_wrap_in1`` are not the same map; the
    failures through ``_laws`` list the same values, in the same order, with
    the same text, as with a fresh mapper per value."""
    arity, count, first, last = _FALSE_LAWS[key]
    law = oracle._congruence((identity,) * arity, (oracle._wrap_in1,) * arity)
    budget = EnumBudget(max_size=MUTATION_SIZE)
    codes, contexts, values, fmap = oracle._FUNCTORS[key]
    held = oracle._laws(key, "false", law, codes, budget)
    fresh_fmap = lambda ctx, fs: lambda v: fmap(ctx, fs)(v)
    monkeypatch.setitem(oracle._FUNCTORS, key, (codes, contexts, values, fresh_fmap))
    fresh = oracle._laws(key, "false", law, codes, budget)
    assert held.checked_count == fresh.checked_count
    printed = [(print_value(v), d, m) for v, d, m in held.failures]
    assert printed == [(print_value(v), d, m) for v, d, m in fresh.failures]
    assert len(printed) == count
    assert [printed[0], printed[-1]] == [(first, "false", first), (last, "false", last)]


def test_maps_share_what_they_map_once():
    """A mapper maps a subtree shared by many values once: its results share
    that subtree's image."""
    tail = indexed_list([TT()] * 30)
    heads = [Roll(In2(Pair(TT(), tail))) for _ in range(3)]
    mapper = indexed.Mapper(corpus.LIST_I, {embed.STAR: partial(Pair, TT())}, embed.STAR)
    images = [mapper(v) for v in heads]
    fresh = indexed.Mapper(corpus.LIST_I, {embed.STAR: partial(Pair, TT())}, embed.STAR)(heads[0])
    assert images[0] == fresh
    assert images[0].inner.value.second is images[1].inner.value.second

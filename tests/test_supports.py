"""The supports of the generators: for each node, the sizes it has values
of, computed before any value is built. The top's support must be exactly
the sizes enumeration yields and the sizes the brute-force tree oracle
accepts; a generator extends it when asked for more; a code with a node
that raises fails when its generator is built, before any size is asked;
and skipping empty sizes is pinned by the calls it saves."""

import re
import sys

import pytest

from genrep import corpus, embed, index_set, indexed, instant, label, oracle, print_value
from genrep import value_size
from genrep.gvalue import IndexNotInSet, MalformedValue, PayloadSlot
from genrep.oracle import EnumBudget
from genrep.spine import Prod, Record, Sum, Unit

from helpers import all_trees, corpus_contexts, fuzz_indexed_codes

STAR = embed.STAR
TOP = PayloadSlot("⊤")


def _generator(ctx):
    """A fresh generator of ``ctx``: a regular, polyp or multirec context's
    is that of its closed indexed lift, which enumeration reads."""
    for step in embed.universe_row(ctx.universe).to_indexed:
        ctx = embed.STEPS[step].context(ctx)
    if ctx.universe == "instant":
        return instant.generator(ctx.env, ctx.code)
    return indexed.Generator(ctx.code, embed.payload_slots(ctx.table), ctx.at)


def _sizes(support, bound):
    return [n for n in range(1, bound + 1) if support >> n & 1]


def _contexts():
    """Every corpus context, and every context of the generated indexed
    codes, once per code and output."""
    contexts = [param.values[0] for param in corpus_contexts()]
    seen = set()
    for code in fuzz_indexed_codes(range(200)):
        for ctx in embed.contexts("indexed", code):
            if (ctx.code, ctx.at) not in seen:
                seen.add((ctx.code, ctx.at))
                contexts.append(ctx)
    return contexts


CONTEXTS = _contexts()


def test_a_support_holds_the_sizes_enumeration_yields():
    """Up to 16 nodes, the top's support has a size exactly when the
    enumeration has a value of that size."""
    assert len(CONTEXTS) == 398
    for ctx in CONTEXTS:
        found = {value_size(v) for v in oracle._finish(_generator(ctx), 16)}
        assert _sizes(_generator(ctx).support(16), 16) == sorted(found), ctx


def test_a_support_holds_the_sizes_the_tree_oracle_accepts():
    """Up to 6 nodes, the top's support has a size exactly when some tree of
    that size conforms, which nothing the generators share decides."""
    for ctx in CONTEXTS:
        conforms = embed.conformer(ctx).top  # the walk's top closure, a frame less a tree
        accepted = [n for n in range(1, 7) if any(map(conforms, all_trees(n)))]
        assert _sizes(_generator(ctx).support(6), 6) == accepted, ctx


@pytest.mark.parametrize("ctx", list(corpus_contexts()))
def test_a_generator_asked_for_more_extends_its_supports(ctx):
    """Values up to 8 nodes and then up to 20 from one generator are a fresh
    generator's up to 20, and so is one asked size by size."""
    held, fresh, stepped = _generator(ctx), _generator(ctx), _generator(ctx)
    values = oracle._finish(fresh, 20)
    assert oracle._finish(held, 8) == [v for v in values if value_size(v) <= 8]
    assert oracle._finish(held, 20) == values
    assert [v for n in range(1, 21) for v in sorted(stepped(n), key=print_value)] == values
    assert held.bound == fresh.bound == stepped.bound == 20


def test_a_generator_skips_the_sizes_no_value_has():
    """ZigZagI has 6 values of at most 32 nodes at its two outputs. Built and
    asked for them, its generators make at most 900 Python calls; asking
    every operand at every size, as before supports, made 1,808."""
    assign = embed.payload_slots(embed.standard_table(corpus.ZIG_ZAG_I))
    calls, values = [], []

    def count(frame, event, arg):
        if event == "call":
            calls.append(frame)

    sys.setprofile(count)
    try:
        for at in corpus.ZIG_ZAG_I.outs:
            values += oracle._finish(indexed.Generator(corpus.ZIG_ZAG_I, assign, at), 32)
    finally:
        sys.setprofile(None)
    assert len(values) == 6
    assert len(calls) <= 900


class Foreign(Record):
    pass


X = index_set(STAR)
NOWHERE = label("nowhere")


def _indexed(code, assign):
    """Building ``code``'s generator under ``assign`` at ⋆, and enumerating
    it up to a size."""
    return (
        lambda: indexed.Generator(code, assign, STAR),
        lambda n: oracle.enum_indexed(code, assign, STAR, EnumBudget(max_size=n)),
    )


def _body(body):
    return indexed.IndexedCode(X, X, body)


def _instant(env, code):
    """Building ``code``'s generator in ``env``, and enumerating it up to a size."""
    return (
        lambda: instant.generator(env, code),
        lambda n: oracle.enum_instant(env, code, EnumBudget(max_size=n)),
    )


# case -> (build, enumerate, error, message): a code with a node that raises,
# wherever the node sits, even where no size of the top reaches it.
ERRORS = {
    "missing-slot": (
        *_indexed(corpus.LIST_I, {}), IndexNotInSet, "no slot for index L.⋆"),
    "missing-slot-right": (
        *_indexed(_body(Sum(Unit(), Prod(indexed.Tag(STAR), indexed.Id(NOWHERE)))), {STAR: TOP}),
        IndexNotInSet, "no slot for index nowhere"),
    "foreign-node-left": (
        *_indexed(_body(Sum(Unit(), Prod(Foreign(), Unit()))), {STAR: TOP}),
        TypeError, "not an indexed body: Foreign()"),
    "foreign-node": (
        *_indexed(_body(Sum(Unit(), Foreign())), {STAR: TOP}),
        TypeError, "not an indexed body: Foreign()"),
    "undefined-name": (
        *_instant({"A": instant.R("B")}, instant.R("A")),
        MalformedValue, "reference B is not defined in the environment"),
    "undefined-name-right": (
        *_instant({"A": Sum(Unit(), instant.R("B"))}, instant.R("A")),
        MalformedValue, "reference B is not defined in the environment"),
    "foreign-instant-node": (
        *_instant({}, Sum(Unit(), Foreign())),
        TypeError, "not an instant code: Foreign()"),
}


@pytest.mark.parametrize("build, enumerate_, error, message", ERRORS.values(), ids=ERRORS)
def test_a_node_that_raises_fails_its_generator_when_it_is_built(build, enumerate_, error, message):
    match = f"^{re.escape(message)}$"
    with pytest.raises(error, match=match):
        build()
    for max_size in (1, 3, 6):
        with pytest.raises(error, match=match):
            enumerate_(max_size)

"""Exhaustive enumeration of conforming values and the property suites.

Enumeration is the oracle the suites trust: generators build exactly the
values that conform, every emitted value is re-checked inline, and the
ordering (size, then printed form) is deterministic so failure witnesses
are stable.

The generators are compiled walks of their universe, ``indexed.Generator``
and ``instant.generator``, that give the values of each exact size; the
result is each size from 1 to ``max_size`` in turn, sorted by branch
choices, which agree with printed form: two values of one code first
differ at a sum or a token (see ``_finish``). A generator keeps the values
of each recursion point (a fixed point, an interpreted slot, a named
instant code) at each size, built once and then shared as subtrees of
every larger value, so no value is built twice or repeated.

Before it builds a value, a generator knows the sizes each of its nodes has
values of, its support (``spine.Generating``): one int per node, with bit
``n`` set for a value of ``n`` nodes, computed for every size up to
``max_size`` at once, a recursion point's as a least fixpoint. ``_finish``
asks the generator only at the sizes of its top's support, and each node
asks an operand only at the operand's sizes, so no closure is called for
a size that has no values; FEAT likewise counts a type's values by size
before it builds any.

A context is enumerated as its universe's row in ``embed.UNIVERSES``
says: indexed and instant by their own generator, regular, polyp and
multirec through their closed indexed lift, along the row's ``to_indexed``
steps (r→p, p→i, m→i). Those keep the tree, so the lift has exactly the
context's values, and the source universe's own conformer rechecks each.

The indexed recheck, ``indexed.Conformer``, reads a code through the same
``indexed.Walk`` dispatch over identity positions, compositions and fixed
points as the generator; only what the atoms mean (payload and empty
leaves, tags, the ``Roll`` of a layer) is a hook of each. A fault in that
dispatch could pass both. What checks the indexed generator apart from it
is the source universe's conformer that rechecks every regular, polyp
and multirec value, the i→ig suites, whose instant conformer judges every
converted value, and the brute-force tests, which compare each
enumeration with every tree up to a size that a conformer accepts.

``enum_context`` keeps one table for the life of the process, with at most
one entry per context value: keyed by the universe, code and index and the
items of the constant table and environment, by value and never by ``id``,
it holds the values up to the largest ``max_size`` asked for so far. So a
lift shares its entry with an equal indexed context (NatC's lift is NatI).
An entry is stored only once its values are rechecked, so the recheck runs
once per entry and a broken generator raises on every call; a smaller
budget is served from the front of the entry, a larger one enumerates
afresh and replaces it, and every call returns a fresh list. Nothing in
the table can be tuned. Only ``enum_indexed`` and ``enum_instant`` keep no
table.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from functools import cache, partial
from itertools import product
from typing import Callable, Mapping

from . import corpus, embed, indexed, instant, multirec, polyp, regular, spine
from .embed import STAR, ConversionReport, PathContext, standard_table
from .gvalue import (
    GenericValue,
    In1,
    In2,
    IndexLabel,
    Konst,
    Pair,
    Payload,
    RecV,
    Roll,
    TOP_SLOT,
    UnknownProperty,
    compose,
    identity,
    print_value,
    value_size,
)


class EnumBudget(spine.Record):
    max_size: int

    def __post_init__(self) -> None:
        if type(self.max_size) is not int:
            raise ValueError(f"max_size must be an int: {self.max_size!r}")
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")
        if self.max_size > sys.maxsize:  # no list holds more values than that
            raise ValueError(f"max_size must be at most {sys.maxsize}")


def _finish(gen: spine.Generating, max_size: int) -> list[GenericValue]:
    """The values ``gen(n)`` gives for each size ``n`` from 1 to
    ``max_size``, ordered by size and then by printed form, which a size's
    branch choices (``_choices``) give: two values of one code first differ
    at a sum, where ``in1 `` prints first, or at a payload slot, whose only
    tokens ``S#0`` and ``S#1`` (``spine.tokens``) print in ident order.
    ``gen`` gives every value of exactly ``n`` nodes once, so nothing repeats.

    ``gen`` is asked only at the sizes of its support up to ``max_size``
    (``support``), which it computes first. A code with a node that raises
    (a missing slot, an undefined name, a node of no universe) has no
    ``gen``: building it raised that node's error."""
    key, values, support = partial(_choices, {}), [], gen.support(max_size)
    for n in range(1, max_size + 1):
        if support >> n & 1:
            values += sorted(gen(n), key=key)
    return values


def _choices(keys: dict, v: GenericValue) -> tuple[int, ...]:
    """The branch choices of ``v`` in print order: 0 for ``In1``, 1 for
    ``In2``, a token's ident; kept in ``keys`` per node, built in a loop."""
    pending = [v]
    while pending:
        node = pending.pop()
        kind = type(node)
        try:
            if kind is Pair:
                keys[node] = keys[node.first] + keys[node.second]
            elif kind is In1 or kind is In2:
                keys[node] = (kind is In2, *keys[node.value])
            elif kind is Roll or kind is Konst or kind is RecV:
                keys[node] = keys[node.inner]
            else:
                keys[node] = (node.token.ident,) if kind is Payload else ()
        except KeyError as missing:  # a child has none yet: build it, then the node
            pending += node, missing.args[0]
    return keys[v]


def _rechecked(
    values: list[GenericValue], conforms: Callable[[GenericValue], bool]
) -> list[GenericValue]:
    """The inline re-check of every emitted value; it also runs under -O.
    ``conforms`` is one conformer, whose memo judges each subtree the values
    share once."""
    for v in values:
        if not conforms(v):
            raise RuntimeError(f"enumerator emitted a non-conforming value: {print_value(v)}")
    return values


def enum_indexed(
    code: indexed.IndexedCode, assign: indexed.SlotTable, at: IndexLabel, budget: EnumBudget
) -> list[GenericValue]:
    return _rechecked(
        _finish(indexed.Generator(code, assign, at), budget.max_size),
        indexed.Conformer(code, assign, at),
    )


def enum_instant(
    env: instant.CodeEnv, code: instant.InstantCode, budget: EnumBudget
) -> list[GenericValue]:
    return _enumerate(PathContext(embed.INSTANT.name, code, env=env), budget)


# ---------------------------------------------------------------------------
# enumeration by context


def _enumerate(ctx: PathContext, budget: EnumBudget) -> list[GenericValue]:
    """The values of ``ctx``. A context of a universe with a generator of
    its own (indexed, instant) runs it afresh. Any other takes the values of
    its closed indexed lift from ``enum_context``, and its own universe's
    conformer, built first, rechecks them."""
    row = embed.universe_row(ctx.universe)
    if row.generator is not None:
        return _rechecked(_finish(row.generator(ctx), budget.max_size), row.conformer(ctx))
    conforms = row.conformer(ctx)
    lifted = ctx
    for step in row.to_indexed:
        lifted = embed.STEPS[step].context(lifted)
    row.check(ctx.code)
    return _rechecked(enum_context(lifted, budget), conforms)


def enum_mu_regular(code: regular.RegularCode, budget: EnumBudget) -> list[GenericValue]:
    return _enumerate(embed.regular_context(code), budget)


def enum_mu_polyp(
    code: polyp.PolyPCode, param: polyp.PolyPSlot, budget: EnumBudget
) -> list[GenericValue]:
    """The fixed point's values at the ``⊤`` parameter, the only slot the
    lift to indexed reads."""
    if param != TOP_SLOT:
        raise ValueError(f"only the ⊤ parameter slot enumerates, not {param!r}")
    return _enumerate(embed.polyp_context(code), budget)


def enum_mu_multirec(
    code: multirec.MultirecCode, at: IndexLabel, budget: EnumBudget
) -> list[GenericValue]:
    return _enumerate(embed.multirec_context(code, at), budget)


# a context by contents, (code, *embed.context_key(ctx)), since the suites
# build equal codes and contexts afresh -> (the largest max_size asked for,
# the values up to it)
_ENUMERATED: dict[tuple, tuple[int, list[GenericValue]]] = {}


def enum_context(ctx: PathContext, budget: EnumBudget) -> list[GenericValue]:
    """Every value of at most ``budget.max_size`` nodes where ``ctx`` says a
    fixed-point value lives (see ``embed.contexts``), as a fresh list. Each
    context value is enumerated and rechecked once per largest budget; a
    smaller budget is served from the front of the values kept for it."""
    key = (ctx.code, *embed.context_key(ctx))
    max_size, values = _ENUMERATED.get(key, (0, []))
    if max_size < budget.max_size:
        values = _enumerate(ctx, budget)
        _ENUMERATED[key] = (budget.max_size, values)
    elif max_size > budget.max_size:
        return values[: bisect_right(values, budget.max_size, key=value_size)]
    return values.copy()


# ---------------------------------------------------------------------------
# property suites


def standard_assign(code: indexed.IndexedCode) -> dict[IndexLabel, indexed.IndexedSlot]:
    """The slots of ``embed.standard_table``: every input is a ``⊤`` parameter."""
    return embed.payload_slots(standard_table(code))


def _round_trip(
    report: ConversionReport, values: list[GenericValue], walks: embed.Walks, there: str, back: str
) -> None:
    report.checked_count += len(values)
    for v in values:
        try:
            w = walks[back](walks[there](v))
        except Exception as err:
            report.failures.append((v, there, f"{type(err).__name__}: {err}"))
            continue
        if w != v:
            report.failures.append((v, there, f"round trip produced {print_value(w)}"))


def _arrows(step: str, codes):
    """Per code and index of the step's source family: the source context,
    the step's target context and the walks out of the source by direction,
    which serve all of the context's values: one walk per builder, so the
    arrows that keep the tree check a round trip with one conformer."""
    row = embed.STEPS[step]
    for code in codes.values():
        for ctx in embed.contexts(row.source, code):
            built = {}
            walks = {d: spine.once(built, b, partial(b, ctx)) for d, b in row.walks.items()}
            yield ctx, row.context(ctx), walks


# step -> its default codes, those of the step's source universe
_ARROWS = {step: corpus.CODES[row.source] for step, row in embed.STEPS.items()}


def _iso(step: str, codes, budget: EnumBudget) -> ConversionReport:
    """Round trips from every source value, then from every target value."""
    report = ConversionReport()
    for source, target, walks in _arrows(step, codes):
        _round_trip(report, enum_context(source, budget), walks, "forward", "backward")
        _round_trip(report, enum_context(target, budget), walks, "backward", "forward")
    return report


def _transport(step: str, codes, budget: EnumBudget) -> ConversionReport:
    """Every source value converts forward to a value of the lifted code;
    the target is never enumerated."""
    report = ConversionReport()
    for source, target, walks in _arrows(step, codes):
        conforms, forward = embed.conformer(target), walks["forward"]
        values = enum_context(source, budget)
        report.checked_count += len(values)
        for v in values:
            try:
                w = forward(v)
                ok = conforms(w)
            except Exception as err:
                report.failures.append((v, "forward", f"{type(err).__name__}: {err}"))
                continue
            if not ok:
                report.failures.append((v, "forward", f"{print_value(w)} does not conform"))
    return report


def _tree_succ(v: GenericValue) -> GenericValue:
    return Roll(In2(v))


def _wrap_in1(v: GenericValue) -> GenericValue:
    return In1(v)


def _layers(ctx: PathContext, budget: EnumBudget) -> list[GenericValue]:
    """The one-layer values of ``ctx`` of at most ``budget.max_size`` nodes:
    the layers under the ``Roll`` of its fixed-point values, one node
    larger, in the same order. The largest budget has no larger one, and
    runs out of memory before its last size all the same."""
    larger = EnumBudget(min(budget.max_size + 1, sys.maxsize))
    return [v.inner for v in enum_context(ctx, larger)]


def _fmap_r_p(ctx: PathContext, fs):
    """The r→p commute pair: a family (parameter, recursion) maps under the
    lifted polyp code, a family (recursion,) under the regular code."""
    if len(fs) == 2:
        lifted = embed.lift_r_to_p(ctx.code)
        return polyp.Mapper(polyp.InterpSlot(lifted, polyp.SlotPair(*fs)))
    return regular.mapper(ctx.code, *fs)


# functor key -> (default codes, the contexts of a code, the values of a
# context, fmap). ``fmap(ctx, family)`` takes a transformer family, a tuple
# of one function per parameter, and returns the map the family induces: a
# mapper, compiled once to serve every value it maps. Each universe whose
# row has a ``mapper`` is a functor over its corpus codes; a mapper of one
# layer maps the layers under the context's values (``_layers``). The open
# p→i lift maps under split families (parameter, recursion).
_FUNCTORS = {
    **{name: (corpus.CODES[name], partial(embed.contexts, name),
              _layers if row.one_layer else enum_context, row.mapper)
       for name, row in embed.UNIVERSES.items() if row.mapper is not None},
    "r-p": (corpus.REGULAR_CODES, partial(embed.contexts, embed.REGULAR.name), _layers, _fmap_r_p),
    "p-i": (corpus.POLYP_CODES,
            lambda code: embed.contexts(embed.INDEXED.name, embed.lift_p_to_i(code), at=STAR),
            enum_context,
            lambda ctx, fs: indexed.Mapper(
                ctx.code, indexed.split_tables({STAR: fs[0]}, {STAR: fs[1]}), ctx.at)),
}


# A law takes a functor's fmap and gives the (left, right) pairs of maps
# that must agree on every value. ``_laws`` takes them one at a time, so a
# law that builds them lazily lets a map that serves one pair die with it.


def _identity(arity: int):
    return lambda fmap: [(fmap((identity,) * arity), identity)]


def _composition(pairs):
    """Per (outer, inner) pair of families: mapping the composed family
    equals mapping the inner family, then the outer one. The outer and
    inner families serve several pairs, so each gets one map per functor;
    a composed family serves its pair only."""

    def law(fmap):
        shared = cache(fmap)
        for outer, inner in pairs:
            yield fmap(tuple(map(compose, outer, inner))), compose(shared(outer), shared(inner))

    return law


def _congruence(one, two):
    """The maps of two families agree: the same transformers as other
    function objects (par-cong), or one transformer under two codes
    (map-commute)."""
    return lambda fmap: [(fmap(one), fmap(two))]


def _laws(key: str, label: str, law, codes, budget: EnumBudget) -> ConversionReport:
    """Check every pair of ``law`` on every value of every context of the
    ``key`` functor. The report counts one check per value and pair, and
    keeps only the failures, each with the left map's result. A map's memo
    walks each subtree the values share once; the maps die with their pair
    or, when several pairs share them, with the context."""
    _, contexts, values_of, fmap = _FUNCTORS[key]
    report = ConversionReport()
    for code in codes.values():
        for ctx in contexts(code):
            values = values_of(ctx, budget)
            for lhs, rhs in law(partial(fmap, ctx)):
                report.checked_count += len(values)
                for v in values:
                    w = lhs(v)
                    if w != rhs(v):
                        report.failures.append((v, label, print_value(w)))
    return report


_MAP_COMP = _composition([((_wrap_in1,), (_tree_succ,))])
_SPLIT_FAMILIES = [(identity, identity), (_tree_succ, _wrap_in1), (_wrap_in1, _tree_succ)]
_SUCC_WRAP = (_tree_succ, _wrap_in1)

# law suite -> (functor key, failure label, law); ``genrep laws`` runs the
# suites whose key is its universe.
LAWS = {
    "map-id-r": ("regular", "map-id", _identity(1)),
    "map-comp-r": ("regular", "map-comp", _MAP_COMP),
    "map-id-p": ("polyp", "pmap-id", _identity(1)),
    "map-comp-p": ("polyp", "pmap-comp", _MAP_COMP),
    "map-id-m": ("multirec", "map-id", _identity(1)),
    "map-comp-m": ("multirec", "map-comp", _MAP_COMP),
    "map-id-i": ("indexed", "map-id", _identity(1)),
    "map-comp-i": ("indexed", "map-comp", _MAP_COMP),
    "map-commute-r-p": ("r-p", "map-commute", _congruence((identity, _tree_succ), (_tree_succ,))),
    "par-id": ("p-i", "par-id", _identity(2)),
    "par-comp": ("p-i", "par-comp", _composition(list(product(_SPLIT_FAMILIES, repeat=2)))),
    "par-cong": (
        "p-i",
        "par-cong",
        _congruence(_SUCC_WRAP, tuple(compose(f, identity) for f in _SUCC_WRAP)),
    ),
}


def _prop_pitfall_comp(codes, budget: EnumBudget) -> ConversionReport:
    witness, report = corpus.TREE_OF_LISTS, ConversionReport(checked_count=2)
    if embed.conforms(embed.polyp_context(corpus.TREE_LIST_NAIVE), witness):
        report.failures.append((witness, "naive", "naive composition accepted the witness"))
    if not embed.conforms(embed.polyp_context(corpus.TREE_LIST_PROPER), witness):
        report.failures.append((witness, "proper", "proper code rejected the witness"))
    return report


# name -> (default codes, suite)
_PROPERTIES: dict[str, tuple[Mapping, Callable[[Mapping, EnumBudget], ConversionReport]]] = {
    **{f"iso-{step}": (codes, partial(_iso, step)) for step, codes in _ARROWS.items()},
    "isoMu-r-p": (corpus.REGULAR_CODES, partial(_iso, "r-p")),
    **{f"transport-{step}": (codes, partial(_transport, step)) for step, codes in _ARROWS.items()},
    **{
        name: (_FUNCTORS[key][0], partial(_laws, key, label, law))
        for name, (key, label, law) in LAWS.items()
    },
    "pitfall-comp": (corpus.POLYP_CODES, _prop_pitfall_comp),
}


def property_names() -> list[str]:
    return sorted(_PROPERTIES)


def run_property(
    name: str, codes: Mapping | None = None, budget: EnumBudget | None = None
) -> ConversionReport:
    """Run one registered property suite; its report counts every check."""
    if name not in _PROPERTIES:
        raise UnknownProperty(f"unknown property: {name}")
    if budget is None:
        budget = EnumBudget(max_size=10)
    default_codes, suite = _PROPERTIES[name]
    return suite(codes if codes is not None else default_codes, budget)

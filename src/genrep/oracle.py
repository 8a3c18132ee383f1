"""Exhaustive enumeration of conforming values and the property suites.

Enumeration is the independent oracle: generators build exactly the values
that conform, every emitted value is re-checked inline, and the ordering
(size, then printed form) is deterministic so failure witnesses are stable.

Payload sorts admit infinitely many tokens, so enumeration restricts token
identifiers to 0 and 1 per sort; size bounds then give finite universes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable, Mapping

from . import corpus, embed, indexed, instant, multirec, polyp, regular, spine
from .embed import STAR, ConversionReport, PathContext, standard_table
from .gvalue import (
    EmptySlot,
    GenericValue,
    In1,
    In2,
    IndexLabel,
    Konst,
    PayloadSlot,
    RecV,
    Refl,
    Roll,
    TOP_SLOT,
    TOP_SORT,
    TT,
    compose,
    identity,
    payload,
    print_value,
    value_size,
)


class UnknownProperty(Exception):
    """The requested property id is not in the registry."""


@dataclass(frozen=True)
class EnumBudget:
    max_size: int

    def __post_init__(self) -> None:
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")


def _finish(values: Iterable[GenericValue]) -> list[GenericValue]:
    unique = set(values)
    return sorted(unique, key=lambda v: (value_size(v), print_value(v)))


def _rechecked(
    values: list[GenericValue], conforms: Callable[[GenericValue], bool]
) -> list[GenericValue]:
    """The inline re-check of every emitted value; it also runs under -O."""
    for v in values:
        if not conforms(v):
            raise RuntimeError(f"enumerator emitted a non-conforming value: {print_value(v)}")
    return values


def _gen_payload(sort: str, n: int) -> list[GenericValue]:
    """Tokens 0 and 1 of a sort, or ``tt`` for ``⊤``: one node each."""
    if n < 1:
        return []
    if sort == TOP_SORT:
        return [TT()]
    return [payload(sort, 0), payload(sort, 1)]


# ---------------------------------------------------------------------------
# regular


def _gen_slot_r(slot: regular.RegularSlot, n: int) -> list[GenericValue]:
    match slot:
        case PayloadSlot(sort):
            return _gen_payload(sort, n)
        case EmptySlot():
            return []
        case regular.MuSlot(code):
            return _gen_mu_r(code, n)
    raise TypeError(f"not a regular slot: {slot!r}")


def _gen_r(code: regular.RegularCode, slot: regular.RegularSlot, n: int):
    def atom(node: regular.RegularCode, m: int) -> list[GenericValue]:
        match node:
            case regular.Id():
                return _gen_slot_r(slot, m)
        raise TypeError(f"not a regular code: {node!r}")

    return spine.gen(code, n, atom)


def _gen_mu_r(code: regular.RegularCode, n: int) -> list[GenericValue]:
    return [Roll(w) for w in _gen_r(code, regular.MuSlot(code), n - 1)]


def enum_regular(
    code: regular.RegularCode, slot: regular.RegularSlot, budget: EnumBudget
) -> list[GenericValue]:
    values = _finish(_gen_r(code, slot, budget.max_size))
    return _rechecked(values, partial(regular.conform_r, code, slot))


def enum_mu_regular(code: regular.RegularCode, budget: EnumBudget) -> list[GenericValue]:
    values = _finish(_gen_mu_r(code, budget.max_size))
    return _rechecked(values, partial(regular.conform_mu_r, code))


# ---------------------------------------------------------------------------
# polyp


def _gen_slot_p(slot: polyp.PolyPSlot, n: int) -> list[GenericValue]:
    match slot:
        case PayloadSlot(sort):
            return _gen_payload(sort, n)
        case EmptySlot():
            return []
        case polyp.MuSlot(code, param):
            return _gen_mu_p(code, param, n)
        case polyp.InterpSlot(code, slots):
            return _gen_p(code, slots, n)
    raise TypeError(f"not a polyp slot: {slot!r}")


def _gen_p(code: polyp.PolyPCode, slots: polyp.SlotPair, n: int):
    def atom(node: polyp.PolyPCode, m: int) -> list[GenericValue]:
        match node:
            case polyp.Par():
                return _gen_slot_p(slots.param, m)
            case polyp.Id():
                return _gen_slot_p(slots.rec, m)
            case polyp.Comp(f, g):
                return _gen_mu_p(f, polyp.InterpSlot(g, slots), m)
        raise TypeError(f"not a polyp code: {node!r}")

    return spine.gen(code, n, atom)


def _gen_mu_p(
    code: polyp.PolyPCode, param: polyp.PolyPSlot, n: int
) -> list[GenericValue]:
    slots = polyp.SlotPair(param, polyp.MuSlot(code, param))
    return [Roll(w) for w in _gen_p(code, slots, n - 1)]


def enum_polyp(
    code: polyp.PolyPCode, slots: polyp.SlotPair, budget: EnumBudget
) -> list[GenericValue]:
    values = _finish(_gen_p(code, slots, budget.max_size))
    return _rechecked(values, partial(polyp.conform_p, code, slots))


def enum_mu_polyp(
    code: polyp.PolyPCode, param: polyp.PolyPSlot, budget: EnumBudget
) -> list[GenericValue]:
    values = _finish(_gen_mu_p(code, param, budget.max_size))
    return _rechecked(values, partial(polyp.conform_mu_p, code, param))


# ---------------------------------------------------------------------------
# multirec


def _gen_slot_m(
    slot: multirec.MultirecSlot, at: IndexLabel, n: int
) -> list[GenericValue]:
    match slot:
        case PayloadSlot(sort):
            return _gen_payload(sort, n)
        case EmptySlot():
            return []
        case multirec.MuSlot(code):
            return _gen_mu_m(code, at, n)
    raise TypeError(f"not a multirec slot: {slot!r}")


def _gen_body_m(
    code: multirec.MultirecCode, assign: multirec.Assignment, at: IndexLabel, n: int
):
    multirec.check_index(code, at)

    def atom(node: multirec.MultirecBody, m: int) -> list[GenericValue]:
        match node:
            case multirec.Id(lbl):
                return _gen_slot_m(multirec.at_index(code, assign, lbl), lbl, m)
            case multirec.Tag(lbl):
                multirec.check_index(code, lbl)
                return [Refl()] if at == lbl else []
        raise TypeError(f"not a multirec body: {node!r}")

    return spine.gen(code.body, n, atom)


def _gen_mu_m(code: multirec.MultirecCode, at: IndexLabel, n: int):
    assign = multirec.mu_assignment(code)
    return [Roll(w) for w in _gen_body_m(code, assign, at, n - 1)]


def enum_multirec(
    code: multirec.MultirecCode,
    assign: multirec.Assignment,
    at: IndexLabel,
    budget: EnumBudget,
) -> list[GenericValue]:
    values = _finish(_gen_body_m(code, assign, at, budget.max_size))
    return _rechecked(values, partial(multirec.conform_m, code, assign, at))


def enum_mu_multirec(
    code: multirec.MultirecCode, at: IndexLabel, budget: EnumBudget
) -> list[GenericValue]:
    values = _finish(_gen_mu_m(code, at, budget.max_size))
    return _rechecked(values, partial(multirec.conform_mu_m, code, at))


# ---------------------------------------------------------------------------
# indexed


def _gen_slot_i(slot: indexed.IndexedSlot, n: int) -> list[GenericValue]:
    match slot:
        case PayloadSlot(sort):
            return _gen_payload(sort, n)
        case EmptySlot():
            return []
        case indexed.InterpSlot(code, assign, at):
            return _gen_i(code, assign, at, n)
        case indexed.MuSlot(inner, assign, at):
            return [Roll(w) for w in _gen_i(inner, indexed.mu_assign(inner, assign), at, n - 1)]
    raise TypeError(f"not an indexed slot: {slot!r}")


def _gen_i(
    code: indexed.IndexedCode, assign: indexed.SlotTable, at: IndexLabel, n: int
) -> list[GenericValue]:
    indexed.check_output(code, at)

    def atom(node: indexed.IndexedBody, m: int) -> list[GenericValue]:
        match node:
            case indexed.Id(lbl):
                return _gen_slot_i(indexed.slot_at(assign, lbl), m)
            case indexed.Tag(lbl):
                return [Refl()] if at == lbl else []
            case indexed.Comp(f, g):
                middle = {lbl: indexed.InterpSlot(g, assign, lbl) for lbl in f.ins}
                return _gen_i(f, middle, at, m)
            case indexed.Fix(f):
                return [Roll(w) for w in _gen_i(f, indexed.mu_assign(f, assign), at, m - 1)]
        raise TypeError(f"not an indexed body: {node!r}")

    return spine.gen(code.body, n, atom)


def enum_indexed(
    code: indexed.IndexedCode,
    assign: indexed.SlotTable,
    at: IndexLabel,
    budget: EnumBudget,
) -> list[GenericValue]:
    values = _finish(_gen_i(code, assign, at, budget.max_size))
    return _rechecked(values, partial(indexed.conform_i, code, assign, at))


# ---------------------------------------------------------------------------
# instant


def _gen_kset(env: instant.CodeEnv, kset: instant.KSet, n: int) -> list[GenericValue]:
    match kset:
        case instant.Prim(sort):
            return _gen_payload(sort, n)
        case instant.EqWitness(a, b):
            return [Refl()] if a == b and n >= 1 else []
        case instant.OfCode(ref):
            return _gen_ig(env, instant.resolve(env, ref), n)
    raise TypeError(f"not a constant set: {kset!r}")


def _gen_ig(env: instant.CodeEnv, code: instant.InstantCode, n: int):
    def atom(node: instant.InstantCode, m: int) -> list[GenericValue]:
        match node:
            case instant.K(kset):
                return [Konst(w) for w in _gen_kset(env, kset, m - 1)]
            case instant.R(ref):
                return [RecV(w) for w in _gen_ig(env, instant.resolve(env, ref), m - 1)]
        raise TypeError(f"not an instant code: {node!r}")

    return spine.gen(code, n, atom)


def enum_instant(
    env: instant.CodeEnv, code: instant.InstantCode, budget: EnumBudget
) -> list[GenericValue]:
    values = _finish(_gen_ig(env, code, budget.max_size))
    return _rechecked(values, partial(instant.conform_ig, env, code))


# ---------------------------------------------------------------------------
# dispatch over the enumerators by context


def enum_context(ctx: PathContext, budget: EnumBudget) -> list[GenericValue]:
    """Every value of at most ``budget.max_size`` nodes where ``ctx`` says a
    fixed-point value lives; see ``embed.contexts``."""
    match ctx.universe:
        case "regular":
            return enum_mu_regular(ctx.code, budget)
        case "polyp":
            return enum_mu_polyp(ctx.code, TOP_SLOT, budget)
        case "multirec":
            return enum_mu_multirec(ctx.code, ctx.at, budget)
        case "indexed":
            return enum_indexed(ctx.code, embed.payload_slots(ctx.table), ctx.at, budget)
        case "instant":
            return enum_instant(ctx.env, ctx.code, budget)
    raise ValueError(f"unknown universe: {ctx.universe!r}")


# ---------------------------------------------------------------------------
# property suites


def standard_assign(code: indexed.IndexedCode) -> dict[IndexLabel, indexed.IndexedSlot]:
    """The slots of ``embed.standard_table``: every input is a ``⊤`` parameter."""
    return embed.payload_slots(standard_table(code))


def _report(
    pairs: Iterable[tuple[GenericValue, str, str | None]],
) -> ConversionReport:
    report = ConversionReport()
    for v, direction, mismatch in pairs:
        report.checked_count += 1
        if mismatch is not None:
            report.failures.append((v, direction, mismatch))
    return report


def _round_trip(
    values: Iterable[GenericValue],
    convert: Callable[[GenericValue, str], GenericValue],
    there: str,
    back: str,
):
    for v in values:
        try:
            w = convert(convert(v, there), back)
        except Exception as err:
            yield v, there, f"{type(err).__name__}: {err}"
            continue
        if w != v:
            yield v, there, f"round trip produced {print_value(w)}"
        else:
            yield v, there, None


def _arrows(step: str, codes):
    """Per code and index of the step's source family: the source context,
    the step's target context and the conversion between them."""
    row = embed.STEPS[step]
    for code in codes.values():
        for ctx in embed.contexts(row.source, code):
            yield ctx, row.context(ctx), partial(row.convert, ctx)


# step -> its default codes, those of the step's source universe
_ARROWS = {step: corpus.CODES[row.source] for step, row in embed.STEPS.items()}


def _iso(step: str, codes, budget: EnumBudget) -> ConversionReport:
    """Round trips from every source value, then from every target value."""
    pairs = []
    for source, target, convert in _arrows(step, codes):
        pairs += _round_trip(enum_context(source, budget), convert, "forward", "backward")
        pairs += _round_trip(enum_context(target, budget), convert, "backward", "forward")
    return _report(pairs)


def _transport(step: str, codes, budget: EnumBudget) -> ConversionReport:
    """Every source value converts forward to a value of the lifted code;
    the target is never enumerated."""
    pairs = []
    for source, target, convert in _arrows(step, codes):
        for v in enum_context(source, budget):
            try:
                w = convert(v, "forward")
                ok = embed.conforms(target, w)
            except Exception as err:
                pairs.append((v, "forward", f"{type(err).__name__}: {err}"))
                continue
            pairs.append((v, "forward", None if ok else f"{print_value(w)} does not conform"))
    return _report(pairs)


def _tree_succ(v: GenericValue) -> GenericValue:
    return Roll(In2(v))


def _wrap_in1(v: GenericValue) -> GenericValue:
    return In1(v)


def _functors_r(codes, budget: EnumBudget):
    for code in codes.values():
        fmap = lambda fs, code=code: partial(regular.map_r, code, *fs)
        yield partial(enum_regular, code, regular.MuSlot(code), budget), fmap


def _functors_p(codes, budget: EnumBudget):
    for code in codes.values():
        fmap = lambda fs, code=code: partial(polyp.pmap, code, *fs)
        yield partial(enum_context, embed.polyp_context(code), budget), fmap


def _functors_m(codes, budget: EnumBudget):
    for code in codes.values():
        assign = multirec.mu_assignment(code)
        for at in code.indices:
            fmap = lambda fs, code=code, at=at: partial(
                multirec.map_m, code, dict.fromkeys(code.indices, *fs), at
            )
            yield partial(enum_multirec, code, assign, at, budget), fmap


def _functors_i(codes, budget: EnumBudget):
    for code in codes.values():
        for ctx in embed.contexts("indexed", code):
            fmap = lambda fs, code=code, at=ctx.at: partial(
                indexed.map_i, code, dict.fromkeys(code.ins, *fs), at
            )
            yield partial(enum_context, ctx, budget), fmap


def _functors_r_p(codes, budget: EnumBudget):
    """The r→p commute pair: a family (parameter, recursion) maps under the
    lifted polyp code, a family (recursion,) under the regular code."""
    for code in codes.values():
        lifted = embed.lift_r_to_p(code)
        fmap = lambda fs, code=code, lifted=lifted: (
            partial(polyp.map_p, lifted, *fs) if len(fs) == 2 else partial(regular.map_r, code, *fs)
        )
        yield partial(enum_regular, code, regular.MuSlot(code), budget), fmap


def _functors_p_i(codes, budget: EnumBudget):
    """The open p→i lift under split families (parameter, recursion)."""
    assign = indexed.split_tables({STAR: TOP_SLOT}, {STAR: TOP_SLOT})
    for code in codes.values():
        lifted = embed.lift_p_to_i(code)
        fmap = lambda fs, lifted=lifted: partial(
            indexed.map_i, lifted, indexed.split_tables({STAR: fs[0]}, {STAR: fs[1]}), STAR
        )
        yield partial(enum_indexed, lifted, assign, STAR, budget), fmap


# functor key -> (default codes, functors). Functors yield, per code and
# index, a thunk of its values and an ``fmap`` that takes a transformer
# family, a tuple of one function per parameter, and returns the map the
# family induces, so each family's table is built once.
_FUNCTORS = {
    "regular": (corpus.REGULAR_CODES, _functors_r),
    "polyp": (corpus.POLYP_CODES, _functors_p),
    "multirec": (corpus.MULTIREC_CODES, _functors_m),
    "indexed": (corpus.INDEXED_CODES, _functors_i),
    "r-p": (corpus.REGULAR_CODES, _functors_r_p),
    "p-i": (corpus.POLYP_CODES, _functors_p_i),
}


# A law takes a functor's fmap and gives the (left, right) pairs of maps
# that must agree on every value.


def _identity(arity: int):
    return lambda fmap: [(fmap((identity,) * arity), identity)]


def _composition(pairs):
    """Per (outer, inner) pair of families: mapping the composed family
    equals mapping the inner family, then the outer one."""
    return lambda fmap: [
        (fmap(tuple(map(compose, outer, inner))), compose(fmap(outer), fmap(inner)))
        for outer, inner in pairs
    ]


def _congruence(one, two):
    """The maps of two families agree: the same transformers as other
    function objects (par-cong), or one transformer under two codes
    (map-commute)."""
    return lambda fmap: [(fmap(one), fmap(two))]


def _laws(functors, label: str, law, codes, budget: EnumBudget) -> ConversionReport:
    """Check every pair of ``law`` on every value of every functor; a failure
    shows the left map's result."""
    pairs = []
    for enumerate_, fmap in functors(codes, budget):
        values = enumerate_()
        for lhs, rhs in law(fmap):
            for v in values:
                w = lhs(v)
                pairs.append((v, label, None if w == rhs(v) else print_value(w)))
    return _report(pairs)


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
    witness = corpus.TREE_OF_LISTS
    naive = embed.conforms(embed.polyp_context(corpus.TREE_LIST_NAIVE), witness)
    proper = embed.conforms(embed.polyp_context(corpus.TREE_LIST_PROPER), witness)
    pairs = [
        (witness, "naive", "naive composition accepted the witness" if naive else None),
        (witness, "proper", None if proper else "proper code rejected the witness"),
    ]
    return _report(pairs)


# name -> (default codes, suite)
_PROPERTIES: dict[str, tuple[Mapping, Callable[[Mapping, EnumBudget], ConversionReport]]] = {
    **{f"iso-{step}": (codes, partial(_iso, step)) for step, codes in _ARROWS.items()},
    "isoMu-r-p": (corpus.REGULAR_CODES, partial(_iso, "r-p")),
    **{f"transport-{step}": (codes, partial(_transport, step)) for step, codes in _ARROWS.items()},
    **{
        name: (_FUNCTORS[key][0], partial(_laws, _FUNCTORS[key][1], label, law))
        for name, (key, label, law) in LAWS.items()
    },
    "pitfall-comp": (corpus.POLYP_CODES, _prop_pitfall_comp),
}


def property_names() -> list[str]:
    return sorted(_PROPERTIES)


def run_property(
    name: str, codes: Mapping | None = None, budget: EnumBudget | None = None
) -> ConversionReport:
    """Run one registered property suite and report every checked value."""
    if name not in _PROPERTIES:
        raise UnknownProperty(f"unknown property: {name}")
    if budget is None:
        budget = EnumBudget(max_size=10)
    default_codes, suite = _PROPERTIES[name]
    return suite(codes if codes is not None else default_codes, budget)

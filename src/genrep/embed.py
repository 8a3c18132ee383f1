"""Code lifting and value conversion between the five universes.

Four of the five arrows (regular to polyp, regular to multirec, polyp to
indexed, multirec to indexed) leave the value tree unchanged: the content of
each inclusion lives in the lifted code. Converting along them, in either
direction, checks conformance in the source universe and returns the input
object itself; a value that does not conform raises ``MalformedValue``.
Polyp conversion fixes the parameter to the ``⊤`` payload slot, as polyp
conformance does elsewhere. One check serves both directions because each
lift reflects conformance as well as preserving it.
The fifth arrow (indexed to instant) really rewrites trees: rolls become
rec nodes, parameter and tag contents get wrapped in constants, and every
composition or fixed point becomes a named environment entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal, Mapping, NamedTuple, Sequence, Union

from . import indexed, instant, multirec, polyp, regular, spine
from .gvalue import (
    EMPTY_INDEX_SET,
    GenericValue,
    IndexLabel,
    IndexSet,
    Konst,
    MalformedValue,
    PayloadSlot,
    RecV,
    Refl,
    Roll,
    TOP_SLOT,
    TOP_SORT,
    disjoint_union,
    index_set,
    label,
    left,
    print_label,
    print_value,
    right,
)

STAR = label("⋆")
LSTAR = left(STAR)
RSTAR = right(STAR)

Direction = Literal["forward", "backward"]


def _check_direction(direction: str) -> None:
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward: {direction!r}")


@dataclass
class ConversionReport:
    """Evidence from a round-trip or law run over enumerated values."""

    checked_count: int = 0
    failures: list[tuple[GenericValue, str, str]] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# regular to polyp


def lift_r_to_p(code: regular.RegularCode) -> polyp.PolyPCode:
    """Structural lift; the result never mentions Par or Comp."""

    def atom(node: regular.RegularCode) -> polyp.PolyPCode:
        match node:
            case regular.Id():
                return polyp.Id()
        raise TypeError(f"not a regular code: {node!r}")

    return spine.lift(code, atom)


def _conforming(conforms: bool, v: GenericValue) -> GenericValue:
    if not conforms:
        raise MalformedValue(f"not a fixed-point value of the code: {print_value(v)}")
    return v


def convert_r_p(
    code: regular.RegularCode, v: GenericValue, direction: Direction
) -> GenericValue:
    """Both directions check regular conformance and return ``v``: the lift
    is structural, so the polyp tree and the regular tree are the same."""
    _check_direction(direction)
    return _conforming(regular.conform_mu_r(code, v), v)


# ---------------------------------------------------------------------------
# regular to multirec


def lift_r_to_m(code: regular.RegularCode) -> multirec.MultirecCode:
    """One-index family over ⋆; every Id points at ⋆ and no Tag is emitted."""
    return multirec.MultirecCode(index_set(STAR), _lift_body_r_m(code))


def _lift_body_r_m(code: regular.RegularCode) -> multirec.MultirecBody:
    def atom(node: regular.RegularCode) -> multirec.MultirecBody:
        match node:
            case regular.Id():
                return multirec.Id(STAR)
        raise TypeError(f"not a regular code: {node!r}")

    return spine.lift(code, atom)


def convert_r_m(
    code: regular.RegularCode, v: GenericValue, direction: Direction
) -> GenericValue:
    """Both directions check regular conformance and return ``v``."""
    _check_direction(direction)
    return _conforming(regular.conform_mu_r(code, v), v)


# ---------------------------------------------------------------------------
# polyp to indexed


def lift_p_to_i(code: polyp.PolyPCode) -> indexed.IndexedCode:
    """Open lift: parameters become Left ⋆, recursion becomes Right ⋆.

    Composition cannot reuse indexed composition directly; the left operand
    is closed with an indexed fixed point first.
    """
    return indexed.IndexedCode(
        disjoint_union(index_set(STAR), index_set(STAR)),
        index_set(STAR),
        _lift_body_p_i(code),
    )


def _lift_body_p_i(code: polyp.PolyPCode) -> indexed.IndexedBody:
    def atom(node: polyp.PolyPCode) -> indexed.IndexedBody:
        match node:
            case polyp.Par():
                return indexed.Id(LSTAR)
            case polyp.Id():
                return indexed.Id(RSTAR)
            case polyp.Comp(f, g):
                return indexed.Comp(fix_p_code(f), lift_p_to_i(g))
        raise TypeError(f"not a polyp code: {node!r}")

    return spine.lift(code, atom)


def fix_p_code(code: polyp.PolyPCode) -> indexed.IndexedCode:
    """Close the lift of a polyp code under the indexed fixed point."""
    return indexed.IndexedCode(
        index_set(STAR), index_set(STAR), indexed.Fix(lift_p_to_i(code))
    )


def convert_p_i(
    code: polyp.PolyPCode, v: GenericValue, direction: Direction
) -> GenericValue:
    """Both directions check polyp conformance at the ``⊤`` parameter slot
    and return ``v``."""
    _check_direction(direction)
    return _conforming(polyp.conform_mu_p(code, TOP_SLOT, v), v)


# ---------------------------------------------------------------------------
# multirec to indexed


def lift_m_to_i(code: multirec.MultirecCode) -> indexed.IndexedCode:
    """Lift to an open indexed code meant to sit under Fix: the input set is
    the disjoint union of nothing and the family's own indices, so every Id
    points Right."""
    return indexed.IndexedCode(
        disjoint_union(EMPTY_INDEX_SET, code.indices),
        code.indices,
        _lift_body_m_i(code.body),
    )


def _lift_body_m_i(body: multirec.MultirecBody) -> indexed.IndexedBody:
    def atom(node: multirec.MultirecBody) -> indexed.IndexedBody:
        match node:
            case multirec.Id(lbl):
                return indexed.Id(right(lbl))
            case multirec.Tag(lbl):
                return indexed.Tag(lbl)
        raise TypeError(f"not a multirec body: {node!r}")

    return spine.lift(body, atom)


def fix_m_code(code: multirec.MultirecCode) -> indexed.IndexedCode:
    """The lifted family closed under the indexed fixed point."""
    return indexed.IndexedCode(
        EMPTY_INDEX_SET, code.indices, indexed.Fix(lift_m_to_i(code))
    )


def convert_m_i(
    code: multirec.MultirecCode,
    at: IndexLabel,
    v: GenericValue,
    direction: Direction,
) -> GenericValue:
    """Both directions check multirec conformance at ``at`` and return ``v``;
    Refl witnesses must sit under the tag of ``at``."""
    _check_direction(direction)
    return _conforming(multirec.conform_mu_m(code, at, v), v)


# ---------------------------------------------------------------------------
# indexed to instant


@dataclass(frozen=True)
class _RRef:
    """Lift-time slot entry: this input index is a direct recursive reference."""

    ref: str


_LiftEntry = Union[instant.Prim, instant.EqWitness, instant.OfCode, _RRef]

_Rho = tuple[tuple[IndexLabel, _LiftEntry], ...]

KSetTable = Mapping[IndexLabel, instant.KSet]


class _EnvBuilder:
    """Accumulates named entries; registration happens before the body is
    computed so self-referential and mutually recursive codes terminate."""

    def __init__(self, seed: instant.CodeEnv):
        self.entries: dict[str, instant.InstantCode | None] = dict(seed)
        self.memo: dict[object, str] = {}
        self.counter = 0

    def fresh(self) -> str:
        while True:
            name = f"ig{self.counter}"
            self.counter += 1
            if name not in self.entries:
                return name

    def ensure(self, key: object, build) -> str:
        if key in self.memo:
            return self.memo[key]
        name = self.fresh()
        self.memo[key] = name
        self.entries[name] = None
        self.entries[name] = build()
        return name

    def finished(self) -> dict[str, instant.InstantCode]:
        unbuilt = [name for name, code in self.entries.items() if code is None]
        if unbuilt:
            raise RuntimeError(f"environment entries never built: {', '.join(unbuilt)}")
        return dict(self.entries)


def _rho_from_table(code: indexed.IndexedCode, table: KSetTable) -> _Rho:
    for lbl in code.ins:
        if lbl not in table:
            raise MalformedValue(f"no constant set for input index {print_label(lbl)}")
    return tuple((lbl, table[lbl]) for lbl in code.ins)


def _rho_get(rho: _Rho, lbl: IndexLabel) -> _LiftEntry:
    for key, entry in rho:
        if key == lbl:
            return entry
    raise MalformedValue(f"no constant set for input index {print_label(lbl)}")


def lift_i_to_ig(
    code: indexed.IndexedCode,
    table: KSetTable,
) -> tuple[dict[IndexLabel, instant.InstantCode], dict[str, instant.InstantCode]]:
    """Produce one instant code per output index plus the environment that
    holds every composition and fixed point as a named entry.

    Entry names are an ig-prefixed counter in traversal order, so repeated
    runs yield byte-identical environments.
    """
    builder = _EnvBuilder({})
    rho = _rho_from_table(code, table)
    out = {o: _lift_body_ig(code.body, rho, o, builder) for o in code.outs}
    return out, builder.finished()


def _lift_body_ig(
    body: indexed.IndexedBody, rho: _Rho, o: IndexLabel, builder: _EnvBuilder
) -> instant.InstantCode:
    def atom(node: indexed.IndexedBody) -> instant.InstantCode:
        match node:
            case indexed.Id(lbl):
                entry = _rho_get(rho, lbl)
                match entry:
                    case _RRef(name):
                        return instant.R(name)
                return instant.K(entry)
            case indexed.Tag(lbl):
                return instant.K(instant.EqWitness(o, lbl))
            case indexed.Comp(f, g):
                name = builder.ensure(
                    ("comp", f, g, rho, o),
                    lambda: _lift_body_ig(f.body, _comp_rho(f, g, rho, builder), o, builder),
                )
                return instant.R(name)
            case indexed.Fix(f):
                return instant.R(_ensure_fix(node, f, rho, o, builder))
        raise TypeError(f"not an indexed body: {node!r}")

    return spine.lift(body, atom)


def _comp_rho(
    f: indexed.IndexedCode, g: indexed.IndexedCode, rho: _Rho, builder: _EnvBuilder
) -> _Rho:
    pairs = []
    for lbl in f.ins:
        name = builder.ensure(
            ("interp", g, rho, lbl), lambda lbl=lbl: _lift_body_ig(g.body, rho, lbl, builder)
        )
        pairs.append((lbl, instant.OfCode(name)))
    return tuple(pairs)


def _ensure_fix(
    fix_body: indexed.IndexedBody,
    inner: indexed.IndexedCode,
    rho: _Rho,
    o: IndexLabel,
    builder: _EnvBuilder,
) -> str:
    def build() -> instant.InstantCode:
        pairs = [(left(lbl), entry) for lbl, entry in rho]
        for out in inner.outs:
            ref = _ensure_fix(fix_body, inner, rho, out, builder)
            pairs.append((right(out), _RRef(ref)))
        return _lift_body_ig(inner.body, tuple(pairs), o, builder)

    return builder.ensure(("fix", fix_body, rho, o), build)


class _ParamEntry:
    """A parameter position: its contents become a constant."""


@dataclass(eq=False)
class _CompEntry:
    """An input of a composition's left code, read in ``code`` at ``at``."""

    code: indexed.IndexedCode
    rho: _Entries
    at: IndexLabel


@dataclass(eq=False)
class _FixEntry:
    """A recursive position of ``Fix(inner)``; ``under`` holds this entry."""

    inner: indexed.IndexedCode
    under: _Entries
    at: IndexLabel


_ConvEntry = Union[_ParamEntry, _CompEntry, _FixEntry]

_Entries = dict[IndexLabel, _ConvEntry]


def convert_i_ig(
    code: indexed.IndexedCode,
    table: KSetTable,
    o: IndexLabel,
    v: GenericValue,
    direction: Direction,
) -> GenericValue:
    """Forward: rolls become rec nodes, parameter and tag contents become
    constants. Backward restores the original tree exactly."""
    _check_direction(direction)
    indexed.check_output(code, o)
    rho = {lbl: _ParamEntry() for lbl, _ in _rho_from_table(code, table)}
    if direction == "forward":
        return _from_ig(code, rho, o, v)
    return _to_ig(code, rho, o, v)


def _check_tag(lbl: IndexLabel, o: IndexLabel) -> None:
    """A refl under ``Tag(lbl)`` witnesses ``lbl == o``; any other index
    leaves the tag uninhabited."""
    if lbl != o:
        raise MalformedValue(f"refl under tag {print_label(lbl)} at index {print_label(o)}")


def _conv_entry(rho: _Entries, lbl: IndexLabel) -> _ConvEntry:
    if lbl not in rho:
        raise MalformedValue(f"no conversion entry for index {print_label(lbl)}")
    return rho[lbl]


def _under_fix(inner: indexed.IndexedCode, rho: _Entries) -> _Entries:
    """The entries one layer under ``Fix(inner)``, built once per fixed
    point: Left inputs keep theirs, Right inputs re-enter the fixed point.
    The walks unroll a fixed point's first layer as they unroll its
    recursive positions, in the atom itself, adding no frame per layer."""
    under = {left(lbl): entry for lbl, entry in rho.items()}
    for out in inner.outs:
        under[right(out)] = _FixEntry(inner, under, out)
    return under


def _from_ig(
    code: indexed.IndexedCode, rho: _Entries, o: IndexLabel, v: GenericValue
) -> GenericValue:
    def atom(node: indexed.IndexedBody, w: GenericValue) -> GenericValue:
        match node:
            case indexed.Id(lbl):
                entry = _conv_entry(rho, lbl)
            case indexed.Tag(lbl):
                if w != Refl():
                    raise MalformedValue(f"tag position is not refl: {print_value(w)}")
                _check_tag(lbl, o)
                return Konst(w)
            case indexed.Comp(f, g):
                mid = {lbl: _CompEntry(g, rho, lbl) for lbl in f.ins}
                return RecV(_from_ig(f, mid, o, w))
            case indexed.Fix(f):
                entry = _FixEntry(f, _under_fix(f, rho), o)
            case _:
                raise TypeError(f"not an indexed body: {node!r}")
        match entry:
            case _ParamEntry():
                return Konst(w)
            case _CompEntry(inner, inner_rho, at):
                return Konst(_from_ig(inner, inner_rho, at, w))
            case _FixEntry(inner, under, at):
                match w:
                    case Roll(x):
                        return RecV(_from_ig(inner, under, at, x))
                raise MalformedValue(f"fixed-point layer is not rolled: {print_value(w)}")

    return spine.map(code.body, v, atom)


def _to_ig(
    code: indexed.IndexedCode, rho: _Entries, o: IndexLabel, v: GenericValue
) -> GenericValue:
    def atom(node: indexed.IndexedBody, w: GenericValue) -> GenericValue:
        match node:
            case indexed.Id(lbl):
                entry = _conv_entry(rho, lbl)
            case indexed.Tag(lbl):
                match w:
                    case Konst(Refl()):
                        _check_tag(lbl, o)
                        return Refl()
                raise MalformedValue(f"tag position is not k refl: {print_value(w)}")
            case indexed.Comp(f, g):
                match w:
                    case RecV(x):
                        mid = {lbl: _CompEntry(g, rho, lbl) for lbl in f.ins}
                        return _to_ig(f, mid, o, x)
                raise MalformedValue(
                    f"composition layer is not a rec node: {print_value(w)}"
                )
            case indexed.Fix(f):
                entry = _FixEntry(f, _under_fix(f, rho), o)
            case _:
                raise TypeError(f"not an indexed body: {node!r}")
        match entry:
            case _ParamEntry():
                match w:
                    case Konst(x):
                        return x
                raise MalformedValue(
                    f"parameter position is not a constant: {print_value(w)}"
                )
            case _CompEntry(inner, inner_rho, at):
                match w:
                    case Konst(x):
                        return _to_ig(inner, inner_rho, at, x)
                raise MalformedValue(
                    f"composition argument is not a constant: {print_value(w)}"
                )
            case _FixEntry(inner, under, at):
                match w:
                    case RecV(x):
                        return Roll(_to_ig(inner, under, at, x))
                raise MalformedValue(
                    f"fixed-point layer is not a rec node: {print_value(w)}"
                )

    return spine.map(code.body, v, atom)


# ---------------------------------------------------------------------------
# where a fixed-point value lives


def standard_table(code: indexed.IndexedCode) -> dict[IndexLabel, instant.KSet]:
    """Every input index is a ⊤ parameter; matches the shipped corpus."""
    return {lbl: instant.Prim(TOP_SORT) for lbl in code.ins}


@dataclass(frozen=True)
class PathContext:
    """Where a fixed-point value lives: its universe and code, the index it
    is read at (multirec, indexed), the constant set of every input index
    (indexed) and the environment the code refers into (instant)."""

    universe: str
    code: object
    at: IndexLabel | None = None
    table: Mapping[IndexLabel, instant.KSet] | None = None
    env: instant.CodeEnv | None = None


def regular_context(code: regular.RegularCode) -> PathContext:
    return PathContext("regular", code)


def polyp_context(code: polyp.PolyPCode) -> PathContext:
    return PathContext("polyp", code)


def multirec_context(code: multirec.MultirecCode, at: IndexLabel) -> PathContext:
    return PathContext("multirec", code, at=at)


def indexed_context(
    code: indexed.IndexedCode, table: KSetTable, at: IndexLabel
) -> PathContext:
    return PathContext("indexed", code, at=at, table=table)


def family(universe: str, code) -> IndexSet | None:
    """The indices a code is read at: a multirec family's index set or an
    indexed code's outputs; None in the universes without indices."""
    match universe:
        case "multirec":
            return code.indices
        case "indexed":
            return code.outs
    return None


def contexts(
    universe: str, code, env: instant.CodeEnv | None = None, at: IndexLabel | None = None
) -> list[PathContext]:
    """One context per index of the code's family, or the one context at
    ``at``; universes without indices give one context and ignore ``at``.
    ``env`` is the environment of an instant code."""
    labels = family(universe, code)
    if labels is None:
        return [PathContext(universe, code, env=env)]
    if at is not None:
        labels = (at,)
    if universe == "multirec":
        return [multirec_context(code, lbl) for lbl in labels]
    table = standard_table(code)
    return [indexed_context(code, table, lbl) for lbl in labels]


def payload_slots(table: KSetTable) -> dict[IndexLabel, indexed.IndexedSlot]:
    """The indexed slot table that reads every ``Prim(sort)`` of ``table`` as
    the payload slot of ``sort``."""
    if not all(isinstance(kset, instant.Prim) for kset in table.values()):
        raise ValueError("only the constant sets Prim(sort) have payload slots")
    return {lbl: PayloadSlot(kset.sort) for lbl, kset in table.items()}


def conforms(ctx: PathContext, v: GenericValue, fuel: int | None = None) -> bool:
    """Does ``v`` conform where ``ctx`` says it lives? ``fuel`` bounds the
    unfolding of instant references and is ignored elsewhere."""
    match ctx.universe:
        case "regular":
            return regular.conform_mu_r(ctx.code, v)
        case "polyp":
            return polyp.conform_mu_p(ctx.code, TOP_SLOT, v)
        case "multirec":
            return multirec.conform_mu_m(ctx.code, ctx.at, v)
        case "indexed":
            return indexed.conform_i(ctx.code, payload_slots(ctx.table), ctx.at, v)
        case "instant":
            return instant.conform_ig(ctx.env, ctx.code, v, fuel=fuel)
    raise ValueError(f"unknown universe: {ctx.universe!r}")


# ---------------------------------------------------------------------------
# path composition


def _instant_target(ctx: PathContext) -> PathContext:
    """The lift of the code at the source's index, in the lift's environment."""
    indexed.check_output(ctx.code, ctx.at)
    lifted, env = lift_i_to_ig(ctx.code, ctx.table)
    return PathContext("instant", lifted[ctx.at], env=env)


class Step(NamedTuple):
    """One arrow. ``lift`` takes a source code; ``context`` and ``convert``
    take the source context, and ``context`` gives the target's."""

    source: str
    target: str
    lift: Callable
    context: Callable[[PathContext], PathContext]
    convert: Callable[[PathContext, GenericValue, str], GenericValue]


# The rows call the conversions by their module names, so the functions a
# caller re-binds in this module are the ones that run.
STEPS = {
    "r-p": Step("regular", "polyp",
                lambda code: lift_r_to_p(code),
                lambda ctx: polyp_context(lift_r_to_p(ctx.code)),
                lambda ctx, v, d: convert_r_p(ctx.code, v, d)),
    "r-m": Step("regular", "multirec",
                lambda code: lift_r_to_m(code),
                lambda ctx: multirec_context(lift_r_to_m(ctx.code), STAR),
                lambda ctx, v, d: convert_r_m(ctx.code, v, d)),
    "p-i": Step("polyp", "indexed",
                lambda code: lift_p_to_i(code),
                lambda ctx: indexed_context(fix_p_code(ctx.code), {STAR: instant.Prim(TOP_SORT)}, STAR),
                lambda ctx, v, d: convert_p_i(ctx.code, v, d)),
    "m-i": Step("multirec", "indexed",
                lambda code: lift_m_to_i(code),
                lambda ctx: indexed_context(fix_m_code(ctx.code), {}, ctx.at),
                lambda ctx, v, d: convert_m_i(ctx.code, ctx.at, v, d)),
    "i-ig": Step("indexed", "instant",
                 lambda code: lift_i_to_ig(code, standard_table(code)),
                 _instant_target,
                 lambda ctx, v, d: convert_i_ig(ctx.code, dict(ctx.table), ctx.at, v, d)),
}


def compose_path(
    steps: Sequence[str],
    start: PathContext,
    v: GenericValue,
    direction: Direction = "forward",
) -> GenericValue:
    """Run the steps in order (forward) or in reverse (backward); the empty
    path is the identity either way. Every step's source universe is checked
    before any code is lifted, and no code is lifted past the last step."""
    _check_direction(direction)
    universe = start.universe
    for step in steps:
        if step not in STEPS:
            raise ValueError(f"unknown conversion step: {step!r}")
        if STEPS[step].source != universe:
            raise ValueError(f"step {step} does not start from {universe}")
        universe = STEPS[step].target
    sources = [start]
    for step in steps[:-1]:
        sources.append(STEPS[step].context(sources[-1]))
    walk = list(zip(steps, sources))
    if direction == "backward":
        walk.reverse()
    for step, ctx in walk:
        v = STEPS[step].convert(ctx, v, direction)
    return v

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

from functools import partial
from operator import attrgetter
from typing import Callable, Literal, Mapping, NamedTuple, Sequence

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
    payload_slot_accepts,
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


class ConversionReport(spine.Record, frozen=False):
    """A suite's number of checks, and only its failing ones: (value, label, reason)."""

    checked_count: int
    failures: list[tuple[GenericValue, str, str]]

    def __init__(self, checked_count: int = 0, failures: list | None = None) -> None:
        self.checked_count = checked_count
        self.failures = [] if failures is None else failures

    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# regular to polyp


def lift_r_to_p(code: regular.RegularCode) -> polyp.PolyPCode:
    """Structural lift; the result never mentions Par or Comp. Like every
    lift here it is kept on the code (``spine.cached``), so each call gives
    the same object, and one-value calls on it find their walks."""

    def atom(node: regular.RegularCode) -> polyp.PolyPCode:
        match node:
            case regular.Id():
                return polyp.Id()
        raise TypeError(f"not a regular code: {node!r}")

    return spine.cached(code, "lift_r_to_p", lambda: spine.lift(code, atom))


def _same_tree(conforms: Callable[[GenericValue], bool], v: GenericValue) -> GenericValue:
    """An arrow that keeps the tree: both directions check ``v`` with a
    conformer of the source context and return it."""
    if not conforms(v):
        raise MalformedValue(f"not a fixed-point value of the code: {print_value(v)}")
    return v


def convert_r_p(
    code: regular.RegularCode, v: GenericValue, direction: Direction
) -> GenericValue:
    """Both directions check regular conformance and return ``v``: the lift
    is structural, so the polyp tree and the regular tree are the same."""
    return convert("r-p", regular_context(code), v, direction)


# ---------------------------------------------------------------------------
# regular to multirec


def lift_r_to_m(code: regular.RegularCode) -> multirec.MultirecCode:
    """One-index family over ⋆; every Id points at ⋆ and no Tag is emitted."""

    def atom(node: regular.RegularCode) -> multirec.MultirecBody:
        match node:
            case regular.Id():
                return multirec.Id(STAR)
        raise TypeError(f"not a regular code: {node!r}")

    build = lambda: multirec.MultirecCode(index_set(STAR), spine.lift(code, atom))
    return spine.cached(code, "lift_r_to_m", build)


def convert_r_m(
    code: regular.RegularCode, v: GenericValue, direction: Direction
) -> GenericValue:
    """Both directions check regular conformance and return ``v``."""
    return convert("r-m", regular_context(code), v, direction)


# ---------------------------------------------------------------------------
# polyp to indexed


def lift_p_to_i(code: polyp.PolyPCode) -> indexed.IndexedCode:
    """Open lift: parameters become Left ⋆, recursion becomes Right ⋆.

    Composition cannot reuse indexed composition directly; the left operand
    is closed with an indexed fixed point first.
    """

    def atom(node: polyp.PolyPCode) -> indexed.IndexedBody:
        match node:
            case polyp.Par():
                return indexed.Id(LSTAR)
            case polyp.Id():
                return indexed.Id(RSTAR)
            case polyp.Comp(f, g):
                return indexed.Comp(fix_p_code(f), lift_p_to_i(g))
        raise TypeError(f"not a polyp code: {node!r}")

    build = lambda: indexed.IndexedCode(
        disjoint_union(index_set(STAR), index_set(STAR)),
        index_set(STAR),
        spine.lift(code, atom),
    )
    return spine.cached(code, "lift_p_to_i", build)


def fix_p_code(code: polyp.PolyPCode) -> indexed.IndexedCode:
    """Close the lift of a polyp code under the indexed fixed point."""
    build = lambda: indexed.IndexedCode(
        index_set(STAR), index_set(STAR), indexed.Fix(lift_p_to_i(code))
    )
    return spine.cached(code, "fix_p_code", build)


def convert_p_i(
    code: polyp.PolyPCode, v: GenericValue, direction: Direction
) -> GenericValue:
    """Both directions check polyp conformance at the ``⊤`` parameter slot
    and return ``v``."""
    return convert("p-i", polyp_context(code), v, direction)


# ---------------------------------------------------------------------------
# multirec to indexed


def lift_m_to_i(code: multirec.MultirecCode) -> indexed.IndexedCode:
    """Lift to an open indexed code meant to sit under Fix: the input set is
    the disjoint union of nothing and the family's own indices, so every Id
    points Right."""

    def atom(node: multirec.MultirecBody) -> indexed.IndexedBody:
        match node:
            case multirec.Id(lbl):
                return indexed.Id(right(lbl))
            case multirec.Tag(lbl):
                return indexed.Tag(lbl)
        raise TypeError(f"not a multirec body: {node!r}")

    build = lambda: indexed.IndexedCode(
        disjoint_union(EMPTY_INDEX_SET, code.indices),
        code.indices,
        spine.lift(code.body, atom),
    )
    return spine.cached(code, "lift_m_to_i", build)


def fix_m_code(code: multirec.MultirecCode) -> indexed.IndexedCode:
    """The lifted family closed under the indexed fixed point."""
    build = lambda: indexed.IndexedCode(
        EMPTY_INDEX_SET, code.indices, indexed.Fix(lift_m_to_i(code))
    )
    return spine.cached(code, "fix_m_code", build)


def convert_m_i(
    code: multirec.MultirecCode,
    at: IndexLabel,
    v: GenericValue,
    direction: Direction,
) -> GenericValue:
    """Both directions check multirec conformance at ``at`` and return ``v``;
    Refl witnesses must sit under the tag of ``at``."""
    return convert("m-i", multirec_context(code, at), v, direction)


# ---------------------------------------------------------------------------
# indexed to instant


KSetTable = Mapping[IndexLabel, instant.KSet]


class _EnvBuilder:
    """Accumulates named entries, ``ig0``, ``ig1``, … in the order they are
    first asked for; registration happens before the body is computed so
    self-referential and mutually recursive codes terminate."""

    def __init__(self):
        self.entries: dict[str, instant.InstantCode | None] = {}
        self.memo: dict[object, str] = {}

    def ensure(self, key: object, build) -> str:
        if key in self.memo:
            return self.memo[key]
        name = self.memo[key] = f"ig{len(self.entries)}"
        self.entries[name] = None
        self.entries[name] = build()
        return name

    def finished(self) -> dict[str, instant.InstantCode]:
        unbuilt = [name for name, code in self.entries.items() if code is None]
        if unbuilt:
            raise RuntimeError(f"environment entries never built: {', '.join(unbuilt)}")
        return dict(self.entries)


def _no_constant_set(lbl: IndexLabel) -> MalformedValue:
    return MalformedValue(f"no constant set for input index {print_label(lbl)}")


def _rho_from_table(code: indexed.IndexedCode, table: KSetTable) -> spine.Contents:
    """The atom each input's Id lifts to, K of its constant set. A lift's
    input table ``rho`` is such a ``Contents``, which keys its entries by
    value; inside a fixed point its Right inputs map to R of the entry that
    the recursion names."""
    for lbl in code.ins:
        if lbl not in table:
            raise _no_constant_set(lbl)
    return spine.Contents((lbl, instant.K(table[lbl])) for lbl in code.ins)


def lift_i_to_ig(
    code: indexed.IndexedCode,
    table: KSetTable,
) -> tuple[dict[IndexLabel, instant.InstantCode], dict[str, instant.InstantCode]]:
    """Produce one instant code per output index plus the environment that
    holds every composition and fixed point as a named entry.

    Entry names are an ig-prefixed counter in traversal order, so repeated
    runs yield byte-identical environments. The lift is kept on the code per
    constant set of each input (``spine.cached``); each call returns fresh
    dicts of it, which the caller may change.
    """
    rho = _rho_from_table(code, table)

    def build():
        builder = _EnvBuilder()
        out = {o: _lift_body_ig(code.body, rho, o, builder) for o in code.outs}
        return out, builder.finished()

    out, env = spine.cached(code, ("lift_i_to_ig", rho), build)
    return dict(out), dict(env)


def _lift_body_ig(
    body: indexed.IndexedBody, rho: spine.Contents, o: IndexLabel, builder: _EnvBuilder
) -> instant.InstantCode:
    def atom(node: indexed.IndexedBody) -> instant.InstantCode:
        match node:
            case indexed.Id(lbl):
                if lbl not in rho:
                    raise _no_constant_set(lbl)
                return rho[lbl]
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
    f: indexed.IndexedCode, g: indexed.IndexedCode, rho: spine.Contents, builder: _EnvBuilder
) -> spine.Contents:
    """A composition's inner table: each input of ``f`` is a constant of
    the entry that interprets ``g`` at it."""
    pairs = {}
    for lbl in f.ins:
        name = builder.ensure(
            ("interp", g, rho, lbl), lambda lbl=lbl: _lift_body_ig(g.body, rho, lbl, builder)
        )
        pairs[lbl] = instant.K(instant.OfCode(name))
    return spine.Contents(pairs)


def _ensure_fix(
    fix_body: indexed.IndexedBody,
    inner: indexed.IndexedCode,
    rho: spine.Contents,
    o: IndexLabel,
    builder: _EnvBuilder,
) -> str:
    def build() -> instant.InstantCode:
        refs = {}
        for out in inner.outs:
            refs[out] = instant.R(_ensure_fix(fix_body, inner, rho, out, builder))
        return _lift_body_ig(inner.body, spine.Contents(indexed.split_tables(rho, refs)), o, builder)

    return builder.ensure(("fix", fix_body, rho, o), build)


def convert_i_ig(
    code: indexed.IndexedCode,
    table: KSetTable,
    o: IndexLabel,
    v: GenericValue,
    direction: Direction,
) -> GenericValue:
    """Forward: rolls become rec nodes, parameter and tag contents become
    constants. Backward restores the original tree exactly. Both directions
    are ``indexed.Walk``s that the ``i-ig`` step's ``walks`` build; the
    direction is checked first, then the output index, then ``table``."""
    return convert("i-ig", indexed_context(code, table, o), v, direction)


def _check_tag(lbl: IndexLabel, o: IndexLabel, v: GenericValue) -> GenericValue:
    """A refl ``v`` under ``Tag(lbl)`` witnesses ``lbl == o``; any other
    index leaves the tag uninhabited."""
    if lbl != o:
        raise MalformedValue(f"refl under tag {print_label(lbl)} at index {print_label(o)}")
    return v


def _check_parameter(slot: object, v: GenericValue) -> GenericValue:
    """A parameter read as a payload slot holds a content of its sort."""
    if type(slot) is PayloadSlot and not payload_slot_accepts(slot, v):
        raise MalformedValue(f"parameter position does not inhabit K {slot.sort}: {print_value(v)}")
    return v


def _unwrap(v: GenericValue, wrapper: type, what: str) -> GenericValue:
    """The content of ``v``, which must be a ``wrapper`` node."""
    if type(v) is not wrapper:
        raise MalformedValue(f"{what}: {print_value(v)}")
    return v.inner


class _ToInstant(indexed.Walk):
    """i→ig forward: each layer of a fixed point or a composition becomes a
    rec node, and each parameter, tag and composition argument a
    constant."""

    _spine = staticmethod(spine.mapper)
    _unrolled = staticmethod(indexed.Mapper._unrolled)

    def _point(self, slot) -> Callable[[GenericValue], GenericValue]:
        if type(slot) is indexed.InterpSlot:
            layer = self._walk(slot.code, slot.assign, slot.at)
            return lambda v: Konst(layer(v))
        layer, unrolled = self._walk(slot.inner, slot.under, slot.at), self._unrolled
        return lambda v: RecV(layer(v.inner)) if type(v) is Roll else unrolled(v)

    def _leaf(self, slot) -> Callable[[GenericValue], GenericValue]:
        return lambda v: Konst(_check_parameter(slot, v))

    def _tag(self, lbl: IndexLabel, at: IndexLabel) -> Callable[[GenericValue], GenericValue]:
        return lambda v: Konst(_check_tag(lbl, at, spine.map_tag(v)))

    def _comp(self, layer) -> Callable[[GenericValue], GenericValue]:
        return lambda v: RecV(layer(v))


class _FromInstant(indexed.Walk):
    """i→ig backward: unwraps what ``_ToInstant`` wraps; its layers are rec nodes."""

    _spine = staticmethod(spine.mapper)

    def _point(self, slot) -> Callable[[GenericValue], GenericValue]:
        if type(slot) is indexed.InterpSlot:
            layer = self._walk(slot.code, slot.assign, slot.at)
            return lambda v: layer(_unwrap(v, Konst, "composition argument is not a constant"))
        layer, unrolled = self._walk(slot.inner, slot.under, slot.at), self._unrolled
        return lambda v: Roll(layer(v.inner)) if type(v) is RecV else unrolled(v)

    @staticmethod
    def _unrolled(v: GenericValue) -> GenericValue:
        raise MalformedValue(f"fixed-point layer is not a rec node: {print_value(v)}")

    def _leaf(self, slot) -> Callable[[GenericValue], GenericValue]:
        what = "parameter position is not a constant"
        return lambda v: _check_parameter(slot, _unwrap(v, Konst, what))

    def _tag(self, lbl: IndexLabel, at: IndexLabel) -> Callable[[GenericValue], GenericValue]:
        def from_konst(v: GenericValue) -> GenericValue:
            if type(v) is not Konst or type(v.inner) is not Refl:
                raise MalformedValue(f"tag position is not k refl: {print_value(v)}")
            return _check_tag(lbl, at, v.inner)

        return from_konst

    def _comp(self, layer) -> Callable[[GenericValue], GenericValue]:
        return lambda v: layer(_unwrap(v, RecV, "composition layer is not a rec node"))


# ---------------------------------------------------------------------------
# where a fixed-point value lives


def standard_table(code: indexed.IndexedCode) -> dict[IndexLabel, instant.KSet]:
    """Every input index is a ⊤ parameter; matches the shipped corpus."""
    return {lbl: instant.Prim(TOP_SORT) for lbl in code.ins}


class PathContext(spine.Record):
    """Where a fixed-point value lives: its universe and code, the index it
    is read at (multirec, indexed), the constant set of every input index
    (indexed) and the environment the code refers into (instant)."""

    universe: str
    code: object
    at: IndexLabel | None = None
    table: Mapping[IndexLabel, instant.KSet] | None = None
    env: instant.CodeEnv | None = None


def regular_context(code: regular.RegularCode) -> PathContext:
    return PathContext(REGULAR.name, code)


def polyp_context(code: polyp.PolyPCode) -> PathContext:
    return PathContext(POLYP.name, code)


def multirec_context(code: multirec.MultirecCode, at: IndexLabel) -> PathContext:
    return PathContext(MULTIREC.name, code, at=at)


def indexed_context(code: indexed.IndexedCode, table: KSetTable, at: IndexLabel) -> PathContext:
    return PathContext(INDEXED.name, code, at=at, table=table)


class Universe(NamedTuple):
    """One universe as the rest of genrep tells it apart, a row of
    ``UNIVERSES``; each field is the universe's own walk or data, so the
    cross-universe checks compare independent interpreters. A code is read
    at each label of ``family(code)`` (the CLI's ``family_word``), if any,
    under the constant ``table(code)``. ``mapper(ctx, fs)`` maps by a
    transformer family, one function per parameter, one layer deep if
    ``one_layer``. Without a ``generator(ctx)``, a context is enumerated
    along the steps ``to_indexed`` to its closed indexed lift once
    ``check(code)`` passes."""

    name: str
    conformer: Callable[[PathContext], Callable[[GenericValue], bool]]
    family: Callable[[object], IndexSet] | None = None
    family_word: str | None = None
    table: Callable[[object], KSetTable] | None = None
    mapper: Callable[[PathContext, tuple], Callable] | None = None
    one_layer: bool = False
    generator: Callable[[PathContext], spine.Generating] | None = None
    to_indexed: tuple[str, ...] = ()
    check: Callable[[object], None] = lambda code: None
    needs_env: bool = False


def _labels_in_set(code: multirec.MultirecCode) -> None:
    """The indexed generator yields nothing at a tag outside its outputs,
    where the multirec conformer raises."""
    for node in spine.atoms(code.body):
        multirec.check_index(code, node.label)


REGULAR = Universe(
    "regular", lambda ctx: regular.mu_conformer(ctx.code),
    mapper=lambda ctx, fs: regular.mapper(ctx.code, *fs), one_layer=True,
    to_indexed=("r-p", "p-i"))
POLYP = Universe(
    "polyp", lambda ctx: polyp.Conformer(polyp.MuSlot(ctx.code, TOP_SLOT)),
    mapper=lambda ctx, fs: polyp.Mapper(polyp.MuSlot(ctx.code, *fs)), to_indexed=("p-i",))
MULTIREC = Universe(
    "multirec", lambda ctx: multirec.mu_conformer(ctx.code, ctx.at),
    family=attrgetter("indices"), family_word="index set",
    mapper=lambda ctx, fs: multirec.mapper(ctx.code, dict.fromkeys(ctx.code.indices, *fs), ctx.at),
    one_layer=True, to_indexed=("m-i",), check=_labels_in_set)
INDEXED = Universe(
    "indexed", lambda ctx: indexed.Conformer(ctx.code, payload_slots(ctx.table), ctx.at),
    family=attrgetter("outs"), family_word="output set", table=standard_table,
    mapper=lambda ctx, fs: indexed.Mapper(ctx.code, dict.fromkeys(ctx.code.ins, *fs), ctx.at),
    generator=lambda ctx: indexed.Generator(ctx.code, payload_slots(ctx.table), ctx.at))
INSTANT = Universe(
    "instant", lambda ctx: instant.conformer(ctx.env, ctx.code),
    generator=lambda ctx: instant.generator(ctx.env, ctx.code), needs_env=True)

# universe name -> its row, in order of expressive power
UNIVERSES = {row.name: row for row in (REGULAR, POLYP, MULTIREC, INDEXED, INSTANT)}


def universe_row(name: str) -> Universe:
    """The row of the universe ``name``."""
    try:
        return UNIVERSES[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown universe: {name!r}") from None


def family(universe: str, code) -> IndexSet | None:
    """The indices a code is read at: a multirec family's index set or an
    indexed code's outputs; None in the universes without indices."""
    row = universe_row(universe)
    return None if row.family is None else row.family(code)


def contexts(
    universe: str, code, env: instant.CodeEnv | None = None, at: IndexLabel | None = None
) -> list[PathContext]:
    """One context per index of the code's family, or the one context at
    ``at``; universes without indices give one context and ignore ``at``.
    ``env`` is the environment of an instant code, which it needs."""
    row = universe_row(universe)
    if row.needs_env and env is None:
        raise ValueError("an instant context needs an environment")
    if row.family is None:
        return [PathContext(universe, code, env=env)]
    labels = row.family(code)
    if at is not None:
        labels = (at,)
    table = None if row.table is None else row.table(code)
    return [PathContext(universe, code, at=lbl, table=table) for lbl in labels]


def payload_slots(table: KSetTable) -> dict[IndexLabel, indexed.IndexedSlot]:
    """The indexed slot table that reads every ``Prim(sort)`` of ``table`` as
    the payload slot of ``sort``."""
    if not all(isinstance(kset, instant.Prim) for kset in table.values()):
        raise ValueError("only the constant sets Prim(sort) have payload slots")
    return {lbl: PayloadSlot(kset.sort) for lbl, kset in table.items()}


def conformer(ctx: PathContext) -> Callable[[GenericValue], bool]:
    """Conformance where ``ctx`` says a value lives, for as many values as
    it is asked about: one conformer of the context's universe, whose memo
    judges each shared subtree once and lives as long as the result."""
    return universe_row(ctx.universe).conformer(ctx)


def conforms(ctx: PathContext, v: GenericValue) -> bool:
    """Does ``v`` conform where ``ctx`` says it lives? The call borrows a
    ``conformer`` of the context (``spine.borrow``), built on a copy of its
    environment."""
    build = lambda: conformer(ctx if ctx.env is None else PathContext(
        ctx.universe, ctx.code, ctx.at, ctx.table, dict(ctx.env)))
    return spine.borrow(ctx.code, ("conforms", *context_key(ctx)), build, v)


def context_key(ctx: PathContext) -> tuple:
    """What a walk of ``ctx.code`` depends on besides the code: the universe,
    the index, and what the table and the environment hold now. With the
    code, it names the context by contents."""
    table = None if ctx.table is None else spine.Contents(ctx.table)
    env = None if ctx.env is None else spine.Contents(ctx.env)
    return ctx.universe, ctx.at, table, env


# ---------------------------------------------------------------------------
# path composition


def _instant_target(ctx: PathContext) -> PathContext:
    """The lift of the code at the source's index, in the lift's environment."""
    indexed.check_output(ctx.code, ctx.at)
    lifted, env = lift_i_to_ig(ctx.code, ctx.table)
    return PathContext(INSTANT.name, lifted[ctx.at], env=env)


Walks = dict[str, spine.Walk]


class Step(NamedTuple):
    """One arrow. ``lift`` takes a source code; ``context`` and each builder
    of ``walks`` take the source context. ``context`` gives the target's;
    ``walks`` maps each direction (``"forward"``, ``"backward"``) to the
    builder of the conversion out of it, a compiled walk for as many of the
    context's values as it is given. ``convert`` borrows one for a single
    value."""

    source: str
    target: str
    lift: Callable
    context: Callable[[PathContext], PathContext]
    walks: dict[str, Callable[[PathContext], spine.Walk]]


def _same_tree_walk(ctx: PathContext) -> spine.Walk:
    """The four arrows that keep the tree check every value, both ways,
    with one ``conformer`` of the source context whose top returns the
    value or raises, so the subtrees that a round trip or many values share
    are judged once."""
    walk = conformer(ctx)
    walk.top = partial(_same_tree, walk.top)
    return walk


def _i_ig_walk(walk: type[indexed.Walk], ctx: PathContext) -> indexed.Walk:
    """The i→ig ``walk`` (``_ToInstant`` or ``_FromInstant``) for all of
    the context's values, memoized, so a shared subtree converts once to a
    shared image. It reads the source code under an assignment built after
    the output index and the table are checked: an input of constant set
    ``Prim(sort)`` reads as that sort's payload slot, which checks its
    contents; other sets need an environment, so their contents pass
    unchecked."""
    indexed.check_output(ctx.code, ctx.at)
    assign = {}
    for lbl, atom in _rho_from_table(ctx.code, ctx.table).items():
        kset = atom.payload
        assign[lbl] = PayloadSlot(kset.sort) if type(kset) is instant.Prim else kset
    return walk(ctx.code, assign, ctx.at)


_SAME_TREE_WALKS = {"forward": _same_tree_walk, "backward": _same_tree_walk}

STEPS = {
    "r-p": Step("regular", "polyp",
                lambda code: lift_r_to_p(code),
                lambda ctx: polyp_context(lift_r_to_p(ctx.code)),
                _SAME_TREE_WALKS),
    "r-m": Step("regular", "multirec",
                lambda code: lift_r_to_m(code),
                lambda ctx: multirec_context(lift_r_to_m(ctx.code), STAR),
                _SAME_TREE_WALKS),
    "p-i": Step("polyp", "indexed",
                lambda code: lift_p_to_i(code),
                lambda ctx: indexed_context(fix_p_code(ctx.code), {STAR: instant.Prim(TOP_SORT)}, STAR),
                _SAME_TREE_WALKS),
    "m-i": Step("multirec", "indexed",
                lambda code: lift_m_to_i(code),
                lambda ctx: indexed_context(fix_m_code(ctx.code), {}, ctx.at),
                _SAME_TREE_WALKS),
    "i-ig": Step("indexed", "instant",
                 lambda code: lift_i_to_ig(code, standard_table(code)),
                 _instant_target,
                 {"forward": partial(_i_ig_walk, _ToInstant),
                  "backward": partial(_i_ig_walk, _FromInstant)}),
}


def _row(step: str, universe: str) -> Step:
    """The row of ``step``, which must start from ``universe``."""
    if step not in STEPS:
        raise ValueError(f"unknown conversion step: {step!r}")
    if STEPS[step].source != universe:
        raise ValueError(f"step {step} does not start from {universe}")
    return STEPS[step]


def convert(step: str, ctx: PathContext, v: GenericValue, direction: Direction) -> GenericValue:
    """One value along ``step`` out of ``ctx``, with the walk that the
    step's builder for ``direction`` compiles, borrowed (``spine.borrow``).
    The pool is keyed by the builder, so both directions of the arrows that
    keep the tree share the walks of a context. The direction is checked
    first, then the step and its source universe."""
    _check_direction(direction)
    build = _row(step, ctx.universe).walks[direction]
    return spine.borrow(ctx.code, (build, *context_key(ctx)), partial(build, ctx), v)


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
        universe = _row(step, universe).target
    sources = [start]
    for step in steps[:-1]:
        sources.append(STEPS[step].context(sources[-1]))
    walk = list(zip(steps, sources))
    if direction == "backward":
        walk.reverse()
    for step, ctx in walk:
        v = convert(step, ctx, v, direction)
    return v

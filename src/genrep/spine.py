"""The unit/sum/product spine that the codes of every universe share.

All five universes build their codes from the same three connectives, and
these mean the same thing everywhere: ``U`` is inhabited by ``tt``, a sum
by an injection and a product by a pair. So the connectives are defined
once here, together with one builder or walk per job, and ``regular.Sum``
is the same class as ``instant.Sum``.

What the universes do not share are their atoms: identity positions,
parameters, tags, constants, references, composition and fixed points.
``conformer``, ``mapper`` and ``generator`` compile a whole code into
closures when a walk is built: they handle the spine and ask an atom
function supplied by the caller for each atom node's closure, which gives
that node its universe's meaning (a node it does not know raises the
universe's own ``TypeError`` when a value reaches it). Keeping the atoms
apart keeps the universes independent interpreters, which the
cross-universe checks depend on.

What depends on a code alone is kept on the code node itself (``cached``),
so it dies with the code: its lifts, and a pool of compiled walks per key
that one-value calls borrow (``borrow``). A borrowed walk is emptied when
the call returns, so only the compiled closures outlive the call, never a
value.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, TypeVar

from .gvalue import (
    EmptySlot,
    GenericValue,
    In1,
    In2,
    MalformedValue,
    Pair,
    PayloadSlot,
    Record,
    Refl,
    Roll,
    TOP_SORT,
    TT,
    payload,
    payload_slot_accepts,
    print_value,
)

T = TypeVar("T")


class Unit(Record):
    pass


class Sum(Record):
    left: object
    right: object


class Prod(Record):
    left: object
    right: object


# The closures are the inner loop of every universe. Each spine node becomes
# one closure that dispatches on the exact class of its value (faster than
# ``match``; no class here or in gvalue is subclassed) and calls the
# closures of its operands, which are compiled with it, so a walk compiles
# all of its code when it is built. Each frame a layer takes lowers the
# depth that fits under the recursion limit: a regular numeral takes three
# per layer (point, roll, sum), a list four.


def conformer(code, atom: Callable[[object], Callable]) -> Callable[[GenericValue], bool]:
    """``v -> bool``: does ``v`` inhabit ``code``? ``atom(node)`` is called
    once per atom node, and gives the closure that judges that atom."""
    kind = type(code)
    if kind is Unit:
        return _is_tt
    if kind is not Sum and kind is not Prod:
        return atom(code)
    left, right = conformer(code.left, atom), conformer(code.right, atom)
    if kind is Sum:

        def conform_sum(v: GenericValue) -> bool:
            kind = type(v)
            if kind is In1:
                return left(v.value)
            return kind is In2 and right(v.value)

        return conform_sum

    def conform_prod(v: GenericValue) -> bool:
        return type(v) is Pair and left(v.first) and right(v.second)

    return conform_prod


def _is_tt(v: GenericValue) -> bool:
    return type(v) is TT


def mapper(code, atom: Callable[[object], Callable]) -> Callable[[GenericValue], GenericValue]:
    """``v -> value``: rebuild ``v`` along ``code``, replacing each atom
    position ``w`` by ``atom(node)(w)``, with ``atom`` called once per atom
    node; a layer of the wrong shape is a ``MalformedValue``. Positions are
    visited left to right."""
    kind = type(code)
    if kind is Unit:
        return _map_unit
    if kind is not Sum and kind is not Prod:
        return atom(code)
    left, right = mapper(code.left, atom), mapper(code.right, atom)
    if kind is Sum:

        def map_sum(v: GenericValue) -> GenericValue:
            kind = type(v)
            if kind is In1:
                return In1(left(v.value))
            if kind is In2:
                return In2(right(v.value))
            raise MalformedValue(f"sum layer is not an injection: {print_value(v)}")

        return map_sum

    def map_prod(v: GenericValue) -> GenericValue:
        if type(v) is not Pair:
            raise MalformedValue(f"product layer is not a pair: {print_value(v)}")
        return Pair(left(v.first), right(v.second))

    return map_prod


def _map_unit(v: GenericValue) -> GenericValue:
    if type(v) is not TT:
        raise MalformedValue(f"unit layer is not tt: {print_value(v)}")
    return v


def generator(code, atom: Callable[[object], Callable], memos: list[dict]) -> Callable[[int], list]:
    """``m -> values``: every inhabitant of ``code`` with exactly ``m >= 1``
    nodes, each once, ``In1`` before ``In2`` and splits by the left share's
    size (``oracle._finish`` sorts them as printed). ``atom(node)`` is called
    once per atom node and gives its closure, which is asked for sizes of at
    least 1 only. Each sum and product keeps its values by size in a dict it
    adds to ``memos``, and a product its left operand's values there too."""
    kind = type(code)
    if kind is Unit:
        return _unit_values
    if kind is not Sum and kind is not Prod:
        return atom(code)
    left, right = generator(code.left, atom, memos), generator(code.right, atom, memos)
    memo: dict[int, list[GenericValue]] = {}
    memos.append(memo)
    if kind is Sum:

        def gen_sum(m: int) -> list[GenericValue]:
            hit = memo.get(m)
            if hit is None:
                hit = memo[m] = (
                    [In1(w) for w in left(m - 1)] + [In2(w) for w in right(m - 1)] if m > 1 else []
                )
            return hit

        return gen_sum

    asked: dict[int, list[GenericValue]] = {}  # the left operand's values by size
    inhabited: dict[int, list[GenericValue]] = {}  # those that are not empty
    memos += asked, inhabited

    def gen_prod(m: int) -> list[GenericValue]:
        hit = memo.get(m)
        if hit is None:
            # The pair takes one node and splits the rest between its operands;
            # the left one is asked for each share once, and an empty share skipped.
            for k in range(len(asked) + 1, m - 1):
                asked[k] = lefts = left(k)
                if lefts:
                    inhabited[k] = lefts
            hit = []
            for k, lefts in inhabited.items():
                if k > m - 2:
                    break
                rights = right(m - 1 - k)
                hit += [Pair(a, b) for a in lefts for b in rights]
            memo[m] = hit
        return hit

    return gen_prod


def _unit_values(m: int) -> list[GenericValue]:
    return [TT()] if m == 1 else []


class Walk:
    """A compiled walk, for as many values as it is given: ``walk(v)`` runs
    its top closure ``walk.top``, which ``Walk(top)`` builds as ``top(walk)``.
    A walk compiles all of its code when it is built and nothing after. It
    keeps what its closures were built from: its recursion points
    (``points``) and the tables a universe builds through ``once``
    (``tables``). The keys of both name objects by ``id``, which is safe
    because they are read only while the walk is built, and every object a
    key names lives until the build ends. The closures of a recursive code
    refer to each other in cycles, which only the cyclic collector frees, so
    the walk owns the memos of its recursion points (``memos``) and empties
    them when it dies, or when a one-value call that borrowed it returns
    (``borrow``); no closure refers to the walk itself, so it dies as soon
    as it is dropped."""

    def __init__(self, top: Callable[[Walk], Callable] | None = None):
        self.memos: list[dict] = []
        self.points: dict = {}
        self.tables: dict = {}
        if top is not None:
            self.top = top(self)

    def __call__(self, v: GenericValue):
        return self.top(v)

    def empty(self) -> None:
        """Forget every value the walk has been given; what it compiled stays."""
        for memo in self.memos:
            memo.clear()

    __del__ = empty

    def point(self, key, build: Callable[[], Callable]) -> Callable:
        """The recursion point named ``key``: the closure that computes
        ``body(x)`` once per argument ``x``, where a walk enters a
        fixed-point layer, a composition's code or a named code. Its memo,
        one of ``memos``, is keyed by ``x`` itself: a value, which is
        hash-consed and so hashes and compares by identity, or a size in a
        generator, so every larger value shares the values of that size as
        subtrees. The key keeps a value alive while its entry lives. The
        memo is right for conformance, enumeration and maps whose
        transformers are pure. The point is registered before
        ``body = build()`` runs, so a fixed point that reaches itself while
        it is built finds it."""
        hit = self.points.get(key)
        if hit is not None:
            return hit
        memo: dict = {}
        self.memos.append(memo)

        def enter(x):
            try:
                hit = memo.get(x)
            except TypeError:  # an unhashable argument is no value
                return body(x)
            if hit is None:
                hit = memo[x] = body(x)
            return hit

        self.points[key] = enter
        body = build()
        return enter

    def enter(self, slot) -> Callable:
        """The recursion point of ``slot``, whose body is ``_point(slot)``."""
        return self.point(id(slot), lambda: self._point(slot))


def once(table: dict, key, build: Callable[[], T]) -> T:
    """``table[key]``, built by ``build()`` on the first request."""
    hit = table.get(key)
    if hit is None:
        hit = table[key] = build()
    return hit


class _Cache(dict):
    """What ``cached`` keeps on a code node. Its entries hold closures, which
    neither pickle nor copy, and only repeat what the code determines, so a
    cache pickles and deep-copies as an empty one (a shallow copy of the
    code, equal to it, shares it)."""

    def __reduce__(self):
        return _Cache, ()


def cached(code, key, build: Callable[[], T]) -> T:
    """``build()``, kept on ``code`` under ``key`` for as long as the code
    lives. ``key`` names what else the entry depends on, by contents: an
    index, a slot or the ``Contents`` of a table, never an ``id``. Two threads
    asking at once may both build, but both get the entry kept first. An
    object with no ``__dict__`` is no code node: it keeps nothing, and the
    walk built for it raises its universe's ``TypeError``."""
    attrs = getattr(code, "__dict__", None)
    if attrs is None:
        return build()
    cache = attrs.get("_cache")
    if cache is None:
        cache = attrs.setdefault("_cache", _Cache())
    hit = cache.get(key)
    if hit is None:
        hit = cache.setdefault(key, build())
    return hit


class Contents(dict):
    """A copy of what a mapping holds now, as part of a ``cached`` key: equal
    to another whose items are equal, whatever mapping held them. It hashes
    by the keys only, so a lookup compares the entries, which is quick when
    they are the same objects, as the codes of a lifted environment are
    from call to call. Nothing changes it once it is made."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self))


def borrow(code, key, build: Callable[[], Walk], v: GenericValue):
    """``walk(v)`` for a one-value call, with a walk of ``code`` from its
    pool under ``key`` (``cached``), or a new one, compiled whole by
    ``build()``, when none is free. The walk is emptied and put back however
    the call ends, so the next call finds it compiled and nothing of ``v``
    is kept; a thread that finds the pool empty compiles a walk of its own."""
    pool = cached(code, ("pool", key), list)
    try:
        walk = pool.pop()
    except IndexError:
        walk = build()
    try:
        return walk(v)
    finally:
        walk.empty()
        pool.append(walk)


def rolled(layer: Callable[[GenericValue], bool]) -> Callable[[GenericValue], bool]:
    """``v -> bool``: is ``v`` a ``Roll`` whose layer ``layer`` accepts?"""
    return lambda v: type(v) is Roll and layer(v.inner)


def never(v: GenericValue) -> bool:
    return False


def leaf(slot, universe: str, on_payload=payload_slot_accepts, on_empty=never) -> Callable:
    """The closure of a payload or empty slot of ``universe`` ("a polyp"):
    ``on_payload`` bound to the payload slot, or ``on_empty``; by default
    the conformer's."""
    if type(slot) is PayloadSlot:
        return partial(on_payload, slot)
    if type(slot) is EmptySlot:
        return on_empty
    return raising(TypeError, f"not {universe} slot: {slot!r}")


def is_refl(v: GenericValue) -> bool:
    return type(v) is Refl


def tokens(slot: PayloadSlot, m: int) -> list[GenericValue]:
    """The values of ``slot`` with exactly ``m`` nodes: tokens 0 and 1 of
    its sort, or ``tt`` for ``⊤``, one node each. A sort has infinitely
    many tokens, so enumeration keeps two."""
    if m != 1:
        return []
    if slot.sort == TOP_SORT:
        return [TT()]
    return [payload(slot.sort, 0), payload(slot.sort, 1)]


def refl_values(m: int) -> list[GenericValue]:
    return [Refl()] if m == 1 else []


def no_values(m: int) -> list[GenericValue]:
    return []


def rolled_values(wrap: Callable, layer: Callable[[int], list]) -> Callable[[int], list]:
    """``m -> values``: ``wrap(w)`` for each value ``w`` of ``layer`` that is
    one node smaller, the node ``wrap`` adds (a ``Roll``, ``Konst`` or
    ``RecV``)."""
    return lambda m: [wrap(w) for w in layer(m - 1)] if m > 1 else []


def map_tag(w: GenericValue) -> GenericValue:
    """A tag position holds ``refl``, which a map keeps."""
    if type(w) is not Refl:
        raise MalformedValue(f"tag position is not refl: {print_value(w)}")
    return w


def raising(error: type[Exception], message: str) -> Callable[[GenericValue], object]:
    """The closure of a node that no value can pass: it raises
    ``error(message)`` when a value reaches it, never when it is built."""

    def fail(v: GenericValue) -> object:
        raise error(message)

    return fail


def lift(code, atom: Callable[[object], object]):
    """Rebuild ``code`` with every atom replaced by ``atom(node)``, left
    before right."""
    match code:
        case Unit():
            return code
        case Sum(f, g):
            return Sum(lift(f, atom), lift(g, atom))
        case Prod(f, g):
            return Prod(lift(f, atom), lift(g, atom))
    return atom(code)


def atoms(code) -> Iterator[object]:
    """The nodes of ``code`` that are not spine, left to right."""
    match code:
        case Unit():
            return
        case Sum(f, g) | Prod(f, g):
            yield from atoms(f)
            yield from atoms(g)
        case _:
            yield code

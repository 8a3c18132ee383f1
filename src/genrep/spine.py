"""The unit/sum/product spine that the codes of every universe share.

All five universes build their codes from the same three connectives, and
these mean the same thing everywhere: ``U`` is inhabited by ``tt``, a sum
by an injection and a product by a pair. So the connectives are defined
once here, together with one walk per job, and ``regular.Sum`` is the same
class as ``instant.Sum``.

What the universes do not share are their atoms: identity positions,
parameters, tags, constants, references, composition and fixed points.
Each walk handles the spine itself and hands every other node to an atom
function supplied by the caller, which gives that node its universe's
meaning and raises the universe's own ``TypeError`` for a node it does not
know. Keeping the atoms apart keeps the universes independent
interpreters, which the cross-universe checks depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from .gvalue import (
    GenericValue,
    In1,
    In2,
    MalformedValue,
    Pair,
    TT,
    print_value,
)


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Prod:
    left: object
    right: object


# The value walks below are the inner loop of every universe. They dispatch
# on the exact class rather than through ``match``, which measured about 10%
# slower on large values; no class here or in gvalue is subclassed. Sums and
# the right operand of a product loop instead of recursing, so only left
# operands and atoms take a Python stack frame: each frame the kernel adds
# per layer lowers the value depth that fits under the recursion limit.


def conform(code, v: GenericValue, atom: Callable[[object, GenericValue], bool]) -> bool:
    """Does ``v`` inhabit ``code``? ``atom(node, w)`` judges the atoms."""
    while True:
        kind = type(code)
        if kind is Sum:
            if type(v) is In1:
                code, v = code.left, v.value
            elif type(v) is In2:
                code, v = code.right, v.value
            else:
                return False
        elif kind is Prod:
            if type(v) is not Pair or not conform(code.left, v.first, atom):
                return False
            code, v = code.right, v.second
        elif kind is Unit:
            return type(v) is TT
        else:
            return atom(code, v)


def map(
    code, v: GenericValue, atom: Callable[[object, GenericValue], GenericValue]
) -> GenericValue:
    """Rebuild ``v`` along ``code``, replacing each atom position ``w`` by
    ``atom(node, w)``; a layer of the wrong shape is a ``MalformedValue``.
    Positions are visited left to right."""
    wraps: list[Callable[[GenericValue], GenericValue]] = []
    while True:
        kind = type(code)
        if kind is Sum:
            if type(v) is In1:
                wraps.append(In1)
                code, v = code.left, v.value
            elif type(v) is In2:
                wraps.append(In2)
                code, v = code.right, v.value
            else:
                raise MalformedValue(f"sum layer is not an injection: {print_value(v)}")
        elif kind is Prod:
            if type(v) is not Pair:
                raise MalformedValue(f"product layer is not a pair: {print_value(v)}")
            wraps.append(partial(Pair, map(code.left, v.first, atom)))
            code, v = code.right, v.second
        elif kind is Unit:
            if type(v) is not TT:
                raise MalformedValue(f"unit layer is not tt: {print_value(v)}")
            break
        else:
            v = atom(code, v)
            break
    for wrap in reversed(wraps):
        v = wrap(v)
    return v


def memoized(
    memo: dict, point, v: GenericValue, compute: Callable[[object, GenericValue], object]
):
    """``compute(point, v)``, computed once per recursion point and value
    for as long as ``memo`` lives: one conformer or mapper holds one memo.

    A recursion point is where a walk enters a fixed-point layer, a
    composition's code or a named code below the top of the value; each
    universe says which, and with what object. The memo is keyed by
    ``id(point)`` and then ``id(v)``, and each entry keeps ``v``, so no
    ``id`` is reused while the memo lives; the walk must keep every
    ``point`` as long. The
    answer may depend on the point and the value only, which holds for
    conformance and for maps whose transformers are pure.
    """
    seen = memo.get(id(point))
    if seen is None:
        seen = memo[id(point)] = {}
    hit = seen.get(id(v))
    if hit is None:
        hit = seen[id(v)] = (v, compute(point, v))
    return hit[1]


def gen(
    code,
    n: int,
    atom: Callable[[object, int], list[GenericValue]],
    memo: dict[int, list[list[GenericValue]]],
) -> list[GenericValue]:
    """Every inhabitant of ``code`` with exactly ``n`` nodes, each once.

    ``atom(node, m)`` is called with ``m >= 1`` only and must give every
    inhabitant of the atom with exactly ``m`` nodes once. ``memo`` maps the
    ``id`` of each node of ``code`` to its values by size, ``memo[id(node)][m]``
    holding those with exactly ``m`` nodes, so no list is built twice; give
    one dict per meaning of ``atom``.
    """
    return _upto(code, n, atom, memo)[n] if n >= 1 else []


def _upto(code, n: int, atom, memo) -> list[list[GenericValue]]:
    """``code``'s values by size in ``memo``, filled at least to size ``n``."""
    parts = memo.get(id(code))
    if parts is None:
        parts = memo[id(code)] = [[]]
    kind = type(code)
    while len(parts) <= n:
        m = len(parts)
        if kind is Sum:
            values = [In1(w) for w in _upto(code.left, m - 1, atom, memo)[m - 1]] + [
                In2(w) for w in _upto(code.right, m - 1, atom, memo)[m - 1]
            ]
        elif kind is Prod:
            # The pair takes one node and splits the rest between its
            # operands; a split whose left operand has no value of its
            # share is skipped.
            lefts = _upto(code.left, m - 2, atom, memo)
            values = []
            for k in range(1, m - 1):
                if lefts[k]:
                    rights = _upto(code.right, m - 1 - k, atom, memo)[m - 1 - k]
                    values += [Pair(a, b) for a in lefts[k] for b in rights]
        elif kind is Unit:
            values = [TT()] if m == 1 else []
        else:
            values = atom(code, m)
        parts.append(values)
    return parts


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

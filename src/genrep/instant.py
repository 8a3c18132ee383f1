"""Flat codes with constants and named recursive references.

Recursion is not structural here: an R node carries a name that is resolved
against a code environment, so codes stay finite, printable and hashable.
Unfolding a reference consumes a ``rec`` node of the value and entering a
constant a ``k`` node, so every walk over a finite value ends.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, Mapping, Union

from . import spine
from .gvalue import (
    GenericValue,
    In1,
    In2,
    IndexLabel,
    Konst,
    MalformedValue,
    NAT_SORT,
    Pair,
    Payload,
    PayloadSlot,
    PayloadToken,
    RecV,
    payload,
    print_value,
    token_successor,
)
from .spine import Prod, Record, Sum, Unit


class Prim(Record):
    sort: str


class EqWitness(Record):
    """Inhabited by refl exactly when the two labels coincide."""

    a: IndexLabel
    b: IndexLabel


class OfCode(Record):
    ref: str


KSet = Union[Prim, EqWitness, OfCode]


class K(Record):
    payload: KSet


class R(Record):
    ref: str


InstantCode = Union[Unit, K, R, Sum, Prod]

CodeEnv = Mapping[str, InstantCode]


def resolve(env: CodeEnv, ref: str) -> InstantCode:
    """The code named ``ref``; a dangling reference is a malformed input."""
    if ref not in env:
        raise MalformedValue(f"reference {ref} is not defined in the environment")
    return env[ref]


def _refs(code: InstantCode) -> Iterator[str]:
    for node in spine.atoms(code):
        match node:
            case K(OfCode(ref)) | R(ref):
                yield ref
            case K(_):
                pass
            case _:
                raise TypeError(f"not an instant code: {node!r}")


def conformer(env: CodeEnv, code: InstantCode) -> spine.Walk:
    """Does a value inhabit the interpretation of ``code`` in ``env``?
    Compiled once for as many values as it is asked about. Its recursion
    points are the named codes, which an ``R`` reference and a ``K``
    constant of ``OfCode`` enter: one ``Walk.point`` per name, compiled
    with the walk. A name ``env`` does not define compiles to a closure that
    raises ``MalformedValue`` when a value reaches it."""
    return spine.Walk(lambda walk: spine.conformer(code, partial(_atom, env, walk)))


def _atom(env: CodeEnv, walk: spine.Walk, node: InstantCode) -> Callable[[GenericValue], bool]:
    """The closure of ``node`` in the conformance walk ``walk`` in ``env``.
    It and ``_enter`` and ``_kset`` are bound by ``partial``, not closures
    of one another, whose cycle would keep the walk alive."""
    kind = type(node)
    if kind is K:
        inner, wrapper = _kset(env, walk, node.payload), Konst
    elif kind is R:
        inner, wrapper = _enter(env, walk, node.ref), RecV
    else:
        return spine.raising(TypeError, f"not an instant code: {node!r}")
    return lambda w: type(w) is wrapper and inner(w.inner)


def _enter(env: CodeEnv, walk: spine.Walk, name: str) -> Callable[[GenericValue], bool]:
    try:
        code = resolve(env, name)
    except MalformedValue as err:
        return spine.raising(MalformedValue, str(err))
    return walk.point(name, lambda: spine.conformer(code, partial(_atom, env, walk)))


def _kset(env: CodeEnv, walk: spine.Walk, payload: KSet) -> Callable[[GenericValue], bool]:
    kind = type(payload)
    if kind is Prim:
        return spine.leaf(PayloadSlot(payload.sort), "an instant")
    if kind is EqWitness:
        return spine.is_refl if payload.a == payload.b else spine.never
    if kind is OfCode:
        return _enter(env, walk, payload.ref)
    return spine.raising(TypeError, f"not a constant set: {payload!r}")


def conform_ig(env: CodeEnv, code: InstantCode, v: GenericValue) -> bool:
    """Does ``v`` inhabit the interpretation of ``code`` in ``env``? The call
    borrows a ``conformer`` (``spine.borrow``) keyed by the entries ``env``
    holds now, and built on a copy of it."""
    build = lambda: conformer(dict(env), code)
    return spine.borrow(code, ("conform_ig", spine.Contents(env)), build, v)


class CrushSpec(Record):
    combine: Callable[[GenericValue, GenericValue], GenericValue]
    step: Callable[[GenericValue], GenericValue]
    unit: GenericValue


def crush(env: CodeEnv, code: InstantCode, spec: CrushSpec, v: GenericValue) -> GenericValue:
    """Fold a conforming value to a single result; others raise MalformedValue.

    Unit and constant positions yield the unit, products combine their two
    sides, sums descend, and each unfolded reference applies the step to the
    result from underneath.
    """
    if not conform_ig(env, code, v):
        raise MalformedValue(f"crush: value {print_value(v)} does not conform to the code")
    return _crush(spec, v)


def _crush(spec: CrushSpec, v: GenericValue) -> GenericValue:
    """Fold ``v`` by its own nodes; ``crush`` has matched it to the code."""
    match v:
        case RecV(w):
            return spec.step(_crush(spec, w))
        case In1(w) | In2(w):
            return _crush(spec, w)
        case Pair(a, b):
            return spec.combine(_crush(spec, a), _crush(spec, b))
    return spec.unit  # tt, or a constant


def nat_add(a: GenericValue, b: GenericValue) -> GenericValue:
    match a, b:
        case Payload(PayloadToken(s, m)), Payload(PayloadToken(t, n)) if (
            s == NAT_SORT and t == NAT_SORT
        ):
            return payload(NAT_SORT, m + n)
    raise MalformedValue("nat_add expects two naturals")


SIZE_SPEC = CrushSpec(combine=nat_add, step=token_successor, unit=payload(NAT_SORT, 0))


def size_ig(env: CodeEnv, code: InstantCode, v: GenericValue) -> int:
    """Count the recursive layers of ``v``: crush with (+, successor, 0)."""
    result = crush(env, code, SIZE_SPEC, v)
    match result:
        case Payload(PayloadToken(sort, n)) if sort == NAT_SORT:
            return n
    raise MalformedValue(f"size result is not a natural: {print_value(result)}")

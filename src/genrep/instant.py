"""Flat codes with constants and named recursive references.

Recursion is not structural here: an R node carries a name that is resolved
against a code environment, so codes stay finite, printable and hashable.
Unfolding a reference consumes a ``rec`` node of the value and entering a
constant a ``k`` node, so every walk over a finite value ends.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    Refl,
    TT,
    payload,
    payload_slot_accepts,
    print_value,
    token_successor,
)
from .spine import Prod, Sum, Unit


@dataclass(frozen=True)
class Prim:
    sort: str


@dataclass(frozen=True)
class EqWitness:
    """Inhabited by refl exactly when the two labels coincide."""

    a: IndexLabel
    b: IndexLabel


@dataclass(frozen=True)
class OfCode:
    ref: str


KSet = Union[Prim, EqWitness, OfCode]


@dataclass(frozen=True)
class K:
    payload: KSet


@dataclass(frozen=True)
class R:
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


class Conformer:
    """Does a value inhabit the interpretation of ``code`` in ``env``? For
    as many values as it is asked about.

    Its recursion points are the named codes, which an ``R`` reference and
    a ``K`` constant of ``OfCode`` enter, each the code ``env`` holds for
    the name: the memo (``spine.memoized``) keeps the answer for each value
    a point was asked about, so each is judged once for the life of the
    object, however many values share it.
    """

    def __init__(self, env: CodeEnv, code: InstantCode):
        self.env, self.code = env, code
        self.memo: dict = {}

    def __call__(self, v: GenericValue) -> bool:
        return self._layer(self.code, v)

    def _layer(self, code: InstantCode, v: GenericValue) -> bool:
        return spine.conform(code, v, self._atom)

    def _atom(self, node: InstantCode, w: GenericValue) -> bool:
        kind = type(node)
        if kind is K:
            return type(w) is Konst and self._kset(node.payload, w.inner)
        if kind is R:
            return type(w) is RecV and spine.memoized(
                self.memo, resolve(self.env, node.ref), w.inner, self._layer
            )
        raise TypeError(f"not an instant code: {node!r}")

    def _kset(self, kset: KSet, v: GenericValue) -> bool:
        kind = type(kset)
        if kind is Prim:
            return payload_slot_accepts(PayloadSlot(kset.sort), v)
        if kind is EqWitness:
            return type(v) is Refl and kset.a == kset.b
        if kind is OfCode:
            return spine.memoized(self.memo, resolve(self.env, kset.ref), v, self._layer)
        raise TypeError(f"not a constant set: {kset!r}")


def conform_ig(env: CodeEnv, code: InstantCode, v: GenericValue) -> bool:
    """Does ``v`` inhabit the interpretation of ``code`` in ``env``?"""
    return Conformer(env, code)(v)


@dataclass(frozen=True)
class CrushSpec:
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
    return _crush(env, code, spec, v)


def _crush(env: CodeEnv, code: InstantCode, spec: CrushSpec, v: GenericValue) -> GenericValue:
    match code, v:
        case Unit(), TT():
            return spec.unit
        case K(_), Konst(_):
            return spec.unit
        case R(ref), RecV(w):
            return spec.step(_crush(env, resolve(env, ref), spec, w))
        case Sum(f, _), In1(w):
            return _crush(env, f, spec, w)
        case Sum(_, g), In2(w):
            return _crush(env, g, spec, w)
        case Prod(f, g), Pair(a, b):
            return spec.combine(_crush(env, f, spec, a), _crush(env, g, spec, b))
    raise MalformedValue(f"crush: value {print_value(v)} does not fit the code")


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

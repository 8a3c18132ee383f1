"""One shared tree of generic values, plus the tokens, labels and slots
that every code universe interprets into.

Values carry no type information of their own. Each universe contributes a
conformance judgment that decides which trees inhabit the interpretation of
which code; the same tree may conform in several universes at once, which is
what makes cross-universe conversion meaningful. Values are hash-consed:
structurally equal values are one object.
"""

from __future__ import annotations

import sys
import types
import weakref
from _thread import get_ident
from _weakref import _remove_dead_weakref
from functools import cache
from typing import Any, Callable, Iterator, Union


class MalformedValue(Exception):
    """A value does not have the shape an operation requires."""


class FuelExhausted(Exception):
    """Nothing raises this: every walk over a finite value ends without fuel."""


class IndexNotInSet(Exception):
    """An index label was used outside the declared index set."""


TOP_SORT = "⊤"
NAT_SORT = "nat"

# Characters that would collide with the concrete syntax; names exclude them
# so that printing followed by parsing is the identity. The lexer reads them
# as tokens of their own.
RESERVED_NAME_CHARS = frozenset('()<>,#@!*+=.;:"')

# The words of the value syntax. A payload sort spelled like one would print
# as text that the value parser reads as the word, so no sort is one.
VALUE_KEYWORDS = frozenset({"tt", "refl", "k", "in1", "in2", "rec"})


def valid_name(text: object) -> bool:
    """True for a nonempty ``str`` with no whitespace or reserved characters
    that is not all decimal digits, which the lexer reads as a nat."""
    if not isinstance(text, str) or not text or text.isdecimal():
        return False
    return not any(ch.isspace() or ch in RESERVED_NAME_CHARS for ch in text)


def valid_sort(sort: object) -> bool:
    """True for a name that is no value keyword: the sorts of tokens, slots
    and constant sets, ``⊤`` among them."""
    return valid_name(sort) and sort not in VALUE_KEYWORDS


# ---------------------------------------------------------------------------
# records, index labels and index sets


class Record:
    """Base of the code, label, slot and context classes: a record of the
    fields its class body annotates, built, compared, hashed and printed as
    a frozen dataclass (``frozen=False``: mutable and unhashable; ``eq=False``:
    identity ``==`` and ``hash``), by copies of the templates below renamed
    to its fields. Its own ``__init__`` or ``__hash__`` is kept. Instances
    keep a ``__dict__``, where ``spine.cached`` keeps what a code determines."""

    def __init_subclass__(cls, frozen: bool = True, eq: bool = True) -> None:
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls.__match_args__, n = fields, len(fields)
        rename = {f"_{i}": name for i, name in enumerate(fields)}
        if "__init__" not in cls.__dict__:
            defaults = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)
            init = _INITS[n, hasattr(cls, "__post_init__")]
            cls.__init__ = _copy(init, cls, "__init__", rename, defaults)
        if eq:
            cls.__eq__ = _copy(_EQS[n], cls, "__eq__", rename)
            if "__hash__" not in cls.__dict__:
                cls.__hash__ = _copy(_HASHES[n], cls, "__hash__", rename) if frozen else None
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__

    # A frozen dataclass's error. Importing ``dataclasses`` costs more than
    # creating every record class, so only raising the error imports it.
    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        key = id(self), get_ident()
        if key in _PRINTING:  # a record that holds itself, as an indexed MuSlot does
            return "..."
        _PRINTING.add(key)
        try:
            fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        finally:
            _PRINTING.discard(key)
        return f"{type(self).__qualname__}({fields})"


_PRINTING: set[tuple[int, int]] = set()
_set = object.__setattr__


def _copy(template: Callable, cls: type, name: str, rename: dict, defaults: tuple = ()):
    """``template`` as method ``name`` of ``cls``, each placeholder renamed."""
    code = template.__code__
    code = code.replace(
        co_varnames=tuple(rename.get(n, n) for n in code.co_varnames),
        co_names=tuple(rename.get(n, n) for n in code.co_names),
        co_consts=tuple(rename.get(c, c) if type(c) is str else c for c in code.co_consts),
        co_name=name, co_qualname=f"{cls.__qualname__}.{name}",
    )
    return types.FunctionType(code, globals(), name, defaults or None)


# The methods a dataclass generates, per number of fields, over fields
# ``_0``, ``_1``, ...; ``_set`` gives None, so ``or`` runs each in order.
_INITS = {  # (number of fields, has __post_init__) -> __init__
    (0, False): lambda self: None,
    (1, False): lambda self, _0: _set(self, "_0", _0),
    (1, True): lambda self, _0: _set(self, "_0", _0) or self.__post_init__(),
    (2, False): lambda self, _0, _1: _set(self, "_0", _0) or _set(self, "_1", _1),
    (2, True): lambda self, _0, _1: (
        _set(self, "_0", _0) or _set(self, "_1", _1) or self.__post_init__()),
    (3, False): lambda self, _0, _1, _2: (
        _set(self, "_0", _0) or _set(self, "_1", _1) or _set(self, "_2", _2)),
    (5, False): lambda self, _0, _1, _2, _3, _4: (
        _set(self, "_0", _0) or _set(self, "_1", _1) or _set(self, "_2", _2)
        or _set(self, "_3", _3) or _set(self, "_4", _4)),
}
_EQS = {
    0: lambda self, other: () == () if other.__class__ is self.__class__ else NotImplemented,
    1: lambda self, other: (
        (self._0,) == (other._0,) if other.__class__ is self.__class__ else NotImplemented),
    2: lambda self, other: (
        (self._0, self._1) == (other._0, other._1)
        if other.__class__ is self.__class__ else NotImplemented),
    3: lambda self, other: (
        (self._0, self._1, self._2) == (other._0, other._1, other._2)
        if other.__class__ is self.__class__ else NotImplemented),
    5: lambda self, other: (
        (self._0, self._1, self._2, self._3, self._4)
        == (other._0, other._1, other._2, other._3, other._4)
        if other.__class__ is self.__class__ else NotImplemented),
}
_HASHES = {
    0: lambda self: hash(()),
    1: lambda self: hash((self._0,)),
    2: lambda self: hash((self._0, self._1)),
    3: lambda self: hash((self._0, self._1, self._2)),
    5: lambda self: hash((self._0, self._1, self._2, self._3, self._4)),
}


class IndexLabel(Record):
    """A named index; ``tags`` records Left/Right wrapping, outermost first.

    Labels key slot tables and memos, so the hash is computed once, here;
    equality and hashing stay by value."""

    name: str
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not valid_name(self.name):
            raise ValueError(f"bad index label name: {self.name!r}")
        if type(self.tags) is not tuple or any(tag not in ("L", "R") for tag in self.tags):
            raise ValueError(f"bad index label tags: {self.tags!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.tags)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from its fields, so that another process hashes it afresh
        return IndexLabel, (self.name, self.tags)


def label(name: str) -> IndexLabel:
    return IndexLabel(name)


# Tagging is interned: each Left or Right label is built, and its name
# validated, once, however many fixed-point layers ask for it. Only the
# labels of codes' index sets are ever tagged, so the caches stay small.
@cache
def left(lbl: IndexLabel) -> IndexLabel:
    return IndexLabel(lbl.name, ("L",) + lbl.tags)


@cache
def right(lbl: IndexLabel) -> IndexLabel:
    return IndexLabel(lbl.name, ("R",) + lbl.tags)


def print_label(lbl: IndexLabel) -> str:
    return "".join(tag + "." for tag in lbl.tags) + lbl.name


class IndexSet(Record):
    """An ordered, duplicate-free collection of index labels."""

    labels: tuple[IndexLabel, ...] = ()

    def __post_init__(self) -> None:
        labels = self.labels
        if type(labels) is not tuple or any(type(lbl) is not IndexLabel for lbl in labels):
            raise ValueError(f"bad index set labels: {labels!r}")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in index set")

    def __contains__(self, lbl: object) -> bool:
        return lbl in self.labels

    def __iter__(self) -> Iterator[IndexLabel]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


EMPTY_INDEX_SET = IndexSet()


def index_set(*labels: IndexLabel) -> IndexSet:
    return IndexSet(tuple(labels))


def disjoint_union(first: IndexSet, second: IndexSet) -> IndexSet:
    """Tag every label of ``first`` Left and of ``second`` Right.

    The result always has len(first) + len(second) labels; tagging keeps the
    two sides apart even when the operands share names.
    """
    return IndexSet(
        tuple(left(lbl) for lbl in first) + tuple(right(lbl) for lbl in second)
    )


# ---------------------------------------------------------------------------
# payload tokens and the value tree


class PayloadToken(Record):
    """An opaque element of an abstract set, identified by sort and number."""

    sort: str
    ident: int

    def __post_init__(self) -> None:
        if not valid_sort(self.sort):
            raise ValueError(f"bad token sort: {self.sort!r}")
        if type(self.ident) is not int or self.ident < 0:
            raise ValueError(f"bad token ident: {self.ident!r}")


# The value classes are hash-consed (Filliâtre & Conchon, "Type-Safe Modular
# Hash-Consing", ML Workshop 2006): every node is built through its class's
# intern table, keyed by its children (which hash and compare by identity)
# or by a payload's token, so structurally equal values are one object,
# ``==`` and ``hash`` are the identity ones, and a memo keyed by ``id`` hits
# on every copy of a subtree. A table holds its nodes weakly, as
# ``weakref.WeakValueDictionary`` does: each entry is a weak reference that
# carries its key, and its callback drops the entry as soon as the node's
# refcount reaches zero, unless a node built since under the same key owns
# it by then.


class _Entry(weakref.ref):
    """An intern table's weak reference to a node, carrying the node's key.

    ``weakref.KeyedRef`` would do, but its constructor runs in Python on
    every new node; this one is built in C and given its key after."""

    __slots__ = ("key",)


def _intern_table() -> tuple[dict, Callable[[_Entry], None]]:
    """An empty table and the callback that drops a dead entry from it."""
    table: dict = {}

    def drop(entry: _Entry, remove=_remove_dead_weakref) -> None:
        remove(table, entry.key)

    return table, drop


def _enter(table: dict, key: Any, node: _Node, drop: Callable[[_Entry], None]) -> _Node:
    """Enter ``node`` in ``table`` under ``key`` and return it, or return
    the live node that another thread entered under ``key`` first.

    ``dict.setdefault`` looks up and inserts in one step, so two threads
    building equal values enter one node without a lock. An entry whose
    node has died but whose callback has not run yet is removed first."""
    entry = _Entry(node, drop)
    entry.key = key
    while True:
        winner = table.setdefault(key, entry)
        if winner is entry:
            return node
        other = winner()
        if other is not None:
            return other
        _remove_dead_weakref(table, key)


class _Node:
    """A value node: immutable, compared and hashed by identity, printed as a record is."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()
    __setattr__, __delattr__, __repr__ = Record.__setattr__, Record.__delattr__, Record.__repr__

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


_new_node = object.__new__


class _Unary(_Node):
    """A node with one field, which is its key. Each subclass names the
    field in ``__match_args__``; ``_field`` is that field's slot, ``_table``
    and ``_drop`` its class's intern table and callback."""

    __slots__ = ()
    _field: Any
    _table: dict
    _drop: Callable[[_Entry], None]

    def __new__(cls, field: GenericValue | PayloadToken):
        entry = cls._table.get(field)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = _new_node(cls)
        cls._field.__set__(node, field)
        return _enter(cls._table, field, node, cls._drop)


class TT(_Node):
    """The unit value: one object."""

    __slots__ = ()

    def __new__(cls) -> "TT":
        return _TT


class Refl(_Node):
    """The sole witness of an index equality: one object."""

    __slots__ = ()

    def __new__(cls) -> "Refl":
        return _REFL


_TT = _new_node(TT)
_REFL = _new_node(Refl)


class In1(_Unary):
    __slots__ = ("value",)
    __match_args__ = ("value",)
    value: "GenericValue"


class In2(_Unary):
    __slots__ = ("value",)
    __match_args__ = ("value",)
    value: "GenericValue"


class Roll(_Unary):
    """One layer of a fixed point."""

    __slots__ = ("inner",)
    __match_args__ = ("inner",)
    inner: "GenericValue"


class Konst(_Unary):
    """A constant-set inhabitant in the named-code universe."""

    __slots__ = ("inner",)
    __match_args__ = ("inner",)
    inner: "GenericValue"


class RecV(_Unary):
    """A recursive-reference inhabitant in the named-code universe."""

    __slots__ = ("inner",)
    __match_args__ = ("inner",)
    inner: "GenericValue"


class Pair(_Node):
    """Keyed by the tuple of its children."""

    __slots__ = ("first", "second")
    __match_args__ = ("first", "second")
    first: "GenericValue"
    second: "GenericValue"

    def __new__(cls, first: GenericValue, second: GenericValue) -> "Pair":
        key = (first, second)
        entry = _PAIRS.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = _new_node(cls)
        _set_first(node, first)
        _set_second(node, second)
        return _enter(_PAIRS, key, node, _drop_pair)


class Payload(_Unary):
    """Keyed by its token, which compares by value."""

    __slots__ = ("token",)
    __match_args__ = ("token",)
    token: PayloadToken


# Each class's ``__new__`` names its field parameter as ``repr`` prints it,
# so that ``Roll(inner=x)`` works.
for _cls in (In1, In2, Roll, Konst, RecV, Payload):
    _name = _cls.__match_args__[0]
    _cls._field = _cls.__dict__[_name]
    _cls._table, _cls._drop = _intern_table()
    _cls.__new__ = staticmethod(_copy(_Unary.__new__, _cls, "__new__", {"field": _name}))
_PAIRS, _drop_pair = _intern_table()
Pair._table = _PAIRS
_set_first, _set_second = Pair.first.__set__, Pair.second.__set__

GenericValue = Union[TT, In1, In2, Pair, Roll, Payload, Refl, Konst, RecV]


def payload(sort: str, ident: int) -> Payload:
    return Payload(PayloadToken(sort, ident))


def value_size(v: GenericValue) -> int:
    """Number of nodes in the tree; every constructor counts one.

    A loop over an explicit stack, so depth is bounded by memory."""
    count = 0
    pending = [v]
    while pending:
        v = pending.pop()
        while True:  # down the leftmost path, putting second children aside
            count += 1
            t = type(v)
            if t is Roll or t is Konst or t is RecV:
                v = v.inner
            elif t is In1 or t is In2:
                v = v.value
            elif t is Pair:
                pending.append(v.second)
                v = v.first
            elif t is TT or t is Refl or t is Payload:
                break
            else:
                raise MalformedValue(f"not a generic value: {v!r}")
    return count


class _Closer(str):
    """Text that print_value emits once the subtree above it is printed;
    its own type keeps it apart from a value on the stack."""

    __slots__ = ()


_ROLL_END, _PAIR_SEP, _PAIR_END = _Closer(">"), _Closer(" , "), _Closer(")")


def print_value(v: GenericValue) -> str:
    """Canonical concrete syntax: single spaces, minimal brackets.

    A loop over an explicit stack of closers and second children, which
    appends fragments and joins them once: linear time, and depth bounded by
    memory."""
    out: list[str] = []
    emit = out.append
    pending: list = []
    while True:
        t = type(v)
        if t is Roll:
            emit("<")
            pending.append(_ROLL_END)
            v = v.inner
            continue
        if t is In2:
            emit("in2 ")
            v = v.value
            continue
        if t is In1:
            emit("in1 ")
            v = v.value
            continue
        if t is Pair:
            emit("(")
            pending += (_PAIR_END, v.second, _PAIR_SEP)
            v = v.first
            continue
        if t is Konst:
            emit("k ")
            v = v.inner
            continue
        if t is RecV:
            emit("rec ")
            v = v.inner
            continue
        if t is TT:
            emit("tt")
        elif t is Refl:
            emit("refl")
        elif t is Payload:
            token = v.token
            try:
                emit(f"{token.sort}#{token.ident}")
            except ValueError:  # more digits than Python writes from an int
                limit = f"{sys.get_int_max_str_digits()} digits"
                raise MalformedValue(f"token {token.sort}# has a nat of more than {limit}") from None
        else:
            raise MalformedValue(f"not a generic value: {v!r}")
        # a leaf is out: emit the closers down to the next second child
        while pending:
            v = pending.pop()
            if type(v) is not _Closer:
                break
            emit(v)
        else:
            return "".join(out)


# ---------------------------------------------------------------------------
# slots shared by the universes


class PayloadSlot(Record):
    """Accepts the payload tokens of one sort.

    The sort "⊤" is the unit set: it accepts exactly ``tt`` and no token.
    """

    sort: str

    def __post_init__(self) -> None:
        if not valid_sort(self.sort):
            raise ValueError(f"bad slot sort: {self.sort!r}")


TOP_SLOT = PayloadSlot(TOP_SORT)


class EmptySlot(Record):
    """Accepts nothing; realizes the empty parameter set."""


def payload_slot_accepts(slot: PayloadSlot, v: GenericValue) -> bool:
    if slot.sort == TOP_SORT:
        return type(v) is TT
    return isinstance(v, Payload) and v.token.sort == slot.sort


# ---------------------------------------------------------------------------
# value transformers


Transformer = Callable[[GenericValue], GenericValue]


def identity(v: GenericValue) -> GenericValue:
    return v


def token_successor(v: GenericValue) -> GenericValue:
    """Send each payload token to the next one of its sort."""
    if not isinstance(v, Payload):
        raise MalformedValue(f"token_successor needs a payload, got {print_value(v)}")
    return Payload(PayloadToken(v.token.sort, v.token.ident + 1))


def compose(outer: Transformer, inner: Transformer) -> Transformer:
    def composed(v: GenericValue) -> GenericValue:
        return outer(inner(v))

    return composed

"""Value-level generic programming over five universes of codes.

All universes interpret their codes into one shared tree of generic values,
so conformance is a judgment, generic operations are tree transformations,
and the embeddings between universes are checkable functions rather than
type-level claims.

``import genrep`` loads the core that every command needs: ``gvalue``,
``spine``, the five universes, ``embed`` and ``corpus``. ``dsl``, ``oracle``
and ``cli`` load on first use, and so do the names the package re-exports
from them: the ``parse_*`` functions, ``EnumBudget``, ``run_property``,
``main`` and ``run_cli``.
"""

from importlib import import_module

from .gvalue import (
    EmptySlot,
    FuelExhausted,
    GenericValue,
    In1,
    In2,
    IndexLabel,
    IndexNotInSet,
    IndexSet,
    Konst,
    MalformedValue,
    Pair,
    ParseError,
    Payload,
    PayloadSlot,
    PayloadToken,
    RecV,
    Refl,
    Roll,
    TT,
    UnknownProperty,
    disjoint_union,
    index_set,
    label,
    left,
    payload,
    print_label,
    print_value,
    right,
    value_size,
)
from . import corpus, embed, indexed, instant, multirec, polyp, regular
from .embed import ConversionReport, compose_path

# name -> the module that defines it, imported on first access (PEP 562)
_ON_FIRST_USE = {
    "dsl": "dsl",
    "oracle": "oracle",
    "cli": "cli",
    "main": "cli",
    "run_cli": "cli",
    "parse_code": "dsl",
    "parse_env": "dsl",
    "parse_label": "dsl",
    "parse_value": "dsl",
    "EnumBudget": "oracle",
    "run_property": "oracle",
}


def __getattr__(name: str):
    home = _ON_FIRST_USE.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value

__all__ = [
    "EmptySlot",
    "FuelExhausted",
    "GenericValue",
    "In1",
    "In2",
    "IndexLabel",
    "IndexNotInSet",
    "IndexSet",
    "Konst",
    "MalformedValue",
    "Pair",
    "Payload",
    "PayloadSlot",
    "PayloadToken",
    "RecV",
    "Refl",
    "Roll",
    "TT",
    "disjoint_union",
    "index_set",
    "label",
    "left",
    "payload",
    "print_label",
    "print_value",
    "right",
    "value_size",
    "corpus",
    "dsl",
    "embed",
    "indexed",
    "instant",
    "multirec",
    "oracle",
    "polyp",
    "regular",
    "main",
    "run_cli",
    "ParseError",
    "parse_code",
    "parse_env",
    "parse_label",
    "parse_value",
    "ConversionReport",
    "compose_path",
    "EnumBudget",
    "UnknownProperty",
    "run_property",
]

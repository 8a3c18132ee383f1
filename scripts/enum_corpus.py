#!/usr/bin/env python3
"""Enumerate every corpus code up to a size ceiling and print the values.

    python3 scripts/enum_corpus.py --max-size 9
"""

import argparse
import sys

from genrep import print_label, print_value
from genrep.corpus import CODES, INSTANT_ENVS
from genrep.embed import contexts
from genrep.oracle import EnumBudget, enum_context


def _show(heading, values):
    print(f"-- {heading}: {len(values)} values")
    for v in values:
        print(print_value(v))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=9)
    args = parser.parse_args(argv)
    try:
        budget = EnumBudget(max_size=args.max_size)
    except ValueError as err:
        parser.error(str(err))

    for universe, codes in CODES.items():
        for name, code in codes.items():
            for ctx in contexts(universe, code, INSTANT_ENVS.get(name)):
                at = "" if ctx.at is None else f" at {print_label(ctx.at)}"
                _show(f"{universe} {name}{at}", enum_context(ctx, budget))
    return 0


if __name__ == "__main__":
    sys.exit(main())

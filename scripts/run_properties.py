#!/usr/bin/env python3
"""Run registered property suites and summarize each report.

Without arguments every property runs at the default size.  Pass names to
restrict the sweep, or a size to push the enumerators further:

    python3 scripts/run_properties.py --max-size 12 iso-r-p transport-r-p
"""

import argparse
import sys
import time

from genrep import print_value
from genrep.oracle import EnumBudget, property_names, run_property


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="property ids (default: all)")
    parser.add_argument("--max-size", type=int, default=10)
    parser.add_argument("--list", action="store_true", help="list ids and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in property_names():
            print(name)
        return 0

    unknown = [name for name in args.names if name not in property_names()]
    if unknown:
        parser.error(f"unknown property: {unknown[0]}")
    try:
        budget = EnumBudget(max_size=args.max_size)
    except ValueError as err:
        parser.error(str(err))
    names = args.names or property_names()
    failed = 0
    for name in names:
        start = time.perf_counter()
        report = run_property(name, budget=budget)
        elapsed = time.perf_counter() - start
        verdict = "ok" if report.ok() else "FAIL"
        print(f"{verdict} {name}: checked {report.checked_count} in {elapsed:.2f}s")
        for value, direction, reason in report.failures:
            print(f"  failure: {direction} {print_value(value)}: {reason}")
        failed += 0 if report.ok() else 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

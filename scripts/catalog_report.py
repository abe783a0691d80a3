#!/usr/bin/env python3
"""Verify every catalog surface claim and dump the JSON report."""

import argparse
import json
import sys

from gaussmin.catalog import verify_catalog


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tolerance", type=float, default=1e-5)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    results = verify_catalog(args.tolerance)
    passed = all(r["pass"] for r in results)
    worst = max(r["residual"] for r in results)
    text = json.dumps(results, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"catalog: {'all claims hold' if passed else 'FAILURES'} "
        f"(worst residual {worst:.3e} at tolerance {args.tolerance:g})",
        file=sys.stderr,
    )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

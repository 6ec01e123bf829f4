"""Command-line interface.

Subcommands:
  catalog list                     catalog entries with orders and flags
  classes <entry>                  conjugacy class table of one entry
  verify <suite> [...]             run a verification suite
  bound <claim-id> [--grid ...]    certify a closed-form grid claim
  chartab <entry> --p P            character table and rationality counts

Exit status is 0 only when every asserted case passes; skipped cases are
listed but do not fail the run.  An unknown entry, one outside a resource
cap (e.g. a character table with more classes than `chartab.MAX_CLASSES`) or
a `bound` grid point outside its claim's domain exits 2 with a one-line
message on stderr.

The one disk cache, of verified character tables, is set by the
environment variable `REGCLASS_CACHE_DIR` alone; no subcommand takes a cache
option.  Class tables are always enumerated.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, harness, liebounds
from .catalog import default_catalog, entry_by_key
from .chartab import character_count_report
from .numtheory import factorize
from .permgroup import ResourceLimitError, class_counts


def _cmd_catalog(args) -> int:
    if args.action != "list":
        print(f"unknown catalog action {args.action!r}", file=sys.stderr)
        return 2
    for e in sorted(default_catalog(), key=lambda e: (e.order, e.key)):
        flags = []
        if e.simple:
            flags.append("simple")
        if e.solvable:
            flags.append("solvable")
        print(f"{e.key:28} order {e.order:>10}  {' '.join(flags)}")
    return 0


def _cmd_classes(args) -> int:
    entry_by_key(args.entry)  # validate the key early
    table = harness.class_table_for(args.entry)
    print(f"{args.entry}: order {table.group.order}, "
          f"{len(table)} classes, exponent {table.exponent}")
    for i, c in enumerate(table.classes):
        print(f"  {i:3}  order {c.order:>6}  size {c.size:>8}")
    return 0


def _cmd_verify(args) -> int:
    report = harness.SUITES[args.suite]()
    sys.stdout.write(harness.emit_report(report, "text").decode())
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(harness.emit_report(report, "json"))
    return 0 if report.passed else 1


def _cmd_bound(args) -> int:
    grid = tuple(args.grid) if args.grid else None
    certs, exceptions = liebounds.grid_certify(args.claim_id, grid=grid)
    for c in certs:
        verdict = {-1: "LESS", 0: "EQUAL", 1: "GREATER", 2: "INDET"}[c.verdict]
        print(f"  q={c.point[0]:>6}  lhs={c.lhs}  {verdict}")
    claim = liebounds.claim_info(args.claim_id)
    print(f"claim {args.claim_id}: computed exceptions {sorted(exceptions)}, "
          f"declared {sorted(claim.expected_exceptions)}")
    return 0 if set(exceptions) == set(claim.expected_exceptions) else 1


def _cmd_chartab(args) -> int:
    order = entry_by_key(args.entry).order
    primes = factorize(order).primes()
    if args.p is not None and args.p not in primes:
        print(f"p={args.p} is not a prime dividing the group order {order}",
              file=sys.stderr)
        return 2
    ct = harness.character_table_for(args.entry)
    table = harness.class_table_for(args.entry)
    print(f"{args.entry}: {len(ct.degrees)} irreducible characters, "
          f"degrees {sorted(ct.degrees)}")
    for p in ([args.p] if args.p is not None else primes):
        rep = character_count_report(ct, p)
        cc = class_counts(table, p)
        cmp_word = {-1: "<", 0: "=", 1: ">"}[rep.union_vs_bound]
        print(f"  p={p:>3}: p-rational {rep.n_p_rational}, "
              f"p'-rational {rep.n_p_prime_rational}, "
              f"union {rep.n_union} {cmp_word} 2*sqrt(p-1); "
              f"k_p'={cc.k_p_prime}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regclass",
        description="exact verification of conjugacy-class and character "
                    "count bounds")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="inspect the group catalog")
    p_cat.add_argument("action", choices=["list"])
    p_cat.set_defaults(func=_cmd_catalog)

    p_cls = sub.add_parser("classes", help="conjugacy class table of an entry")
    p_cls.add_argument("entry")
    p_cls.set_defaults(func=_cmd_classes)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(harness.SUITES))
    p_ver.add_argument("--json", help="also write the JSON report here")
    p_ver.set_defaults(func=_cmd_verify)

    p_bnd = sub.add_parser("bound", help="certify a grid claim")
    p_bnd.add_argument("claim_id", choices=liebounds.grid_claims())
    p_bnd.add_argument("--grid", type=int, nargs="+",
                       help="override the declared grid points")
    p_bnd.set_defaults(func=_cmd_bound)

    p_cht = sub.add_parser("chartab", help="character table of an entry")
    p_cht.add_argument("entry")
    p_cht.add_argument("--p", type=int, default=None)
    p_cht.set_defaults(func=_cmd_chartab)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ResourceLimitError, liebounds.GridPointError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Walk through the class-counting engine on a few catalog groups.

For each group we enumerate conjugacy classes exactly, split them by a prime
p into classes of p-elements, p-regular classes, and mixed classes, and then
certify the bound k_p + k_{p'} >= 2*sqrt(p-1) with pure integer arithmetic
(no floating point anywhere: the comparison squares both sides).

Run:  python3 demos/demo_class_counts.py
"""

from regclass.catalog import entry_by_key
from regclass.numtheory import EQUAL, GREATER, cmp_threshold, factorize
from regclass.permgroup import class_counts, conjugacy_classes

VERDICT = {GREATER: ">", EQUAL: "="}


def describe(key: str) -> None:
    entry = entry_by_key(key)
    group, _ = entry.build()
    table = conjugacy_classes(group)
    print(f"{key}: order {group.order}, {len(table)} conjugacy classes")
    print(f"  class sizes: {list(table.sizes)}")
    for p in factorize(group.order).primes():
        cc = class_counts(table, p)
        total = cc.k_p + cc.k_p_prime
        cmp = cmp_threshold(total, p)
        sym = VERDICT.get(cmp, "<")
        print(f"  p = {p:3}:  k_p = {cc.k_p:3}  k_p' = {cc.k_p_prime:3}  "
              f"sum {total:3} {sym} 2*sqrt({p - 1})")
    print()


def main() -> None:
    print("Exact per-prime class counts and the 2*sqrt(p-1) bound")
    print("=" * 60)
    for key in ("sym(5)", "psl2(7)", "sl2(5)", "frobenius(17,4)",
                "frobenius(101,10)", "sp4(2)"):
        describe(key)
    print("Note the Frobenius groups C_p x| C_d with d = sqrt(p-1): they are")
    print("the only groups meeting the bound with equality, which the")
    print("verification harness (regclass verify thm1) checks catalog-wide.")


if __name__ == "__main__":
    main()

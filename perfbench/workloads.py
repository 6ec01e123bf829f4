"""The four workloads: what one repetition runs and how its outputs are checked.

Every step calls the public `regclass.harness`, `regclass.liebounds` and
`regclass.autorbits` API through the module attribute, so a tracer that
rebinds those names sees the calls.  An operation is one verdict case, one
frozen value or one seeded `class_of` check; it fails on a `fail` verdict,
an exception or a mismatch against `frozen.json`.

The suites are deterministic; the seed picks the group elements that the
`class_of` step classifies.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from regclass import autorbits, catalog, harness, liebounds
from regclass.permgroup import perm_order

FROZEN_PATH = Path(__file__).with_name("frozen.json")

# the rungs of the ROADMAP ladder whose enumeration fits one repetition
LADDER = ("sym(7)", "psl2(32)", "sp4(3)")
CHARTAB_MID = ("psl2(27)", "psl3_with_duality(4)", "frobenius(101,10)",
               "cyclic(30)")
SMALL_DRAWS = ("sym(6)", "sl2(11)", "frobenius(101,10)")
# the table1 groups whose warm thm3 fits one repetition
CACHE_GROUPS = ("alt(5)", "psl2(7)", "psl2(8)", "psl2(9)", "psl2(11)")

# workload -> (groups its suite runs on, groups drawn from, draws per group)
INPUTS = {"classes-large": (LADDER, LADDER, 256),
          "chartab-mid": (CHARTAB_MID, CHARTAB_MID, 64),
          "small-sweep": ((), SMALL_DRAWS, 64),
          "cache-reload": (CACHE_GROUPS, CACHE_GROUPS, 16)}


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def step(self, what: str, fn):
        """Run one step; an exception fails one operation and yields None."""
        try:
            return fn()
        except Exception as exc:  # the repetition goes on to its other steps
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None


@dataclass
class Plan:
    """The generated inputs of one repetition (its set-up work)."""
    entries: list
    draws: list  # (catalog key, seeded Random, number of draws)


def make_plan(workload: str, seed: int) -> Plan:
    groups, keys, n = INPUTS[workload]
    return Plan([catalog.entry_by_key(k) for k in groups],
                [(k, random.Random(f"{seed}:{k}"), n) for k in keys])


def _plain(value):
    return json.loads(json.dumps(value))


def check_report(ledger: Ledger, report, frozen: dict) -> None:
    if report is None:
        return
    got = {c.id: [c.verdict, _plain(c.computed)] for c in report.cases}
    for cid in sorted(frozen.keys() | got.keys()):
        have, want = got.get(cid), frozen.get(cid)
        ledger.check(have is not None and have[0] != "fail" and have == want,
                     f"{report.suite} {cid}: got {have}, frozen {want}")


def check_draws(ledger: Ledger, plan: Plan) -> None:
    for key, rng, n in plan.draws:
        group, _ = harness.built_entry(key)
        table = harness.class_table_for(key)
        for _ in range(n):
            g = group.random_element(rng)
            order, want = table.classes[table.class_of(g)].order, perm_order(g)
            ledger.check(order == want, f"class_of {key}: class order "
                         f"{order}, element order {want}")


def check_table1_rows(ledger: Ledger, keys, frozen: dict) -> None:
    """The `verify_table1` rows of the given groups, computed the way the
    suite computes them."""
    for label, key, p, _ in harness.TABLE1_DEFAULT_ROWS:
        if key in keys:
            n = autorbits.orbit_counts(harness.fused_partition(key),
                                       harness.class_table_for(key),
                                       p).n_pregular
            want = frozen[f"{label}:p={p}"]
            ledger.check(n == want, f"table1 {label} p={p}: {n} != {want}")


def classes_large(ledger, plan, frozen, phase, reports):
    check_report(ledger, ledger.step("thm2", lambda: harness.verify_theorem2(
        entries=plan.entries)), frozen["thm2"])
    ledger.step("table1 rows", lambda: check_table1_rows(
        ledger, ("psl2(32)",), frozen["table1"]))
    ledger.step("class_of", lambda: check_draws(ledger, plan))


def chartab_mid(ledger, plan, frozen, phase, reports):
    check_report(ledger, ledger.step("thm3", lambda: harness.verify_theorem3(
        entries=plan.entries)), frozen["thm3"])
    for e in plan.entries:
        degrees = ledger.step(f"degrees {e.key}", lambda: list(
            harness.character_table_for(e.key).degrees))
        ledger.check(degrees == frozen["degrees"][e.key],
                     f"degrees {e.key}: {degrees}")
    ledger.step("class_of", lambda: check_draws(ledger, plan))


def small_sweep(ledger, plan, frozen, phase, reports):
    for suite, fn in (("thm1", harness.verify_theorem1),
                      ("lemma72", harness.verify_lemma72),
                      ("lemma81", harness.verify_lemma81)):
        check_report(ledger, ledger.step(suite, fn), frozen[suite])
    for claim, want in sorted(frozen["grid"].items()):
        got = ledger.step(claim, lambda: list(liebounds.grid_certify(claim)[1]))
        ledger.check(got == want, f"grid {claim}: exceptions {got} != {want}")
    ledger.step("class_of", lambda: check_draws(ledger, plan))


def cache_reload(ledger, plan, frozen, phase, reports):
    """`phase` "fill" computes and saves into an empty REGCLASS_CACHE_DIR and
    writes its report to `reports`; "timed" reruns from the filled directory
    and compares its report with the cold one, durations aside."""
    rep = ledger.step("thm3", lambda: harness.verify_theorem3(
        entries=plan.entries))
    check_report(ledger, rep, frozen["thm3"])
    ledger.step("table1 rows", lambda: check_table1_rows(
        ledger, CACHE_GROUPS, frozen["table1"]))
    ledger.step("class_of", lambda: check_draws(ledger, plan))
    if rep is None:
        return
    doc = json.loads(harness.emit_report(rep))
    del doc["meta"]["duration_ms"]
    if phase == "fill":
        Path(reports).write_text(json.dumps(doc))
        return
    cold = ledger.step("cold report", lambda: json.loads(
        Path(reports).read_text()))
    ledger.check(doc == cold, "warm thm3 report differs from the cold one")


WORKLOADS = {"classes-large": classes_large, "chartab-mid": chartab_mid,
             "small-sweep": small_sweep, "cache-reload": cache_reload}


def load_frozen(workload: str) -> dict:
    return json.loads(FROZEN_PATH.read_text())[workload]


"""Per-layer spans and counters, recorded from outside the engine.

The tracer replaces chosen functions and methods of the `regclass` modules
by wrappers that time each call.  A module-level name is resolved when the
call runs, so a wrapper sees every caller only if it replaces every binding
of the function: `harness` imports `conjugacy_classes`, `load_class_table`
and `quotient_group` by name, and patching `permgroup` alone would miss the
calls the suites make.  `Tracer.install` therefore rebinds every attribute of
every `regclass` module that is the original function.  Methods are patched
once, on their class.

Times are self times: a span's duration minus the durations of the spans it
directly encloses.  Two kinds of span report inclusive time instead: the
suites (`harness.suite.*`) and `chartab.character_table`, whose self time is
reported separately as `chartab.lift.s`.  `trace.unattributed_s` is the traced
wall time minus the self time of every span other than a suite; it holds the
suites' own loops, the leaf helpers (`numtheory`, `gf`) they call, and the
benchmark's own checks.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time
from collections import defaultdict

MODULES = ("permgroup", "gf", "catalog", "autorbits", "chartab", "liebounds",
           "harness", "cli", "numtheory")

SUITES = {"verify_theorem1": "thm1", "verify_theorem2": "thm2",
          "verify_theorem3": "thm3", "verify_table1": "table1",
          "verify_lemma72": "lemma72", "verify_lemma81": "lemma81"}

# (span name, owner within regclass, attribute); an owner with a dot is a class
SPANS = (
    ("catalog.build", "catalog.CatalogEntry", "build"),
    ("permgroup.chain", "permgroup.StabilizerChain", "__init__"),
    ("permgroup.conjugacy_classes", "permgroup", "conjugacy_classes"),
    ("permgroup.class_of", "permgroup.ClassTable", "class_of"),
    ("permgroup.power_class_map", "permgroup", "power_class_map"),
    ("permgroup.quotient_group", "permgroup", "quotient_group"),
    ("permgroup.load_class_table", "permgroup", "load_class_table"),
    ("permgroup.save_class_table", "permgroup", "save_class_table"),
    ("autorbits.fuse_classes", "autorbits", "fuse_classes"),
    ("chartab.character_table", "chartab", "character_table"),
    ("chartab.class_matrix", "chartab", "class_matrix"),
    ("chartab.eigen_split", "chartab", "_solve_coords"),
    ("chartab.eigen_split", "chartab", "_charpoly_mod"),
    ("chartab.eigen_split", "chartab", "_poly_roots_mod"),
    ("chartab.eigen_split", "chartab", "_nullspace_mod"),
    ("chartab.exact_orthogonality", "chartab", "_verify_exact_orthogonality"),
    ("chartab.brauer_cross_check", "chartab", "brauer_cross_check"),
    ("chartab.load_character_table", "chartab", "load_character_table"),
    ("chartab.save_character_table", "chartab", "save_character_table"),
    ("liebounds.grid_certify", "liebounds", "grid_certify"),
) + tuple((f"harness.suite.{short}", "harness", attr)
          for attr, short in SUITES.items())

# counted but not timed: these run millions of times inside timed spans
COUNTS = (("chartab.galois", "chartab.CycValue", "galois"),)

INCLUSIVE = {"chartab.character_table"} | {
    f"harness.suite.{short}" for short in SUITES.values()}

# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    ("catalog.build.s", "s"), ("catalog.build.calls", "count"),
    ("permgroup.chain.s", "s"), ("permgroup.chain.calls", "count"),
    ("permgroup.conjugacy_classes.s", "s"),
    ("permgroup.conjugacy_classes.calls", "count"),
    ("permgroup.conjugacy_classes.elements", "count"),
    ("permgroup.conjugacy_classes.useful_ratio", "ratio"),
    ("permgroup.class_of.calls", "count"), ("permgroup.class_of.s", "s"),
    ("permgroup.class_of.per_s", "1/s"),
    ("permgroup.power_class_map.calls", "count"),
    ("permgroup.power_class_map.s", "s"),
    ("permgroup.quotient_group.s", "s"),
    ("permgroup.load_class_table.s", "s"),
    ("permgroup.save_class_table.s", "s"),
    ("autorbits.fuse_classes.calls", "count"),
    ("autorbits.fuse_classes.s", "s"),
    ("chartab.character_table.s", "s"), ("chartab.class_matrix.s", "s"),
    ("chartab.class_matrix.calls", "count"), ("chartab.eigen_split.s", "s"),
    ("chartab.exact_orthogonality.s", "s"), ("chartab.lift.s", "s"),
    ("chartab.brauer_cross_check.s", "s"), ("chartab.galois.calls", "count"),
    ("chartab.load_character_table.s", "s"),
    ("chartab.save_character_table.s", "s"),
) + tuple((f"harness.suite.{short}.s", "s") for short in SUITES.values()) + (
    ("harness.cache.computed", "count"), ("harness.cache.loaded", "count"),
    ("harness.cache.rejected", "count"), ("harness.cache.saved", "count"),
    ("harness.cache.bytes", "bytes"),
    ("liebounds.grid_certify.s", "s"), ("liebounds.grid_certify.points", "count"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def group_digest(group) -> str:
    """Identity of a permutation group by its degree and generators."""
    h = hashlib.blake2b(digest_size=12)
    h.update(str(group.degree).encode())
    for g in sorted(g.tobytes() for g in group.generators):
        h.update(g)
    return h.hexdigest()


class Tracer:
    """Span stack and counters for one process.

    `clock` is injectable so the self-time arithmetic can be tested with a
    fake clock."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # [name, start, time in child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.groups: set[str] = set()
        self.rejected: list[str] = []
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = self._clock() - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if all(frame[0] != name for frame in self._stack):
            self.incl_s[name] += dur  # outermost frame of a recursive name
        if self._stack:
            self._stack[-1][2] += dur

    def timed(self, name, fn, on_return=None, on_raise=None):
        """`fn` wrapped in a span; hooks see (args, kwargs, result|exc)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.exit()
                if on_raise is not None:
                    on_raise(args, kwargs, exc)
                raise
            self.exit()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out
        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks for counters measured where the work happens -----------------

    def _hooks(self, span: str, attr: str):
        def computed(args, kwargs, out):
            self.counts["harness.cache.computed"] += 1

        def classes_computed(args, kwargs, out):
            group = _arg(args, kwargs, 0, "group")
            self.counts["permgroup.conjugacy_classes.elements"] += group.order
            self.groups.add(group_digest(group))
            computed(args, kwargs, out)

        def loaded(args, kwargs, out):
            self.counts["harness.cache.loaded"] += 1

        def rejected(args, kwargs, exc):
            self.counts["harness.cache.rejected"] += 1
            self.rejected.append(f"{attr}: {type(exc).__name__}: {exc}")

        def saved(args, kwargs, out):
            self.counts["harness.cache.saved"] += 1
            self.counts["harness.cache.bytes"] += os.path.getsize(
                _arg(args, kwargs, 1, "path"))

        def points(args, kwargs, out):
            self.counts["liebounds.grid_certify.points"] += len(out[0])

        return {
            "permgroup.conjugacy_classes": (classes_computed, None),
            "chartab.character_table": (computed, None),
            "permgroup.load_class_table": (loaded, rejected),
            "chartab.load_character_table": (loaded, rejected),
            "permgroup.save_class_table": (saved, None),
            "chartab.save_character_table": (saved, None),
            "liebounds.grid_certify": (points, None),
        }.get(span, (None, None))

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every span and counter target in the `regclass` modules."""
        modules = [importlib.import_module(f"regclass.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for span, owner, attr in SPANS:
            self._patch(by_name, modules, owner, attr,
                        lambda fn, s=span, a=attr: self.timed(s, fn, *self._hooks(s, a)))
        for name, owner, attr in COUNTS:
            self._patch(by_name, modules, owner, attr,
                        lambda fn, n=name: self.counted(n, fn))

    def _patch(self, by_name, modules, owner, attr, make):
        mod_name, _, cls_name = owner.partition(".")
        if cls_name:
            cls = getattr(by_name[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(by_name[mod_name], attr)
        wrapped = make(original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def raw(self, wall_s: float) -> dict:
        """JSON-ready record of this process, merged across processes by
        `merge` before metrics are derived."""
        return {"wall_s": wall_s, "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "groups": sorted(self.groups),
                "rejected": list(self.rejected)}


def merge(raws: list[dict]) -> dict:
    """Sum the records of the processes of one repetition."""
    out = {"wall_s": 0.0, "self_s": defaultdict(float),
           "incl_s": defaultdict(float), "calls": defaultdict(int),
           "counts": defaultdict(int), "groups": set(), "rejected": []}
    for raw in raws:
        out["wall_s"] += raw["wall_s"]
        for key in ("self_s", "incl_s", "calls", "counts"):
            for name, value in raw[key].items():
                out[key][name] += value
        out["groups"].update(raw["groups"])
        out["rejected"].extend(raw["rejected"])
    return out


def layer_metrics(raw: dict) -> dict[str, float]:
    """Every PER_LAYER metric except `trace.overhead_s`, from a merged
    record; a layer the workload does not exercise reads 0."""
    self_s, incl_s = raw["self_s"], raw["incl_s"]
    calls, counts = raw["calls"], raw["counts"]
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue  # needs the untraced repetitions too: run.py adds it
        layer, _, kind = name.rpartition(".")
        if name in counts:
            out[name] = counts[name]
        elif kind == "calls":
            out[name] = calls.get(layer, 0)
        elif kind == "s" and layer in INCLUSIVE:
            out[name] = incl_s.get(layer, 0.0)
        elif kind == "s":
            out[name] = self_s.get(layer, 0.0)
        else:
            out[name] = counts.get(name, 0)
    out["chartab.lift.s"] = self_s.get("chartab.character_table", 0.0)
    n_cc = calls.get("permgroup.conjugacy_classes", 0)
    out["permgroup.conjugacy_classes.useful_ratio"] = (
        len(raw["groups"]) / n_cc if n_cc else 0.0)
    t_of = self_s.get("permgroup.class_of", 0.0)
    out["permgroup.class_of.per_s"] = (
        calls.get("permgroup.class_of", 0) / t_of if t_of > 0 else 0.0)
    out["trace.wall_s"] = raw["wall_s"]
    out["trace.unattributed_s"] = raw["wall_s"] - sum(
        t for name, t in self_s.items() if not name.startswith("harness.suite."))
    return out

"""Verification harness: reports, module-bound checks, small suites."""

import json
import re
import warnings
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regclass.harness import (CAPS, SCHEMA_VERSION, CaseRecord,
                              VerificationReport, check_module_bound,
                              chartab_feasible, emit_report,
                              is_sharp_frobenius, module_bound_fixtures,
                              parse_report, quotient_pairs, verify_lemma72,
                              verify_lemma81, verify_table1, verify_theorem2)
from regclass import chartab, harness
from regclass.harness import _cyclic_perm_group, class_table_for
from regclass.catalog import default_catalog, entry_by_key, vectors
from regclass.numtheory import GREATER
from regclass.permgroup import (CLASS_CAP, class_counts, conjugacy_classes,
                                power_class_map)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _sample_report():
    cases = (
        CaseRecord("a:1", "G1", 5, {"k": 3}, {"value": 3, "source": "recomputed"},
                   "pass"),
        CaseRecord("a:2", "G2", None, {"k": 4}, None, "skip", note="why"),
    )
    return VerificationReport(suite="a", cases=cases, duration_ms=12)


def test_report_roundtrip():
    r = _sample_report()
    blob = emit_report(r)
    r2 = parse_report(blob)
    assert r2 == r
    doc = json.loads(blob)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["summary"] == {"pass": 1, "fail": 0, "skip": 1}
    assert doc["meta"]["caps"] == CAPS


def test_report_text_format_and_flags():
    r = _sample_report()
    text = emit_report(r, fmt="text").decode()
    assert "suite a" in text and "PASS" in text and "SKIP" in text
    assert "[why]" in text
    assert r.passed
    failed = VerificationReport("b", (CaseRecord(
        "b:1", "G", 2, {}, None, "fail"),), 1)
    assert not failed.passed
    with pytest.raises(ValueError):
        emit_report(r, fmt="yaml")


def test_parse_report_rejects_unknown_schema():
    doc = json.loads(emit_report(_sample_report()))
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError):
        parse_report(json.dumps(doc).encode())


def test_empty_report():
    r = VerificationReport("empty", (), 0)
    assert r.passed and r.summary == {"pass": 0, "fail": 0, "skip": 0}
    assert parse_report(emit_report(r)) == r


# ---------------------------------------------------------------------------
# module-bound checks
# ---------------------------------------------------------------------------

def test_lemma72_reference_values():
    rep = verify_lemma72()
    assert rep.passed and rep.summary["pass"] == 3
    values = {c.id.split(":")[1]: c.computed["value"] for c in rep.cases}
    assert values == {"C2-on-GF5": 4, "C4-on-GF17": 8, "C2-on-GF7": 5}
    # sharpness occurs exactly where the bound is met with equality
    sharp = {c.id.split(":")[1]: c.computed["sharp"] for c in rep.cases}
    assert sharp == {"C2-on-GF5": True, "C4-on-GF17": True, "C2-on-GF7": False}


def test_check_module_bound_rejects_p_dividing_order():
    with pytest.raises(ValueError):
        check_module_bound(_cyclic_perm_group(5), 5, [((2,),)], "x")


def test_check_module_bound_rejects_non_homomorphism():
    # the generator of C2 mapped to an element of order 4 in GF(17)*
    with pytest.raises(ValueError, match="homomorphism"):
        check_module_bound(_cyclic_perm_group(2), 17, [((4,),)], "x")


def test_check_module_bound_rejects_unfaithful():
    # C4 acting through its quotient C2 (generator -> -1 mod 5)
    with pytest.raises(ValueError, match="faithful"):
        check_module_bound(_cyclic_perm_group(4), 5, [((4,),)], "x")


def test_check_module_bound_rejects_reducible():
    # diagonal action on GF(5)^2 with eigenvalues of full order: C4 faithful
    mat = ((2, 0), (0, 3))
    with pytest.raises(ValueError, match="irreducible"):
        check_module_bound(_cyclic_perm_group(4), 5, [mat], "x")


def test_check_module_bound_irreducible_2dim():
    # C3 acting irreducibly on GF(2)^2 by a matrix of order 3
    rec = check_module_bound(_cyclic_perm_group(3), 2, [((0, 1), (1, 1))], "c3")
    assert rec.verdict == "pass"
    # k(C3) = 3, orbits on V: {0} and the three nonzero vectors
    assert rec.computed == {"k_H": 3, "n_orbits": 2, "value": 4,
                            "threshold_cmp": 1, "sharp": False}


def _reference_spin_irreducible(p, dim, mats):
    """The spin as list arithmetic: each nonzero vector's images are reduced
    one at a time against the basis found so far."""
    for v in vectors(p, np.arange(1, p ** dim), dim).tolist():
        basis = []
        frontier = [v]
        while frontier:
            vec = _reference_reduce_against(frontier.pop(), basis, p)
            if vec is None:
                continue
            basis.append(vec)
            if len(basis) == dim:
                break
            for m in mats:
                frontier.append(
                    [sum(m[i][j] * vec[j] for j in range(dim)) % p
                     for i in range(dim)])
        if len(basis) < dim:
            return False
    return True


def _reference_reduce_against(vec, basis, p):
    vec = list(vec)
    for b in basis:
        lead = next(i for i, x in enumerate(b) if x)
        if vec[lead]:
            c = vec[lead] * pow(b[lead], -1, p) % p
            vec = [(x - c * y) % p for x, y in zip(vec, b)]
    return vec if any(vec) else None


@st.composite
def _linear_actions(draw):
    """p in {2, 3, 5, 7}, dim with p^dim <= 343, and one or two matrices."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(1, max(d for d in range(1, 9) if p ** d <= 343)))
    row = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    matrix = st.lists(row, min_size=dim, max_size=dim)
    return p, dim, draw(st.lists(matrix, min_size=1, max_size=2))


@given(_linear_actions())
def test_spin_matches_the_reference(case):
    p, dim, mats = case
    assert harness._spin_irreducible(p, dim, mats) == \
        _reference_spin_irreducible(p, dim, mats)


def test_is_sharp_frobenius():
    g, _ = entry_by_key("frobenius(17,4)").build()
    table = class_table_for("frobenius(17,4)")
    assert is_sharp_frobenius(g.order, class_counts(table, 17))
    assert not is_sharp_frobenius(g.order, class_counts(table, 2))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_verify_lemma81_suite():
    rep = verify_lemma81()
    assert rep.passed and rep.summary["fail"] == 0
    assert len(quotient_pairs()) >= 10
    assert rep.summary["pass"] >= 20  # several primes per pair
    # each note names the quotient's degree: (q^2 - 1)/2 on the orbit path
    notes = {c.group: c.note for c in rep.cases}
    assert notes["sl2(13)/center"] == "G/N on 84 points"
    assert notes["sym(4)/V4"] == "G/N on 6 points"


def test_verify_table1_default_shape():
    rep = verify_table1()
    assert rep.passed
    assert len(rep.cases) == 15
    assert rep.summary == {"pass": 15, "fail": 0, "skip": 0}
    by_id = {(c.group, c.p): c.computed["n_aut_pregular"]
             for c in rep.cases if c.verdict == "pass"}
    assert by_id[("A6", 5)] == 4
    assert by_id[("PSL2(81)", 41)] == 10


def test_theorem2_strong_clause_on_psl2_263():
    """psl2(263) is the first entry with a prime above 257, so the stronger
    k_p' > 2 sqrt(p-1) clause is checked, not recorded as vacuous."""
    rep = verify_theorem2(entries=[entry_by_key("psl2(263)")])
    assert rep.passed and rep.summary["skip"] == 0
    cases = {c.id: c for c in rep.cases}
    assert "thm2:p-above-257" not in cases
    deep = cases["thm2:psl2(263):p=263"]
    assert deep.verdict == "pass"
    assert deep.computed["k_p_prime"] == 132
    assert deep.computed["strong_cmp"] == GREATER


def test_one_class_cap_covers_the_catalog():
    assert CAPS["class_enumeration_cap"] == CLASS_CAP == 20_000_000
    assert "class_enumeration_cap_extended" not in CAPS
    assert max(e.order for e in default_catalog()) == 16_776_960 <= CLASS_CAP


def test_chartab_feasible():
    assert chartab_feasible(entry_by_key("psl2(7)"))
    # order above the character-table cap: rejected without any class work
    assert not chartab_feasible(entry_by_key("psl2(243)"))


# ---------------------------------------------------------------------------
# disk caches
# ---------------------------------------------------------------------------

@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A cache directory with nothing memoized in front of it."""
    monkeypatch.setenv("REGCLASS_CACHE_DIR", str(tmp_path))
    class_table_for.cache_clear()
    harness.character_table_for.cache_clear()
    yield tmp_path
    class_table_for.cache_clear()
    harness.character_table_for.cache_clear()


def test_class_tables_are_not_cached_on_disk(fresh_cache):
    """Only character tables go to the cache directory: a class table is
    enumerated afresh, and a stale class file there is never read."""
    key = "sym(4)"
    (fresh_cache / f"classes-{key}-v{harness.__version__}.txt").write_text("junk\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = class_table_for(key)
        harness.character_table_for(key)
    assert sorted(p.name for p in fresh_cache.iterdir()) == [
        f"chars-{key}-v{harness.__version__}.txt",
        f"classes-{key}-v{harness.__version__}.txt"]
    assert (fresh_cache / f"classes-{key}-v{harness.__version__}.txt").read_text() == "junk\n"
    fresh = conjugacy_classes(harness.built_entry(key)[0])
    assert (table.class_id == fresh.class_id).all()


def test_tampered_character_cache_warns_and_recomputes(fresh_cache):
    key = "alt(5)"
    harness.character_table_for(key)
    path = fresh_cache / f"chars-{key}-v{harness.__version__}.txt"
    lines = path.read_text().splitlines()
    assert lines[4].startswith("prime ")
    lines[4] = f"prime {int(lines[4].split()[1]) + 60}"
    path.write_text("\n".join(lines) + "\n")
    harness.character_table_for.cache_clear()
    with pytest.warns(UserWarning, match=rf"rejected cache file .*{re.escape(path.name)}"
                      r".*ConsistencyError"):
        ct = harness.character_table_for(key)
    fresh = chartab.character_table(harness.built_entry(key)[0],
                                    class_table_for(key))
    assert ct.degrees == fresh.degrees and ct.values == fresh.values


def _character_cache(fresh_cache, key):
    return fresh_cache / f"chars-{key}-v{harness.__version__}.txt"


def _tamper_rows(path, change):
    """Rewrite the body of a character cache file, one list of cell strings
    per row (the values mod P), as change(rows) returns it."""
    lines = path.read_text().splitlines()
    rows = change([ln.split(" ") for ln in lines[6:]])
    path.write_text("\n".join(lines[:6] + [" ".join(r) for r in rows]) + "\n")


def _reload_rejected(fresh_cache, key, reason):
    """The cache file is rejected with `reason`, and the table is recomputed
    equal to a fresh one and written back in the current format."""
    path = _character_cache(fresh_cache, key)
    harness.character_table_for.cache_clear()
    with pytest.warns(UserWarning, match=rf"rejected cache file "
                      rf".*{re.escape(path.name)}.*{reason}"):
        ct = harness.character_table_for(key)
    fresh = chartab.character_table(harness.built_entry(key)[0],
                                    class_table_for(key))
    assert ct.degrees == fresh.degrees and ct.values == fresh.values
    assert (ct.mod_values == fresh.mod_values).all()
    assert path.read_text().startswith("chartable-cache 2\n")
    harness.character_table_for.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the rewritten file loads cleanly
        assert harness.character_table_for(key).values == fresh.values


def _galois_images(key):
    """(row, class, image class, unit k) with chi_row(g^k) != chi_row(g) for
    g in the class, over the rows and units of key's table in order."""
    ct = harness.character_table_for(key)
    e = ct.exponent
    for k in (k for k in range(2, e) if gcd(k, e) == 1):
        image = power_class_map(ct.table, k)
        for r, row in enumerate(ct.mod_values):
            for j in np.flatnonzero(row[image] != row):
                yield r, int(j), int(image[j]), k


def test_galois_conjugate_cell_in_character_cache_is_rejected(fresh_cache):
    """One cell chi(g) replaced by its Galois image chi(g^k): the row keeps
    its values, only one moves."""
    key = "alt(5)"
    r, j, i, _ = next(_galois_images(key))

    def conjugate(rows):
        rows[r][j] = rows[r][i]
        return rows

    _tamper_rows(_character_cache(fresh_cache, key), conjugate)
    _reload_rejected(fresh_cache, key, "ConsistencyError")


def test_galois_image_row_in_character_cache_is_rejected(fresh_cache):
    """A row replaced by its Galois image, read along the power map g ->
    g^k: a character of the group, but now listed twice."""
    key = "alt(5)"
    r, _, _, k = next(_galois_images(key))
    image = power_class_map(harness.character_table_for(key).table, k)

    def conjugate(rows):
        rows[r] = [rows[r][i] for i in image]
        return rows

    _tamper_rows(_character_cache(fresh_cache, key), conjugate)
    _reload_rejected(fresh_cache, key, "mod-P row orthogonality failed")


def _with_cell(rows, text):
    rows[1][1] = text
    return rows


# name -> (the edit of the rows, given P; the reason the load gives)
_MALFORMED = {
    "changed-cell": (lambda rows, P: _with_cell(rows, "1"),
                     "ConsistencyError"),
    "value-P": (lambda rows, P: _with_cell(rows, str(P)),
                "out of range mod P"),
    "negative": (lambda rows, P: _with_cell(rows, "-1"), "out of range mod P"),
    "oversize": (lambda rows, P: _with_cell(rows, "99999999999999999999999"),
                 "out of range mod P"),
    "not-integer": (lambda rows, P: _with_cell(rows, "1:2"), "ValueError"),
    "short-row": (lambda rows, P: rows[:1] + [rows[1][:-1]] + rows[2:],
                  "malformed cache row"),
    "missing-row": (lambda rows, P: rows[:-1], "malformed cache row"),
    "extra-row": (lambda rows, P: rows + rows[-1:], "malformed cache row"),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_character_cache_is_rejected(fresh_cache, name):
    key = "alt(5)"
    ct = harness.character_table_for(key)
    assert ct.mod_values[1, 1] != 1  # so "changed-cell" changes it
    change, reason = _MALFORMED[name]
    _tamper_rows(_character_cache(fresh_cache, key),
                 lambda rows: change(rows, ct.modular_prime))
    _reload_rejected(fresh_cache, key, reason)


def test_version_1_character_cache_is_rejected(fresh_cache):
    """A file in the old format (degree, then sparse "s:m" multiplicities per
    class) is refused by its header and rewritten in the current one."""
    key = "alt(5)"
    ct = harness.character_table_for(key)
    path = _character_cache(fresh_cache, key)
    lines = path.read_text().splitlines()[:6]
    lines[0] = "chartable-cache 1"
    for d, row in zip(ct.degrees, ct.values):
        cells = (",".join(f"{s}:{m}" for s, m in zip(v.support, v.mults))
                 or "-" for v in row)
        lines.append(f"{d} " + " ".join(cells))
    path.write_text("\n".join(lines) + "\n")
    _reload_rejected(fresh_cache, key, "unrecognized cache header")

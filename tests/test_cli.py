"""Command-line interface: argument scope checks."""

import pytest

from regclass.chartab import MAX_CLASSES
from regclass.cli import main


@pytest.mark.parametrize("p", ["4", "1", "0", "7", "-5"])
def test_chartab_rejects_p_outside_the_primes_of_the_order(p, capsys):
    """alt(5) has order 60: 4 and 1 are not primes, 7 does not divide 60,
    and 0 must not be read as "every prime"."""
    assert main(["chartab", "alt(5)", "--p", p]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"p={p} is not a prime dividing the group order 60" in err


def test_chartab_reports_one_prime_or_all(capsys):
    assert main(["chartab", "alt(5)", "--p", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alt(5): 5 irreducible characters, degrees [1, 3, 3, 4, 5]"
    assert [ln.split(":")[0].strip() for ln in lines[1:]] == ["p=  5"]
    assert main(["chartab", "alt(5)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0].strip() for ln in lines[1:]] == [
        "p=  2", "p=  3", "p=  5"]


def test_chartab_outside_the_class_cap_exits_2(capsys):
    """psl2(128) has 129 classes, above the character-table cap: the refusal
    is one line on stderr and exit status 2, not a traceback."""
    assert main(["chartab", "psl2(128)"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"129 classes exceeds cap {MAX_CLASSES}\n"


@pytest.mark.parametrize("claim,q,message", [
    ("g2-pregular-orbit-threshold", "6", "grid point 6 is not a prime power"),
    ("g2-pregular-orbit-threshold", "1", "grid point 1 is not a prime power"),
    ("psl3-pregular-orbit-threshold", "0", "grid point 0 is not a prime power"),
    ("suzuki-pregular-orbit-threshold", "16", "grid point 16 is not 2^(2m+1)"),
    ("suzuki-pregular-orbit-threshold", "27", "grid point 27 is not 2^(2m+1)"),
])
def test_bound_rejects_a_grid_point_outside_the_claim(claim, q, message, capsys):
    """Exit status 2 and one line on stderr, before any point is printed;
    exit status 1 stays reserved for a claim whose exceptions differ."""
    assert main(["bound", claim, "--grid", "8", q]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


def test_bound_on_valid_grid_points(capsys):
    assert main(["bound", "g2-pregular-orbit-threshold", "--grid", "8", "9"]) == 1
    assert main(["bound", "g2-pregular-orbit-threshold", "--grid", "9"]) == 0
    assert main(["bound", "suzuki-pregular-orbit-threshold", "--grid", "128"]) == 0


def test_verify_has_no_max_order_option(capsys):
    """thm1 reads its order cap from `harness.CAPS`, which its report
    records; argparse refuses the option with exit status 2."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm1", "--max-order", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-order 5" in capsys.readouterr().err


def test_classes_has_no_cache_option(capsys):
    """The character-table cache is set by `REGCLASS_CACHE_DIR` alone; argparse
    refuses the option with exit status 2."""
    with pytest.raises(SystemExit) as exc:
        main(["classes", "alt(5)", "--cache", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache x" in capsys.readouterr().err

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

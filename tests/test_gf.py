"""Finite-field layer: axioms, Frobenius, primitive elements, the encoding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regclass.gf import make_field

FIELDS = [(2, 1), (2, 4), (2, 7), (3, 1), (3, 2), (3, 4), (5, 1), (5, 2),
          (7, 1), (13, 1), (17, 1), (2, 5)]


@pytest.fixture(scope="module", params=FIELDS, ids=lambda p: f"GF({p[0]}^{p[1]})")
def field(request):
    ell, f = request.param
    return make_field(ell, f)


@given(data=st.data())
def test_field_axioms(field, data):
    F = field
    a = data.draw(st.integers(0, F.q - 1))
    b = data.draw(st.integers(0, F.q - 1))
    c = data.draw(st.integers(0, F.q - 1))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.zero) == a
    assert F.mul(a, F.one) == a
    assert F.add(a, F.neg(a)) == F.zero
    assert F.sub(a, b) == F.add(a, F.neg(b))
    if a != F.zero:
        assert F.mul(a, F.inv(a)) == F.one


def test_element_enumeration(field):
    """The codes 0..q-1 are the q elements: the exp table lists every
    nonzero code once, and the log table inverts it."""
    F = field
    period = F._exp[:F.q - 1]
    assert sorted(period.tolist()) == list(range(1, F.q))
    assert (F._log[period] == np.arange(F.q - 1)).all()
    assert len({F.add(a, 1) for a in range(F.q)}) == F.q


def test_array_arguments_match_scalars(field):
    F = field
    a = np.arange(F.q)
    b = (3 * a + 1) % F.q
    nonzero = a[1:]
    for op in (F.add, F.sub, F.mul):
        assert op(a, b).tolist() == [op(int(x), int(y)) for x, y in zip(a, b)]
    assert F.neg(a).tolist() == [F.neg(int(x)) for x in a]
    assert F.inv(nonzero).tolist() == [F.inv(int(x)) for x in nonzero]
    for n in (-2, 0, 1, 5):
        assert F.pow(nonzero, n).tolist() == [F.pow(int(x), n) for x in nonzero]
    assert F.frobenius(a, 1).tolist() == [F.frobenius(int(x), 1) for x in a]
    with pytest.raises(ZeroDivisionError):
        F.inv(a)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_frobenius_is_automorphism(field):
    F = field
    elems = range(min(F.q, 32))
    for a in elems:
        for b in elems[:8]:
            assert F.frobenius(F.add(a, b), 1) == \
                F.add(F.frobenius(a, 1), F.frobenius(b, 1))
            assert F.frobenius(F.mul(a, b), 1) == \
                F.mul(F.frobenius(a, 1), F.frobenius(b, 1))
        assert F.frobenius(a, F.f) == a  # order divides f
        assert F.frobenius(a, 1) == F.pow(a, F.ell)


def _order(F, a):
    k, x = 1, a
    while x != F.one:
        k, x = k + 1, F.mul(x, a)
    return k


def test_primitive_element(field):
    F = field
    g = F.primitive_element()
    assert _order(F, g) == F.q - 1
    # the least such code
    assert all(_order(F, h) < F.q - 1 for h in range(1, g))
    # powers of g enumerate all nonzero elements
    seen = set()
    x = F.one
    for _ in range(F.q - 1):
        seen.add(x)
        x = F.mul(x, g)
    assert len(seen) == F.q - 1


def test_fermat_identity(field):
    F = field
    for a in range(F.q):
        assert F.pow(a, F.q) == a  # x^q = x for every element


def test_make_field_rejects_bad_input():
    with pytest.raises(Exception):
        make_field(4, 1)  # 4 is not prime
    with pytest.raises(Exception):
        make_field(2, 0)


def _schoolbook_product(F, a, b):
    """a * b from the base-ell digits of the codes (coefficient of x^t is
    digit t), multiplied as polynomials and reduced mod F.modulus."""
    ell, f = F.ell, F.f
    da = [a // ell**t % ell for t in range(f)]
    db = [b // ell**t % ell for t in range(f)]
    prod = [0] * (2 * f - 1)
    for i in range(f):
        for j in range(f):
            prod[i + j] += da[i] * db[j]
    for top in range(2 * f - 2, f - 1, -1):
        c = prod[top]
        for t in range(f + 1):
            prod[top - f + t] -= c * F.modulus[t]
    return sum(c % ell * ell**t for t, c in enumerate(prod[:f]))


@pytest.mark.parametrize("ell,f", [(2, 3), (3, 2), (2, 4)])
def test_table_product_is_the_modulus_product(ell, f):
    """The field axioms hold in every isomorphic copy; this pins the
    encoding: code n is the residue with the digits of n mod F.modulus."""
    F = make_field(ell, f)
    a, b = np.divmod(np.arange(F.q * F.q), F.q)
    assert F.mul(a, b).tolist() == [
        _schoolbook_product(F, int(x), int(y)) for x, y in zip(a, b)]


@given(st.integers(0, 255), st.integers(0, 255))
def test_table_product_is_the_modulus_product_gf256(a, b):
    F = make_field(2, 8)
    assert F.mul(a, b) == _schoolbook_product(F, a, b)

"""Exact arithmetic layer: cyclotomic field and Laurent polynomials in Z[v, v^-1]."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smallq.scalars import (
    CycloField,
    ExactDivisionError,
    LaurentPoly,
    QParams,
    cyclotomic_poly,
    qbinom,
    qbinom_zeta,
    qfact,
    qint,
)
from smallq.scalars import _long_div

P4 = QParams(4)
P6 = QParams(6)
R4 = P4.vring
R6 = P6.vring


def oracle_qbinom(m, t, ring):
    """Independent Gaussian binomial via the Pascal recursion, m >= 0 only."""
    if t < 0 or t > m:
        return ring.zero
    table = {(0, 0): ring.one}
    for mm in range(1, m + 1):
        for tt in range(0, min(mm, t) + 1):
            a = table.get((mm - 1, tt), ring.zero)
            b = table.get((mm - 1, tt - 1), ring.zero)
            table[(mm, tt)] = (ring.v ** 1).shift(tt - 1) * a + b.shift(-(mm - tt))
    return table[(m, t)]


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_zeta_identities():
    for params in (P4, P6):
        f = params.field
        z = f.zeta()
        assert z ** params.n == f.one
        assert z ** (params.n // 2) == -f.one
        assert z ** params.n - f.one == f.zero - f.zero + (z ** params.n - f.one)


def random_elems(field, rng, count):
    d = field.degree
    out = []
    for _ in range(count):
        nums = [rng.randint(-6, 6) for _ in range(d)]
        den = rng.randint(1, 5)
        out.append(field.elem(nums, den))
    return out


def test_cyclo_ring_axioms():
    rng = random.Random(0)
    for field in (P4.field, P6.field):
        xs = random_elems(field, rng, 12)
        for i in range(0, 12, 3):
            a, b, c = xs[i], xs[i + 1], xs[i + 2]
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == field.one
            if b:
                assert (a / b) * b == a


def test_cyclo_inverse_spot():
    f = P4.field
    z = f.zeta()
    # zeta_8 inverse is zeta_8^7 = -zeta_8^3
    assert z.inverse() == z ** 7
    x = f.one + z
    assert x * x.inverse() == f.one


def test_qint_examples():
    assert qint(0, 1, R4) == R4.zero
    expected = R4.from_int_dict({2: 1, 0: 1, -2: 1})
    assert qint(3, 1, R4) == expected
    # at ell = 4, zeta a primitive 8th root: [4](zeta) = 0
    assert not qint(4, 1, R4).eval_zeta()
    # antisymmetry
    for m in range(-8, 9):
        for d in (1, 2, 3):
            assert qint(-m, d, R6) == -qint(m, d, R6)


def test_qfact_examples():
    assert qfact(0, 1, R4) == R4.one
    assert qfact(2, 1, R4) == R4.from_int_dict({1: 1, -1: 1})
    assert not qfact(4, 1, R4).eval_zeta()
    with pytest.raises(ValueError):
        qfact(-1, 1, R4)


def test_qbinom_examples():
    assert qbinom(7, 0, 1, R4) == R4.one
    assert qbinom(-3, 0, 2, R4) == R4.one
    assert qbinom(2, 1, 1, R4) == qint(2, 1, R4)
    for t in (1, 2, 3):
        assert not qbinom(4, t, 1, R4).eval_zeta()
    for t in (1, 2, 3, 4, 5):
        assert not qbinom(6, t, 1, R6).eval_zeta()


def test_qbinom_against_pascal_oracle():
    for m in range(0, 11):
        for t in range(0, min(m, 6) + 1):
            assert qbinom(m, t, 1, R4) == oracle_qbinom(m, t, R4)


def test_qbinom_is_laurent_for_negative_m():
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randint(-20, 20)
        t = rng.randint(0, 10)
        d = rng.choice((1, 2))
        # int coefficients, and zero only for 0 <= m < t: a negative m reflects
        # to t - m - 1 >= t; test_qbinom_times_factorial_is_a_product pins the values
        b = qbinom(m, t, d, R4)
        assert all(type(a) is int for a in b.c.values()), (m, t, d)
        assert bool(b) != (0 <= m < t), (m, t, d)


def test_qbinom_symmetry():
    # [m over t] = [m over m-t] for 0 <= t <= m: classical, independent of the
    # stepwise construction
    for m in range(0, 13):
        for t in range(0, m + 1):
            assert qbinom(m, t, 1, R6) == qbinom(m, m - t, 1, R6), (m, t)
            assert qbinom(m, t, 2, R4) == qbinom(m, m - t, 2, R4), (m, t)


def falling_products(m, top, d, ring):
    """prod_{s<t} [m-s]_d for t = 0..top."""
    out = [ring.one]
    for s in range(top):
        out.append(out[-1] * qint(m - s, d, ring))
    return out


def pascal_table(top, d, ring, sign):
    """{(m, t): b} for 0 <= t <= m <= top by
    b(m, t) = v^(sign d t) b(m-1, t) + v^(d(m-t)) b(m-1, t-1), b(m, 0) = b(m, m) = 1:
    qbinom's rule for sign = -1."""
    table = {}
    for m in range(top + 1):
        for t in range(m + 1):
            table[m, t] = ring.one if t in (0, m) else (
                table[m - 1, t].shift(sign * d * t) + table[m - 1, t - 1].shift(d * (m - t)))
    return table


@pytest.mark.parametrize("d", [1, 2, 3])
def test_qbinom_times_factorial_is_a_product(d):
    # [t]_d! [m over t]_d = prod_{s<t} [m-s]_d in the domain Z[v, v^-1]:
    # the defining quotient, checked without dividing
    for m in range(-20, 61):
        prods = falling_products(m, 16, d, R6)
        for t in range(17):
            assert qfact(t, d, R6) * qbinom(m, t, d, R6) == prods[t], (m, t, d)


def test_pascal_with_a_wrong_twist_sign_fails_the_product_oracle():
    # the oracle above passes the rule with v^(-dt) on every entry and refuses
    # it with v^(+dt) on some.  Swapping the two twists is no negative
    # control: that is the other valid form of the rule.
    for d in (1, 2, 3):
        failures = {}
        for sign in (-1, 1):
            table = pascal_table(12, d, R6, sign)
            failures[sign] = 0
            for m in range(13):
                prods = falling_products(m, m, d, R6)
                failures[sign] += sum(qfact(t, d, R6) * table[m, t] != prods[t]
                                      for t in range(m + 1))
        assert failures[-1] == 0 and failures[1] > 0, (d, failures)


def test_inverse_fuzz_across_fields():
    rng = random.Random(9)
    for n in (1, 2, 3, 4, 6, 8, 12):
        from smallq.scalars import CycloField
        field = CycloField(n)
        for _ in range(15):
            nums = [rng.randint(-9, 9) for _ in range(field.degree)]
            den = rng.randint(1, 7)
            x = field.elem(nums, den)
            if x:
                assert x * x.inverse() == field.one, (n, nums, den)
        if n in (8, 12):
            # rationals take the den / num shortcut, not the extended Euclid
            for num in [-1, 1, -7, 12] + [rng.randint(-30, 30) for _ in range(20)]:
                x = field.elem([num], rng.randint(1, 9))
                if x:
                    inv = x.inverse()
                    assert inv.is_rational and inv.den > 0, (n, num, x.den)
                    assert x * inv == field.one and inv.inverse() == x, (n, num, x.den)
            with pytest.raises(ZeroDivisionError):
                field.zero.inverse()


def test_division_by_integer_zero():
    rng = random.Random(10)
    for n in (1, 2, 4, 8, 12):
        from smallq.scalars import CycloField
        field = CycloField(n)
        xs = [field.zero, field.one, field.zeta()] + random_elems(field, rng, 5)
        for x in xs:
            with pytest.raises(ZeroDivisionError):
                x / 0
        assert field.one / -2 == field.elem([-1], 2)


def test_pascal_identity_grid():
    ring = R4
    v = ring.v
    for m in range(-20, 21):
        for t in range(0, 11):
            lhs = qbinom(m, t, 1, ring)
            rhs = v.shift(t - 1) * qbinom(m - 1, t, 1, ring)
            if t >= 1:
                rhs = rhs + qbinom(m - 1, t - 1, 1, ring).shift(-(m - t))
            assert lhs == rhs, (m, t)


def test_root_of_unity_binomial_gives_integers():
    # [ell_i * m over ell_i]_{d_i} at zeta is the integer m up to a sign that
    # is trivial whenever ell_i is even; for odd ell_i it alternates.  The
    # module layer only ever uses even ell_i.
    for ell, d in ((4, 1), (6, 1), (4, 2), (6, 2), (6, 3)):
        params = QParams(ell, (d,))
        ring = params.vring
        li = params.ell_i[0]
        for m in range(-4, 5):
            val = qbinom_zeta(li * m, li, d, ring)
            sign = 1 if li % 2 == 0 or m % 2 == 1 else -1
            assert val == params.field.from_int(sign * m), (ell, d, m)


def test_laurent_refuses_cyclotomic_coefficients():
    ring = R4
    zeta = ring.field.zeta()
    for coeffs in ({1: zeta}, {0: 1, 1: zeta}, {0: ring.field.one}, {0: ring.field.zero}):
        with pytest.raises(TypeError):
            LaurentPoly(ring, coeffs)
    # a product with a cyclotomic scalar, either way round, is no Laurent polynomial
    with pytest.raises(TypeError):
        ring.v * zeta
    with pytest.raises(TypeError):
        zeta * ring.v


def test_mixed_sums_are_type_errors():
    # a Laurent polynomial and a cyclotomic scalar neither add nor subtract,
    # in either order; an int still does, on both sides
    ring = R4
    v, zeta = ring.v, ring.field.zeta()
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        for x, y in ((v, zeta), (zeta, v)):
            with pytest.raises(TypeError):
                op(x, y)
    assert v + 1 == 1 + v == ring.from_int_dict({0: 1, 1: 1})
    assert (v + 1) - 1 == v and 1 - v == -(v - 1)
    assert zeta + 1 == 1 + zeta != zeta and (zeta + 1) - 1 == zeta and 1 - zeta == -(zeta - 1)


def test_long_div_refuses_a_non_integer_quotient_coefficient():
    # (1 + x) / (1 + 2x): the leading quotient coefficient would be 1/2
    with pytest.raises(ExactDivisionError):
        _long_div([1, 1], [1, 2])
    a = [2, 3, 1]
    assert _long_div(a, [1, 1]) == [2, 1] and not any(a)


def test_qparams_validation():
    with pytest.raises(ValueError):
        QParams(3)
    with pytest.raises(ValueError):
        QParams(4, (3,))
    with pytest.raises(ValueError):
        QParams(2, (2,))
    p = QParams(6, (1, 3))
    assert p.ell_i == (6, 2)
    assert p.n == 12


# ---------------------------------------------------------------------------
# hypothesis properties of the scalar tower at ell 4 and 6
# ---------------------------------------------------------------------------

TOWER = {4: P4, 6: P6}
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def cyclo(draw, field):
    if draw(st.integers(0, 3)) == 0:
        return field.zero
    nums = draw(st.lists(st.integers(-4, 4), min_size=field.degree,
                         max_size=field.degree))
    return field.elem(nums, draw(st.integers(1, 4)))


@st.composite
def laurent(draw, ring):
    """Integer coefficients on a few small exponents."""
    exps = draw(st.lists(st.integers(-4, 4), max_size=4, unique=True))
    return ring.from_int_dict({e: draw(st.integers(-4, 4)) for e in exps})


ell_values = st.sampled_from(sorted(TOWER))


@PROPERTY_SETTINGS
@given(ell_values, st.integers(-50, 50))
def test_from_int_matches_elem(ell, a):
    field = TOWER[ell].field
    x = field.from_int(a)
    assert x == field.elem([a]) and x.is_rational
    assert bool(x) == bool(a)


def _ring_axioms(a, b, c, zero, one):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a - a == zero and a + (-a) == zero
    assert (a - b) + b == a


@PROPERTY_SETTINGS
@given(ell_values, st.data())
def test_cyclo_ring_axioms_property(ell, data):
    field = TOWER[ell].field
    a, b, c = (data.draw(cyclo(field)) for _ in range(3))
    _ring_axioms(a, b, c, field.zero, field.one)


@PROPERTY_SETTINGS
@given(ell_values, st.data())
def test_laurent_ring_axioms_property(ell, data):
    ring = TOWER[ell].vring
    a, b, c = (data.draw(laurent(ring)) for _ in range(3))
    _ring_axioms(a, b, c, ring.zero, ring.one)


@PROPERTY_SETTINGS
@given(ell_values, st.data())
def test_cyclo_inverse_property(ell, data):
    field = TOWER[ell].field
    x = data.draw(cyclo(field))
    assume(x)
    assert x * x.inverse() == field.one
    assert x.inverse() * x == 1


@PROPERTY_SETTINGS
@given(ell_values, st.data())
def test_eval_zeta_is_ring_homomorphism(ell, data):
    ring = TOWER[ell].vring
    p, q = data.draw(laurent(ring)), data.draw(laurent(ring))
    assert (p + q).eval_zeta() == p.eval_zeta() + q.eval_zeta()
    assert (p * q).eval_zeta() == p.eval_zeta() * q.eval_zeta()
    assert ring.one.eval_zeta() == ring.field.one
    assert ring.v.eval_zeta() == ring.field.zeta()


# ---------------------------------------------------------------------------
# the integer canonical form of Laurent polynomials, against dict convolutions
# ---------------------------------------------------------------------------

@st.composite
def int_laurent(draw, ring):
    """Integer coefficients, negative ones included, on exponents past +-2*ell
    (so eval_zeta has to reduce them); empty a fifth of the time."""
    if draw(st.integers(0, 4)) == 0:
        return ring.from_int_dict({})
    return ring.from_int_dict(draw(st.dictionaries(
        st.integers(-30, 30), st.integers(-5, 5), min_size=1, max_size=5)))


def naive_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def naive_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def assert_canonical(p):
    """Every coefficient a nonzero int; one form per value, so re-building p
    from its coefficients, with an explicit zero or without, gives p again,
    with its hash."""
    assert all(type(a) is int and a for a in p.c.values())
    again = LaurentPoly(p.ring, dict(p.c))
    assert again == p and hash(again) == hash(p) and again.c == p.c
    spare = max(p.c, default=0) + 1
    padded = LaurentPoly(p.ring, {**p.c, spare: 0})
    assert padded == p and hash(padded) == hash(p) and padded.c == p.c


@PROPERTY_SETTINGS
@given(ell_values, st.data())
def test_int_form_ring_ops_match_dict_convolution(ell, data):
    ring = TOWER[ell].vring
    p, q = data.draw(int_laurent(ring)), data.draw(int_laurent(ring))
    k = data.draw(st.integers(-40, 40))
    neg_q = {e: -c for e, c in q.c.items()}
    results = {
        "+": (p + q, naive_add(p.c, q.c)),
        "-": (p - q, naive_add(p.c, neg_q)),
        "*": (p * q, naive_mul(p.c, q.c)),
        "shift": (p.shift(k), {e + k: c for e, c in p.c.items()}),
        "cancel": (p + q - q - p, {}),
        "neg": (p + (-p), {}),
    }
    for op, (got, expected) in results.items():
        assert got.c == expected, op
        assert_canonical(got)
    assert (p * q == q * p) and hash(p * q) == hash(q * p)
    assert p + q - q == p and hash(p + q - q) == hash(p)


@PROPERTY_SETTINGS
@given(ell_values, st.data())
def test_int_form_eval_zeta(ell, data):
    ring = TOWER[ell].vring
    field = ring.field
    p = data.draw(int_laurent(ring))
    expected = field.zero
    for e, c in p.c.items():
        expected = expected + c * field.zeta(e)
    assert p.eval_zeta() == expected


def test_laurent_constructor_drops_zero_coefficients():
    ring = TOWER[4].vring
    assert LaurentPoly(ring, {0: 0}) == ring.zero
    assert not LaurentPoly(ring, {0: 0, 2: 0})
    assert LaurentPoly(ring, {0: 0, 1: 3}).c == {1: 3}


# a coefficient of +-1, or one far past a machine word
wide_coeff = st.one_of(st.sampled_from((1, -1)),
                       st.integers(-10 ** 30, 10 ** 30).filter(bool))


@st.composite
def one_term(draw, ring):
    """b v^k, k negative as often as not."""
    return ring.from_int_dict({draw(st.integers(-40, 40)): draw(wide_coeff)})


@st.composite
def wide_laurent(draw, ring):
    """The zero polynomial, one term, or several, with wide coefficients."""
    return ring.from_int_dict(draw(st.dictionaries(
        st.integers(-40, 40), wide_coeff, max_size=5)))


@PROPERTY_SETTINGS
@given(ell_values, st.data())
def test_one_term_products_match_dict_convolution(ell, data):
    # a one-term factor b v^k is a shift by k and a scale by b, on either side
    ring = TOWER[ell].vring
    m = data.draw(one_term(ring))
    p = data.draw(st.one_of(wide_laurent(ring), one_term(ring), int_laurent(ring)))
    (k, b), = m.c.items()
    expected = naive_mul(m.c, p.c)
    for got in (m * p, p * m):
        assert got.c == expected
        assert got == p.shift(k) * b and hash(got) == hash(p.shift(k) * b)
        assert_canonical(got)
    assert m * ring.zero == ring.zero * m == ring.zero
    # int scaling, the other product without a convolution
    n = data.draw(wide_coeff)
    for got in (p * n, n * p, -p):
        assert_canonical(got)
    assert (p * n).c == (n * p).c == {e: a * n for e, a in p.c.items()}
    assert p * 0 == 0 * p == ring.zero


# ---------------------------------------------------------------------------
# products with a unit or near-unit factor, against a convolution mod Phi_n
# ---------------------------------------------------------------------------

def product_mod_phi(x, y):
    """x * y as Fraction coefficients: convolution, then long division by the
    monic Phi_n."""
    a = [Fraction(c, x.den) for c in x.num]
    b = [Fraction(c, y.den) for c in y.num]
    t = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            t[i + j] += ai * bj
    phi = cyclotomic_poly(x.field.n)
    d = len(phi) - 1
    for k in range(len(t) - 1, d - 1, -1):
        c = t[k]
        for j, pj in enumerate(phi):
            t[k - d + j] -= c * pj
    return t[:d]


def assert_canonical_elem(z, field):
    assert z.field is field and len(z.num) == field.degree
    assert z.den > 0 and gcd(z.den, *z.num) == 1
    assert z.is_rational == (not any(z.num[1:]))
    again = field.elem(z.num, z.den)
    assert again == z and hash(again) == hash(z)


@PROPERTY_SETTINGS
@given(st.sampled_from([4, 8, 12]), st.data())
def test_unit_factor_products_match_convolution(n, data):
    # Q(zeta_4) is the field of the D4/Q8 triples; Q(zeta_8), Q(zeta_12) have
    # degree 4, so the reduction by Phi_n has work to do
    field = CycloField(n)
    y = data.draw(cyclo(field))
    units = [field.one, -field.one, field.from_int(-1), field.elem([1]), field.elem([-1])]
    near_units = [field.elem([s], k) for s in (1, -1) for k in (2, 3, 4)]
    for u in units + near_units:
        for z in (u * y, y * u):
            assert [Fraction(c, z.den) for c in z.num] == product_mod_phi(u, y)
            assert_canonical_elem(z, field)


# ---------------------------------------------------------------------------
# [m over t]_d at zeta against the generic Gaussian polynomial and against
# the Pascal recursion run in Q(zeta)
# ---------------------------------------------------------------------------

def binomial_grid():
    """(params, d, ell_i) for every even ell in 2..12 and every valid d."""
    for ell in range(2, 13, 2):
        for d in (1, 2, 3):
            if ell % d == 0 and ell // d >= 2:
                yield QParams(ell, (d,)), d, ell // d


def pascal_at_zeta(d, li, params):
    """{(m, t): [m over t]_d at zeta} for -3 li <= m <= 6 li, 0 <= t <= 2 li + 1,
    from [m over t] = q^t [m-1 over t] + q^(t-m) [m-1 over t-1] with q = zeta^d,
    run forward from m = 0 and backward below it, in the field alone."""
    f = params.field

    def q(k):
        return f.zeta(d * k)

    top = 2 * li + 1
    table = {(0, t): f.one if t == 0 else f.zero for t in range(top + 1)}
    for m in range(1, 6 * li + 1):
        table[m, 0] = f.one
        for t in range(1, top + 1):
            table[m, t] = q(t) * table[m - 1, t] + q(t - m) * table[m - 1, t - 1]
    for m in range(0, -3 * li, -1):
        table[m - 1, 0] = f.one
        for t in range(1, top + 1):
            table[m - 1, t] = q(-t) * (table[m, t] - q(t - m) * table[m - 1, t - 1])
    return table


def test_qbinom_zeta_matches_generic_and_pascal():
    # every even ell in 2..12, every valid d (ell_i odd for d = 2 at ell 6
    # and 10), m from -3 ell_i to 6 ell_i, t from 0 to 2 ell_i + 1: quantum
    # Lucas against the Pascal recursion in the field and against the generic
    # polynomial at zeta, pinned by test_qbinom_times_factorial_is_a_product
    for params, d, li in binomial_grid():
        ring = params.vring
        table = pascal_at_zeta(d, li, params)
        for m in range(-3 * li, 6 * li + 1):
            for t in range(2 * li + 2):
                z = qbinom_zeta(m, t, d, ring)
                assert z == table[m, t], (params.ell, d, m, t)
                assert z == qbinom(m, t, d, ring).eval_zeta(), (params.ell, d, m, t)
                assert_canonical_elem(z, params.field)


# ---------------------------------------------------------------------------
# CycloElem.inverse against the extended Euclid in Q[x]
# ---------------------------------------------------------------------------

def euclid_inverse(x):
    """1/x by the extended Euclid of x against Phi_n in Fraction arithmetic,
    as the canonical CycloElem; x nonzero."""
    f = x.field

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    # s * x = r modulo Phi_n along the remainder sequence
    r0, s0 = trim([Fraction(c) for c in f.phi]), [Fraction(0)]
    r1, s1 = trim([Fraction(c, x.den) for c in x.num]), [Fraction(1)]
    while len(r1) > 1:
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        rem = list(r0)
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + len(r1) - 1] / r1[-1]
            q[k] = c
            for j, bj in enumerate(r1):
                rem[k + j] -= c * bj
        s_next = s0 + [Fraction(0)] * (len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                s_next[i + j] -= qi * sj
        r0, s0, r1, s1 = r1, s1, trim(rem), trim(s_next)
    coeffs = [s / r1[0] for s in s1]
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return f.elem([int(c * den) for c in coeffs], den)


INVERSE_FIELDS = [4, 8, 12, 16, 20, 24, 40]


@st.composite
def wide_cyclo(draw, field):
    """A nonzero element with numerators and denominator up to 10^12."""
    big = st.integers(-10 ** 12, 10 ** 12)
    nums = draw(st.lists(big, min_size=field.degree, max_size=field.degree))
    assume(any(nums))
    return field.elem(nums, draw(st.integers(1, 10 ** 12)))


def check_inverse(x, inv):
    field = x.field
    assert x * inv == field.one
    assert_canonical_elem(inv, field)
    assert inv == euclid_inverse(x)


@PROPERTY_SETTINGS
@given(st.sampled_from(INVERSE_FIELDS), st.data())
def test_inverse_matches_euclid(n, data):
    field = CycloField(n)
    x = data.draw(wide_cyclo(field))
    check_inverse(x, x.inverse())


def test_inverse_property_rejects_an_inverse_that_drops_den():
    # negative control: 1/(num) in place of den/num
    for n in INVERSE_FIELDS:
        field = CycloField(n)
        x = field.elem([3, -1] + [5] * (field.degree - 2), 7)
        with pytest.raises(AssertionError):
            check_inverse(x, field.elem(x.num).inverse())


# ---------------------------------------------------------------------------
# the one long division and the one x^k table, against oracles that divide
# nothing: products, a Moebius power series, multiplication by x
# ---------------------------------------------------------------------------

def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def phi_oracle(n):
    """Phi_n = prod over d | n of (1 - x^d)^mu(n/d) for n > 1, as a power
    series cut at its degree phi(n): multiplying by 1 - x^d and dividing by
    it are both one pass with stride d."""
    if n == 1:
        return [-1, 1]
    top = totient(n)
    c = [1] + [0] * top
    for d in range(1, n + 1):
        if n % d == 0:
            mu = mobius(n // d)
            if mu == 1:
                for k in range(top, d - 1, -1):
                    c[k] -= c[k - d]
            elif mu == -1:
                for k in range(d, top + 1):
                    c[k] += c[k - d]
    return c


def test_cyclotomic_poly_products_give_x_n_minus_1():
    for n in range(1, 201):
        phi = cyclotomic_poly(n)
        assert len(phi) - 1 == totient(n) and phi[-1] == 1, n
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = int_poly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def x_powers_mod(phi, count):
    """x^k mod phi (phi monic) for k < count, one multiplication by x at a
    time, reducing the x^deg term by phi's lower coefficients."""
    d = len(phi) - 1
    row = [1] + [0] * (d - 1)
    out = []
    for _ in range(count):
        out.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        for j in range(d):
            row[j] -= top * phi[j]
    return out


def test_zeta_rows_and_reduction_rows_match_naive_powers():
    for n in range(1, 121):
        field = CycloField(n)
        d = field.degree
        assert list(field.phi) == phi_oracle(n), n
        powers = x_powers_mod(phi_oracle(n), max(n, 2 * d - 1))
        assert field._zeta_rows == powers[:n], n
        # zeta(k) is the power built once with the field, for every k mod n
        assert all(field.zeta(k) is field.zeta(k - n) and field.zeta(k).num == powers[k]
                   and field.zeta(k).den == 1 for k in range(n)), n
        # _mul_mod_phi reads x^(d+k) mod Phi_n for k = 0 .. d-2
        assert field._red == powers[d:2 * d - 1], n

"""Exact scalar tower: Q(zeta_N) and the Laurent polynomials Z[v, v^-1].

Everything here is exact.  Cyclotomic elements are residues modulo the N-th
cyclotomic polynomial with rational coefficients.  The generic ring is
Z[v, v^-1], where Lusztig's divided-power form lives: Laurent polynomials in
v hold Python-int coefficients, and meet the field only when they are
evaluated at v = zeta.  No floating point is used anywhere: identity checks
downstream are exact coefficient comparisons.

One long division in Z, ``_long_div``, serves the cyclotomic polynomials
alone: nothing divides a Laurent polynomial.  One table, x^k mod Phi_n for
k < n, gives the powers of zeta, the reduction rows of ``_mul_mod_phi`` and
the Galois conjugations of ``CycloElem.inverse``.

The q-combinatorics ([m]_d, [m]_d!, [m over t]_d) live here as well, since
they are the structure constants of everything built on top.  The Gaussian
binomials come from Pascal's rule, with shifts and sums only (``qbinom``).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd


class ExactDivisionError(ArithmeticError):
    """A division that should have been exact left a remainder."""


class LatticeError(ArithmeticError):
    """A matrix expected to lie in the integral lattice does not."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

def _long_div(a, b):
    """Schoolbook division in Z of ascending integer coefficient lists.

    Returns the quotient and leaves the remainder in ``a``: only its first
    len(b) - 1 entries can stay nonzero.  Each quotient coefficient is a
    leading entry of ``a`` over b[-1]; one that is not an integer raises
    ExactDivisionError.
    """
    top = len(b) - 1
    lead = b[-1]
    q = [0] * (len(a) - top)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(a[k + top], lead)
        if r:
            raise ExactDivisionError("quotient coefficient not an integer")
        if c:
            q[k] = c
            for j, bj in enumerate(b):
                if bj:
                    a[k + j] -= c * bj
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    num = [-1] + [0] * (n - 1) + [1]          # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q = _long_div(num, cyclotomic_poly(d))
            if any(num):
                raise ExactDivisionError("non-exact integer polynomial division")
            num = q
    return tuple(num)


def _normalize(num, den):
    if den < 0:
        num = [-a for a in num]
        den = -den
    g = den
    for a in num:
        if a:
            g = gcd(g, a)
        if g == 1:
            return tuple(num), den
    if g == 0:
        return tuple(num), 1
    if g > 1:
        num = [a // g for a in num]
        den //= g
    return tuple(num), den


def _mul_mod_phi(f, a, b):
    """The integer coefficients of a * b modulo Phi_n in the field f."""
    d = f.degree
    t = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    t[i + j] += ai * bj
    red = f._red
    for k in range(2 * d - 2, d - 1, -1):
        c = t[k]
        if c:
            row = red[k - d]
            for j in range(d):
                t[j] += c * row[j]
    return t[:d]


class CycloField:
    """The field Q(zeta_n) = Q[x] / Phi_n(x), with zeta_n the residue of x."""

    _instances: dict[int, "CycloField"] = {}

    __slots__ = ("n", "phi", "degree", "_red", "_zeta_rows", "_sigma", "_zero_tail",
                 "zero", "one")

    def __new__(cls, n: int):
        inst = cls._instances.get(n)
        if inst is not None:
            return inst
        inst = object.__new__(cls)
        cls._instances[n] = inst
        phi = cyclotomic_poly(n)
        d = len(phi) - 1
        inst.n = n
        inst.phi = phi
        inst.degree = d
        # zeta^k for k = 0 .. n-1 as integer rows: multiply by x, replacing
        # x^d by its residue -phi[:d]
        low = tuple(-c for c in phi[:d])
        rows = [(1,) + (0,) * (d - 1)]
        for _ in range(n - 1):
            prev = rows[-1]
            top = prev[-1]
            rows.append(tuple(top * r + p for r, p in zip(low, (0,) + prev[:-1])))
        inst._zeta_rows = rows
        # reduction rows of _mul_mod_phi: x^(d+k) mod phi for k = 0 .. d-2;
        # Phi_n divides x^n - 1, so x^(d+k) = zeta^((d+k) mod n)
        inst._red = [rows[(d + k) % n] for k in range(d - 1)]
        # the automorphisms zeta -> zeta^k, k coprime to n and k != 1: row j of
        # each is zeta^(jk) (see CycloElem.inverse)
        inst._sigma = [[rows[j * k % n] for j in range(d)]
                       for k in range(2, n) if gcd(k, n) == 1]
        inst._zero_tail = (0,) * (d - 1)
        inst.zero = CycloElem(inst, (0,) * d, 1)
        inst.one = CycloElem(inst, tuple(1 if j == 0 else 0 for j in range(d)), 1)
        return inst

    def from_int(self, a: int) -> "CycloElem":
        return CycloElem(self, (a,) + self._zero_tail, 1)

    def elem(self, nums, den=1) -> "CycloElem":
        nums = list(nums) + [0] * (self.degree - len(nums))
        num, den = _normalize(nums, den)
        return CycloElem(self, num, den)

    def zeta(self, k: int = 1) -> "CycloElem":
        return CycloElem(self, self._zeta_rows[k % self.n], 1)

    def __repr__(self):
        return f"Q(zeta_{self.n})"


class CycloElem:
    """Element of Q(zeta_n): integer coefficient vector over a common denominator.

    Every instance is canonical (den > 0, gcd(num, den) = 1) and immutable
    (tuple ``num``, ``__slots__``, no mutating method); every constructor keeps
    that form: ``_make``, ``elem``, ``from_int``, ``zeta``, ``__neg__``, the
    rational ``inverse`` and ``eval_zeta``.  ``__mul__`` relies on it to return
    the other factor, or its negation, unnormalised when one factor is +-1.
    """

    __slots__ = ("field", "num", "den", "is_rational")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den
        self.is_rational = not any(num[1:])

    def _make(self, nums, den):
        num, den = _normalize(list(nums), den)
        return CycloElem(self.field, num, den)

    def __bool__(self):
        # num is reduced modulo Phi_n: an entry past the constant term makes it nonzero
        return not self.is_rational or self.num[0] != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational and self.den == 1 and self.num[0] == other
        if not isinstance(other, CycloElem):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        try:
            yd = other.den
        except AttributeError:
            # neither an int nor a CycloElem, as in __mul__
            return NotImplemented
        xd = self.den
        if xd == yd:
            return self._make([a + b for a, b in zip(self.num, other.num)], xd)
        return self._make([a * yd + b * xd for a, b in zip(self.num, other.num)], xd * yd)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        try:
            yd = other.den
        except AttributeError:
            return NotImplemented
        xd = self.den
        if xd == yd:
            return self._make([a - b for a, b in zip(self.num, other.num)], xd)
        return self._make([a * yd - b * xd for a, b in zip(self.num, other.num)], xd * yd)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloElem(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.field.zero
            return self._make([a * other for a in self.num], self.den)
        try:
            b = other.num
        except AttributeError:
            # neither an int nor a CycloElem: let the other operand's
            # reflected method answer
            return NotImplemented
        f = self.field
        a = self.num
        if self.is_rational:
            a0 = a[0]
            if a0 == 0:
                return f.zero
            if self.den == 1:
                # a +-1 factor: the other one, canonical already, or its negation
                if a0 == 1:
                    return other
                if a0 == -1:
                    return CycloElem(f, tuple(-c for c in b), other.den)
            return self._make([a0 * c for c in b], self.den * other.den)
        if other.is_rational:
            b0 = b[0]
            if b0 == 0:
                return f.zero
            if other.den == 1:
                if b0 == 1:
                    return self
                if b0 == -1:
                    return CycloElem(f, tuple(-c for c in a), self.den)
            return self._make([b0 * c for c in a], self.den * other.den)
        return self._make(_mul_mod_phi(f, a, b), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloElem":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        f = self.field
        if self.is_rational:
            # num[0] / den is in lowest terms, so den / num[0] is too
            a, den = self.num[0], self.den
            if a < 0:
                a, den = -a, -den
            return CycloElem(f, (den,) + f._zero_tail, a)
        # x = num / den, so 1/x = den * P / N, where P is the product of the
        # conjugates sigma_k(num), k != 1, and N = num * P is the norm of num,
        # a nonzero integer
        a = self.num
        rest = None
        for sigma in f._sigma:
            conj = [0] * f.degree
            for aj, row in zip(a, sigma):
                if aj:
                    for i, r in enumerate(row):
                        conj[i] += aj * r
            rest = conj if rest is None else _mul_mod_phi(f, rest, conj)
        norm = _mul_mod_phi(f, a, rest)[0]
        return self._make([self.den * c for c in rest], norm)

    def __truediv__(self, other):
        if isinstance(other, int):
            if not other:
                raise ZeroDivisionError("division of a cyclotomic element by 0")
            return self._make(self.num, self.den * other)
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        if not self:
            return "0"
        terms = []
        for j, a in enumerate(self.num):
            if not a:
                continue
            c = f"{a}" if self.den == 1 else f"{a}/{self.den}"
            if j == 0:
                terms.append(c)
            elif j == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{j}")
        return " + ".join(terms)


# ---------------------------------------------------------------------------
# Laurent polynomials in v: Z[v, v^-1]
# ---------------------------------------------------------------------------

class LaurentRing:
    """Z[v, v^-1], specialized at v = zeta into a cyclotomic field.

    The divided-power form lives here: every polynomial built from [m]_d,
    [m]_d! and [m over t]_d has integer coefficients, held as Python ints
    (see ``LaurentPoly``).
    """

    _instances: dict[int, "LaurentRing"] = {}

    __slots__ = ("field", "zero", "one", "v", "_qint", "_qfact", "_qbinom", "_qbinom_zeta")

    def __new__(cls, field: CycloField):
        inst = cls._instances.get(field.n)
        if inst is not None:
            return inst
        inst = object.__new__(cls)
        cls._instances[field.n] = inst
        inst.field = field
        inst.zero = LaurentPoly(inst, {})
        inst.one = LaurentPoly(inst, {0: 1})
        inst.v = LaurentPoly(inst, {1: 1})
        inst._qint = {}
        inst._qfact = {}
        inst._qbinom = {}
        inst._qbinom_zeta = {}
        return inst

    def from_int(self, a: int) -> "LaurentPoly":
        if a == 0:
            return self.zero
        return LaurentPoly(self, {0: a})

    def from_int_dict(self, d: dict[int, int]) -> "LaurentPoly":
        return LaurentPoly(self, {e: c for e, c in d.items() if c})

    def __repr__(self):
        return f"{self.field}[v, v^-1]"


class LaurentPoly:
    """Sparse Laurent polynomial in Z[v, v^-1]: {exponent: int coefficient}.

    No zero coefficient is stored, so each value has one form: ``==`` is a
    dict comparison and ``hash`` agrees with it.  The constructor drops any
    zero it is given and refuses a coefficient that is not an int; the
    arithmetic below, whose results are ints with no zero by construction,
    goes through ``_trusted`` and skips that scan.
    """

    __slots__ = ("ring", "c")

    def __init__(self, ring, coeffs: dict):
        self.ring = ring
        for a in coeffs.values():
            if type(a) is not int or not a:
                if any(type(b) is not int for b in coeffs.values()):
                    raise TypeError("Laurent coefficients must be ints")
                coeffs = {e: b for e, b in coeffs.items() if b}
                break
        self.c = coeffs

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        try:
            terms = other.c.items()
        except AttributeError:
            # neither an int nor a LaurentPoly: let the other operand's
            # reflected method answer
            return NotImplemented
        out = dict(self.c)
        for e, a in terms:
            b = out.get(e)
            if b is None:
                out[e] = a
            else:
                s = b + a
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _trusted(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _trusted(self.ring, {e: -a for e, a in self.c.items()})

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, int):
            # Z has no zero divisors: a nonzero scalar keeps every term
            if not other:
                return ring.zero
            return _trusted(ring, {e: a * other for e, a in self.c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        p, q = self.c, other.c
        if not p or not q:
            return ring.zero
        # a one-term factor b v^k is a shift by k and a scale by b, and Z has
        # no zero divisors
        if len(p) == 1:
            p, q = q, p
        if len(q) == 1:
            (k, b), = q.items()
            return _trusted(ring, {e + k: a * b for e, a in p.items()})
        acc = {}
        get = acc.get
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                k = e1 + e2
                acc[k] = get(k, 0) + c1 * c2
        return _trusted(ring, {e: a for e, a in acc.items() if a})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = self.ring.one
        base = self
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        if k == 0:
            return self
        return _trusted(self.ring, {e + k: a for e, a in self.c.items()})

    def eval_zeta(self) -> CycloElem:
        """Evaluate at v = zeta, the generator of the ring's field."""
        f = self.ring.field
        n = f.n
        acc = [0] * n
        for e, c in self.c.items():
            acc[e % n] += c
        d = f.degree
        vec = [0] * d
        rows = f._zeta_rows
        for r, cnt in enumerate(acc):
            if cnt:
                row = rows[r]
                for j in range(d):
                    vec[j] += cnt * row[j]
        return CycloElem(f, tuple(vec), 1)

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            coeff = repr(self.c[e])
            if e == 0:
                parts.append(coeff)
            else:
                ve = "v" if e == 1 else f"v^{e}"
                parts.append(ve if coeff == "1" else f"({coeff})*{ve}")
        return " + ".join(parts)


def _trusted(ring, coeffs: dict) -> LaurentPoly:
    """A LaurentPoly on coeffs, unchecked: every value a nonzero int."""
    p = object.__new__(LaurentPoly)
    p.ring = ring
    p.c = coeffs
    return p


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def qint(m: int, d: int, ring: LaurentRing) -> LaurentPoly:
    """[m]_d = (v^{dm} - v^{-dm}) / (v^d - v^{-d}), expanded exactly."""
    key = (m, d)
    out = ring._qint.get(key)
    if out is not None:
        return out
    if m == 0:
        out = ring.zero
    elif m < 0:
        out = -qint(-m, d, ring)
    else:
        out = ring.from_int_dict({d * (m - 1 - 2 * j): 1 for j in range(m)})
    ring._qint[key] = out
    return out


def qfact(m: int, d: int, ring: LaurentRing) -> LaurentPoly:
    """[m]_d! = product of [s]_d for s = 1..m; [0]_d! = 1."""
    if m < 0:
        raise ValueError("q-factorial of a negative integer")
    key = (m, d)
    out = ring._qfact.get(key)
    if out is not None:
        return out
    out = ring.one
    if m:
        out = qfact(m - 1, d, ring) * qint(m, d, ring)
    ring._qfact[key] = out
    return out


def qbinom(m: int, t: int, d: int, ring: LaurentRing) -> LaurentPoly:
    """[m over t]_d for any integer m and t >= 0, by Pascal's rule
    [m over t] = v^(-dt) [m-1 over t] + v^(d(m-t)) [m-1 over t-1] for 0 < t < m,
    with [m over 0] = [m over m] = 1 and [m over t] = 0 for t > m >= 0.  A
    negative m is reflected: [m over t] = (-1)^t [t-m-1 over t].

    The ring's cache is filled iteratively, with the [tt+k over tt], tt <= t
    and k <= m - t, that [m over t] reads.
    """
    if t < 0:
        raise ValueError("lower index must be nonnegative")
    table = ring._qbinom
    key = (m, t, d)
    out = table.get(key)
    if out is not None:
        return out
    if m < 0:
        out = qbinom(t - m - 1, t, d, ring)
        if t % 2:
            out = -out
    elif t > m:
        out = ring.zero
    else:
        for tt in range(t + 1):
            for k in range(m - t + 1):
                entry = (tt + k, tt, d)
                if entry not in table:
                    table[entry] = ring.one if not tt or not k else (
                        table[tt + k - 1, tt, d].shift(-d * tt)
                        + table[tt + k - 1, tt - 1, d].shift(d * k))
        return table[key]
    table[key] = out
    return out


def qbinom_zeta(m: int, t: int, d: int, ring: LaurentRing) -> CycloElem:
    """[m over t]_d evaluated at zeta, cached, by the quantum Lucas theorem
    (Lusztig 1990, Geom. Dedicata 35).

    zeta^d has order 2 ell_i with ell_i = n / (2d).  With m = m0 + ell_i m1 and
    t = t0 + ell_i t1 (0 <= m0, t0 < ell_i),
    [m over t]_d(zeta) = (-1)^(m1 t0 + m0 t1 + ell_i t1 (m1 - t1))
                         binom(m1, t1) [m0 over t0]_d(zeta),
    and a negative m goes through [m over t] = (-1)^t [t - m - 1 over t].  The
    only Gaussian polynomials expanded are the [m0 over t0]_d.
    """
    key = (m, t, d)
    out = ring._qbinom_zeta.get(key)
    if out is None:
        if t < 0:
            raise ValueError("lower index must be nonnegative")
        n = ring.field.n
        if n % (2 * d):
            raise ValueError(f"2d = {2 * d} does not divide n = {n}")
        li = n // (2 * d)
        parity = 0
        if m < 0:
            m, parity = t - m - 1, t
        m1, m0 = divmod(m, li)
        t1, t0 = divmod(t, li)
        c = comb(m1, t1)
        if c and t0 <= m0:
            if (parity + m1 * t0 + m0 * t1 + li * t1 * (m1 - t1)) % 2:
                c = -c
            out = qbinom(m0, t0, d, ring).eval_zeta() * c
        else:
            out = ring.field.zero
        ring._qbinom_zeta[key] = out
    return out


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class QParams:
    """Root-of-unity parameters: even ell, per-vertex d_i | ell, ell_i = ell/d_i."""

    __slots__ = ("ell", "d", "ell_i", "n", "field", "vring")

    def __init__(self, ell: int, d=(1,)):
        d = tuple(d)
        if ell <= 0 or ell % 2 != 0:
            raise ValueError("ell must be a positive even integer")
        for di in d:
            if di not in (1, 2, 3):
                raise ValueError("each d_i must be 1, 2 or 3")
            if ell % di != 0:
                raise ValueError(f"d_i = {di} does not divide ell = {ell}")
            if ell // di < 2:
                raise ValueError("ell_i = ell/d_i must be at least 2")
        self.ell = ell
        self.d = d
        self.ell_i = tuple(ell // di for di in d)
        self.n = 2 * ell
        self.field = CycloField(2 * ell)
        self.vring = LaurentRing(self.field)

    def __eq__(self, other):
        return isinstance(other, QParams) and (self.ell, self.d) == (other.ell, other.d)

    def __hash__(self):
        return hash((self.ell, self.d))

    def __repr__(self):
        return f"QParams(ell={self.ell}, d={self.d})"

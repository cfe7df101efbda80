"""Concrete modules over the big quantum group at a root of unity.

A WeightModule is an X-graded space with one matrix per generator: E_i, F_i
and the divided powers E_i^(ell_i), F_i^(ell_i).  The torus acts implicitly
through the grading, and the K-binomial elements act on a weight-lam vector
by the exact scalar [<coroot_i, lam> + m over t]_{d_i} evaluated at zeta.

A module carries a zeta layer (entries in Q(zeta)) and, where it has one, a
generic layer (Laurent polynomials in v), each built in its own ring; no
layer is specialized from the other.  Every divided power comes from one of
two formulas: the closed form on a Weyl module, F^(a) v_k = [k+a over a]
v_{k+a} and E^(a) v_k = [lam-k+a over a] v_{k-a}, and on a tensor product
the coproduct expansion of E^(n) and F^(n) in the factors' divided-power
families.  The zeta layer of a tensor product is that expansion at zeta.
Its generic layer, present when both factors carry every generic family,
is the expansion in Z[v, v^-1] of Lusztig's generators E, F, E^(ell_i) and
F^(ell_i) only, built on its first read: those are the matrices the
generic identities of relation_check read (modules pulled back along the
quantum Frobenius, or quotients, carry only the zeta layer).
relation_check checks the divided powers against plain powers in the
generic layer: Z[v, v^-1] is a domain, so X^(a) = X^a / [a]! exactly when
[a]! X^(a) = X^a, and the tests check both formulas that way for every a
up to ell_i, on a tensor product against the full expansion.

Explicit Weyl modules are provided for A1, which is where all matrix-level
verification happens; higher-rank types only exercise the combinatorial
layers.
"""

from __future__ import annotations

from functools import reduce
from math import prod
from operator import add

from .linalg import (
    Quotient,
    block_diag,
    combine,
    kron_sum,
    mat_is_zero,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_sum,
    restrict,
    spin,
)
from .report import Report
from .rootdata import DotOrbits, EllForm, build_root_datum
from .scalars import LatticeError, LaurentPoly, qbinom, qbinom_zeta, qfact, qint


class GenSet:
    """Generator matrices for one scalar layer, each as its sparse columns
    (see ``linalg``).

    efam[i][a] is the matrix of E_i^(a) for a = 0..ell_i (efam[i][0] = id,
    efam[i][1] = E_i, efam[i][ell_i] = the divided power); same for ffam.
    The generic layer of a tensor product holds only a in {0, 1, ell_i},
    Lusztig's generators; its other families are None, and ``matrices`` and
    ``reshaped`` raise on them.
    """

    __slots__ = ("efam", "ffam")

    def __init__(self, efam, ffam):
        self.efam = efam
        self.ffam = ffam

    def e(self, i):
        return self.efam[i][1]

    def f(self, i):
        return self.ffam[i][1]

    def div_e(self, i):
        return self.efam[i][-1]

    def div_f(self, i):
        return self.ffam[i][-1]

    def complete(self):
        """Whether every family a = 0..ell_i is built."""
        return all(m is not None for fam in self.efam + self.ffam for m in fam)

    def matrices(self):
        """Every family matrix in one list, the E families first."""
        if not self.complete():
            raise ValueError("a divided-power family of this layer was not built")
        return [m for fam in self.efam + self.ffam for m in fam]

    def reshaped(self, mats):
        """A GenSet of this shape holding ``mats``, given in ``matrices`` order."""
        if not self.complete():
            raise ValueError("a divided-power family of this layer was not built")
        it = iter(mats)
        fams = [[next(it) for _ in fam] for fam in self.efam + self.ffam]
        return GenSet(fams[:len(self.efam)], fams[len(self.efam):])


class WeightModule:
    """X-graded module with exact generator matrices.

    The generic layer is a GenSet, None, or a function of no arguments that
    builds it; ``g`` then builds it on its first read.  Each layer's grading
    is checked once the layer exists: the zeta layer and a given generic
    layer at construction, a built one on that first read.  The twisted
    families a tensor product reads off this factor (``twisted``) are kept
    in the same way, each built on its first read.
    """

    def __init__(self, datum, params, weights, zeta_gens: GenSet,
                 generic_gens=None, name: str = ""):
        self.datum = datum
        self.params = params
        self.weights = [tuple(w) for w in weights]
        self.z = zeta_gens
        self._g = generic_gens
        self.name = name or f"module(dim={len(self.weights)})"
        self.form = EllForm(datum, params)
        self._twists = {}
        _check_grading(self, zeta_gens)
        if isinstance(generic_gens, GenSet):
            _check_grading(self, generic_gens)

    @property
    def g(self):
        g = self._g
        if g is not None and not isinstance(g, GenSet):
            g = g()
            _check_grading(self, g)
            self._g = g
        return g

    @property
    def dim(self):
        return len(self.weights)

    def pairing(self, i, b):
        """<coroot_i, weight of basis vector b>."""
        return self.weights[b][i]

    def twisted(self, layer, sym, i, a, b):
        """A coproduct term's factor in ``layer`` ("z" or "g"), built on its
        first read and kept per (layer, sym, i, a, b):

            sym "E": v^{d a b} E_i^(a) K_i^b, whose column c is E_i^(a)'s
                     times v^{d b (a + <alpha_i, wt c>)};
            sym "F": v^{d a b} F_i^(b) K_i^{-a}, whose column c is F_i^(b)'s
                     times v^{d a (b - <alpha_i, wt c>)}.

        x v^k is a shift of a Laurent polynomial in the generic layer and
        x zeta^k in the zeta layer.  It depends on this module alone, so a
        factor of many tensor products is twisted once.
        """
        key = (layer, sym, i, a, b)
        mat = self._twists.get(key)
        if mat is None:
            d = self.params.d[i]
            if layer == "g":
                gens, twist = self.g, LaurentPoly.shift
            else:
                zeta = self.params.field.zeta
                gens, twist = self.z, lambda x, k: x * zeta(k)
            ws = [w[i] for w in self.weights]
            if sym == "E":
                mat = _twist_columns(gens.efam[i][a], [d * b * (a + w) for w in ws], twist)
            else:
                mat = _twist_columns(gens.ffam[i][b], [d * a * (b - w) for w in ws], twist)
            self._twists[key] = mat
        return mat

    def k_diag_zeta(self, i, power=1):
        """Diagonal matrix of K_i^power at zeta."""
        f = self.params.field
        d = self.params.d[i]
        return _diag([f.zeta(power * d * self.pairing(i, b)) for b in range(self.dim)])

    def kbinom_diag(self, i, m, t):
        """Diagonal action of [K_i; m over t]_{d_i} at zeta."""
        ring = self.params.vring
        return _diag([qbinom_zeta(self.pairing(i, b) + m, t, self.params.d[i], ring)
                      for b in range(self.dim)])

    def weight_class(self, b, sc=False):
        """Class of the b-th basis weight modulo phi(Y) (or phi_sc(X*_sc))."""
        orbits = _class_orbits(self, sc)
        return orbits._coset_rep(self.weights[b])

    def has_generic(self):
        return self._g is not None

    def __repr__(self):
        return f"WeightModule({self.name}, dim={self.dim})"


def _class_orbits(module, sc):
    key = ("_orb_sc" if sc else "_orb")
    orb = getattr(module, key, None)
    if orb is None:
        orb = DotOrbits(module.datum, module.params, sc=sc)
        setattr(module, key, orb)
    return orb


def _diag(entries):
    return [[(i, x)] if x else [] for i, x in enumerate(entries)]


def _check_grading(module, layer):
    """Every nonzero entry of the layer must connect weights differing by the
    right root; a family that was not built is skipped."""
    datum = module.datum
    for i in range(datum.rank):
        alpha = datum.alpha[i]
        for a, mat in enumerate(layer.efam[i]):
            if mat is not None:
                _check_shift(module, mat, tuple(a * x for x in alpha), f"E_{i}^({a})")
        for a, mat in enumerate(layer.ffam[i]):
            if mat is not None:
                _check_shift(module, mat, tuple(-a * x for x in alpha), f"F_{i}^({a})")


def _check_shift(module, mat, shift, label):
    """Raise on the entry, first in row-major order, that breaks the shift."""
    weights = module.weights
    expected = {}       # per source weight, the weight its image must have
    bad = []
    for c, col in enumerate(mat):
        if col:
            w = weights[c]
            target = expected.get(w)
            if target is None:
                target = expected[w] = tuple(map(add, w, shift))
            for r, _ in col:
                if weights[r] != target:
                    bad.append((r, c))
    if bad:
        r, c = min(bad)
        raise LatticeError(f"{label} entry ({r},{c}) violates the grading on {module.name}")


def _specialize(gens: GenSet) -> GenSet:
    """The generic layer at v = zeta; entries that vanish there leave their
    columns."""
    def ev(mat):
        out = []
        for col in mat:
            values = [(r, p.eval_zeta()) for r, p in col]
            out.append([(r, z) for r, z in values if z])
        return out
    return GenSet([[ev(m) for m in fam] for fam in gens.efam],
                  [[ev(m) for m in fam] for fam in gens.ffam])


# ---------------------------------------------------------------------------
# Weyl modules (A1)
# ---------------------------------------------------------------------------

def weyl_module(lam, params, datum=None, name=None) -> WeightModule:
    """Cyclic highest-weight module of dimension lam+1 for A1, built generically.

    Basis v_0..v_lam with v_k of weight lam - k*alpha.  Every divided power
    has a closed form (Lusztig 1990; Jantzen 1996, ch. 5):
    F^(a) v_k = [k+a over a]_d v_{k+a} and E^(a) v_k = [lam-k+a over a]_d v_{k-a},
    filled in from ``qbinom_zeta`` at zeta and, on the first read of ``g``,
    from the cached ``qbinom`` in the generic layer.
    """
    if datum is None:
        datum = build_root_datum("A1")
    if datum.cartan_type != "A1":
        raise ValueError("explicit Weyl modules are implemented for A1 only")
    lam = lam[0] if isinstance(lam, tuple) else lam
    if lam < 0:
        raise ValueError("highest weight must be dominant")
    ring = params.vring
    d = params.d[0]
    li = params.ell_i[0]
    zgens = _weyl_families(lam, li, qbinom_zeta, d, ring)
    weights = [(lam - 2 * k,) for k in range(lam + 1)]
    module = WeightModule(datum, params, weights, zgens,
                          lambda: _weyl_families(lam, li, qbinom, d, ring),
                          name=name or f"W({lam})")
    # postcondition: the highest-weight vector is killed by E and its divided power
    assert not module.z.e(0)[0] and not module.z.div_e(0)[0]
    return module


def _weyl_families(lam, li, binom, d, ring) -> GenSet:
    """E^(a), F^(a) on W(lam) for a = 0..li, with binom(m, a, d, ring) =
    [m over a]_d in one layer."""
    n = lam + 1
    efam, ffam = [], []
    for a in range(li + 1):
        ecols, fcols = [[] for _ in range(n)], [[] for _ in range(n)]
        for c in range(n - a):
            x = binom(c + a, a, d, ring)
            if x:
                fcols[c] = [(c + a, x)]
            x = binom(lam - c, a, d, ring)
            if x:
                ecols[c + a] = [(c, x)]
        efam.append(ecols)
        ffam.append(fcols)
    return GenSet([efam], [ffam])


def trivial_module(params, datum=None) -> WeightModule:
    if datum is None:
        datum = build_root_datum("A1")
    ring = params.vring
    r = datum.rank
    li = params.ell_i
    one_m, zero_m = [[(0, ring.one)]], [[]]
    gens = GenSet([[one_m] + [zero_m] * li[i] for i in range(r)],
                  [[one_m] + [zero_m] * li[i] for i in range(r)])
    weights = [(0,) * r]
    return WeightModule(datum, params, weights, _specialize(gens),
                        gens, name="trivial")


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def tensor_product(M: WeightModule, N: WeightModule, name=None) -> WeightModule:
    """Tensor product with the coproduct action.

    E acts by E (x) 1 + K (x) E and F by F (x) K^{-1} + 1 (x) F.  Every
    divided power comes from the coproduct expansion of the factors'
    divided-power families (``_coproduct_families``).  The zeta layer is the
    expansion at zeta.  When both factors' generic layers carry every family,
    the generic layer is the expansion of E_i, F_i, E_i^(ell_i) and
    F_i^(ell_i) alone, built on its first read; otherwise (a pulled-back or
    quotient factor, or a tensor product) there is none.
    """
    if M.params != N.params or M.datum is not N.datum and M.datum != N.datum:
        raise ValueError("tensor factors must share params and root datum")
    datum, params = M.datum, M.params
    weights = [tuple(a + b for a, b in zip(M.weights[im], N.weights[jn]))
               for im in range(M.dim) for jn in range(N.dim)]
    generic = None
    if all(X.has_generic() and X.g.complete() for X in (M, N)):
        generic = lambda: _coproduct_families(M, N, "g", lusztig_only=True)
    return WeightModule(datum, params, weights, _coproduct_families(M, N, "z"), generic,
                        name=name or f"{M.name}(x){N.name}")


def _coproduct_families(M, N, layer, lusztig_only=False) -> GenSet:
    """Divided powers on M (x) N from the factors' families in one layer:

        E^(n) = sum_{a+b=n} v^{d a b} E^(a) K^b (x) E^(b),
        F^(n) = sum_{a+b=n} v^{d a b} F^(a) (x) F^(b) K^{-a}.

    layer "g" is the generic one, "z" the zeta one.  Both read every family
    of the factors' layer.  K and v^{dab} act on the columns of one factor,
    so they are folded into one column twist of that factor, which the
    factor keeps (``WeightModule.twisted``); each sum is one ``kron_sum``.
    With ``lusztig_only`` only n in {0, 1, ell_i} is expanded and the other
    families are None.
    """
    ng, mg = (N.g, M.g) if layer == "g" else (N.z, M.z)
    efam, ffam = [], []
    for i in range(M.datum.rank):
        li = M.params.ell_i[i]
        ne, mf = ng.efam[i], mg.ffam[i]
        orders = {0, 1, li} if lusztig_only else range(li + 1)
        efam.append([kron_sum([(M.twisted(layer, "E", i, a, n - a), ne[n - a])
                               for a in range(n + 1)]) if n in orders else None
                     for n in range(li + 1)])
        ffam.append([kron_sum([(mf[a], N.twisted(layer, "F", i, a, n - a))
                               for a in range(n + 1)]) if n in orders else None
                     for n in range(li + 1)])
    return GenSet(efam, ffam)


def _twist_columns(mat, exps, twist):
    """Column c of mat times v^exps[c] (zeta^exps[c] at zeta)."""
    return [[(r, twist(x, k)) for r, x in col] if k else col for col, k in zip(mat, exps)]


def direct_sum(M: WeightModule, N: WeightModule, name=None) -> WeightModule:
    datum, params = M.datum, M.params
    weights = M.weights + N.weights
    efam = [[block_diag(ma, mb) for ma, mb in zip(M.z.efam[i], N.z.efam[i])]
            for i in range(datum.rank)]
    ffam = [[block_diag(ma, mb) for ma, mb in zip(M.z.ffam[i], N.z.ffam[i])]
            for i in range(datum.rank)]
    return WeightModule(datum, params, weights, GenSet(efam, ffam), None,
                        name=name or f"{M.name}(+){N.name}")


# ---------------------------------------------------------------------------
# relation checking
# ---------------------------------------------------------------------------

def relation_check(module: WeightModule) -> Report:
    """Evaluate every defining relation as an exact matrix identity at zeta.

    The K-relations hold structurally through the grading, which each layer
    passed when it came into existence (a lazy generic layer on the read
    below), the E-F commutator is compared against the K-binomial scalar
    rule, Serre relations are checked for every pair of distinct vertices,
    and when the generic layer is available the divided powers are checked
    against plain powers, X^ell_i = [ell_i]! X^(ell_i) in Z[v, v^-1].  The
    two generic identities are decided on packed integers
    (``packed_residual``).
    """
    rep = Report(f"relations[{module.name}]")
    params = module.params
    datum = module.datum
    f = params.field
    try:
        module.g        # builds, and so checks, a lazy generic layer
        rep.ok("grading", "all generator entries shift weights by the prescribed roots")
    except LatticeError as exc:
        rep.fail("grading", str(exc), counterexample=str(exc))

    ring = params.vring
    for i in range(datum.rank):
        for j in range(datum.rank):
            # E_i F_j against F_j E_i, plus [K_i; 0 over 1] when i = j, added
            # up by one combine
            e, fj = module.z.e(i), module.z.f(j)
            mats = [mat_mul(fj, e)]
            if i == j:
                d = params.d[i]
                mats.append(_diag([qint(module.pairing(i, b), d, ring).eval_zeta()
                                   for b in range(module.dim)]))
            lhs = mat_mul(e, fj)
            rhs = combine([(k, f.one) for k in range(len(mats))], mats)
            name = f"commutator[E_{i},F_{j}]"
            if lhs == rhs:
                rep.ok(name)
            else:
                rep.fail(name, "nonzero residual matrix",
                         counterexample=_first_nonzero(mat_sub(lhs, rhs)))

    one = ring.one
    if module.has_generic():
        for i in range(datum.rank):
            e, fi = module.g.e(i), module.g.f(i)
            diag = _diag([qint(module.pairing(i, b), params.d[i], ring)
                          for b in range(module.dim)])
            _check_identity(rep, f"commutator-generic[E_{i},F_{i}]",
                            [(one, [e, fi]), (-one, [fi, e]), (-one, [diag])], ring,
                            "", "generic commutator fails")

    if datum.rank > 1:
        for i in range(datum.rank):
            for j in range(datum.rank):
                if i == j:
                    continue
                for fam, sym in ((module.z.efam, "E"), (module.z.ffam, "F")):
                    name = f"serre[{sym},{i},{j}]"
                    res = _serre_residual(module, fam, i, j)
                    if mat_is_zero(res):
                        rep.ok(name)
                    else:
                        rep.fail(name, "Serre relation fails",
                                 counterexample=_first_nonzero(res))
    else:
        rep.skip("serre", "no distinct vertex pairs in rank 1")

    for i in range(datum.rank):
        li = params.ell_i[i]
        d = params.d[i]
        if module.has_generic():
            fact = qfact(li, d, ring)
            for fam, sym in ((module.g.efam, "E"), (module.g.ffam, "F")):
                _check_identity(rep, f"divided-power[{sym}_{i}]",
                                [(one, [fam[i][1]] * li), (-fact, [fam[i][li]])], ring,
                                f"{sym}^{li} = [{li}]! * {sym}^({li}) in Z[v, v^-1]",
                                "divided power disagrees with plain power")
        else:
            # at zeta the plain power must vanish: E^ell = [ell]! E^(ell) and
            # [ell]! (zeta) = 0
            for fam, sym in ((module.z.efam, "E"), (module.z.ffam, "F")):
                power = mat_pow(fam[i][1], li, f.one)
                name = f"power-vanishing[{sym}_{i}]"
                if mat_is_zero(power):
                    rep.ok(name, f"{sym}^{li} = 0 at zeta")
                else:
                    rep.fail(name, f"{sym}^{li} nonzero at zeta",
                             counterexample=_first_nonzero(power))
    rep.ok("k-binomial-rule",
           "K-binomial operators act by the scalar rule by construction (grading)")
    return rep


def _serre_residual(module, fam, i, j):
    params = module.params
    one = params.field.one
    ring = params.vring
    m = 1 - module.datum.a[i][j]
    acc = [[] for _ in range(module.dim)]
    xi = fam[i][1]
    xj = fam[j][1]
    for s in range(m + 1):
        r = m - s
        coeff = qbinom_zeta(m, s, params.d[i], ring)
        if s % 2 == 1:
            coeff = -coeff
        term = mat_mul(mat_pow(xi, r, one), mat_mul(xj, mat_pow(xi, s, one)))
        acc = mat_sum(acc, mat_scale(term, coeff))
    return acc


# ---------------------------------------------------------------------------
# identities in Z[v, v^-1], decided at v = 2^k
# ---------------------------------------------------------------------------

def _offset(p):
    """The least exponent of p negated, floored at 0."""
    return max(0, -min(p.c, default=0))


def _pack(p, k, o):
    """p(2^k) * 2^(k*o), an int when o is at least p's offset."""
    return sum(a << k * (e + o) for e, a in p.c.items())


def _unpack(n, k, o, ring):
    """The LaurentPoly p with p(2^k) * 2^(k*o) = n whose coefficients are all
    below 2^(k-1) in absolute value: n's balanced base-2^k digits."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    coeffs, e = {}, -o
    while n:
        a = n & mask
        if a >= half:
            a -= mask + 1
        if a:
            coeffs[e] = a
        n = (n - a) >> k
        e += 1
    return LaurentPoly(ring, coeffs)


def packed_residual(terms):
    """The residual of sum_t c_t A_t1 ... A_tm = 0 over Z[v, v^-1] at v = 2^k.

    ``terms`` are pairs (c_t, [A_t1, ..., A_tm]) of a LaurentPoly and square
    Laurent matrices of one size, m >= 1.  Returns (R, k, o): entry (r, c) of
    R is the int s(2^k) * 2^(k*o), s the residual's entry (r, c).

    Each distinct matrix A is packed once, entry by entry, to p(2^k) *
    2^(k*o_A) with o_A its least exponent negated and floored at 0, and each
    c_t likewise; evaluation at 2^k is a ring map, so the products and the
    sum run through ``mat_mul`` and ``combine`` on ints, each term shifted to
    the largest offset o.  Every coefficient of the residual is at most
    sum_t ||c_t||_1 prod_j ||A_tj|| in absolute value, ||A|| being the
    largest row sum of A's entry 1-norms, and k is the least width with
    2^(k-1) above that bound.  So every entry of R is its balanced base-2^k
    digits (``_unpack``), and it is zero exactly when the residual's entry is.
    """
    mats = {id(A): A for _, factors in terms for A in factors}
    norm, off = {}, {}
    for i, A in mats.items():
        # one walk: the row sums of entry 1-norms and the least exponent
        rows, low = {}, 0
        for col in A:
            for r, p in col:
                c = p.c
                rows[r] = rows.get(r, 0) + sum(map(abs, c.values()))
                low = min(low, min(c))
        norm[i] = max(rows.values(), default=0)
        off[i] = -low
    bound = sum(sum(map(abs, c.c.values())) * prod(norm[id(A)] for A in factors)
                for c, factors in terms)
    k = bound.bit_length() + 1
    packed = {i: [[(r, _pack(p, k, off[i])) for r, p in col] for col in A]
              for i, A in mats.items()}
    offsets = [_offset(c) + sum(off[id(A)] for A in factors) for c, factors in terms]
    o = max(offsets)
    products = [reduce(mat_mul, [packed[id(A)] for A in factors]) for _, factors in terms]
    coeffs = [(t, _pack(c, k, _offset(c)) << k * (o - ot))
              for t, ((c, _), ot) in enumerate(zip(terms, offsets))]
    return combine(coeffs, products), k, o


def _check_identity(rep, name, terms, ring, ok, fail):
    """Record whether sum_t c_t A_t1 ... A_tm = 0; a failure prints the first
    nonzero entry of the residual in row-major order."""
    R, k, o = packed_residual(terms)
    first = _first_entry(R)
    if first is None:
        rep.ok(name, ok)
    else:
        r, c = first
        rep.fail(name, fail,
                 counterexample=f"entry ({r},{c}) = {_unpack(R[c][0][1], k, o, ring)!r}")


def _first_entry(mat):
    """(row, column) of the first nonzero entry of mat in row-major order, or
    None: the least (row, column) among the first entries of the columns."""
    return min(((col[0][0], c) for c, col in enumerate(mat) if col), default=None)


def _first_nonzero(mat):
    first = _first_entry(mat)
    if first is None:
        return "zero"
    r, c = first
    return f"entry ({r},{c}) = {mat[c][0][1]!r}"


def corrupt_module(module: WeightModule) -> WeightModule:
    """Deliberately perturb one generator entry, the first nonzero one of E_0
    (else of F_0) in row-major order; relation_check negative control."""
    f = module.params.field
    z = module.z
    efam = [list(fam) for fam in z.efam]
    ffam = [list(fam) for fam in z.ffam]
    for fam in (efam, ffam):
        target = fam[0][1]
        first = _first_entry(target)
        if first is not None:
            r, c = first
            x = target[c][0][1] + f.one
            fam[0][1] = target[:c] + [([(r, x)] if x else []) + target[c][1:]] + target[c + 1:]
            break
    else:
        raise ValueError("nothing to corrupt: all generators act by zero")
    # the entry keeps its (row, column), so the grading check passes
    return WeightModule(module.datum, module.params, module.weights, GenSet(efam, ffam),
                        name=module.name + "+corrupted")


# ---------------------------------------------------------------------------
# submodules, quotients, composition factors (exact, at zeta)
# ---------------------------------------------------------------------------

class Submodule:
    """Weight-homogeneous subspace closed under all generator matrices."""

    def __init__(self, parent: WeightModule, basis_rows, basis_weights):
        self.parent = parent
        self.basis = basis_rows            # independent vectors over the field
        self.basis_weights = basis_weights

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return f"Submodule(dim={self.dim} of {self.parent.name})"


def _weight_components(module, vec):
    """Split a vector into weight-homogeneous components: (weight,
    component) pairs in increasing weight order."""
    by_weight = {}
    for idx, x in vec:
        by_weight.setdefault(module.weights[idx], []).append((idx, x))
    return sorted(by_weight.items())


def _generator_matrices(module):
    """E_i, F_i, E_i^(ell_i) and F_i^(ell_i) at zeta, vertex by vertex."""
    z = module.z
    out = []
    for i in range(module.datum.rank):
        out.extend((z.e(i), z.f(i), z.div_e(i), z.div_f(i)))
    return out


def submodule_closure(module: WeightModule, seeds) -> Submodule:
    """Smallest weight-homogeneous subspace containing seeds, stable under
    all generator matrices.  The seeds are split into weight components; the
    generators are graded (checked at construction), so every image stays
    weight-homogeneous."""
    basis = spin(_generator_matrices(module),
                 [c for s in seeds for _, c in _weight_components(module, s)],
                 module.params.field)
    rows = basis.sorted_rows()
    row_weights = []
    for row in rows:
        comps = _weight_components(module, row)
        assert len(comps) == 1
        row_weights.append(comps[0][0])
    return Submodule(module, rows, row_weights)


def _coordinate_graph(module):
    """(targets, sources) of the generators' nonzero pattern: targets[b]
    lists the r with a nonzero entry (r, b) in a generator, sources[r] the b.
    None when a generator column has more than one nonzero entry."""
    targets = [[] for _ in range(module.dim)]
    sources = [[] for _ in range(module.dim)]
    for cols in _generator_matrices(module):
        for b, col in enumerate(cols):
            if len(col) > 1:
                return None
            for r, _ in col:
                targets[b].append(r)
                sources[r].append(b)
    return targets, sources


def _reach(edges, start, within):
    """The indices in ``within`` reachable from ``start`` along ``edges``
    (an edge b -> r for each r in edges[b]), start included."""
    seen = {start}
    stack = [start]
    while stack:
        for r in edges[stack.pop()]:
            if r in within and r not in seen:
                seen.add(r)
                stack.append(r)
    return seen


def _top(weights, indices):
    """The least index of maximal weight (by coordinate sum) in ``indices``."""
    return max(indices, key=lambda b: (sum(weights[b]), -b))


def maximal_proper_submodule(module: WeightModule) -> Submodule:
    """Unique maximal proper submodule of a cyclic highest-weight module.

    Requires one-dimensional weight spaces, as along the A1 Weyl-module peel;
    a ValueError is raised otherwise.  Then every generator column has at
    most one nonzero entry (checked), a weight-homogeneous subspace is a
    coordinate subspace, and the closure of the basis line e_b is the span of
    the e_r with r reachable from b along the generators' nonzero pattern
    (see ``linalg.spin``).  The maximal proper submodule is the sum of the
    closures that miss the top vector.  If b cannot reach the top, neither
    can anything reachable from b, so that sum is the span of the e_r from
    which the top is unreachable: one backward search from the top
    (``_reach``), with no field arithmetic.
    """
    if len(set(module.weights)) != module.dim:
        raise ValueError("weight spaces must be one-dimensional")
    graph = _coordinate_graph(module)
    if graph is None:
        raise AssertionError(
            f"a generator column of {module.name} has more than one nonzero entry")
    reaches_top = _reach(graph[1], _top(module.weights, range(module.dim)),
                         range(module.dim))
    one = module.params.field.one
    keep = [r for r in range(module.dim) if r not in reaches_top]
    return Submodule(module, [[(r, one)] for r in keep], [module.weights[r] for r in keep])


def submodule_as_module(sub: Submodule, name=None) -> WeightModule:
    """The subspace as a WeightModule in its own basis (zeta layer only)."""
    parent = sub.parent
    z = parent.z
    mats = restrict(z.matrices(), sub.basis, parent.params.field)
    if mats is None:
        raise LatticeError("subspace is not stable under a generator")
    return WeightModule(parent.datum, parent.params, sub.basis_weights,
                        z.reshaped(mats), None, name=name or f"sub({parent.name})")


def quotient_module(module: WeightModule, sub: Submodule, name=None):
    """Quotient by a weight-homogeneous submodule (zeta layer only).

    Returns (quotient module, the ``linalg.Quotient`` that projects onto it).
    """
    quot = Quotient(sub.basis, module.dim, module.params.field)
    z = module.z
    mats = [quot.induced(cols) for cols in z.matrices()]
    if any(m is None for m in mats):
        raise LatticeError("subspace is not stable under a generator")
    weights = [module.weights[j] for j in quot.free]
    q = WeightModule(module.datum, module.params, weights, z.reshaped(mats),
                     None, name=name or f"{module.name}/sub")
    return q, quot


def head_module(module: WeightModule):
    """Unique simple quotient of a cyclic highest-weight module."""
    sub = maximal_proper_submodule(module)
    if sub.dim == 0:
        return module, None
    q, _ = quotient_module(module, sub, name=f"L@{module.name}")
    return q, sub


def simple_module(lam, params, datum=None, name=None) -> WeightModule:
    """L(lam) as the head of the Weyl module (A1)."""
    w = weyl_module(lam, params, datum)
    head, _ = head_module(w)
    head.name = name or f"L({lam if not isinstance(lam, tuple) else lam[0]})"
    return head


def composition_factors(module: WeightModule):
    """Multiset of (highest weight, dimension) of the simple factors.

    Peels highest-weight submodules: take a maximal-weight vector, close it
    up, split off the head of that closure, and recurse on the two smaller
    pieces.  Dimensions strictly decrease, so this terminates.  Two paths:

    - the index path, when every generator column has at most one nonzero
      entry (Weyl modules, their direct sums and every piece they split
      into).  A piece is an index set S acting by the generators' submatrix
      on S; a submodule is a subset closed under the edges b -> r of the
      nonzero pattern, and its quotient the complement.  The closure C of
      the top is what the top reaches within S, the head the part of C that
      reaches the top back (see ``maximal_proper_submodule``), and the peel
      goes on with C minus the head and S minus C, with no field arithmetic;
    - the field path ``_peel`` otherwise (tensor products, say), which spins
      closures and builds submodules and quotients over the field.

    A closure with a repeated weight raises ValueError on both paths.
    """
    graph = _coordinate_graph(module)
    factors = []
    if graph is None:
        _peel(module, factors)
        return sorted(factors)
    targets, sources = graph
    weights = module.weights
    pieces = [set(range(module.dim))]
    while pieces:
        piece = pieces.pop()
        if not piece:
            continue
        top = _top(weights, piece)
        closure = _reach(targets, top, piece)
        if len({weights[b] for b in closure}) != len(closure):
            raise ValueError("weight spaces must be one-dimensional")
        head = _reach(sources, top, closure)
        factors.append((weights[top], len(head)))
        pieces += [closure - head, piece - closure]
    return sorted(factors)


def _peel(module, factors):
    if module.dim == 0:
        return
    top = _top(module.weights, range(module.dim))
    closure = submodule_closure(module, [[(top, module.params.field.one)]])
    w_mod = submodule_as_module(closure)
    max_sub = maximal_proper_submodule(w_mod)
    hw = module.weights[top]
    factors.append((hw, w_mod.dim - max_sub.dim))
    if max_sub.dim:
        _peel(submodule_as_module(max_sub), factors)
    if closure.dim < module.dim:
        quotient, _ = quotient_module(module, closure)
        _peel(quotient, factors)

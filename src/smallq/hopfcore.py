"""Finite-dimensional coalgebra/comodule engine for (O, A, a) triples.

Everything is a structure tensor over an exact cyclotomic field: coalgebras
carry a comultiplication tensor and counit, Hopf algebras add multiplication,
unit and antipode, comodules carry their coaction matrices.  All axioms are
asserted at construction time as exact identities, once per value, per
coalgebra and per triple: a comodule or Cat-object whose value already
passed is not checked again, and a value that fails is never stored.  Every
matrix is its sparse columns (see ``linalg``): coaction and action matrices,
the maps between carriers and the structure maps ``iota``, ``pi``, ``ract``
and ``antipode`` of a triple or Hopf algebra alike.

The engine realizes the induction functor Ind(M) = (A (x) M)^a on a Hom
space (the cotensor is the intertwiners from M's transposed coaction to A's
right a-coaction; one object per coaction value), the de-equivariantization
Psi(N) = C (x)_O N as an exact quotient, the two adjunction transformations
as explicit matrices, the conditions (i)-(iv) on a triple as rank
computations, twisting by points of Spec(O), and the reconstruction of
A-comodules from equivariant objects.

Finite-group triples O = functions(H''/H'), A = functions(H''),
a = functions(H') are the verifiable instances; group tables are ingested
from a plain-text format (one line per product) and simple comodules are
found by exact character/spin decomposition of the regular comodule of the
function coalgebra, which works over the cyclotomic splitting field
Q(zeta_exponent).  A group representation is such a comodule: R_g is the
action of g^-1.  ``simples`` finds them once per coalgebra, from the table
that ``hopf_of_functions`` records on it; no other check reads a table.
"""

from __future__ import annotations

from math import gcd

from .linalg import (
    Quotient,
    RowBasis,
    Span,
    block_diag,
    combine,
    identity,
    intertwiner_space,
    intertwines,
    inverse,
    kron,
    kron_sum,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    rank,
    restrict,
    sparse_nullspace,
    spin,
    transpose,
)
from .linalg import _canon
from .report import Report
from .scalars import CycloField


class StructureError(ValueError):
    """A structure tensor violates its defining axioms."""


# ---------------------------------------------------------------------------
# groups from multiplication tables
# ---------------------------------------------------------------------------

class GroupTable:
    """Finite group given by element names and a full multiplication table.

    ``gens`` is a greedy generating set: each element, in index order, that
    the ones before it do not generate.  It is empty for the trivial group.
    """

    def __init__(self, names, mult):
        self.names = list(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.n = len(self.names)
        self.mult = mult            # mult[i][j] = index of product
        self._validate()
        self.gens = []
        generated = {self.identity}
        for x in range(self.n):
            if x not in generated:
                self.gens.append(x)
                generated = set(self.generated(self.gens))

    def _validate(self):
        n = self.n
        ident = None
        for e in range(n):
            if all(self.mult[e][x] == x and self.mult[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise StructureError("no identity element in the table")
        self.identity = ident
        self.inverse = [None] * n
        for x in range(n):
            for y in range(n):
                if self.mult[x][y] == ident and self.mult[y][x] == ident:
                    self.inverse[x] = y
            if self.inverse[x] is None:
                raise StructureError(f"element {self.names[x]} has no inverse")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if self.mult[self.mult[x][y]][z] != self.mult[x][self.mult[y][z]]:
                        raise StructureError("multiplication is not associative")

    def order_of(self, x) -> int:
        k, cur = 1, x
        while cur != self.identity:
            cur = self.mult[cur][x]
            k += 1
        return k

    def exponent(self) -> int:
        out = 1
        for x in range(self.n):
            o = self.order_of(x)
            out = out * o // gcd(out, o)
        return out

    def subgroup_indices(self, names):
        idx = []
        for nm in names:
            if nm not in self.index:
                raise StructureError(f"unknown element {nm!r} in subgroup")
            if self.index[nm] in idx:
                raise StructureError(f"element {nm!r} named twice in subgroup")
            idx.append(self.index[nm])
        s = set(idx)
        if self.identity not in s:
            raise StructureError("subgroup must contain the identity")
        for x in idx:
            if self.inverse[x] not in s:
                raise StructureError("subgroup is not closed under inverses")
            for y in idx:
                if self.mult[x][y] not in s:
                    raise StructureError("subgroup is not closed under products")
        return sorted(s)

    def is_normal(self, sub) -> bool:
        s = set(sub)
        for g in range(self.n):
            gi = self.inverse[g]
            for h in sub:
                if self.mult[self.mult[g][h]][gi] not in s:
                    return False
        return True

    def cosets(self, sub):
        """Left cosets of a normal subgroup, each sorted, deterministic order."""
        seen = set()
        out = []
        for g in range(self.n):
            if g in seen:
                continue
            coset = sorted(self.mult[g][h] for h in sub)
            out.append(tuple(coset))
            seen.update(coset)
        out.sort(key=lambda c: c[0])
        return out

    def quotient(self, sub):
        """Quotient group by a normal subgroup; coset named by least member."""
        cosets = self.cosets(sub)
        rep_of = {}
        for ci, coset in enumerate(cosets):
            for x in coset:
                rep_of[x] = ci
        names = ["[" + self.names[c[0]] + "]" for c in cosets]
        mult = [[rep_of[self.mult[cosets[i][0]][cosets[j][0]]]
                 for j in range(len(cosets))] for i in range(len(cosets))]
        table = GroupTable(names, mult)
        return table, rep_of

    def subgroup_table(self, sub):
        names = [self.names[x] for x in sub]
        pos = {x: i for i, x in enumerate(sub)}
        mult = [[pos[self.mult[x][y]] for y in sub] for x in sub]
        return GroupTable(names, mult)

    def commutator_subgroup(self):
        m, inv = self.mult, self.inverse
        return self.generated(m[m[m[x][y]][inv[x]]][inv[y]]
                              for x in range(self.n) for y in range(self.n))

    def generated(self, elems):
        """The subgroup generated by elems, sorted."""
        closed = {self.identity} | set(elems)
        frontier = list(closed)
        while frontier:
            new = []
            for x in frontier:
                for y in list(closed):
                    for z in (self.mult[x][y], self.mult[y][x]):
                        if z not in closed:
                            closed.add(z)
                            new.append(z)
            frontier = new
        return sorted(closed)


# budget of the table parser: the triple checks grow steeply with the order
MAX_GROUP_ORDER = 32


def parse_group_text(text: str):
    """Parse the plain-text table format.

    Header line "elements: e a b ...", optional "subgroup: e b", then one
    line "x y -> z" per pair.  A repeated header, element or pair is refused,
    and so, before any product is looked up, are more than MAX_GROUP_ORDER.
    """
    headers = {}
    products = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key = next((k for k in ("elements:", "subgroup:") if line.startswith(k)), None)
        if key is not None:
            if key in headers:
                raise StructureError(f"second '{key}' header")
            headers[key] = line[len(key):].split()
            continue
        parts = line.split()
        if len(parts) != 4 or parts[2] != "->":
            raise StructureError(f"bad table line: {raw!r}")
        if (parts[0], parts[1]) in products:
            raise StructureError(f"product {parts[0]} {parts[1]} given twice")
        products[(parts[0], parts[1])] = parts[3]
    names = headers.get("elements:")
    if names is None:
        raise StructureError("missing 'elements:' header")
    if len(names) > MAX_GROUP_ORDER:
        raise StructureError(f"{len(names)} elements, more than the budget of {MAX_GROUP_ORDER}")
    index = {n: i for i, n in enumerate(names)}
    if len(index) != len(names):
        raise StructureError(f"element {next(x for x in names if names.count(x) > 1)} named twice")
    n = len(names)
    mult = [[None] * n for _ in range(n)]
    for (x, y), z in products.items():
        if x not in index or y not in index or z not in index:
            raise StructureError(f"unknown element in line {x} {y} -> {z}")
        mult[index[x]][index[y]] = index[z]
    for i in range(n):
        for j in range(n):
            if mult[i][j] is None:
                raise StructureError(
                    f"missing product {names[i]} {names[j]}")
    return GroupTable(names, mult), headers.get("subgroup:")


# ---------------------------------------------------------------------------
# structure tensors
# ---------------------------------------------------------------------------

class CoalgebraFD:
    """delta[i] = {(j, k): c} meaning Delta(b_i) = sum c * b_j (x) b_k.

    ``dual_mult`` holds the structure constants of the dual algebra C* (see
    ``_dual_mult``), ``regular`` the coaction matrices of C on itself, and
    ``gens`` a generating set of C* for the module laws of its comodules, or
    None, with ``walk`` the rest of its walk (see ``_generating_set``).
    """

    def __init__(self, field, delta, eps, name=""):
        self.field = field
        self.dim = len(delta)
        self.delta = delta
        self.eps = eps
        self.name = name or f"coalg(dim={self.dim})"
        self.dual_mult = _dual_mult(self)
        self.regular = coaction_matrices(delta, self.dim)
        self._validate()
        # only now is C* known to be associative and unital, which the
        # reduced module-law check needs
        self.walk = []
        self.gens = _generating_set(self.dual_mult, list(enumerate(self.eps)), self.dim, self.walk)
        self._simple_comodules = None       # filled on first use; see ``simples``
        self._valid_comodules = set()       # coaction values that passed; see ``ComoduleFD``

    def at_gens(self, mats):
        """The members of ``mats``, one per basis element of C, at the
        generating set J: every one when J is None."""
        return mats if self.gens is None else [mats[s] for s in self.gens]

    def _validate(self):
        f = self.field
        # coassociativity and the left counit law: C coacting on itself
        # through Delta is a comodule; every pair is checked
        _check_module(self.regular, self.dual_mult, list(enumerate(self.eps)), f.one,
                      f"{self.name}: comultiplication not coassociative",
                      f"{self.name}: counit law fails")
        for i in range(self.dim):
            rcounit = {}
            for (j, k), c in self.delta[i].items():
                _acc(rcounit, j, c * self.eps[k])
            if _strip(rcounit) != {i: f.one}:
                raise StructureError(f"{self.name}: counit law fails")


def _acc(d, key, val):
    cur = d.get(key)
    d[key] = val if cur is None else cur + val


def _strip(d):
    return {k: v for k, v in d.items() if v}


def _check_module(cols, mult, unit, one, product_msg, unit_msg, gens=None):
    """Raise StructureError unless the matrices M_k are a module over an algebra.

    The algebra is given by its structure constants
    ``mult`` = {(i, j): {k: c_ij^k}} and the (k, u_k) pairs of its unit.  The
    laws are M_i M_j = sum_k c_ij^k M_k for every pair (i, j), a pair missing
    from ``mult`` included, and sum_k u_k M_k = I.  They are checked on
    nonzero entries, one column x at a time for every pair at once; the
    column r of the M_i stacked is listed once.

    ``gens``, when given, is a generating set J of an associative algebra
    whose unit is the basis element b_e (see ``_generating_set``), and the
    product law is checked for the pairs (i, s) with s in J only.  That
    suffices.  The unit law gives M_e = I, so the law holds for j = e.  Every
    other b_j is mu^-1 b_j' b_s with s in J, mu != 0 and b_j' reached before
    b_j, and the checked law gives M_j' M_s = mu M_j.  If the law holds for
    (i, j') for every i, then
    mu M_i M_j = M_i M_j' M_s = sum_k c_ij'^k M_k M_s
    = sum_k c_ij'^k sum_l c_ks^l M_l = sum_l ((b_i b_j') b_s)_l M_l,
    by the checked law for (k, s).  Associativity of the algebra turns this
    into sum_l (b_i (b_j' b_s))_l M_l = mu sum_l c_ij^l M_l, so the law
    holds for (i, j) for every i, and by induction for every pair.  The
    associativity used is the algebra's own, checked with every pair when
    its structure constants were.
    """
    n = len(cols[0])
    for x in range(n):
        col = {}
        for k, u in unit:
            for s, b in cols[k][x]:
                _acc(col, s, u * b)
        if _strip(col) != {x: one}:
            raise StructureError(unit_msg)
    stacked = [[(i, s, b) for i, Mi in enumerate(cols) for s, b in Mi[r]] for r in range(n)]
    right = range(len(cols)) if gens is None else gens
    consts = {j: [] for j in right}         # j -> (i, k, c_ij^k)
    for (i, j), prod in mult.items():
        if j in consts:
            consts[j].extend((i, k, c) for k, c in prod.items())
    for x in range(n):
        lhs, rhs = {}, {}
        for j in right:
            for r, a in cols[j][x]:
                for i, s, b in stacked[r]:
                    _acc(lhs, (i, j, s), a * b)
            for i, k, c in consts[j]:
                for s, b in cols[k][x]:
                    _acc(rhs, (i, j, s), c * b)
        if _strip(lhs) != _strip(rhs):
            raise StructureError(product_msg)


def _generating_set(mult, unit, dim, walk=None):
    """A generating set J of an algebra for the reduced check of
    ``_check_module``, or None when the unit is not one basis element b_e
    with coefficient 1.

    A walk from e: an index is reached when it is e, or the one term k, with
    a nonzero coefficient c, of a product b_i b_s with i reached and s in J.
    The least unreached index joins J, reached as b_e b_s, until every index
    is reached.  Each other k is c^-1 b_i b_s, and the steps (k, i, s, c)
    are appended to ``walk``, when given, in the order reached: i is in J
    or an earlier step's k.  The algebra must be associative and unital
    (for b_e b_s = b_s); callers pass the structure constants of an algebra
    whose laws were checked.
    """
    unit = [(k, u) for k, u in unit if u]
    if len(unit) != 1 or unit[0][1] != 1:
        return None
    gens, order, steps = [], [unit[0][0]], []
    reached = set(order)
    while len(order) < dim:
        s = min(set(range(dim)) - reached)
        gens.append(s)
        for i in order:             # walks the indices appended below too
            for t in gens:
                prod = [(k, c) for k, c in mult.get((i, t), {}).items() if c]
                if len(prod) == 1 and prod[0][0] not in reached:
                    (k, c), = prod
                    reached.add(k)
                    order.append(k)
                    if i != order[0]:
                        steps.append((k, i, t, c))
        if s not in reached:
            return None
    if walk is not None:
        walk.extend(steps)
    return gens


def _dual_mult(C):
    """Structure constants of the dual algebra C* in the order its coaction
    matrices multiply: R_w R_u = sum_c delta_c[(u, w)] R_c."""
    out = {}
    for c, d in enumerate(C.delta):
        for (u, w), v in d.items():
            out.setdefault((w, u), {})[c] = v
    return out


class HopfAlgebraFD(CoalgebraFD):
    """Coalgebra plus multiplication tensor, unit vector and antipode matrix.

    ``left_products[i]`` and ``right_products[i]`` are the matrices of the
    left and the right product by the i-th basis element.
    """

    def __init__(self, field, delta, eps, mult, unit, antipode, name=""):
        super().__init__(field, delta, eps, name=name)
        self.mult = mult            # {(i, j): {k: c}}
        self.unit = unit            # {k: c}
        self.antipode = antipode
        self.left_products = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        self.right_products = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j), prod in mult.items():
            self.left_products[i][j] = self.right_products[j][i] = _canon(prod)
        self._validate_hopf()

    def _validate_hopf(self):
        f = self.field
        # associativity and the left unit law: the algebra acting on itself
        # by left product is a module
        _check_module(self.left_products, self.mult, self.unit.items(), f.one,
                      f"{self.name}: multiplication not associative",
                      f"{self.name}: unit law fails")
        # the right unit law
        if combine(self.unit.items(), self.right_products) != identity(self.dim, f.one):
            raise StructureError(f"{self.name}: unit law fails")
        # bialgebra: Delta and eps are algebra maps, Delta(1) = 1 (x) 1.  Delta
        # is multiplicative exactly when A, acting on itself by left product
        # and coacting by Delta, satisfies the compatibility law of Cat
        n = self.dim
        left = self.left_products
        if not _respects_action(left, self.regular, self, left):
            raise StructureError(f"{self.name}: comultiplication is not an algebra map")
        # eps is an algebra map exactly when its values, as 1 x 1 matrices, are
        # an A-module
        msg = f"{self.name}: counit is not an algebra map"
        _check_module([[_canon({0: e})] for e in self.eps], self.mult, self.unit.items(), f.one,
                      msg, msg)
        # Delta as one matrix A -> A (x) A, e_j (x) e_k at row j * n + k
        delta = [_canon({j * n + k: c for (j, k), c in d.items()}) for d in self.delta]
        unit = _canon(self.unit)
        if mat_mul(delta, [unit]) != [[(j * n + k, a * b) for j, a in unit for k, b in unit]]:
            raise StructureError(f"{self.name}: Delta(1) != 1 (x) 1")
        # antipode identities: m (S (x) id) Delta = m (id (x) S) Delta = 1 eps,
        # with the product m: A (x) A -> A one matrix too
        product = [col for L in left for col in L]
        ident = identity(n, f.one)
        target = [mat_scale([unit], e)[0] for e in self.eps]
        for side in (kron(self.antipode, ident), kron(ident, self.antipode)):
            if mat_mul(product, mat_mul(side, delta)) != target:
                raise StructureError(f"{self.name}: antipode identity fails")


class ComoduleFD:
    """Left comodule over a coalgebra C, stored as its coaction matrices.

    One matrix R_c per basis element c of C, as its sparse columns: entry
    (y, x) of R_c is the coefficient of c (x) y in rho(x).  A C-comodule is a module over the dual
    algebra C* through these matrices, and the engine works with comodules
    in this form throughout: the comodule maps M1 -> M2 are the X with
    X R1_c = R2_c X, and a coaction restricts to a subspace or descends to a
    quotient as these matrices do.

    ``key`` is the value of the coaction, built once here; ``_stored`` and
    the validation read it.  The laws are checked once per value, per
    coalgebra: C keeps the keys that passed, so a value that fails is
    checked, and refused, on every construction.  Callers must not mutate
    ``mats``.
    """

    def __init__(self, coalg, mats, name=""):
        if len(mats) != coalg.dim:
            raise StructureError(f"{name or 'comodule'}: {len(mats)} coaction matrices "
                                 f"for a coalgebra of dimension {coalg.dim}")
        self.coalg = coalg
        self.mats = mats
        self.dim = len(mats[0])
        self.name = name or f"comod(dim={self.dim})"
        self.key = (self.dim, tuple(tuple(map(tuple, R)) for R in mats))
        self._validate()

    def _validate(self):
        C = self.coalg
        if self.key in C._valid_comodules:
            return
        _check_module(self.mats, C.dual_mult, list(enumerate(C.eps)), C.field.one,
                      f"{self.name}: coaction not coassociative",
                      f"{self.name}: coaction counit law fails", C.gens)
        C._valid_comodules.add(self.key)


def coaction_matrices(rho, cdim):
    """The coaction matrices of a coaction given term by term.

    rho[x] = {(c, y): v} means rho(x) = sum v c (x) y; the result has one
    matrix per coalgebra basis element c, with v at entry (y, x) of R_c.
    This turns a literal comultiplication or coaction into the form
    ``ComoduleFD`` stores.
    """
    cols = [[{} for _ in rho] for _ in range(cdim)]
    for x, coact in enumerate(rho):
        for (c, y), v in coact.items():
            cols[c][x][y] = v
    return [[_canon(col) for col in R] for R in cols]


def _pushforward(mat, m, mats):
    """The coaction matrices of (mat (x) id) rho from those of rho:
    sum_j mat[c][j] R_j for each row c of mat, a matrix with m rows."""
    return [combine(row, mats) for row in transpose(mat, m)]


def comodule_hom_space(M1: ComoduleFD, M2: ComoduleFD):
    """Basis of comodule maps M1 -> M2 over the shared coalgebra C.

    The equations X R1_s = R2_s X are read for s in the generating set J of
    C* only (see ``_generating_set``; every s when there is none).  That
    suffices, by the induction in ``_check_module``'s docstring: the counit
    law gives R1_e = R2_e = I, and every other k is the one term of
    R_i R_s = mu R_k, mu != 0, with s in J and i reached before k, so
    mu X R1_k = X R1_i R1_s = R2_i X R1_s = R2_i R2_s X = mu R2_k X once X
    intertwines at i.  The same holds wherever X R1_s = R2_s X on J is
    asked of comodules over C: ``hom_cat`` and the colinearity checks of
    ``adjunction_unit`` and ``adjunction_counit``.
    """
    C = M1.coalg
    return intertwiner_space(C.at_gens(M1.mats), C.at_gens(M2.mats), M1.dim, M2.dim, C.field)


def find_iso(homs, m, field):
    """An invertible element of the basis ``homs`` of a Hom space into an
    object of dimension m, or None.

    A matrix returned is a certificate of "isomorphic" whatever the objects.
    None is certified when the source is simple: by Schur's lemma every
    nonzero map from a simple object is injective, so a basis element is
    invertible exactly when source and target are isomorphic.
    """
    return next((X for X in homs if inverse(X, m, field) is not None), None)


# ---------------------------------------------------------------------------
# function Hopf algebras and group triples
# ---------------------------------------------------------------------------

def hopf_of_functions(table: GroupTable, field) -> HopfAlgebraFD:
    """Functions on a finite group: pointwise product, Delta dual to mult.
    The table is kept as ``group`` for ``simples``."""
    f = field
    n = table.n
    delta = [dict() for _ in range(n)]
    for g in range(n):
        for x in range(n):
            for y in range(n):
                if table.mult[x][y] == g:
                    delta[g][(x, y)] = f.one
    eps = [f.one if g == table.identity else f.zero for g in range(n)]
    mult = {(i, i): {i: f.one} for i in range(n)}
    unit = {i: f.one for i in range(n)}
    antipode = [[(table.inverse[g], f.one)] for g in range(n)]
    H = HopfAlgebraFD(f, delta, eps, mult, unit, antipode,
                      name=f"O[{'x'.join(table.names[:1])}..n={n}]")
    H.group = table
    return H


class TripleFD:
    """An (O, A, a) triple: embedding iota, surjection pi, right A-action on a.

    iota is a dim A x dim O matrix, pi a dim a x dim A matrix and ract[j] the
    dim a x dim a matrix of the right action of the j-th basis element of A.
    Built once per triple: ``iota_left[i]``, the left product by iota(e_i)
    on A, is the O-action on A, and ``right_coact`` is A as a right
    a-comodule (``a_right_comodule_of_A``).  ``sections`` are vectors of A,
    sparse columns, that ``_freeness_witness`` tries first.
    """

    def __init__(self, O, A, a, iota, pi, ract, name="", sections=()):
        self.O = O
        self.A = A
        self.a = a
        self.iota = iota
        self.pi = pi
        self.ract = ract
        self.sections = list(sections)
        self.name = name or "triple"
        self.field = A.field
        self.iota_left = [combine(col, A.left_products) for col in iota]
        self._induced = {}          # coaction value -> [carrier, Ind or None]; see ``induce``
        self._valid_objects = set()     # object values that passed; see ``TripleObject``
        self._validate()
        self.right_coact = a_right_comodule_of_A(self)

    def group_like(self):
        """pi(1_A): the distinguished group-like element of a, as a sparse column."""
        return mat_mul(self.pi, [_canon(self.A.unit)])[0]

    def _validate(self):
        f = self.field
        O, A, a = self.O, self.A, self.a
        if rank(self.iota, f) != O.dim:
            raise StructureError("iota is not injective")
        if rank(self.pi, f) != a.dim:
            raise StructureError("pi is not surjective")
        # iota is multiplicative and unital exactly when the left products
        # by iota(e_i) are an O-module
        _check_module(self.iota_left, O.mult, O.unit.items(), f.one,
                      "iota is not multiplicative", "iota does not preserve the unit")
        _check_coalgebra_map(self.iota, O, A, "iota is not a coalgebra map")
        _check_coalgebra_map(self.pi, A, a, "pi is not a coalgebra map")
        # pi(x y) = pi(x) . y
        if not intertwines(self.pi, A.right_products, self.ract):
            raise StructureError("pi does not respect the right module structure")


def _check_coalgebra_map(mat, src: CoalgebraFD, tgt: CoalgebraFD, msg):
    """Raise StructureError(msg) unless the matrix of a map src -> tgt is a
    coalgebra map: exactly then is (mat (x) id) Delta_src a tgt-coaction on
    src (apply id (x) id (x) eps_src to its coassociativity, eps_src to its
    counit law)."""
    mats = _pushforward(mat, tgt.dim, src.regular)
    _check_module(mats, tgt.dual_mult, list(enumerate(tgt.eps)), tgt.field.one, msg, msg,
                  tgt.gens)


def finite_group_triple(table: GroupTable, subgroup_names, field=None,
                        name="") -> TripleFD:
    """Triple from a finite group and a normal subgroup."""
    sub = table.subgroup_indices(subgroup_names)
    if not table.is_normal(sub):
        raise StructureError("subgroup is not normal")
    if field is None:
        field = CycloField(table.exponent())
    f = field
    A = hopf_of_functions(table, f)
    quot, rep_of = table.quotient(sub)
    O = hopf_of_functions(quot, f)
    a = hopf_of_functions(table.subgroup_table(sub), f)
    # iota: pullback of functions along the quotient map
    iota = [[(g, f.one) for g in range(table.n) if rep_of[g] == q] for q in range(quot.n)]
    # pi: restriction of functions to the subgroup
    pos = {h: i for i, h in enumerate(sub)}
    pi = [[(pos[g], f.one)] if g in pos else [] for g in range(table.n)]
    # right A-module structure: pointwise product with the restriction
    ract = [[[(i, f.one)] if h == g else [] for i, h in enumerate(sub)]
            for g in range(table.n)]
    # sections of the quotient map: the j-th member of every coset
    sections = [[(g, f.one) for g in sorted(col[j][0] for col in iota)] for j in range(len(sub))]
    return TripleFD(O, A, a, iota, pi, ract, name=name or f"triple({table.n}/{len(sub)})",
                    sections=sections)


def degenerate_triple_aac(A: HopfAlgebraFD) -> TripleFD:
    """The triple (O, A, a) = (A, A, C) with pi the counit collapse."""
    f = A.field
    one_coalg = CoalgebraFD(f, [{(0, 0): f.one}], [f.one], name="C")
    pi = [_canon({0: e}) for e in A.eps]
    return TripleFD(A, A, one_coalg, identity(A.dim, f.one), pi, [[col] for col in pi],
                    name="(A,A,C)")


def shrunk_triple(T: TripleFD) -> TripleFD:
    """Replace O by the trivial sub-Hopf k.1 of A^a; condition (ii) must fail."""
    f = T.field
    one_hopf = HopfAlgebraFD(f, [{(0, 0): f.one}], [f.one],
                             {(0, 0): {0: f.one}}, {0: f.one},
                             identity(1, f.one), name="k")
    return TripleFD(one_hopf, T.A, T.a, [_canon(T.A.unit)], T.pi, T.ract,
                    name=f"shrunk({T.name})")


def degenerate_triple_all_equal(A: HopfAlgebraFD) -> TripleFD:
    """The triple O = A, a = A with identity maps; (iii) fails when the
    augmentation ideal is nontrivial."""
    f = A.field
    a = CoalgebraFD(f, A.delta, A.eps, name="a=A")
    ident = identity(A.dim, f.one)
    # right action x . y = x * y
    return TripleFD(A, A, a, ident, ident, A.right_products, name="(A,A,A)")


# ---------------------------------------------------------------------------
# comodules over A and a derived from the triple
# ---------------------------------------------------------------------------

def a_right_comodule_of_A(T: TripleFD):
    """A as a right a-comodule through (id (x) pi) Delta: one matrix S_c per
    basis element c of a, with entry (y, x) the coefficient of y (x) c in
    the coaction of x."""
    # entry (y, x) of P_z: the coefficient of y (x) z in Delta(x)
    flipped = [{(z, y): v for (y, z), v in d.items()} for d in T.A.delta]
    return _pushforward(T.pi, T.a.dim, coaction_matrices(flipped, T.A.dim))


def res_a_comodule(T: TripleFD, M: ComoduleFD, name="") -> ComoduleFD:
    """Restriction of an A-comodule to a: (pi (x) id) rho."""
    return ComoduleFD(T.a, _pushforward(T.pi, T.a.dim, M.mats), name=name or f"Res({M.name})")


def trivial_a_comodule(T: TripleFD) -> ComoduleFD:
    rho = [{(c, 0): v for c, v in T.group_like()}]
    return ComoduleFD(T.a, coaction_matrices(rho, T.a.dim), name="C_a")


def regular_a_comodule(T: TripleFD) -> ComoduleFD:
    """a coacting on itself through its comultiplication."""
    return ComoduleFD(T.a, T.a.regular, name="a")


class TripleObject:
    """Carrier with an O-action and a compatible A-coaction.

    The coaction is an A-comodule (``ComoduleFD``) whose laws were checked
    when it was built; objects that share one, such as twists, do not check
    them again.  The O-action and its compatibility with the coaction are
    checked here, once per value, per triple: ``key`` is the action's value
    with the comodule's key, and T keeps the keys that passed.
    """

    def __init__(self, T: TripleFD, act, comodule: ComoduleFD, name=""):
        if len(act) != T.O.dim:
            raise StructureError(f"{name or 'object'}: {len(act)} action matrices "
                                 f"for O of dimension {T.O.dim}")
        self.T = T
        self.act = act              # list over O-basis of carrier matrices
        self.comodule = comodule
        self.dim = comodule.dim
        self.name = name or f"object(dim={self.dim})"
        self.key = (tuple(tuple(map(tuple, L)) for L in act), comodule.key)
        self._validate()

    def act_sum(self, terms):
        """sum_k c_k act[k] over the (k, c_k) terms."""
        return combine(terms, self.act)

    def _validate(self):
        T = self.T
        if self.key in T._valid_objects:
            return
        O = T.O
        _check_module(self.act, O.mult, O.unit.items(), T.field.one,
                      f"{self.name}: action not associative",
                      f"{self.name}: unit does not act as identity")
        # compatibility: co-ac(f . m) = Delta(f) . co-ac(m)
        if not _respects_action(self.act, self.comodule.mats, O, T.iota_left):
            raise StructureError(f"{self.name}: action/coaction compatibility fails")
        T._valid_objects.add(self.key)


def _respects_action(act, coact, O: HopfAlgebraFD, left):
    """Whether rho(f . m) = Delta(f) . rho(m) for every O-basis element f.

    ``act`` is an O-action on the carrier and ``coact`` a coaction over C,
    both as their matrices, and ``left[i]`` is the left product on C by the
    image of the i-th basis element of O.  rho is the one matrix from the
    carrier to C (x) carrier that stacks the coaction matrices, and
    Delta(e_i) = sum c f1 (x) f2 acts on C (x) carrier as
    sum c left[f1] (x) act[f2]; the law says rho act[i] equals that sum
    times rho.  Column x of the right side is read off the nonzero entries
    v at (c, y) of rho(e_x) alone: each adds
    sum c v left[f1][c] (x) act[f2][y], so no Kronecker product is built.
    """
    n = len(act[0])
    rho = [[(c * n + y, v) for c, R in enumerate(coact) for y, v in R[x]] for x in range(n)]
    for Ai, d in zip(act, O.delta):
        # per c, the terms whose left[f1] has a nonzero column c, that column
        # scaled by the coefficient of f1 (x) f2
        by_c = [[] for _ in coact]
        for (f1, f2), coef in d.items():
            for c, col in enumerate(left[f1]):
                if col:
                    by_c[c].append(([(r * n, coef * a) for r, a in col], act[f2]))
        for x, lhs in enumerate(mat_mul(rho, Ai)):
            rhs = {}
            for cy, v in rho[x]:
                c, y = divmod(cy, n)
                for col, M in by_c[c]:
                    ys = [(k, v * b) for k, b in M[y]]
                    for base, a in col:
                        for k, b in ys:
                            _acc(rhs, base + k, a * b)
            if _canon(rhs) != lhs:
                return False
    return True


def object_O(T: TripleFD) -> TripleObject:
    """O with left multiplication and the coaction (iota (x) id) Delta_O."""
    return object_O_tensor(T, trivial_A_comodule(T), name="O")


def object_A(T: TripleFD) -> TripleObject:
    return TripleObject(T, T.iota_left, ComoduleFD(T.A, T.A.regular, name="A"), name="A")


def object_O_tensor(T: TripleFD, N: ComoduleFD, name="") -> TripleObject:
    """O (x) N with the action on the first factor and diagonal coaction.

    O coacts on itself through (iota (x) id) Delta_O; the tensor coaction is
    ``comodule_tensor``'s.
    """
    O = T.O
    ident = identity(N.dim, T.field.one)
    act = [kron(L, ident) for L in O.left_products]
    coact_O = ComoduleFD(T.A, _pushforward(T.iota, T.A.dim, O.regular), name="O")
    return TripleObject(T, act, comodule_tensor(coact_O, N, T.A),
                        name=name or f"O(x){N.name}")


# ---------------------------------------------------------------------------
# cotensor, induction, de-equivariantization, adjunction
# ---------------------------------------------------------------------------

def cotensor(right, left, dim_r, dim_l, field):
    """Kernel of rho_r (x) id - id (x) rho_l inside the tensor product.

    ``right`` and ``left`` are coaction matrices of a right and a left
    comodule over one coalgebra C, of dimensions dim_r and dim_l, paired by
    index: entry (y, x) of S_c is the coefficient of y (x) c in rho_r(x),
    entry (z, w) of R_c that of c (x) z in rho_l(w).  Written as the
    dim_r x dim_l matrix V, a vector v satisfies (S_c (x) I) v = (I (x) R_c) v
    when S_c V = V R_c^T: V is an intertwiner from the R_c^T to the S_c.
    These multiply alike, S_t S_i = sum_c delta_c[(t, i)] S_c = (R_i R_t)^T,
    so the argument of ``comodule_hom_space``, each product's factors
    swapped, lets callers pass the pairs at the generating set J of C* only
    (every pair when there is none).

    Returns basis vectors over the flattened index x * dim_l + w, the
    row-major order of the unknowns of ``intertwiner_space``.
    """
    gens = [transpose(R, dim_l) for R in left]
    return [sorted((x * dim_l + w, v) for w, col in enumerate(V) for x, v in col)
            for V in intertwiner_space(gens, right, dim_l, dim_r, field)]


def induce(T: TripleFD, M: ComoduleFD) -> TripleObject:
    """Ind(M) = (A (x) M)^a with left A-coaction and O-action by left product.

    Each triple stores, keyed by the value of the coaction of M, the carrier
    of Ind(M) and, once built, the object (``_stored``).  The first M of a
    value builds and validates it; every M of that value gets that object,
    which callers must not mutate.  Condition (iv b) reads only the carriers
    of its sums.
    """
    entry = _stored(T, M)
    if entry[1] is None:
        entry[1] = _build_induced(T, M, entry[0])
    return entry[1]


def _stored(T: TripleFD, M: ComoduleFD):
    """T's entry [carrier, Ind(M) or None] for the value of M's coaction,
    ``M.key``; the carrier is solved once per value."""
    entry = T._induced.get(M.key)
    if entry is None:
        entry = T._induced[M.key] = [_carrier(T, M), None]
    return entry


def _carrier(T: TripleFD, M: ComoduleFD):
    """The carrier of Ind(M): the cotensor basis of A (x) M."""
    return cotensor(T.a.at_gens(T.right_coact), T.a.at_gens(M.mats), T.A.dim, M.dim, T.field)


def _build_induced(T: TripleFD, M: ComoduleFD, basis=None) -> TripleObject:
    """Ind(M) built from the cotensor, validated; see ``induce``.

    On A (x) M the A-coaction Delta (x) id is the family of matrices
    R_b (x) I_M, with R_b the coaction matrices of A on itself, and the
    O-action is lm_i (x) I_M, with lm_i the left product by iota(e_i).  The
    O-action and R_s (x) I_M for s in the generating set J of A* are
    restricted to the cotensor, and the rest follow by the induction in
    ``_check_module``'s docstring: the counit law gives R_e = I, and on the
    walk of ``_generating_set``, R_i R_s = c R_k with s in J and i before k.
    R_i and R_s keep the cotensor, so R_k does, and as the basis is
    independent its restriction is the unique one ``restrict`` would give:
    c^-1 times the product of the restrictions of R_i and R_s.  ``basis`` is
    the carrier from T's store; without it the cotensor is solved here.
    """
    f, m, A, name = T.field, M.dim, T.A, f"Ind({M.name})"
    basis = _carrier(T, M) if basis is None else basis

    def lift(mat):
        """mat (x) I_M."""
        return [[(r * m + x, a) for r, a in col] for col in mat for x in range(m)]

    coact = [lift(R) for R in A.at_gens(A.regular)]
    mats = restrict(coact + [lift(L) for L in T.iota_left], basis, f)
    if mats is None:
        # the message names the family that leaves the cotensor
        if restrict(coact, basis, f) is None:
            raise StructureError("induced coaction leaves the cotensor subspace")
        raise StructureError(
            "O-action does not preserve the cotensor subspace: condition (ii) fails")
    R = dict(zip(A.at_gens(range(A.dim)), mats))     # s -> restricted R_s, s in J
    for k, i, s, c in A.walk:
        P = mat_mul(R[i], R[s])
        R[k] = P if c == 1 else mat_scale(P, f.one / c)
    ident = identity(len(basis), f.one)         # R_e: e is neither in J nor on the walk
    comodule = ComoduleFD(A, [R.get(k, ident) for k in range(A.dim)], name=name)
    obj = TripleObject(T, mats[len(coact):], comodule, name=name)
    obj.carrier_basis = basis
    return obj


def augmentation_quotient(T: TripleFD, act) -> Quotient:
    """N / m.N for an O-action on N given by one matrix per O-basis element.

    m.N is spanned by the augmentation vectors act[i] e_x - eps_i e_x.
    """
    n = len(act[0])
    ident = identity(n, T.field.one)
    vecs = []
    for L, eps_i in zip(act, T.O.eps):
        # column x of L - eps_i I is act[i] e_x - eps_i e_x
        vecs += [vec for vec in mat_sub(L, mat_scale(ident, eps_i)) if vec]
    return Quotient(vecs, n, T.field)


def psi(T: TripleFD, N: TripleObject, name=""):
    """Psi(N) = N / m.N with the descended a-coaction.

    The a-coaction (pi (x) id) rho of N has the matrices
    S_c = sum_aa pi[c][aa] R_aa over the coaction matrices R of N; each S_c
    must map m.N into itself, and descends to the quotient.  Returns
    (a-comodule Q, the ``Quotient`` N -> Q).
    """
    quot = augmentation_quotient(T, N.act)
    mats = [quot.induced(S) for S in _pushforward(T.pi, T.a.dim, N.comodule.mats)]
    if any(m is None for m in mats):
        raise StructureError("a-coaction does not descend to Psi: compatibility bug")
    Q = ComoduleFD(T.a, mats, name=name or f"Psi({N.name})")
    return Q, quot


def adjunction_unit(T: TripleFD, N: TripleObject):
    """The map N -> Ind(Psi(N)) as an explicit matrix, with morphism checks.

    Returns (matrix, Ind(Psi(N)), Report).
    """
    rep = Report(f"unit[{N.name}]")
    f = T.field
    Q, quot = psi(T, N)
    ind = induce(T, Q)
    span = Span(ind.carrier_basis, T.A.dim * Q.dim, f)
    # column x: the image of e_x, (id (x) projection) rho(e_x), in
    # coordinates on the carrier basis of Ind(Psi(N))
    mat = []
    for x in range(N.dim):
        img = [(aa * Q.dim + r, w) for aa, R in enumerate(N.comodule.mats)
               for r, w in quot.project(R[x])]
        coords = span.coords(img)
        if coords is None:
            rep.fail("lands-in-cotensor", "unit image leaves the subspace",
                     counterexample=f"basis vector {x}")
            return mat + [[] for _ in range(N.dim - x)], ind, rep
        mat.append(coords)
    rep.ok("lands-in-cotensor")
    # O-equivariance and A-colinearity, the latter on the generating set of
    # A* (see ``comodule_hom_space``)
    if intertwines(mat, N.act, ind.act):
        rep.ok("O-equivariant")
    else:
        rep.fail("O-equivariant", "unit does not intertwine the O-action",
                 counterexample=N.name)
    if intertwines(mat, T.A.at_gens(N.comodule.mats), T.A.at_gens(ind.comodule.mats)):
        rep.ok("A-colinear")
    else:
        rep.fail("A-colinear", "unit does not intertwine the A-coaction",
                 counterexample=N.name)
    return mat, ind, rep


def counit_on_carrier(T: TripleFD, ind: TripleObject, m):
    """eps_A (x) id on the carrier of ind = Ind(M), dim M = m, as an
    m x dim ind matrix."""
    out = []
    for vec in ind.carrier_basis:
        col = {}
        for idx, v in vec:
            aa, x = divmod(idx, m)
            e = T.A.eps[aa]
            if e:
                col[x] = col[x] + e * v if x in col else e * v
        out.append(_canon(col))
    return out


def adjunction_counit(T: TripleFD, M: ComoduleFD):
    """The map Psi(Ind(M)) -> M as an explicit matrix, with checks.

    Returns (matrix, Psi(Ind(M)) comodule, Report).
    """
    rep = Report(f"counit[{M.name}]")
    ind = induce(T, M)
    Q2, quot = psi(T, ind)
    c_on_s = counit_on_carrier(T, ind, M.dim)
    # must kill m.Ind(M), whose reduced basis psi has built; it then factors
    # through the free coordinates of the quotient
    if not mat_is_zero(mat_mul(c_on_s, quot.sub.sorted_rows())):
        rep.fail("descends", "counit does not kill the augmentation part",
                 counterexample=M.name)
        return None, Q2, rep
    rep.ok("descends")
    mat = [c_on_s[fc] for fc in quot.free]
    # a-colinearity, on the generating set of a* (see ``comodule_hom_space``)
    if intertwines(mat, T.a.at_gens(Q2.mats), T.a.at_gens(M.mats)):
        rep.ok("a-colinear")
    else:
        rep.fail("a-colinear", "counit is not a comodule map",
                 counterexample=M.name)
    return mat, Q2, rep


def hom_cat(T: TripleFD, N1: TripleObject, N2: TripleObject):
    """Basis of Cat-morphisms: the maps that intertwine the coaction matrices
    of A (so they are A-colinear) and the O-action (O-equivariant).

    The coaction matrices are those at the generating set of A*, as in
    ``comodule_hom_space``.  The O-action is taken whole: O's pointwise
    product has no generating set of basis elements.  Where its matrices are
    diagonal, as on every call of the five golden triples, the kernel takes
    them as labels, not equations.
    """
    A = T.A
    return intertwiner_space(A.at_gens(N1.comodule.mats) + N1.act,
                             A.at_gens(N2.comodule.mats) + N2.act, N1.dim, N2.dim, T.field)


# ---------------------------------------------------------------------------
# conditions (i)-(iv)
# ---------------------------------------------------------------------------

def check_conditions(T: TripleFD, catalog=None) -> Report:
    """Exact verification of the triple conditions.

    (i)   pi . iota = unit . counit;
    (ii)  the a-invariants of A coincide with the image of iota;
    (iii) m.A equals the kernel of pi;
    (iv a) a freeness witness: basis elements of A exhibiting it as a free
           O-module (reported as free/unknown, never "not flat");
    (iv b) induction is exact on split short exact sequences assembled from
           the catalog and faithful on its simple objects.  Each catalog
           member is induced in full; of each sum M1 (+) M2 only the
           carrier is read, the cotensor basis solved from the sum's own
           coaction (``_stored``).  Building Ind(M1 (+) M2) would check
           nothing new: the equations of ``cotensor`` are block diagonal in
           M1 (+) M2, so its cotensor is the direct sum of the summands',
           the O-action and the coaction act blockwise, and the builds of
           M1 and M2 checked that the O-action keeps their cotensors and
           that the restricted coactions are comodules.
    """
    rep = Report(f"conditions[{T.name}]")
    f = T.field
    # (i)
    gl = T.group_like()
    j = next((j for j, img in enumerate(mat_mul(T.pi, T.iota))
              if img != mat_scale([gl], T.O.eps[j])[0]), None)
    if j is None:
        rep.ok("i", "pi . iota factors through the counit")
    else:
        rep.fail("i", "pi . iota does not factor through the counit",
                 counterexample=f"O basis index {j}")

    # (ii): invariants of the right a-comodule structure on A
    # x is invariant when rho_r(x) = x (x) g, that is S_c x = g_c x: a map
    # into A from the one-dimensional comodule with R_c = [g_c]
    S, g = T.right_coact, dict(gl)
    line = [[[(0, g[c])] if c in g else []] for c in range(len(S))]
    inv_basis = [X[0] for X in intertwiner_space(line, S, 1, T.A.dim, f)]
    span = RowBasis(f, T.iota)
    if len(inv_basis) == span.dim and all(span.contains(v) for v in inv_basis):
        rep.ok("ii", f"A^a has dimension {len(inv_basis)} = dim O")
    else:
        rep.fail("ii", "A^a differs from the image of O",
                 counterexample=f"dim A^a = {len(inv_basis)}, dim O = {span.dim}")

    # (iii): m.A vs ker(pi)
    maug = augmentation_quotient(T, T.iota_left).sub
    ker_span = RowBasis(f, sparse_nullspace(transpose(T.pi, T.a.dim), T.A.dim, f))
    if maug.dim == ker_span.dim and all(ker_span.contains(r) for r in maug.sorted_rows()):
        rep.ok("iii", f"m.A = Ker(pi), dimension {maug.dim}")
    else:
        rep.fail("iii", "m.A differs from Ker(pi)",
                 counterexample=f"dim m.A = {maug.dim}, dim Ker(pi) = {ker_span.dim}")

    # (iv a): freeness witness
    witness = _freeness_witness(T)
    if witness is not None:
        rep.ok("iv_a", f"A is O-free on basis elements {witness}")
    else:
        rep.skip("iv_a", "no freeness witness found (flatness unknown)")

    # (iv b): exactness and faithfulness witnesses on the catalog
    if catalog is None:
        rep.skip("iv_b", "no catalog supplied")
    else:
        dims = [induce(T, M).dim for M in catalog]
        detail = [f"Ind({M.name}) = 0" for M, d in zip(catalog, dims) if M.dim > 0 and d == 0]
        # additivity on split exact sequences from pairs
        for i1 in range(len(catalog)):
            for i2 in range(i1, len(catalog)):
                M1, M2 = catalog[i1], catalog[i2]
                if len(_stored(T, comodule_direct_sum(M1, M2))[0]) != dims[i1] + dims[i2]:
                    detail.append(f"Ind not additive on {M1.name}(+){M2.name}")
        if not detail:
            rep.ok("iv_b", "induction exact on split sequences, faithful on simples")
        else:
            rep.fail("iv_b", "; ".join(detail), counterexample=detail[0])
    return rep


def _freeness_witness(T: TripleFD):
    """Vectors a_1..a_k of A with A = (+) O.a_j, or None if none found."""
    f = T.field
    if T.A.dim % T.O.dim != 0:
        return None
    k = T.A.dim // T.O.dim
    candidates = [(f"section[{j}]", vec) for j, vec in enumerate(T.sections)]
    for x in range(T.A.dim):
        candidates.append((f"basis[{x}]", [(x, f.one)]))
    # last, the unit: when O = A, O.1_A = A is free of rank one
    candidates.append(("unit", _canon(T.A.unit)))

    basis = RowBasis(f)
    chosen = []
    for label, cand in candidates:
        # try the candidate on a copy; keep the copy only if O.cand is free
        trial = basis.copy()
        if sum(1 for lm in T.iota_left if trial.add(mat_mul(lm, [cand])[0])) == T.O.dim:
            basis = trial
            chosen.append(label)
            if len(chosen) == k:
                return chosen
    return None


def comodule_direct_sum(M1: ComoduleFD, M2: ComoduleFD) -> ComoduleFD:
    return ComoduleFD(M1.coalg, [block_diag(R1, R2) for R1, R2 in zip(M1.mats, M2.mats)],
                      name=f"{M1.name}(+){M2.name}")


# ---------------------------------------------------------------------------
# simple comodules of functions on a finite group, splitting cyclotomic field
# ---------------------------------------------------------------------------

def abelian_characters(table: GroupTable, field):
    """All characters of an abelian group, values in the cyclotomic field."""
    f = field
    e = table.exponent()
    if f.n % e != 0:
        raise StructureError(
            f"field Q(zeta_{f.n}) does not contain the needed roots of unity")
    gens = table.gens
    choices = []
    for g in gens:
        o = table.order_of(g)
        choices.append([f.zeta((f.n // o) * j) for j in range(o)])
    chars = []
    def assign(vals):
        chi = {table.identity: f.one}
        frontier = [table.identity]
        while frontier:
            new = []
            for x in frontier:
                for g, val in zip(gens, vals):
                    y = table.mult[x][g]
                    cand = chi[x] * val
                    if y in chi:
                        if chi[y] != cand:
                            return None
                    else:
                        chi[y] = cand
                        new.append(y)
            frontier = new
        if len(chi) != table.n:
            return None
        return [chi[x] for x in range(table.n)]

    import itertools
    for vals in itertools.product(*choices):
        chi = assign(list(vals))
        if chi is not None and chi not in chars:
            chars.append(chi)
    if len(chars) != table.n:
        raise StructureError("character enumeration failed (field not splitting?)")
    return chars


def group_simples(coalg: CoalgebraFD):
    """The simple comodules of the functions ``coalg`` on the group ``coalg.group``,
    exact over a splitting field, found by splitting the regular comodule.

    The regular coaction matrix R_g is left translation by g^-1, so the
    projectors, sums over group elements h, take R at h^-1.  Spins and the
    Schur and novelty tests read the matrices at the generating set of the
    dual algebra only, as ``comodule_hom_space`` does.

    The answer carries its certificate.  The group algebra is semisimple, so
    a comodule with a one-dimensional End is simple, one with no map from a
    simple kept earlier is new, and distinct simples with sum d^2 = |G| are
    all of them.  A span with total + d^2 > |G| is therefore no new simple
    and is passed over untested.  One deterministic pass over the candidates
    either reaches that sum or raises ``StructureError``.
    """
    table = coalg.group
    f = coalg.field
    reg = coalg.regular
    gens = coalg.at_gens(reg)
    inv_of = table.inverse
    comm = table.commutator_subgroup()
    quot, rep_of = table.quotient(comm)
    chars = abelian_characters(quot, f)
    out = [ComoduleFD(coalg, [[[(0, chi[rep_of[inv_of[g]]])]] for g in range(table.n)],
                      name=f"chi{k}") for k, chi in enumerate(chars)]
    total = len(out)
    if total == table.n:
        return out
    # complement of the one-dimensional isotypics inside the regular comodule
    inv = f.from_int(table.n).inverse()
    proj_sum = combine(((inv_of[g], chi[rep_of[inv_of[g]]] * inv)
                        for chi in chars for g in range(table.n)), reg)
    # kernel of the summed projector is the remaining isotypic part
    comp = sparse_nullspace(transpose(proj_sum, table.n), table.n, f)

    def candidates():
        # the basis of the complement, then its character projections along
        # cyclic subgroups: a non-scalar finite-order matrix has several
        # eigenvalues, so projecting onto one of them cuts a split
        # two-dimensional block down to rank one
        yield from comp
        for g in range(table.n):
            o = table.order_of(g)
            if o == 1:
                continue
            powers = [table.identity]          # g^t, t < o
            for _ in range(o - 1):
                powers.append(table.mult[g][powers[-1]])
            for j in range(o):
                # sum_t zeta_o^(-j t) g^t, applied to each u in comp
                proj = combine([(inv_of[h], f.zeta((-(f.n // o) * j * t) % f.n))
                                for t, h in enumerate(powers)], reg)
                yield from (v for v in mat_mul(proj, comp) if v)

    for v in candidates():
        rows = spin(gens, [v], f).sorted_rows()
        d = len(rows)
        if total + d ** 2 > table.n:
            continue
        W = restrict(gens, rows, f)
        # Schur: a simple candidate has a one-dimensional End, and a new one
        # no map from any simple found so far
        if len(intertwiner_space(W, W, d, d, f)) != 1:
            continue
        if any(intertwiner_space(W, coalg.at_gens(s.mats), d, s.dim, f) for s in out):
            continue
        # the span is stable under the generators, so under every R_g
        out.append(ComoduleFD(coalg, restrict(reg, rows, f), name=f"S{len(out)}"))
        total += d ** 2
        if total == table.n:
            return out
    raise StructureError("could not split the regular comodule into simples")


def simples(C: CoalgebraFD):
    """The simple C-comodules, found once per coalgebra from its ``group``
    table; a fresh list per call.  Without a table it raises StructureError."""
    if C._simple_comodules is None:
        if getattr(C, "group", None) is None:
            raise StructureError(f"{C.name}: no simple catalog (no group table recorded)")
        C._simple_comodules = group_simples(C)
    return list(C._simple_comodules)


def O_comodule_pullback(T: TripleFD, V: ComoduleFD) -> ComoduleFD:
    """An O-comodule pushed forward along iota to an A-comodule."""
    return ComoduleFD(T.A, _pushforward(T.iota, T.A.dim, V.mats), name=f"F*({V.name})")


def comodule_tensor(M1: ComoduleFD, M2: ComoduleFD, A: HopfAlgebraFD) -> ComoduleFD:
    """Tensor of comodules over a bialgebra: diagonal coaction.

    Its coaction matrix at b is one ``kron_sum`` of c R1_a1 (x) R2_a2 over
    the products a1 a2 whose coefficient at b is c.
    """
    terms = [[] for _ in range(A.dim)]
    for (a1, a2), prod in A.mult.items():
        for b, c in prod.items():
            terms[b].append((mat_scale(M1.mats[a1], c), M2.mats[a2]))
    n = M1.dim * M2.dim
    mats = [kron_sum(t) if t else [[] for _ in range(n)] for t in terms]
    return ComoduleFD(A, mats, name=f"{M1.name}(x){M2.name}")


def trivial_A_comodule(T: TripleFD) -> ComoduleFD:
    rho = [{(k, 0): v for k, v in T.A.unit.items()}]
    return ComoduleFD(T.A, coaction_matrices(rho, T.A.dim), name="C_A")


# ---------------------------------------------------------------------------
# equivalence verification
# ---------------------------------------------------------------------------

def standard_catalogs(T: TripleFD):
    """(a-comodule catalog, Cat-object catalog) per the verification contract."""
    a_cat = simples(T.a) + [regular_a_comodule(T), trivial_a_comodule(T)]
    cat = [object_O(T), object_A(T)] + [object_O_tensor(T, N) for N in simples(T.A)]
    return a_cat, cat


def verify_equivalence(T: TripleFD) -> Report:
    """Both adjunction transformations are bijective on the full catalog."""
    rep = Report(f"equivalence[{T.name}]")
    f = T.field
    a_cat, cat = standard_catalogs(T)
    cond = check_conditions(T, catalog=a_cat)
    rep.extend(cond, prefix="cond/")
    for N in cat:
        mat, ind, urep = adjunction_unit(T, N)
        rep.extend(urep, prefix=f"unit[{N.name}]/")
        if inverse(mat, ind.dim, f) is not None:
            rep.ok(f"unit-bijective[{N.name}]")
        else:
            rep.fail(f"unit-bijective[{N.name}]",
                     f"dim N = {N.dim}, dim Ind(Psi(N)) = {ind.dim}",
                     counterexample=N.name)
    for M in a_cat:
        mat, Q2, crep = adjunction_counit(T, M)
        rep.extend(crep, prefix=f"counit[{M.name}]/")
        if mat is not None and inverse(mat, M.dim, f) is not None:
            rep.ok(f"counit-bijective[{M.name}]")
        else:
            rep.fail(f"counit-bijective[{M.name}]",
                     f"dim M = {M.dim}, dim Psi(Ind(M)) = {Q2.dim}",
                     counterexample=M.name)
    # adjunction on hom-spaces: dim Hom_Cat(N, Ind(M)) = dim Hom_a(Psi(N), M)
    inds = [induce(T, M) for M in a_cat]
    for N in cat:
        Q, _ = psi(T, N)
        for M, ind in zip(a_cat, inds):
            lhs = len(hom_cat(T, N, ind))
            rhs = len(comodule_hom_space(Q, M))
            if lhs == rhs:
                rep.ok(f"hom-adjunction[{N.name},{M.name}]", f"dim = {lhs}")
            else:
                rep.fail(f"hom-adjunction[{N.name},{M.name}]",
                         f"dim Hom_Cat = {lhs} != dim Hom_a = {rhs}",
                         counterexample=f"({N.name}, {M.name})")
    return rep


# ---------------------------------------------------------------------------
# twisting by points of Spec(O)
# ---------------------------------------------------------------------------

def points_of_O(T: TripleFD):
    """All algebra maps O -> k for a function Hopf algebra: the evaluations."""
    f = T.field
    O = T.O
    # the basis consists of orthogonal idempotents summing to 1: the product
    # by e_i keeps e_i and kills every other basis element
    for i, L in enumerate(O.left_products):
        if L != [[(i, f.one)] if j == i else [] for j in range(O.dim)]:
            raise StructureError("O is not a function algebra on points")
    if _canon(O.unit) != [(i, f.one) for i in range(O.dim)]:
        raise StructureError("O unit is not the sum of basis idempotents")
    return [[f.one if j == i else f.zero for j in range(O.dim)] for i in range(O.dim)]


def point_convolution(T: TripleFD, g1, g2):
    """Group law on points: (g1 * g2)(f) = sum g1(f_1) g2(f_2)."""
    return [sum((c * g1[j] * g2[k] for (j, k), c in d.items()), T.field.zero) for d in T.O.delta]


def twist(T: TripleFD, gamma, N: TripleObject, name="") -> TripleObject:
    """Precompose the O-action with the translation automorphism of gamma.

    The twisted action is f . m = sum gamma(f_2) f_1 . m, with gamma on the
    last Sweedler factor: the compatibility law
    rho(f . m) = sum iota(f_1) (x) f_2 . m holds for it whenever it holds for
    N.  Acting on the first factor instead gives the same action only when
    Delta_O is cocommutative, that is, when the quotient group is abelian.
    """
    # gamma is an algebra map exactly when its values, as 1 x 1 matrices,
    # are an O-module
    _check_module([[_canon({0: g})] for g in gamma], T.O.mult, T.O.unit.items(), T.field.one,
                  "gamma is not multiplicative", "gamma does not preserve the unit")
    act = [N.act_sum((j, c * gamma[k]) for (j, k), c in T.O.delta[i].items() if gamma[k])
           for i in range(T.O.dim)]
    return TripleObject(T, act, N.comodule, name=name or f"twist({N.name})")


def identity_point(T: TripleFD):
    """The counit of O: the identity element of Spec(O)."""
    return list(T.O.eps)


# ---------------------------------------------------------------------------
# equivariant objects and reconstruction
# ---------------------------------------------------------------------------

class EquivariantObject:
    """Cat-object together with a compatible O-coaction (the Gamma-structure),
    held as an O-comodule on the carrier; its comodule laws were checked
    when it was built."""

    def __init__(self, N: TripleObject, gamma: ComoduleFD, name=""):
        self.N = N
        self.gamma = gamma
        self.name = name or f"equivariant({N.name})"
        self._validate()

    def _validate(self):
        O = self.N.T.O
        # Hopf-module law: rho_o(f.n) = Delta(f) . rho_o(n)
        if not _respects_action(self.N.act, self.gamma.mats, O, O.left_products):
            raise StructureError(f"{self.name}: Hopf-module law fails")
        # commuting coactions: every coaction matrix of O commutes with every
        # one of A
        RA = self.N.comodule.mats
        if not all(intertwines(R, RA, RA) for R in self.gamma.mats):
            raise StructureError(f"{self.name}: coactions do not commute")


def equivariant_of(T: TripleFD, P: ComoduleFD) -> EquivariantObject:
    """Canonical equivariant object attached to an A-comodule P.

    The Cat-object is O (x) P (which realizes Ind(Res P)); the Gamma-structure
    is Delta_O on the first factor.  The A-coaction reaches that factor
    through Delta_O from the same side, so the two coactions commute only
    when Delta_O is cocommutative, that is, when the quotient group is
    abelian; otherwise a StructureError is raised before anything is built.
    """
    if any(_strip(d) != _strip({(k, j): c for (j, k), c in d.items()}) for d in T.O.delta):
        raise StructureError(
            f"equiv({P.name}): Delta_O is not cocommutative (nonabelian quotient)")
    N = object_O_tensor(T, P, name=f"O(x){P.name}")
    ident = identity(P.dim, T.field.one)
    name = f"equiv({P.name})"
    gamma = ComoduleFD(T.O, [kron(R, ident) for R in T.O.regular], name=name)
    return EquivariantObject(N, gamma, name=name)


def equivariant_reconstruct(T: TripleFD, E: EquivariantObject):
    """Fiber at the identity point: coinvariants of the Gamma-structure,
    carrying the descended A-coaction.  Returns (A-comodule, inclusion)."""
    f = T.field
    N = E.N
    # x is coinvariant when rho_o(x) = 1 (x) x, that is R_o x = 1_o x: a map
    # into N from the one-dimensional comodule with R_o = [1_o]
    unit = T.O.unit
    line = [[[(0, unit[o])] if unit.get(o) else []] for o in range(T.O.dim)]
    basis = [X[0] for X in intertwiner_space(line, E.gamma.mats, 1, N.dim, f)]
    # descended A-coaction on the coinvariants
    mats = restrict(N.comodule.mats, basis, f)
    if mats is None:
        raise StructureError(
            "A-coaction does not preserve the coinvariants: "
            "incompatible equivariance data")
    P = ComoduleFD(T.A, mats, name=f"fiber({E.name})")
    return P, basis


# ---------------------------------------------------------------------------
# the ideal proposition
# ---------------------------------------------------------------------------

def verify_ideal_prop(T: TripleFD, a_catalog=None) -> Report:
    """Hypotheses: (i), (ii) and surjectivity of Res(Ind(M)) -> M on the
    catalog of simple a-comodules; conclusion: m.A = Ker(pi)."""
    rep = Report(f"ideal[{T.name}]")
    f = T.field
    cond = check_conditions(T)
    for c in cond.checks:
        if c.name in ("i", "ii"):
            rep.checks.append(c)
            if c.status == "fail":
                rep.fail("hypotheses", f"condition {c.name} fails upstream",
                         counterexample=c.name)
                return rep
    if a_catalog is None:
        a_catalog = simples(T.a)
    for M in a_catalog:
        # Res(Ind(M)) -> M: counit of the plain adjunction
        counit = counit_on_carrier(T, induce(T, M), M.dim)
        if rank(counit, f) == M.dim:
            rep.ok(f"surjective[{M.name}]")
        else:
            rep.fail(f"surjective[{M.name}]", "Res(Ind(M)) -> M not surjective",
                     counterexample=M.name)
    # conclusion
    for c in cond.checks:
        if c.name == "iii":
            if c.status == "pass":
                rep.ok("m.A=Ker(pi)", c.details)
            else:
                rep.fail("m.A=Ker(pi)", c.details, counterexample="iii")
    return rep

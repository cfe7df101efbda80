"""Root data, the ell-form, the maps phi and phi_sc, and affine Weyl combinatorics.

Weights live in the fundamental-weight basis of X (integer tuples of length
rank).  Coweight-side elements come in two coordinate systems: Y-elements in
the simple-coroot basis, dual weight-lattice elements in the fundamental
coweight basis (their pairings with the simple roots).

The affine Weyl group is Y x| W acting on X through the dot action: the
finite part is centered at -rho and Y translates by phi(Y).  Orbits are
decided by an exact canonical form, not by search: two weights are dot-linked
iff some finite Weyl element matches them modulo the translation lattice.
"""

from __future__ import annotations

from collections import namedtuple

# Cartan matrices a[i][j] = <coroot_i, root_j> and symmetrizers d_i
# (d_i * a[i][j] symmetric).
CARTAN_DATA = {
    "A1": (((2,),), (1,)),
    "A2": (((2, -1), (-1, 2)), (1, 1)),
    "B2": (((2, -2), (-1, 2)), (1, 2)),
    "G2": (((2, -3), (-1, 2)), (1, 3)),
}


class RootDatum(namedtuple("RootDatum", "cartan_type a d rank alpha rho")):
    """Immutable root datum: a holds the Cartan matrix rows, d the
    symmetrizers, alpha the simple roots in fundamental-weight coordinates."""

    __slots__ = ()

    def pairing(self, i: int, lam) -> int:
        """<coroot_i, lam> = i-th fundamental coordinate."""
        return lam[i]

    def weyl_group(self):
        return weyl_group(self)

    def __repr__(self):
        return f"RootDatum({self.cartan_type})"


def build_root_datum(cartan_type: str) -> RootDatum:
    if cartan_type not in CARTAN_DATA:
        raise ValueError(f"unsupported Cartan type: {cartan_type!r}")
    a, d = CARTAN_DATA[cartan_type]
    r = len(d)
    for i in range(r):
        for j in range(r):
            if d[i] * a[i][j] != d[j] * a[j][i]:
                raise AssertionError("Cartan data is not symmetrizable")
    alpha = tuple(tuple(a[j][i] for j in range(r)) for i in range(r))
    rho = (1,) * r
    return RootDatum(cartan_type, a, d, r, alpha, rho)


def simple_reflection_matrix(datum: RootDatum, i: int):
    """Matrix of s_i on X in fundamental-weight coordinates (rows act on the left)."""
    r = datum.rank
    # s_i(e_k) has j-th coordinate delta_jk - delta_ki * (alpha_i)_j
    mat = [[0] * r for _ in range(r)]
    for k in range(r):
        for j in range(r):
            mat[j][k] = (1 if j == k else 0) - (datum.alpha[i][j] if k == i else 0)
    return tuple(tuple(row) for row in mat)


_WEYL_ORDERS = {"A1": 2, "A2": 6, "B2": 8, "G2": 12}


def weyl_group(datum: RootDatum):
    """All elements of W as matrices on X (tuples of rows)."""
    gens = [simple_reflection_matrix(datum, i) for i in range(datum.rank)]
    ident = tuple(tuple(1 if i == j else 0 for j in range(datum.rank))
                  for i in range(datum.rank))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                wg = tuple(tuple(sum(g[i][k] * w[k][j] for k in range(datum.rank))
                                 for j in range(datum.rank))
                           for i in range(datum.rank))
                if wg not in seen:
                    seen.add(wg)
                    new.append(wg)
        frontier = new
    assert len(seen) == _WEYL_ORDERS[datum.cartan_type]
    return sorted(seen)


def apply_matrix(w, lam):
    return tuple(sum(w[i][j] * lam[j] for j in range(len(lam))) for i in range(len(lam)))


class EllForm:
    """The integral form ( , )_ell on Y and the maps phi, phi_sc into X."""

    def __init__(self, datum: RootDatum, params):
        if len(params.d) != datum.rank or params.d != datum.d:
            raise ValueError("params.d must match the root datum symmetrizers")
        self.datum = datum
        self.params = params
        r = datum.rank
        self.ell_i = params.ell_i
        # (coroot_i, coroot_j)_ell = ell_i * a[j][i]
        self.gram = tuple(tuple(self.ell_i[i] * datum.a[j][i] for j in range(r))
                          for i in range(r))

    def pair(self, mu_y, nu_y) -> int:
        """( , )_ell between two Y-elements in coroot coordinates."""
        r = self.datum.rank
        return sum(mu_y[i] * self.gram[i][j] * nu_y[j]
                   for i in range(r) for j in range(r))

    def phi(self, mu_y) -> tuple:
        """phi(mu) in X, fundamental-weight coordinates; mu in coroot coordinates."""
        r = self.datum.rank
        a = self.datum.a
        return tuple(self.ell_i[i] * sum(mu_y[j] * a[j][i] for j in range(r))
                     for i in range(r))

    def phi_sc(self, mu_sc) -> tuple:
        """phi_sc(mu) in X; mu in fundamental-coweight coordinates."""
        return tuple(self.ell_i[i] * mu_sc[i] for i in range(len(mu_sc)))

    def embed_y_in_sc(self, mu_y) -> tuple:
        """Coroot-coordinates -> fundamental-coweight coordinates."""
        r = self.datum.rank
        a = self.datum.a
        return tuple(sum(mu_y[j] * a[j][i] for j in range(r)) for i in range(r))

    def translation_lattice(self):
        """Rows generating phi(Y) inside X."""
        r = self.datum.rank
        basis = []
        for j in range(r):
            e = tuple(1 if k == j else 0 for k in range(r))
            basis.append(self.phi(e))
        return basis

    def translation_lattice_sc(self):
        r = self.datum.rank
        return [self.phi_sc(tuple(1 if k == j else 0 for k in range(r)))
                for j in range(r)]


def phi(mu_y, params, datum: RootDatum) -> tuple:
    return EllForm(datum, params).phi(mu_y)


def phi_sc(mu_sc, params, datum: RootDatum) -> tuple:
    return EllForm(datum, params).phi_sc(mu_sc)


# ---------------------------------------------------------------------------
# dot action and orbits
# ---------------------------------------------------------------------------

def dot_reflect(datum: RootDatum, i: int, lam) -> tuple:
    """s_i . lam = s_i(lam + rho) - rho."""
    nu = tuple(l + 1 for l in lam)
    s = apply_matrix(simple_reflection_matrix(datum, i), nu)
    return tuple(x - 1 for x in s)


def _hnf_rows(rows):
    """Hermite normal form (upper triangular, positive pivots) of a full-rank
    integer row lattice basis."""
    rows = [list(r) for r in rows]
    n = len(rows[0])
    out = []
    col = 0
    work = rows
    for col in range(n):
        # find a row with nonzero entry in this column, reduce via gcd steps
        pivot_rows = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pivot_rows:
            raise AssertionError("translation lattice is not full rank")
        while len(pivot_rows) > 1:
            pivot_rows.sort(key=lambda r: abs(r[col]))
            base = pivot_rows[0]
            new_rows = [base]
            for r in pivot_rows[1:]:
                q = r[col] // base[col]
                rr = [x - q * y for x, y in zip(r, base)]
                if rr[col] != 0:
                    new_rows.append(rr)
                elif any(rr):
                    rest.append(rr)
            pivot_rows = new_rows
        pivot = pivot_rows[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        out.append(pivot)
        work = rest
    # reduce entries above each pivot
    for i in range(len(out) - 1, -1, -1):
        for k in range(i):
            q = out[k][i] // out[i][i]
            if q:
                out[k] = [x - q * y for x, y in zip(out[k], out[i])]
    return out


class DotOrbits:
    """Canonical forms for the dot action of W_aff = phi(Y) x| W on X."""

    def __init__(self, datum: RootDatum, params, sc: bool = False):
        self.datum = datum
        self.params = params
        self.form = EllForm(datum, params)
        lattice = (self.form.translation_lattice_sc() if sc
                   else self.form.translation_lattice())
        self.hnf = _hnf_rows(lattice)
        self.weyl = weyl_group(datum)

    def _coset_rep(self, x):
        x = list(x)
        for i, row in enumerate(self.hnf):
            q = x[i] // row[i]
            if q:
                for j in range(len(x)):
                    x[j] -= q * row[j]
        return tuple(x)

    def orbit_key(self, lam) -> tuple:
        """Canonical representative of lam + rho modulo W and phi(Y)."""
        nu = tuple(l + 1 for l in lam)
        return min(self._coset_rep(apply_matrix(w, nu)) for w in self.weyl)

    def is_singular(self, lam) -> bool:
        """Nontrivial stabilizer in W_aff under the dot action."""
        nu = tuple(l + 1 for l in lam)
        base = self._coset_rep(nu)
        count = sum(1 for w in self.weyl
                    if self._coset_rep(apply_matrix(w, nu)) == base)
        return count > 1

    def same_block(self, lam1, lam2) -> bool:
        return self.orbit_key(lam1) == self.orbit_key(lam2)

    def orbit_in_window(self, lam, window):
        """All dot-orbit points of lam inside a coordinate box.

        window: sequence of (lo, hi) inclusive bounds per coordinate.
        """
        key = self.orbit_key(lam)
        out = set()
        for point in _box_points(window):
            if self.orbit_key(point) == key:
                out.add(point)
        return out

    def bfs_orbit_in_window(self, lam, window):
        """Breadth-first closure under the generators restricted to the window.

        Test oracle for orbit_in_window; may undercount points reachable only
        through excursions outside the window.
        """
        if not _in_box(lam, window):
            return set()
        gens_t = self.form.translation_lattice()
        seen = {tuple(lam)}
        frontier = [tuple(lam)]
        while frontier:
            new = []
            for x in frontier:
                candidates = [dot_reflect(self.datum, i, x)
                              for i in range(self.datum.rank)]
                for t in gens_t:
                    candidates.append(tuple(a + b for a, b in zip(x, t)))
                    candidates.append(tuple(a - b for a, b in zip(x, t)))
                for c in candidates:
                    if c not in seen and _in_box(c, window):
                        seen.add(c)
                        new.append(c)
            frontier = new
        return seen


def _in_box(x, window):
    return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, window))


def _box_points(window):
    if not window:
        yield ()
        return
    lo, hi = window[0]
    for head in range(lo, hi + 1):
        for tail in _box_points(window[1:]):
            yield (head,) + tail


def same_block(lam1, lam2, params, datum: RootDatum) -> bool:
    return DotOrbits(datum, params).same_block(lam1, lam2)


def orbit_in_window(lam, window, params, datum: RootDatum):
    return DotOrbits(datum, params).orbit_in_window(lam, window)


def is_dominant(lam) -> bool:
    return all(x >= 0 for x in lam)


def steinberg_decompose(lam, params, datum: RootDatum):
    """lam = lam1 + phi_sc(mu) with lam1 restricted and mu dominant.

    Returns (lam1 in X, mu in fundamental-coweight coordinates).
    """
    if not is_dominant(lam):
        raise ValueError("weight must be dominant")
    ell_i = params.ell_i
    lam1 = tuple(l % ell_i[i] for i, l in enumerate(lam))
    mu = tuple((l - lam1[i]) // ell_i[i] for i, l in enumerate(lam))
    return lam1, mu

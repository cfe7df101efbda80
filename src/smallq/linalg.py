"""Exact linear algebra over the scalar tower.

A vector is stored as a sparse column: the list of the (index, entry) pairs
of its nonzero entries, in increasing index order, with no zero entry.  A
matrix is the list of its columns in that form.  Every vector and every
matrix column has this one form -- span bases, equations, the rows of a
``RowBasis``, spin seeds and images, coordinate vectors, and the columns of
matrices that act on a carrier, map one carrier to another or are structure
maps of a Hopf algebra or a triple -- and the kernels below take and return
it.  In that form two vectors or matrices are equal exactly when their lists
are, so ``mat_eq`` compares lists.  Neither the length of a vector nor the
number of rows of a matrix is stored: ``Span``, ``Quotient``,
``sparse_nullspace``, ``transpose`` and ``inverse`` take it, ``restrict``,
``kron`` and ``kron_sum`` read it from a square matrix and ``block_diag``
from its square factors.  Kernels may share a column between their inputs
and their output; nothing changes a column in place.

``kron_sum`` is the one kernel for a sum of Kronecker products: the
coproduct expansion of a tensor product's divided powers
(``repcore._coproduct_families``), the diagonal coaction of a tensor of
comodules (``hopfcore.comodule_tensor``) and e (x) 1 + 1 (x) e
(``frobenius.rep_tensor``).  ``kron`` stays for a lone product.

The kernels work for any scalar with +, -, * and truthiness (zero test) and
no zero divisors, so a product of nonzero entries is never a zero entry:
CycloElem, LaurentPoly and Python ints alike (``repcore.packed_residual``
runs the generic identities through ``mat_mul`` and ``combine`` on ints).
The elimination routines need a field (CycloElem) because they invert
pivots.  The kernels that pair two lists -- the columns of two matrices, or
source and target generators -- refuse lists of unequal length.
"""

from __future__ import annotations


def _canon(acc):
    """The sparse column of the {index: entry} map acc."""
    return [(r, acc[r]) for r in sorted(acc) if acc[r]]


def _add_into(acc, col, c):
    """acc += c * col for a {index: entry} map acc."""
    for r, a in col:
        a = c * a
        v = acc.get(r)
        acc[r] = a if v is None else v + a


def _image(A, col):
    """A col: the sum of b A[t] over the entries (t, b) of col."""
    if len(col) == 1:
        t, b = col[0]
        return [(r, a * b) for r, a in A[t]]
    acc = {}
    for t, b in col:
        _add_into(acc, A[t], b)
    return _canon(acc)


def identity(n, one):
    return [[(j, one)] for j in range(n)]


def mat_mul(A, B):
    """A B: column j is the image of B[j] under A."""
    return [_image(A, col) for col in B]


def _col_sum(x, y):
    if not y:
        return x
    if not x:
        return y
    acc = dict(x)
    for r, b in y:
        a = acc.get(r)
        acc[r] = b if a is None else a + b
    return _canon(acc)


def mat_sum(A, B):
    return [_col_sum(x, y) for x, y in zip(A, B, strict=True)]


def mat_sub(A, B):
    return [_col_sum(x, [(r, -b) for r, b in y]) for x, y in zip(A, B, strict=True)]


def mat_scale(A, s):
    if not s:
        return [[] for _ in A]
    return [[(r, s * a) for r, a in col] for col in A]


def mat_eq(A, B):
    return A == B


def mat_is_zero(A):
    return not any(A)


def mat_pow(A, k, one):
    if k == 0:
        return identity(len(A), one)
    out = [list(col) for col in A]
    for _ in range(k - 1):
        out = mat_mul(out, A)
    return out


def transpose(A, m):
    """The columns of the transpose of A, a matrix with m rows: A's rows."""
    out = [[] for _ in range(m)]
    for c, col in enumerate(A):
        for r, a in col:
            out[r].append((c, a))
    return out


def kron(A, B):
    """The Kronecker product, B square: entry (i, j) of A times B fills the
    block of rows i*len(B).. and columns j*len(B).."""
    mb = len(B)
    return [[(i * mb + k, a * b) for i, a in x for k, b in y] for x in A for y in B]


def kron_sum(pairs):
    """sum_t A_t (x) B_t over the nonempty list of (A_t, B_t) pairs, laid out
    as ``kron``: every A_t has one number of columns, every B_t is square of
    one size.

    Column j*len(B) + l of the sum gathers the terms whose columns A_t[j] and
    B_t[l] are both nonzero, in one accumulator.  A lone term needs none: its
    entries arrive in increasing row order, as in ``kron``.  No Kronecker
    product of a whole term is formed.
    """
    na, mb = len(pairs[0][0]), len(pairs[0][1])
    if any(len(A) != na or len(B) != mb for A, B in pairs):
        raise ValueError("kron_sum needs every A_t, and every B_t, of one size")
    out = []
    for j in range(na):
        left = [(x, B) for A, B in pairs if (x := A[j])]
        if not left:
            out += [[] for _ in range(mb)]
            continue
        if len(left) == 1:
            x, B = left[0]
            out += [[(i * mb + k, a * b) for i, a in x for k, b in y] for y in B]
            continue
        for l in range(mb):
            terms = [(x, y) for x, B in left if (y := B[l])]
            if len(terms) == 1:
                x, y = terms[0]
                out.append([(i * mb + k, a * b) for i, a in x for k, b in y])
                continue
            acc = {}
            for x, y in terms:
                for i, a in x:
                    i *= mb
                    for k, b in y:
                        v = acc.get(i + k)
                        acc[i + k] = a * b if v is None else v + a * b
            out.append(_canon(acc))
    return out


def block_diag(A, B):
    """The matrix with the square A and B on its diagonal and zeros elsewhere."""
    n = len(A)
    return A + [[(r + n, b) for r, b in col] for col in B]


def combine(terms, mats):
    """sum_k c_k M_k over the (k, c_k) terms."""
    acc = [{} for _ in mats[0]]
    for k, c in terms:
        for d, col in zip(acc, mats[k], strict=True):
            if col:
                _add_into(d, col, c)
    return [_canon(d) if d else [] for d in acc]


def spin(gens, seeds, field) -> RowBasis:
    """Smallest subspace containing the seeds and stable under every generator.

    ``gens`` are square matrices given by their sparse columns.  Each vector
    that enlarges the span is queued and its images under the generators are
    pushed in turn.  Callers that need a weight-homogeneous span pass
    weight-homogeneous seeds: graded generators keep them homogeneous.

    When weight spaces are one-dimensional and every generator column has at
    most one nonzero entry, the image of a basis vector e_b is a nonzero
    multiple of one basis vector e_r or zero, so the spin of e_b is the
    coordinate subspace on the indices reachable from b in the graph with an
    edge b -> r for each nonzero entry (r, b) of a generator.  That
    reachability is what the index path of ``repcore.composition_factors``
    and ``repcore.maximal_proper_submodule`` compute, through the shared
    helper ``repcore._reach``, in place of this field arithmetic.
    """
    basis = RowBasis(field)
    queue = []

    def push(vec):
        if basis.add(vec):
            queue.append(vec)

    for s in seeds:
        push(s)
    while queue:
        vec = queue.pop()
        for cols in gens:
            img = _image(cols, vec)
            if img:
                push(img)
    return basis


def _add_multiple(target, c, source):
    """target += c * source for {index: entry} maps of nonzero entries;
    entries that cancel are dropped.  c is nonzero."""
    for j, a in source.items():
        v = target.get(j)
        if v is None:
            target[j] = c * a
        else:
            v = v + c * a
            if v:
                target[j] = v
            else:
                del target[j]


class RowBasis:
    """Incrementally maintained reduced row basis over a field, optionally
    filled with some vectors to start with.

    The rows are kept sparse and in reduced row-echelon form: ``_rows`` maps
    each row's pivot p to the {index: entry} map of its nonzero entries off
    p (the entry at p is 1), and no row has a nonzero entry at another row's
    pivot.  A new row's pivot is the first index of its residual, so every
    entry of a row lies past its pivot.  Reducing, adding and testing
    membership touch only nonzero entries.
    """

    def __init__(self, field, vectors=()):
        self.field = field
        self.pivots = []        # pivot index per row, in the order rows arrived
        self._rows = {}
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec):
        """The residual of vec against the basis, as the {index: entry} map
        of its nonzero entries."""
        res = dict(vec)
        rows = self._rows
        # a row is 0 at every other pivot, so the coefficient of each row is
        # vec's entry at its pivot, whatever order the rows are subtracted in
        for p in [p for p in res if p in rows]:
            _add_multiple(res, -res.pop(p), rows[p])
        return res

    def add(self, vec):
        """Reduce vec against the basis; add the residual if nonzero and
        return whether it was added."""
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res)
        c = res.pop(p)
        if c != self.field.one:
            inv = c.inverse()
            res = {j: inv * a for j, a in res.items()}
        # back-substitute: clear index p from every existing row
        for row in self._rows.values():
            d = row.pop(p, None)
            if d is not None:
                _add_multiple(row, -d, res)
        self._rows[p] = res
        self.pivots.append(p)
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def copy(self):
        """An independent basis with the same rows."""
        out = RowBasis(self.field)
        out.pivots = list(self.pivots)
        out._rows = {p: dict(row) for p, row in self._rows.items()}
        return out

    @property
    def dim(self):
        return len(self.pivots)

    def sorted_rows(self):
        """The rows, in increasing pivot order."""
        one = self.field.one
        return [[(p, one)] + sorted(self._rows[p].items()) for p in sorted(self._rows)]


class Span:
    """The span of linearly independent vectors of length n, factored once
    for coordinates.

    Precondition: the input vectors b_0..b_{k-1} are linearly independent;
    dependent inputs raise ``ValueError``.  Each b_i enters one ``RowBasis``
    elimination as ``b_i | e_i``, the unit vector at index n + i.  A reduced
    row ``r | t`` then satisfies r = sum_j t_j b_j, and a residual whose
    first nonzero entry lies in the tail would be a dependency.  The reduced
    rows r are in reduced row-echelon form: 1 at their own pivot, 0 at every
    other row's pivot.

    ``coords(v)`` reads the coefficient of each r straight from v at its
    pivot, subtracts those multiples at the off-pivot entries, and returns
    None unless the residual vanishes.  Otherwise v = sum_i v[p_i] r_i =
    sum_j (sum_i v[p_i] t_ij) b_j.  Since the b_j are independent these
    coordinates are the only ones, so they equal what any exact solver of
    B x = v returns, with B the matrix whose columns are the b_j.  No
    elimination and no field inverse happen per target, and since no row has
    an entry at another row's pivot, only v's own entries at pivots are read.
    """

    def __init__(self, vectors, n, field):
        self.field = field
        one = field.one
        rb = RowBasis(field)
        for i, vec in enumerate(vectors):
            rb.add([*vec, (n + i, one)])
            if rb.pivots[-1] >= n:
                raise ValueError("Span needs linearly independent vectors")
        # per pivot: the off-pivot (index, entry) pairs of its reduced row and
        # its combination, an input index when that is a unit vector
        self._rows = {}
        for p, row in rb._rows.items():
            off = [(c, a) for c, a in row.items() if c < n]
            comb = [(c - n, a) for c, a in row.items() if c >= n]
            if len(comb) == 1 and comb[0][1] == one:
                comb = comb[0][0]
            self._rows[p] = (off, comb)
        self.dim = len(vectors)

    def coords(self, vec):
        """Coordinates of vec with respect to the input vectors, or None
        outside their span."""
        res = dict(vec)
        rows = self._rows
        out = {}
        # vec's entries at pivots are never changed below, so each is nonzero
        for p in [p for p in res if p in rows]:
            c = res.pop(p)
            off, comb = rows[p]
            for col, a in off:
                v = res.get(col)
                res[col] = -(c * a) if v is None else v - c * a
            if isinstance(comb, int):
                v = out.get(comb)
                out[comb] = c if v is None else v + c
            else:
                _add_into(out, comb, c)
        if any(res.values()):
            return None
        return _canon(out)


def restrict(gens, basis, field):
    """Each generator on the span of ``basis``, in basis coordinates.

    ``gens`` are one or more square matrices; ``basis`` is a list of
    linearly independent vectors b_0..b_{k-1}, the columns of a matrix B.
    Returns one k x k matrix Y per generator g with g B = B Y
    (g b_s = sum_r Y[r][s] b_r), or None when an image leaves the span.  One
    ``Span`` serves every generator.
    """
    span = Span(basis, len(gens[0]), field)
    out = []
    for cols in gens:
        Y = []
        for b in basis:
            y = span.coords(_image(cols, b))
            if y is None:
                return None
            Y.append(y)
        out.append(Y)
    return out


def rank(vectors, field):
    return RowBasis(field, vectors).dim


def _null_basis(basis, n):
    """The x of length n killed by every row of a filled RowBasis.

    Its rows are reduced, so x is free on the indices without a pivot: one
    vector per free index f, with 1 at f and -row[f] at each row's pivot.
    This is the basis read off the reduced row-echelon form, which depends
    only on the span of the rows, not on the order they arrived in.  A row's
    entries off its pivot all lie at free indices past the pivot, so one pass
    over the rows in pivot order lists, per free index, the rows that meet
    it in increasing pivot order.
    """
    rows, one = basis._rows, basis.field.one
    meets = {}
    for p in sorted(rows):
        for fcol, c in rows[p].items():
            meets.setdefault(fcol, []).append((p, -c))
    return [meets.get(fcol, []) + [(fcol, one)] for fcol in range(n) if fcol not in rows]


def sparse_nullspace(equations, n, field):
    """Basis of the x of length n that satisfy every equation
    sum_c a_c x_c = 0.

    Each equation is (index, coefficient) pairs in any order, repeated
    indices summed.  The equations fill one RowBasis and the basis is read
    straight off it.  No equations leave the whole space: the unit vectors.
    Once the rows reach rank n the solution is 0 and no further equation is
    read.
    """
    basis = RowBasis(field)
    for eq in equations if n else ():
        row = {}
        for c, a in eq:
            v = row.get(c)
            row[c] = a if v is None else v + a
        if basis.add(_canon(row)) and basis.dim == n:
            break
    return _null_basis(basis, n)


class Quotient:
    """The vectors of length n modulo the span of some vectors, on the free
    indices.

    The vectors fill one RowBasis ``sub``.  The indices without a pivot
    (``free``) index a basis of the quotient: a vector reduced against
    ``sub`` has its image in the free entries of the residual.
    """

    def __init__(self, vectors, n, field):
        self.field = field
        self.sub = RowBasis(field, vectors)
        self.free = [j for j in range(n) if j not in self.sub._rows]
        # the rows are reduced, so reducing vec subtracts vec[p] times each
        # row with pivot p: per pivot, the row's nonzero entries, all at free
        # indices, by their position among the free indices
        self._position = {j: k for k, j in enumerate(self.free)}
        self._rows = {p: [(self._position[j], a) for j, a in row.items()]
                      for p, row in self.sub._rows.items()}

    def project(self, vec):
        """The image of vec in the quotient, in free-index coordinates."""
        out = {}
        for j, c in vec:
            k = self._position.get(j)
            if k is None:
                _add_into(out, self._rows[j], -c)
            else:
                v = out.get(k)
                out[k] = c if v is None else v + c
        return _canon(out)

    def induced(self, cols):
        """The endomorphism that a square matrix induces on the quotient:
        column j is the image of the matrix's column free[j].  None when the
        matrix does not map the subspace into itself."""
        one = self.field.one
        for p, row in self.sub._rows.items():
            if self.project(_image(cols, [(p, one), *row.items()])):
                return None
        return [self.project(cols[j]) for j in self.free]


def inverse(A, m, field):
    """The inverse of A, a matrix with m rows; None if A is singular or not
    square.  Column j of the inverse is the coordinate vector of e_j on the
    columns of A."""
    n = len(A)
    if m != n:
        return None
    try:
        span = Span(A, n, field)
    except ValueError:
        return None
    return [span.coords([(j, field.one)]) for j in range(n)]

def intertwines(X, src_gens, tgt_gens):
    """True when X g_src = g_tgt X for every generator pair."""
    return all(mat_mul(X, S) == mat_mul(T, X) for S, T in zip(src_gens, tgt_gens, strict=True))


def _diagonal(A):
    """The diagonal entries of the square matrix A, None for a zero entry,
    when every column is empty or holds one entry on the diagonal; else None."""
    out = []
    for j, col in enumerate(A):
        if not col:
            out.append(None)
        elif len(col) == 1 and col[0][0] == j:
            out.append(col[0][1])
        else:
            return None
    return out


def intertwiner_space(src_gens, tgt_gens, ns, nt, field, src_blocks=None, tgt_blocks=None):
    """Matrices X with X g_src = g_tgt X for every generator pair, X from
    the source of dimension ns to the target of dimension nt.

    The dimensions are arguments, not read off the generators: a generating
    set may be empty (a one-dimensional coalgebra, a trivial group), and
    then every X is an intertwiner.  Optional block labels (one per basis
    vector) restrict X to entries whose source and target labels agree,
    which is how grading constraints enter.  Returns a list of matrices
    forming a basis of the space: the ``sparse_nullspace`` basis over the
    allowed entries in row-major order, which depends only on the space, so
    any generating set of the acting algebra gives the same basis.

    A pair (S, T) of diagonal matrices (see ``_diagonal``) becomes labels:
    (X S - T X)[t][s] = X[t][s] (S[s][s] - T[t][t]), so each entry is
    constrained alone, and X[t][s] is free when the diagonal entries agree
    and 0 when they differ.  Each such pair appends S[s][s] to the label of
    source vector s and T[t][t] to that of target vector t, and adds no
    equation.  The basis is the same: an entry forced to 0 is a pivot whose
    row in the reduced form is its unit vector, so dropping it and its
    equation leaves the free unknowns, in the same row-major order, and
    their vectors unchanged.
    """
    src_labels = [[b] for b in ([0] * ns if src_blocks is None else src_blocks)]
    tgt_labels = [[b] for b in ([0] * nt if tgt_blocks is None else tgt_blocks)]
    if len(src_labels) != ns or len(tgt_labels) != nt:
        raise ValueError("intertwiner_space needs one block label per basis vector")
    # (X S - T X)[t, s] = sum_k X[t][k] S[k][s] - sum_k T[t][k] X[k][s]:
    # per general pair, S's columns and the rows of -T
    pairs = []
    for S, T in zip(src_gens, tgt_gens, strict=True):
        dS, dT = _diagonal(S), _diagonal(T)
        if dS is None or dT is None:
            pairs.append((S, [[(k, -c) for k, c in row] for row in transpose(T, nt)]))
            continue
        for label, d in zip(src_labels, dS, strict=True):
            label.append(d)
        for label, d in zip(tgt_labels, dT, strict=True):
            label.append(d)
    # var[t][s]: the unknown X[t][s], or None where the labels differ
    by_label = {}
    for s, label in enumerate(src_labels):
        by_label.setdefault(tuple(label), []).append(s)
    var = [[None] * ns for _ in range(nt)]
    entries = []
    for t, label in enumerate(tgt_labels):
        var_t = var[t]
        for s in by_label.get(tuple(label), ()):
            var_t[s] = len(entries)
            entries.append((t, s))

    # The basis does not depend on the order of the equations; grouping them
    # by s first measured cheaper than going generator by generator.
    def equations():
        for s in range(ns):
            for s_cols, t_rows in pairs:
                for t in range(nt):
                    var_t = var[t]
                    eq = [(var_t[k], c) for k, c in s_cols[s] if var_t[k] is not None]
                    eq += [(var[k][s], c) for k, c in t_rows[t] if var[k][s] is not None]
                    if eq:
                        yield eq

    out = []
    for sol in sparse_nullspace(equations(), len(entries), field):
        X = [[] for _ in range(ns)]
        # the unknowns run row-major, so each column gets increasing rows
        for k, x in sol:
            t, s = entries[k]
            X[s].append((t, x))
        out.append(X)
    return out

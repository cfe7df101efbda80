"""Exact linear algebra over the scalar tower.

Matrices are plain lists of rows.  The generic helpers work for any scalar
with +, -, * and truthiness (zero test); the elimination routines need a
field (CycloElem) because they invert pivots.  The dense helpers skip zero
entries, which matters a lot here: generator matrices are weight-graded and
extremely sparse.  Products and Kronecker products list the nonzero entries
of each row of B once and loop over those only; sums, differences and
scalings do no scalar arithmetic where an entry is zero.
"""

from __future__ import annotations


def zeros(m, n, zero):
    return [[zero] * n for _ in range(m)]


def identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _row_nonzeros(A, zero):
    """Each row of A as the list of (column, entry) pairs of its nonzero entries.

    Entries that are the shared ``zero`` object are dropped by an identity
    test; every other entry gets the scalar's own zero test.
    """
    return [[(j, a) for j, a in enumerate(row) if a is not zero and a] for row in A]


def mat_mul(A, B, zero):
    m = len(B[0]) if B else 0
    Bnz = _row_nonzeros(B, zero)
    C = []
    for Ai in A:
        Ci = [zero] * m
        for t, a in enumerate(Ai):
            if a is not zero and a:
                for j, b in Bnz[t]:
                    c = Ci[j]
                    Ci[j] = c + a * b if c else a * b
        C.append(Ci)
    return C


def mat_sub(A, B):
    return [[(a - b if a else -b) if b else a for a, b in zip(ra, rb)]
            for ra, rb in zip(A, B)]


def mat_sum(A, B):
    return [[(a + b if a else b) if b else a for a, b in zip(ra, rb)]
            for ra, rb in zip(A, B)]


def mat_scale(A, s):
    return [[s * a if a else a for a in row] for row in A]


def mat_eq(A, B):
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        for a, b in zip(ra, rb):
            if a != b:
                return False
    return True


def mat_is_zero(A):
    return all(not a for row in A for a in row)


def mat_pow(A, k, one, zero):
    if k == 0:
        return identity(len(A), one, zero)
    out = [list(row) for row in A]
    for _ in range(k - 1):
        out = mat_mul(out, A, zero)
    return out


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def kron(A, B, zero):
    nb = len(B[0]) if B else 0
    n = (len(A[0]) if A else 0) * nb
    Bnz = _row_nonzeros(B, zero)
    C = []
    for Ai in A:
        block = [[zero] * n for _ in Bnz]
        for j, a in enumerate(Ai):
            if a is not zero and a:
                base = j * nb
                for Crow, nz in zip(block, Bnz):
                    for l, b in nz:
                        Crow[base + l] = a * b
        C.extend(block)
    return C


def block_diag(A, B, zero):
    """The square matrix with A and B on its diagonal and zeros elsewhere."""
    n1, n2 = len(A), len(B)
    out = zeros(n1 + n2, n1 + n2, zero)
    for r in range(n1):
        out[r][:n1] = A[r]
    for r in range(n2):
        out[n1 + r][n1:] = B[r]
    return out


def mat_map(A, fn):
    return [[fn(a) for a in row] for row in A]


def sparse_columns(A):
    """Column c of A as the list of (row, entry) pairs of its nonzero entries."""
    cols = [[] for _ in range(len(A[0]) if A else 0)]
    for r, row in enumerate(A):
        for c, a in enumerate(row):
            if a:
                cols[c].append((r, a))
    return cols


def combine(terms, cols, n, zero):
    """sum_k c_k M_k over the (k, c_k) terms, the n x n M_k given by their
    sparse columns; a dense result."""
    out = [[zero] * n for _ in range(n)]
    for k, c in terms:
        for s, col in enumerate(cols[k]):
            for r, a in col:
                out[r][s] = out[r][s] + c * a
    return out


def _apply(cols, vec, zero):
    """cols * vec for a square matrix given by its sparse columns."""
    out = [zero] * len(vec)
    for c, x in enumerate(vec):
        if x:
            for r, a in cols[c]:
                out[r] = out[r] + a * x
    return out


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
    reachability is what ``repcore.maximal_proper_submodule`` computes in
    place of this field arithmetic.
    """
    basis = RowBasis(field)
    queue = []

    def push(vec):
        if basis.add(vec):
            queue.append(vec)

    for s in seeds:
        push(list(s))
    while queue:
        vec = queue.pop()
        for cols in gens:
            img = _apply(cols, vec, field.zero)
            if any(img):
                push(img)
    return basis


def _add_multiple(target, c, source):
    """target += c * source for {column: entry} maps of nonzero entries;
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
    each row's pivot p to the {column: entry} map of its nonzero entries off
    p (the entry at p is 1), and no row has a nonzero entry at another row's
    pivot.  A new row's pivot is the first nonzero column of its residual.
    Reducing, adding and testing membership touch only nonzero entries.
    Vectors come in dense; the shared ``field.zero`` is skipped by identity
    before any scalar zero test.
    """

    def __init__(self, field, vectors=()):
        self.field = field
        self.n = 0              # length of the vectors added
        self.pivots = []        # pivot column per row, in the order rows arrived
        self._rows = {}
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec):
        """The residual of the dense vector vec against the basis, as the
        {column: entry} map of its nonzero entries."""
        zero = self.field.zero
        res = {j: a for j, a in enumerate(vec) if a is not zero and a}
        rows = self._rows
        # a row is 0 at every other pivot, so the coefficient of each row is
        # vec's entry at its pivot, whatever order the rows are subtracted in
        for p in [p for p in res if p in rows]:
            _add_multiple(res, -res.pop(p), rows[p])
        return res

    def add(self, vec):
        """Reduce vec against the basis; add the residual if nonzero and
        return whether it was added."""
        self.n = len(vec)
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res)
        c = res.pop(p)
        if c != self.field.one:
            inv = c.inverse()
            res = {j: inv * a for j, a in res.items()}
        # back-substitute: clear column p from every existing row
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
        out.n = self.n
        out.pivots = list(self.pivots)
        out._rows = {p: dict(row) for p, row in self._rows.items()}
        return out

    @property
    def dim(self):
        return len(self.pivots)

    def sorted_rows(self):
        """The rows as dense vectors, in increasing pivot order."""
        zero, one = self.field.zero, self.field.one
        out = []
        for p in sorted(self._rows):
            row = [zero] * self.n
            row[p] = one
            for j, a in self._rows[p].items():
                row[j] = a
            out.append(row)
        return out


class Span:
    """The span of linearly independent vectors, factored once for coordinates.

    Precondition: the input vectors b_0..b_{k-1} are linearly independent;
    dependent inputs raise ``ValueError``.  Each b_i enters one ``RowBasis``
    elimination as ``b_i | e_i``.  A reduced row ``r | t`` then satisfies
    r = sum_j t_j b_j, and a residual whose first nonzero entry lies in the
    tail would be a dependency.  The reduced rows r are in reduced row-echelon
    form: 1 at their own pivot, 0 at every other row's pivot.

    ``coords(v)`` reads the coefficient of each r straight from v at its
    pivot, subtracts those multiples at the off-pivot entries, and returns
    None unless the residual vanishes.  Otherwise v = sum_i v[p_i] r_i =
    sum_j (sum_i v[p_i] t_ij) b_j.  Since the b_j are independent these
    coordinates are the only ones, so they equal what any exact solver of
    B x = v returns, with B the matrix whose columns are the b_j.  No
    elimination and no field inverse happen per target.
    """

    def __init__(self, vectors, field):
        self.field = field
        k = len(vectors)
        zero, one = field.zero, field.one
        rb = RowBasis(field)
        n = None
        for i, vec in enumerate(vectors):
            n = len(vec)
            tail = [zero] * k
            tail[i] = one
            rb.add(list(vec) + tail)
            if rb.pivots[-1] >= n:
                raise ValueError("Span needs linearly independent vectors")
        # per reduced row: (pivot, off-pivot (col, entry) pairs, combination)
        # with the combination an input index when it is a unit vector
        self._rows = []
        for p, row in rb._rows.items():
            off = [(c, a) for c, a in row.items() if c < n]
            comb = [(c - n, a) for c, a in row.items() if c >= n]
            if len(comb) == 1 and comb[0][1] == one:
                comb = comb[0][0]
            self._rows.append((p, off, comb))
        self.dim = k

    def coords(self, vec):
        """Coordinates of vec with respect to the input vectors, or None."""
        zero = self.field.zero
        res = list(vec)
        out = [zero] * self.dim
        for p, off, comb in self._rows:
            c = vec[p]
            if not c:
                continue
            res[p] = zero
            for col, a in off:
                res[col] = res[col] - c * a
            if isinstance(comb, int):
                out[comb] = out[comb] + c if out[comb] else c
            else:
                for j, t in comb:
                    out[j] = out[j] + c * t
        if any(res):
            return None
        return out


def restrict(gens, basis, field):
    """Each generator on the span of ``basis``, in basis coordinates.

    ``gens`` are square matrices given by their sparse columns; ``basis`` is
    a list of linearly independent vectors b_0..b_{k-1}, the columns of a
    matrix B.  Returns one k x k matrix Y per generator g with g B = B Y
    (g b_s = sum_r Y[r][s] b_r), or None when an image leaves the span.  One
    ``Span`` serves every generator, and each b_s's nonzero entries are
    listed once for all of them.
    """
    span = Span(basis, field)
    zero = field.zero
    k = len(basis)
    n = len(basis[0]) if basis else 0
    nonzeros = _row_nonzeros(basis, zero)
    out = []
    for cols in gens:
        Y = [[zero] * k for _ in range(k)]
        for s, entries in enumerate(nonzeros):
            img = [zero] * n
            for c, x in entries:
                for r, a in cols[c]:
                    img[r] = img[r] + a * x
            coords = span.coords(img)
            if coords is None:
                return None
            for r, y in enumerate(coords):
                Y[r][s] = y
        out.append(Y)
    return out


def rref(A, field):
    """Reduced row-echelon form; returns (rows, pivot columns)."""
    basis = RowBasis(field, A)
    return basis.sorted_rows(), sorted(basis.pivots)


def rank(A, field):
    return RowBasis(field, A).dim


def _null_basis(basis, n):
    """The x in field^n killed by every row of a filled RowBasis.

    Its rows are reduced, so x is free on the columns without a pivot: one
    vector per free column f, with 1 at f and -row[f] at each row's pivot.
    This is the basis read off the reduced row-echelon form, which depends
    only on the span of the rows, not on the order they arrived in.  A row's
    entries off its pivot all lie in free columns, so one pass over them
    lists, per free column, the rows that meet it.
    """
    zero, one = basis.field.zero, basis.field.one
    meets = {}
    for p, row in basis._rows.items():
        for fcol, c in row.items():
            meets.setdefault(fcol, []).append((p, c))
    out = []
    for fcol in range(n):
        if fcol in basis._rows:
            continue
        x = [zero] * n
        x[fcol] = one
        for p, c in meets.get(fcol, ()):
            x[p] = -c
        out.append(x)
    return out


def nullspace(A, field):
    """Basis of the right nullspace of A (vectors x with A x = 0)."""
    return _null_basis(RowBasis(field, A), len(A[0]) if A else 0)


def sparse_nullspace(equations, n, field):
    """Basis of the x in field^n that satisfy every equation sum_c a_c x_c = 0.

    Each equation is a sparse row: (column, coefficient) pairs, repeated
    columns summed.  The equations fill one RowBasis and the basis is read
    straight off it, as ``nullspace`` reads it off the dense system.  No
    equations leave the whole space: the unit vectors.
    """
    zero = field.zero
    basis = RowBasis(field)
    for eq in equations:
        row = [zero] * n
        for c, a in eq:
            row[c] = row[c] + a if row[c] else a
        basis.add(row)
    return _null_basis(basis, n)


class Quotient:
    """field^n modulo the span of some vectors, on the free columns.

    The vectors fill one RowBasis ``sub``.  The columns without a pivot
    (``free``) index a basis of the quotient: a vector reduced against
    ``sub`` has its image in the free entries of the residual.  ``proj`` is
    the projection as a len(free) x n matrix.
    """

    def __init__(self, vectors, n, field):
        self.field = field
        self.sub = RowBasis(field, vectors)
        self.free = [j for j in range(n) if j not in self.sub._rows]
        # the rows are reduced, so reducing vec subtracts vec[p] times each
        # row with pivot p: per row, its pivot and its nonzero entries, all
        # in free columns, by their position among the free columns
        position = {j: k for k, j in enumerate(self.free)}
        self._rows = [(p, [(position[j], a) for j, a in row.items()])
                      for p, row in self.sub._rows.items()]
        units = identity(n, field.one, field.zero)
        self.proj = transpose([self.project(e) for e in units])

    def project(self, vec):
        """The image of vec in the quotient, in free-column coordinates."""
        out = [vec[j] for j in self.free]
        for p, entries in self._rows:
            c = vec[p]
            if c:
                for k, a in entries:
                    out[k] = out[k] - c * a
        return out

    def induced(self, cols):
        """The endomorphism that a square matrix induces on the quotient.

        ``cols`` are the matrix's sparse columns.  Returns the
        len(free) x len(free) matrix whose column j is the image of the
        matrix's column free[j], or None when the matrix does not map the
        subspace into itself.
        """
        zero = self.field.zero
        n = len(cols)
        for row in self.sub.sorted_rows():
            if any(self.project(_apply(cols, row, zero))):
                return None
        images = []
        for j in self.free:
            col = [zero] * n
            for r, a in cols[j]:
                col[r] = a if col[r] is zero else col[r] + a
            images.append(self.project(col))
        return transpose(images)


def inverse(A, field):
    """Matrix inverse over a field; None if A is singular or not square."""
    n = len(A)
    if any(len(row) != n for row in A):
        return None
    aug = [list(row) + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(A)]
    rows, pivots = rref(aug, field)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows[:n]]


def intertwines(X, src_gens, tgt_gens, field):
    """True when X g_src = g_tgt X for every generator pair (dense matrices)."""
    zero = field.zero
    return all(mat_eq(mat_mul(X, S, zero), mat_mul(T, X, zero))
               for S, T in zip(src_gens, tgt_gens))


def intertwiner_space(src_gens, tgt_gens, field, src_blocks=None, tgt_blocks=None):
    """Matrices X with X g_src = g_tgt X for every generator pair.

    Optional block labels (one per basis vector) restrict X to entries whose
    source and target labels agree, which is how grading constraints enter.
    Returns a list of matrices forming a basis of the space: the
    ``sparse_nullspace`` basis over the allowed entries in row-major order.
    """
    ns = len(src_gens[0]) if src_gens else 0
    nt = len(tgt_gens[0]) if tgt_gens else 0
    if src_blocks is None:
        src_blocks = [0] * ns
    if tgt_blocks is None:
        tgt_blocks = [0] * nt
    # var[t][s]: the unknown X[t][s], or None where the labels differ
    var = [[None] * ns for _ in range(nt)]
    entries = []
    for t in range(nt):
        for s in range(ns):
            if tgt_blocks[t] == src_blocks[s]:
                var[t][s] = len(entries)
                entries.append((t, s))

    # (X S - T X)[t, s] = sum_k X[t][k] S[k][s] - sum_k T[t][k] X[k][s].
    # The basis does not depend on the order of the equations; grouping them
    # by s first measured cheaper than going generator by generator.
    pairs = [(sparse_columns(S), sparse_columns(transpose(T)))
             for S, T in zip(src_gens, tgt_gens)]

    def equations():
        for s in range(ns):
            for s_cols, t_rows in pairs:
                for t in range(nt):
                    var_t = var[t]
                    eq = [(var_t[k], c) for k, c in s_cols[s] if var_t[k] is not None]
                    eq += [(var[k][s], -c) for k, c in t_rows[t] if var[k][s] is not None]
                    if eq:
                        yield eq

    out = []
    for sol in sparse_nullspace(equations(), len(entries), field):
        X = [[field.zero] * ns for _ in range(nt)]
        for (t, s), x in zip(entries, sol):
            if x:
                X[t][s] = x
        out.append(X)
    return out

"""Dense matrices and vectors at the test boundary.

The package stores every vector and every matrix column as a sparse column
(see ``smallq.linalg``).  The oracles in these tests -- naive products,
hand-written literals, the dense row basis -- work on dense lists and
convert here.
"""


def canonical(col):
    """Whether col is in the one stored form of a vector or a matrix column:
    (index, entry) pairs, indices strictly increasing, no zero entry."""
    return (all(a for _, a in col)
            and all(j1 < j2 for (j1, _), (j2, _) in zip(col, col[1:])))


def columns(rows):
    """The sparse columns of a dense matrix: zero entries, shared or fresh,
    left out."""
    out = [[] for _ in range(len(rows[0]) if rows else 0)]
    for r, row in enumerate(rows):
        for c, a in enumerate(row):
            if a:
                out[c].append((r, a))
    return out


def rows(cols, m, zero):
    """The dense rows of a matrix with m rows, given by its sparse columns."""
    out = [[zero] * len(cols) for _ in range(m)]
    for c, col in enumerate(cols):
        for r, a in col:
            out[r][c] = a
    return out


def sparse(vec):
    """A dense vector as (index, entry) pairs of its nonzero entries."""
    return [(j, a) for j, a in enumerate(vec) if a]


def entries(mat):
    """{(row, column): entry} over the nonzero entries of a matrix."""
    return {(r, c): a for c, col in enumerate(mat) for r, a in col}


class DenseRowBasis:
    """The dense reduced row basis, kept as the oracle of ``RowBasis``: every
    reduce and back-substitution sweeps all columns of every row."""

    def __init__(self, field):
        self.field = field
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                for j in range(len(vec)):
                    r = row[j]
                    if r:
                        vec[j] = vec[j] - c * r
        return vec

    def add(self, vec):
        vec = self.reduce(vec)
        for p, c in enumerate(vec):
            if c:
                if c != self.field.one:
                    inv = c.inverse()
                    vec = [inv * a for a in vec]
                for i, row in enumerate(self.rows):
                    d = row[p]
                    if d:
                        self.rows[i] = [a - d * b for a, b in zip(row, vec)]
                self.rows.append(vec)
                self.pivots.append(p)
                return True
        return False

    def contains(self, vec):
        return not any(self.reduce(vec))

    def sorted_rows(self):
        order = sorted(range(len(self.rows)), key=lambda i: self.pivots[i])
        return [self.rows[i] for i in order]

    def free(self, n):
        return [j for j in range(n) if j not in self.pivots]

    def null_basis(self, n):
        out = []
        for fcol in self.free(n):
            x = [self.field.zero] * n
            x[fcol] = self.field.one
            for row, p in zip(self.rows, self.pivots):
                if row[fcol]:
                    x[p] = -row[fcol]
            out.append(x)
        return out

    def project(self, vec, n):
        res = self.reduce(vec)
        return [res[j] for j in self.free(n)]


def dense_basis(field, vectors):
    basis = DenseRowBasis(field)
    accepted = [basis.add(v) for v in vectors]
    return basis, accepted


def dense_coords(basis_vectors, vec, field):
    """Coordinates of vec on independent vectors from one dense elimination
    of the columns [b_0 .. b_{k-1} | vec], or None outside their span."""
    k = len(basis_vectors)
    aug = [[b[r] for b in basis_vectors] + [vec[r]] for r in range(len(vec))]
    rb, _ = dense_basis(field, aug)
    x = [field.zero] * k
    for row, p in zip(rb.rows, rb.pivots):
        if p == k:
            return None
        x[p] = row[k]
    return x


def dense_spin(field, gens, seeds):
    """The dense row basis of the smallest subspace that contains the dense
    seeds and is stable under the dense square matrices gens."""
    basis = DenseRowBasis(field)
    queue = [v for v in seeds if basis.add(v)]
    while queue:
        vec = queue.pop()
        for g in gens:
            img = [sum((row[c] * vec[c] for c in range(len(vec))), field.zero) for row in g]
            if basis.add(img):
                queue.append(img)
    return basis

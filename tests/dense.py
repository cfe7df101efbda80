"""Dense matrices and vectors at the test boundary.

The package stores every matrix as its sparse columns (see ``smallq.linalg``).
The oracles in these tests -- naive products, hand-written literals -- work
on dense lists of rows and convert here.
"""


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

"""Exact integer linear algebra: determinants, unimodularity, lattice span.

Everything here works on plain sequences of Python ints (arbitrary
precision); there is no floating point anywhere.
"""

from .errors import DimensionError


def _as_square(matrix):
    rows = [list(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError(f"expected a square matrix, got rows of lengths {[len(r) for r in rows]}")
    return rows, n


def determinant(matrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    m, n = _as_square(matrix)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division by the previous pivot (Sylvester identity).
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def transpose(matrix):
    return [list(col) for col in zip(*matrix)]


def edge_matrix(vertices):
    """Rows v_1 - v_0, ..., v_d - v_0 for a list of d+1 points."""
    base = vertices[0]
    return [[x - b for x, b in zip(v, base)] for v in vertices[1:]]


def simplex_is_unimodular(vertices) -> bool:
    """True iff the d+1 points span a simplex of normalized volume 1."""
    if not vertices:
        raise DimensionError("empty vertex list")
    d = len(vertices[0])
    if len(vertices) != d + 1 or any(len(v) != d for v in vertices):
        raise DimensionError(f"need exactly {d + 1} points of dimension {d}")
    return abs(determinant(edge_matrix(vertices))) == 1


def xgcd(a: int, b: int):
    """(x, y, g) with x*a + y*b == g == gcd(a, b)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    return x, y, g


def lattice_index(vectors, dim: int) -> int:
    """Index in Z^dim of the lattice generated by `vectors` (0 if rank-deficient).

    Hermite-style row reduction with extended-gcd merges; index 1 means the
    vectors span the full integer lattice.
    """
    basis: list[list[int]] = []  # echelon rows, pivot columns strictly increasing
    pivots: list[int] = []
    for vec in vectors:
        row = list(vec)
        if len(row) != dim:
            raise DimensionError(f"expected vectors of length {dim}")
        col = 0
        while col < dim:
            if row[col] == 0:
                col += 1
                continue
            if col in pivots:
                at = pivots.index(col)
                other = basis[at]
                a, b = other[col], row[col]
                if b % a == 0:
                    q = b // a
                    for j in range(col, dim):
                        row[j] -= q * other[j]
                else:
                    x, y, g = xgcd(a, b)
                    ag, bg = a // g, b // g
                    for j in range(col, dim):
                        oj, rj = other[j], row[j]
                        other[j] = x * oj + y * rj
                        row[j] = ag * rj - bg * oj
                continue  # retry same column: row[col] is now 0
            at = 0
            while at < len(pivots) and pivots[at] < col:
                at += 1
            basis.insert(at, row)
            pivots.insert(at, col)
            break
        # fully reduced rows are dropped
    if len(basis) < dim:
        return 0
    index = 1
    for at, col in enumerate(pivots):
        index *= basis[at][col]
    return abs(index)

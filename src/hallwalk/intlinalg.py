"""Exact integer linear algebra: determinants and edge matrices.

Everything here works on plain sequences of Python ints (arbitrary
precision); there is no floating point anywhere.
"""

from operator import sub

from .errors import DimensionError


def _as_square(matrix):
    rows = list(map(list, matrix))
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


def edge_matrix(vertices):
    """Rows v_1 - v_0, ..., v_d - v_0 for a list of d+1 points."""
    base = vertices[0]
    return [list(map(sub, v, base)) for v in vertices[1:]]

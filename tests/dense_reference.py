"""The dense Gauss-Jordan loop that `field.rref` ran before the sparse
`field.echelon` core, kept as an independent reference for the tests."""


def dense_rref(field, m):
    """Reduced row echelon form by dense row operations: (R, pivot_columns)."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    zero = field.zero()
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != zero:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != zero:
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def dense_echelon(field, rows):
    """`field.echelon`'s contract computed by `dense_rref`: sparse rows in,
    [(pivot_column, {column: value})] out."""
    rows = [dict(row) for row in rows]
    cols = max((max(row) + 1 for row in rows if row), default=0)
    zero = field.zero()
    dense = []
    for row in rows:
        line = [zero] * cols
        for j, x in row.items():
            line[j] = x
        dense.append(line)
    red, pivots = dense_rref(field, dense)
    return [
        (c, {j: x for j, x in enumerate(line) if x != zero})
        for c, line in zip(pivots, red)
    ]

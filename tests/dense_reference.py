"""Dense routines kept as independent references for the tests: the
Gauss-Jordan loop that `field.rref` ran before the sparse `field.echelon`
core, and the dense matrices that `diagrep` carved into weight blocks before
it built each structural morphism block by block."""

from diagcat import diagrep as dr
from diagcat import field as fm
from diagcat.diagrep import HomMorphism, make_morphism, weight_slots


def dense_rref(field, m, limit=None):
    """Reduced row echelon form by dense row operations: (R, pivot_columns),
    pivots only in the columns left of `limit` when one is given."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    zero = field.zero()
    for c in range(cols if limit is None else min(cols, limit)):
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


def dense_echelon(field, rows, limit=None):
    """`field.echelon`'s contract computed by `dense_rref`: sparse rows in,
    [(pivot_column, {column: value})] out, and with a `limit` also the
    nonzero rows left below the pivot rows as the residual rows."""
    rows = [dict(row) for row in rows]
    cols = max((max(row) + 1 for row in rows if row), default=0)
    zero = field.zero()
    dense = []
    for row in rows:
        line = [zero] * cols
        for j, x in row.items():
            line[j] = x
        dense.append(line)
    red, pivots = dense_rref(field, dense, limit)
    sparse = [{j: x for j, x in enumerate(line) if x != zero} for line in red]
    out = list(zip(pivots, sparse))
    if limit is None:
        return out
    return out, [row for row in sparse[len(pivots) :] if row]


def morphism_from_dense(field, source, target, dense, tag: str = "") -> HomMorphism:
    """Carve a dense matrix into weight blocks; raises if it is not
    weight-equivariant (an entry outside every shared-weight block)."""
    z = field.zero()
    tslots = dict(weight_slots(target))
    sslots = dict(weight_slots(source))
    blocks = {}
    covered = [[False] * source.dimension for _ in range(target.dimension)]
    for w, ts in weight_slots(target):
        ss = sslots.get(w)
        if not ss:
            continue
        m = []
        for ti in ts:
            row = []
            for sj in ss:
                row.append(dense[ti][sj])
                covered[ti][sj] = True
            m.append(row)
        blocks[w] = m
    for i in range(target.dimension):
        for j in range(source.dimension):
            if not covered[i][j] and dense[i][j] != z:
                raise ValueError(
                    f"matrix entry ({i},{j}) is nonzero outside all weight blocks"
                )
    return make_morphism(field, source, target, blocks, tag)


def reindexing_identity(field, source, target, scalar=None):
    """The (scaled) identity matrix on basis tuples, carved."""
    if source.dimension != target.dimension:
        raise ValueError("dimension mismatch")
    x = field.one() if scalar is None else field.mul(scalar, field.one())
    m = fm.zeros(field, target.dimension, source.dimension)
    for i in range(source.dimension):
        m[i][i] = x
    return morphism_from_dense(field, source, target, m)


def dense_tensor_hom(f, g):
    src = dr.tensor_obj(f.source, g.source)
    tgt = dr.tensor_obj(f.target, g.target)
    if src.is_zero or tgt.is_zero:
        return dr.zero_morphism(f.field, src, tgt)
    dense = fm.kron(f.field, [dr.dense_matrix(f), dr.dense_matrix(g)])
    return morphism_from_dense(f.field, src, tgt, dense)


def dense_braiding(field, b, c):
    nb, nc = b.dimension, c.dimension
    m = fm.zeros(field, nb * nc, nb * nc)
    for i in range(nb):
        for j in range(nc):
            m[j * nb + i][i * nc + j] = field.one()
    return morphism_from_dense(field, dr.tensor_obj(b, c), dr.tensor_obj(c, b), m)


def dense_ev_coev(field, b, dual):
    """(ev, coev) for b and its dual, each matched slot pair set to 1."""
    n = b.dimension
    sigma = dr._dual_pairing(b, dual)
    unit = dr.unit_object(b.group)
    ev = fm.zeros(field, 1, n * n)
    coev = fm.zeros(field, n * n, 1)
    for i in range(n):
        ev[0][i * n + sigma[i]] = field.one()
        coev[sigma[i] * n + i][0] = field.one()
    return (
        morphism_from_dense(field, dr.tensor_obj(b, dual), unit, ev),
        morphism_from_dense(field, unit, dr.tensor_obj(dual, b), coev),
    )


def dense_injections(field, b, c, total):
    """The two biproduct injections into `total`: b first, then c, in each
    weight's slots."""
    tslots = dict(weight_slots(total))
    mb = {w: len(s) for w, s in weight_slots(b)}

    def embed(obj, offset_of_weight):
        m = fm.zeros(field, total.dimension, obj.dimension)
        for w, slots in weight_slots(obj):
            for k, src_slot in enumerate(slots):
                m[tslots[w][offset_of_weight(w) + k]][src_slot] = field.one()
        return morphism_from_dense(field, obj, total, m)

    return embed(b, lambda w: 0), embed(c, lambda w: mb.get(w, 0))


def dense_normalizer(field, b):
    """The k-th weight-w slot of b to the k-th weight-w slot of its
    normalized object."""
    c = dr.normalized_object(b)
    cslots = dict(weight_slots(c))
    m = fm.zeros(field, c.dimension, b.dimension)
    for w, slots in weight_slots(b):
        for k, slot in enumerate(slots):
            m[cslots[w][k]][slot] = field.one()
    return c, morphism_from_dense(field, b, c, m)

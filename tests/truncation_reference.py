"""The truncation slice as `laurent.truncated_ideal_part` built it before it
read the elimination of single-variable generators, kept as an independent
reference for the tests: every multiple m*g of degree <= cap in the full
2n^2-variable ring, multiples of the single-variable generators included,
reduced by `field.echelon`."""

from diagcat import field as fieldmod
from diagcat import laurent as la
from diagcat import sparsepoly as sp


def reference_truncation(I, d, work_cap):
    if d < 0 or work_cap < d:
        raise ValueError("need 0 <= d <= work_cap")
    field, n = I.field, I.n
    nvars = 2 * n * n
    gens = (*I.generators, *la.relation_generators(field, n))
    monos = sp.monomials_up_to(nvars, work_cap)
    high = [e for e in monos if sum(e) > d]
    low = [e for e in monos if sum(e) <= d]
    columns = high + low
    mono_index = {e: j for j, e in enumerate(columns)}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        gd = g.degree()
        for m in monos:
            if sum(m) + gd > work_cap:
                continue
            rows.append(
                {
                    mono_index[tuple(x + y for x, y in zip(m, e))]: c
                    for e, c in g.terms
                }
            )
    if not rows:
        return la.TruncationResult((), False, d, work_cap)
    nhigh = len(high)
    basis = [
        sp.from_dict(field, nvars, {columns[j]: x for j, x in row.items()})
        for pivot, row in fieldmod.echelon(field, rows)
        if pivot >= nhigh
    ]
    top = max(d, max(g.degree() for g in gens if not g.is_zero()))
    complete = work_cap >= la.hermann_bound(top, n) + top
    return la.TruncationResult(
        tuple(basis), complete, d, work_cap, la._prune_generators(basis)
    )

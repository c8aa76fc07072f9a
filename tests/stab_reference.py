"""The stabilizer polynomials as they were built before `stab` scaled by
field constants, kept as an independent reference for the tests: both
constant matrices lifted to constant polynomials and multiplied with the
action matrix over k[Z, W]."""

from diagcat import field as fieldmod
from diagcat import laurent as la
from diagcat import stab


def reference_stabilizer_polys(prob):
    field, n = prob.field, prob.n
    A = [list(row) for row in prob.matrix]
    r = len(A[0])
    tmat = stab._extend_matrix(field, A, prob.pivot_rows)
    tinv = fieldmod.inverse(field, tmat)
    ring = fieldmod.PolyRing(la.lau_zero(field, n), la.lau_const(field, n, 1))

    def lift(rows):
        return [[la.lau_const(field, n, x) for x in row] for row in rows]

    # the lower-left (s-r) x r block of tinv * B * tmat over the ring
    B = stab.action_matrix(field, prob.shape, n)
    left = fieldmod.mat_mul(ring, lift(tinv[r:]), B)
    block = fieldmod.mat_mul(ring, left, lift(row[:r] for row in tmat))
    return [q for row in block for q in row]

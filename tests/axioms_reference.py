"""The axiom checks as they ran before each hook term was evaluated once
per assignment, kept as an independent reference for the tests: every
comparison calls the model's hooks afresh, and check 19 keeps every tensor
product of the fragment in one dict. Checks 7, 8 and 12 are kept as they
ran before the checks shared one walk over the nonzero hom spaces: each
writes out its own double loop over pairs of representatives."""

from diagcat import diagrep as dr
from diagcat import field as fieldmod
from diagcat.axioms import (
    FragmentModel,
    _all_fiber_vectors,
    _coeff_sum,
    _combo_vectors,
    _fail,
    _flat,
    _in_span,
    _ok,
    _vec_eq,
)
from diagcat.diagrep import ModelVector


def check_addition(model: FragmentModel):
    i, name = 4, "vector addition is an abelian group law"
    field = model.field
    for b in model.all_objects():
        vs = _combo_vectors(model, b)
        zero = dr.zero_vector(field, b)
        for v in vs:
            s = model.vector_add(v, zero)
            if not _vec_eq(s, v):
                return _fail(i, name, "zero is not neutral", b=str(b),
                             v=[str(c) for c in v.coeffs])
            neg = dr.scale_vector(field.neg(field.one()), v)
            if not model.vector_add(v, neg).is_zero_vector():
                candidates = _all_fiber_vectors(field, b)
                if candidates is None or not any(
                    model.vector_add(v, w).is_zero_vector() for w in candidates
                ):
                    return _fail(i, name, "no additive inverse", b=str(b),
                                 v=[str(c) for c in v.coeffs])
        for v in vs:
            for w in vs:
                s1 = model.vector_add(v, w)
                s2 = model.vector_add(w, v)
                if s1.obj != b:
                    return _fail(i, name, "sum leaves the fiber", b=str(b))
                if not _vec_eq(s1, s2):
                    return _fail(i, name, "commutativity fails", b=str(b))
                for u in vs[:3]:
                    if not _vec_eq(
                        model.vector_add(model.vector_add(v, w), u),
                        model.vector_add(v, model.vector_add(w, u)),
                    ):
                        return _fail(i, name, "associativity fails", b=str(b))
    return _ok(i, name, "group laws on spanning sets plus combinations, all objects")


def check_scalar_multiplication(model: FragmentModel):
    i, name = 5, "scalar multiplication"
    field = model.field
    for b in model.all_objects():
        vs = _combo_vectors(model, b)
        for v in vs:
            for lam in field.elements():
                sv = model.scalar_mul(lam, v)
                if sv.obj != b:
                    return _fail(i, name, "scaling leaves the fiber", b=str(b))
                for mu in field.elements():
                    if not _vec_eq(
                        model.scalar_mul(field.mul(lam, mu), v),
                        model.scalar_mul(lam, model.scalar_mul(mu, v)),
                    ):
                        return _fail(i, name, "mixed associativity fails", b=str(b))
                    want = _coeff_sum(
                        field, model.scalar_mul(lam, v).coeffs, model.scalar_mul(mu, v).coeffs
                    )
                    got = model.scalar_mul(field.add(lam, mu), v)
                    if got.coeffs != want:
                        return _fail(i, name, "scalar distributivity fails", b=str(b))
            if not _vec_eq(model.scalar_mul(field.one(), v), v):
                return _fail(i, name, "1 does not act as identity", b=str(b))
    return _ok(i, name, "exhaustive over scalars, spanning vectors, all objects")


def _sample_morphisms(reps, hom, cap_pairs=40, cap_basis=4):
    """The first `cap_basis` basis morphisms of each of the first `cap_pairs`
    nonzero hom spaces between `reps`, each basis read by `hom(b, c)`."""
    out = []
    pairs = 0
    for b in reps:
        for c in reps:
            basis = hom(b, c)
            if not basis:
                continue
            out.extend(basis[:cap_basis])
            pairs += 1
            if pairs >= cap_pairs:
                return out
    return out


def check_morphism_projection(model: FragmentModel):
    i, name = 7, "morphism projection surjective"
    ms = _sample_morphisms(model.sigma_reps(), model.hom_basis)
    for f in ms:
        vs = model.fiber_spanning_set(f.source)
        pairs = model.morphism_graph_pairs(f, vs)
        if not pairs:
            return _fail(i, name, "morphism has an empty fiber",
                         f=str(f.source) + " -> " + str(f.target))
    return _ok(i, name, f"nonempty fibers for {len(ms)} sampled morphisms")


def check_source_target_commute(model: FragmentModel):
    i, name = 8, "source/target compatible with projections"
    ms = _sample_morphisms(model.sigma_reps(), model.hom_basis)
    for f in ms:
        vs = _combo_vectors(model, f.source)
        for v, w in model.morphism_graph_pairs(f, vs):
            if v.obj != f.source or w.obj != f.target:
                return _fail(i, name, "graph point lies over the wrong objects",
                             f=str(f.source) + " -> " + str(f.target))
    return _ok(i, name, f"checked on {len(ms)} sampled morphisms")


def check_composition(model: FragmentModel):
    i, name = 11, "composition of morphisms"
    field = model.field
    reps = model.sigma_reps()[:18]
    budget = 2500
    done = 0
    for a in reps:
        for b in reps:
            basis_ab = model.hom_basis(a, b)[:3]
            if not basis_ab:
                continue
            for c in reps:
                basis_bc = model.hom_basis(b, c)[:3]
                if not basis_bc:
                    continue
                for f in basis_ab:
                    for g in basis_bc:
                        h = model.compose_morphisms(g, f)
                        if h.source != a or h.target != c:
                            return _fail(i, name, "composite has wrong endpoints",
                                         a=str(a), b=str(b), c=str(c))
                        want = fieldmod.mat_mul(
                            field, dr.dense_matrix(g), dr.dense_matrix(f)
                        )
                        if dr.dense_matrix(h) != want:
                            return _fail(
                                i, name,
                                "no morphism realizes the composed linear map",
                                a=str(a), b=str(b), c=str(c),
                            )
                        done += 1
                        if done >= budget:
                            return _ok(i, name, f"{done} composite pairs verified")
    return _ok(i, name, f"{done} composite pairs verified over class representatives")


def check_linearity(model: FragmentModel):
    i, name = 12, "hom sets closed under sums and scalars"
    field = model.field
    reps = model.sigma_reps()
    checked = 0
    for b in reps:
        for c in reps:
            basis = model.hom_basis(b, c)
            if len(basis) < 1:
                continue
            mats = [_flat(f) for f in basis]
            total = [field.add(x, y) for x, y in zip(mats[0], mats[-1])]
            if not _in_span(field, mats, total):
                return _fail(i, name, "sum of morphisms leaves the hom span",
                             source=str(b), target_obj=str(c))
            lam = field.of(2)
            scaled = [field.mul(lam, x) for x in mats[0]]
            if not _in_span(field, mats, scaled):
                return _fail(i, name, "scalar multiple leaves the hom span",
                             source=str(b), target_obj=str(c))
            checked += 1
            if checked >= 150:
                return _ok(i, name, f"{checked} hom spaces verified closed")
    return _ok(i, name, f"{checked} hom spaces verified closed")


def check_tensor_projection_compatible(model: FragmentModel):
    i, name = 13, "tensor compatible with projections"
    reps = model.sigma_reps()[:15]
    for b in reps:
        for c in reps:
            owners = set()
            for v in _combo_vectors(model, b):
                for w in _combo_vectors(model, c):
                    owners.add(model.tensor_vec(v, w).obj)
            if len(owners) != 1:
                return _fail(
                    i, name,
                    "projection of a tensor depends on the representatives",
                    b=str(b), c=str(c), owners=sorted(str(o) for o in owners),
                )
    return _ok(i, name, f"representative independence over {len(reps)}^2 pairs")


def check_tensor_bilinear(model: FragmentModel):
    i, name = 14, "tensor product bilinear"
    field = model.field
    reps = model.sigma_reps()[:10]
    for b in reps:
        for c in reps:
            vs = _combo_vectors(model, b)[:3]
            ws = _combo_vectors(model, c)[:3]
            for v1 in vs:
                for v2 in vs:
                    for w in ws:
                        left = model.tensor_vec(
                            ModelVector(field, b, _coeff_sum(field, v1.coeffs, v2.coeffs)),
                            w,
                        )
                        right = _coeff_sum(
                            field,
                            model.tensor_vec(v1, w).coeffs,
                            model.tensor_vec(v2, w).coeffs,
                        )
                        if left.coeffs != right:
                            return _fail(i, name, "left additivity fails",
                                         b=str(b), c=str(c))
            for lam in (field.of(2), field.of(3)):
                for v in vs[:2]:
                    for w in ws[:2]:
                        lhs = model.tensor_vec(dr.scale_vector(lam, v), w).coeffs
                        rhs = tuple(
                            field.mul(lam, x) for x in model.tensor_vec(v, w).coeffs
                        )
                        if lhs != rhs:
                            return _fail(i, name, "scalar compatibility fails",
                                         b=str(b), c=str(c))
                        lhs2 = model.tensor_vec(v, dr.scale_vector(lam, w)).coeffs
                        if lhs2 != rhs:
                            return _fail(i, name, "right scalar compatibility fails",
                                         b=str(b), c=str(c))
    return _ok(i, name, f"bilinearity over {len(reps)}^2 representative pairs")


def check_tensor_functorial(model: FragmentModel):
    i, name = 16, "functoriality of the tensor product"
    field = model.field
    reps = model.sigma_reps()[:8]
    done = 0
    for b1 in reps:
        for c1 in reps:
            fs = model.hom_basis(b1, c1)[:2]
            if not fs:
                continue
            for b2 in reps[:4]:
                for c2 in reps[:4]:
                    gs = model.hom_basis(b2, c2)[:2]
                    if not gs:
                        continue
                    for f in fs:
                        for g in gs:
                            h = model.tensor_hom(f, g)
                            want = fieldmod.kron(
                                field, [dr.dense_matrix(f), dr.dense_matrix(g)]
                            )
                            if dr.dense_matrix(h) != want:
                                return _fail(
                                    i, name,
                                    "no morphism realizes f tensor g",
                                    f=f"{b1}->{c1}", g=f"{b2}->{c2}",
                                )
                            done += 1
                            if done >= 600:
                                return _ok(i, name, f"{done} tensor pairs verified")
    return _ok(i, name, f"{done} tensor pairs verified")


def check_associativity(model: FragmentModel):
    i, name = 17, "associativity constraint"
    field = model.field
    reps = model.sigma_reps()[:6]
    for b in reps:
        for c in reps:
            for d in reps[:4]:
                f = model.associator_morphism(b, c, d)
                for vb in _combo_vectors(model, b)[:2]:
                    for vc in _combo_vectors(model, c)[:2]:
                        for vd in _combo_vectors(model, d)[:2]:
                            lhs = model.tensor_vec(vb, model.tensor_vec(vc, vd))
                            rhs = model.tensor_vec(model.tensor_vec(vb, vc), vd)
                            got = dr.apply_morphism(
                                f, ModelVector(field, f.source, lhs.coeffs)
                            )
                            if got.coeffs != rhs.coeffs:
                                return _fail(i, name, "re-association map wrong",
                                             b=str(b), c=str(c), d=str(d))
    return _ok(i, name, f"verified over {len(reps)}^2 x 4 object triples")


def check_commutativity(model: FragmentModel):
    i, name = 18, "commutativity constraint"
    field = model.field
    reps = model.sigma_reps()[:8]
    for b in reps:
        for c in reps:
            f = model.braiding_morphism(b, c)
            for vb in _combo_vectors(model, b)[:2]:
                for vc in _combo_vectors(model, c)[:2]:
                    lhs = model.tensor_vec(vb, vc)
                    got = dr.apply_morphism(
                        f, ModelVector(field, f.source, lhs.coeffs)
                    )
                    want = model.tensor_vec(vc, vb)
                    if got.coeffs != want.coeffs:
                        return _fail(i, name, "swap map wrong", b=str(b), c=str(c))
    return _ok(i, name, f"verified over {len(reps)}^2 object pairs")


def check_factorization_unique(model: FragmentModel):
    i, name = 19, "uniqueness of tensor factorization"
    objs = model.all_objects()
    seen: dict = {}
    for b in objs:
        for c in objs:
            t = model.tensor_obj(b, c)
            if t in seen and seen[t] != (b, c):
                b0, c0 = seen[t]
                return _fail(
                    i, name, "two distinct factorizations of one object",
                    product=str(t), first=[str(b0), str(c0)], second=[str(b), str(c)],
                )
            seen[t] = (b, c)
    return _ok(i, name, f"tensor injective on all {len(objs)}^2 fragment pairs")


# axiom index -> reference check
REFERENCE_CHECKS = {
    4: check_addition,
    5: check_scalar_multiplication,
    7: check_morphism_projection,
    8: check_source_target_commute,
    11: check_composition,
    12: check_linearity,
    13: check_tensor_projection_compatible,
    14: check_tensor_bilinear,
    16: check_tensor_functorial,
    17: check_associativity,
    18: check_commutativity,
    19: check_factorization_unique,
}

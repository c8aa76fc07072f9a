"""Bounded-fragment checker for the 27 axioms of the categorical model.

The checker enumerates the fragment of the canonical model over a finite
field and finite character group: all objects of tensor length <= M and
dimension <= N. Universally quantified statements run over the full fragment
where the instance sets are small (objects, field elements, weights) and over
linear spanning data where quantifiers range over vectors or morphisms; the
latter is complete for the linear statements being checked and is recorded in
each result's detail line.

Existential axioms are verified constructively through the model's witness
constructors (identities, normal forms, duals, biproducts, kernels and
cokernels; axioms 10, 21, 23, 24, 25 and 26). A constructor that returns no
witness makes its axiom `skipped` with detail `no <thing> constructor`, never
a pass and never an error. Axiom 22 is the one existential checked by search:
when the unit embedding it is given fails, it looks for v -> u0 (x) v in the
span of the hom space.

Each axiom reads the model through a dedicated hook, so a corrupted model
(see MUTATIONS) flips exactly the axiom whose interpretation it damages, and
every reported counterexample re-verifies against the hooks.

A check evaluates each hook term once per assignment. A term that several
comparisons read (a scaled vector, a sum, a tensor of two vectors, a hom
basis and its matrices) comes from a table keyed by field scalar, list index
or object pair. Such a table is a `functools.cache` closure local to one
check call. The only state shared across checks is each model's cached
canonical hom basis (`FragmentModel.canonical_hom_basis`), filled by the
default `hom_basis` hook. Check 19 keeps only the hash and pair index of
each tensor product and recomputes an earlier product when a hash repeats.
Since no check reads what another wrote, `check_axioms` runs the checks in
forked workers, one per usable CPU, and reports them in check order. A cache
that one check fills, such as `canonical_hom_basis`, is then per process: it
saves work within a process and is never a channel between checks.

Checks that sample morphisms walk the nonzero hom spaces between class
representatives in row-major order (`_nonzero_homs`) and stop at a fixed
count: 40 spaces for the morphism sample of checks 7-9, 150 for check 12
and 200 for check 9's faithfulness; check 9's detail names the count.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable

from . import diagrep as dr
from . import field as fieldmod
from .abelian import FgAbelianGroup
from .diagrep import BaseObject, HomMorphism, ModelVector
from .field import ExactField


@dataclass(frozen=True)
class FragmentBound:
    max_dimension: int
    max_tensor_length: int

    def __post_init__(self):
        if self.max_dimension < 1 or self.max_tensor_length < 1:
            raise ValueError("bounds must be >= 1")


def bounds(max_dimension: int, max_tensor_length: int) -> FragmentBound:
    """The fragment of objects of dimension <= N and tensor length <= M."""
    return FragmentBound(max_dimension, max_tensor_length)


@dataclass(frozen=True)
class AxiomResult:
    index: int
    name: str
    status: str  # 'pass' | 'fail' | 'skipped'
    detail: str = ""
    witness: dict | None = None


@dataclass(frozen=True)
class AxiomReport:
    field: ExactField
    group: FgAbelianGroup
    bound: FragmentBound
    results: tuple[AxiomResult, ...]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    @property
    def failed(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.results if r.status == "fail")

    @property
    def skipped(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.results if r.status == "skipped")

    @property
    def all_pass(self) -> bool:
        return self.passed == len(self.results)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "field": str(self.field),
            "group": str(self.group),
            "bounds": {
                "max_dimension": self.bound.max_dimension,
                "max_tensor_length": self.bound.max_tensor_length,
            },
            "passed": self.passed,
            "failed": len(self.failed),
            "skipped": len(self.skipped),
            "results": [
                {
                    "axiom": r.index,
                    "name": r.name,
                    "status": r.status,
                    "detail": r.detail,
                    "witness": r.witness,
                }
                for r in self.results
            ],
        }


# ---------------------------------------------------------------------------
# The model under test


class FragmentModel:
    """The canonical model restricted to a fragment, presented through hooks
    that corrupted variants may override."""

    def __init__(self, field: ExactField, group: FgAbelianGroup, bound: FragmentBound):
        if not field.is_finite:
            raise ValueError("exhaustive checking needs a finite field")
        if not group.is_finite:
            raise ValueError("exhaustive checking needs a finite group")
        self.field = field
        self.group = group
        self.bound = bound
        self.overrides: dict = {}
        # the canonical Hom(b, c) basis, built once per pair for every check;
        # closes over `field`, not `self`, so the model holds no cycle
        self.canonical_hom_basis = functools.cache(
            lambda b, c: list(dr.hom_space(field, b, c).basis)
        )

    def override(self, name: str, fn):
        self.overrides[name] = fn

    def _call(self, name, default, *args):
        fn = self.overrides.get(name)
        if fn is not None:
            return fn(self, *args)
        return default(*args)

    # -- enumeration ------------------------------------------------------

    def irreducible_objects(self, n: int) -> list[BaseObject]:
        def default(n):
            return [dr.make_irreducible(ms) for ms in dr.enumerate_multisets(self.group, n)]

        return self._call("irreducible_objects", default, n)

    def all_objects(self) -> list[BaseObject]:
        return list(dr.tensor_words(
            lambda n: [b.leaves[0] for b in self.irreducible_objects(n)],
            self.bound.max_dimension,
            self.bound.max_tensor_length,
        ))

    def sigma_reps(self) -> list[BaseObject]:
        """One object per isotypic weight multiset (hom data factors
        through it)."""
        seen = {}
        for b in self.all_objects():
            key = (dr.isotypic_weights(b), tuple(l.tag for l in b.leaves))
            if key not in seen:
                seen[key] = b
        return list(seen.values())

    # -- vector interpretation --------------------------------------------

    def sample_vector(self, b: BaseObject):
        return self._call(
            "sample_vector", lambda b: dr.basis_vector(self.field, b, 0), b
        )

    def zero_vectors(self, b: BaseObject) -> list[ModelVector]:
        return self._call(
            "zero_vectors", lambda b: [dr.zero_vector(self.field, b)], b
        )

    def vector_add(self, v: ModelVector, w: ModelVector) -> ModelVector:
        return self._call("vector_add", dr.add_vectors, v, w)

    def scalar_mul(self, lam, v: ModelVector) -> ModelVector:
        return self._call("scalar_mul", dr.scale_vector, lam, v)

    def fiber_spanning_set(self, b: BaseObject) -> list[ModelVector]:
        def default(b):
            return [dr.basis_vector(self.field, b, i) for i in range(b.dimension)]

        return self._call("fiber_spanning_set", default, b)

    def li_predicate(self, vs: list[ModelVector]) -> bool:
        def default(vs):
            if not vs:
                return False
            if any(v.obj != vs[0].obj for v in vs):
                return False
            return fieldmod.rank(self.field, [list(v.coeffs) for v in vs]) == len(vs)

        return self._call("li_predicate", default, vs)

    # -- field interpretation ---------------------------------------------

    def field_add(self, a, b):
        return self._call("field_add", self.field.add, a, b)

    def field_mul(self, a, b):
        return self._call("field_mul", self.field.mul, a, b)

    # -- morphism interpretation ------------------------------------------

    def hom_basis(self, b: BaseObject, c: BaseObject) -> list[HomMorphism]:
        return self._call("hom_basis", self.canonical_hom_basis, b, c)

    def morphism_graph_pairs(self, f: HomMorphism, vs):
        def default(f, vs):
            return [(v, dr.apply_morphism(f, v)) for v in vs]

        return self._call("morphism_graph_pairs", default, f, vs)

    def identity_morphism(self, b: BaseObject) -> HomMorphism:
        return self._call(
            "identity_morphism", lambda b: dr.identity_morphism(self.field, b), b
        )

    def compose_morphisms(self, g: HomMorphism, f: HomMorphism) -> HomMorphism:
        return self._call("compose_morphisms", dr.compose, g, f)

    # -- tensor interpretation --------------------------------------------

    def tensor_obj(self, b: BaseObject, c: BaseObject) -> BaseObject:
        return self._call("tensor_obj", dr.tensor_obj, b, c)

    def tensor_vec(self, v: ModelVector, w: ModelVector) -> ModelVector:
        return self._call("tensor_vec", dr.tensor_vec, v, w)

    def tensor_hom(self, f: HomMorphism, g: HomMorphism) -> HomMorphism:
        return self._call("tensor_hom", dr.tensor_hom, f, g)

    def associator_morphism(self, b, c, d) -> HomMorphism:
        return self._call(
            "associator_morphism",
            lambda b, c, d: dr.associator(self.field, b, c, d),
            b,
            c,
            d,
        )

    def braiding_morphism(self, b, c) -> HomMorphism:
        return self._call(
            "braiding_morphism", lambda b, c: dr.braiding(self.field, b, c), b, c
        )

    def tensor_factorization(self, b: BaseObject):
        return self._call("tensor_factorization", dr.tensor_factorize, b)

    def normalizer(self, b: BaseObject):
        return self._call(
            "normalizer", lambda b: dr.normalize_to_irreducible(self.field, b), b
        )

    def unit_embedding(self, b: BaseObject, u0) -> HomMorphism:
        def default(b, u0):
            return dr.scale_morphism(u0, dr.left_unitor(self.field, b))

        return self._call("unit_embedding", default, b, u0)

    def dual_data(self, b: BaseObject):
        return self._call("dual_data", lambda b: dr.dual_data(self.field, b), b)

    def biproduct_data(self, b: BaseObject, c: BaseObject):
        return self._call(
            "biproduct_data",
            lambda b, c: dr.direct_sum_data(self.field, b, c),
            b,
            c,
        )

    def kernel_data(self, f: HomMorphism):
        return self._call("kernel_data", lambda f: dr.kernel_of(self.field, f), f)

    def cokernel_data(self, f: HomMorphism):
        return self._call(
            "cokernel_data", lambda f: dr.cokernel_of(self.field, f), f
        )


# ---------------------------------------------------------------------------
# Helper predicates shared by the checks (reference linear algebra; the
# checks compare hook output against these, never hooks against hooks)


def _coeff_sum(field, xs, ys):
    return tuple(field.add(a, b) for a, b in zip(xs, ys))


def _vec_eq(v: ModelVector, w: ModelVector) -> bool:
    return v.obj == w.obj and v.coeffs == w.coeffs


def _fail(index, name, detail, **witness):
    return AxiomResult(index, name, "fail", detail, witness or None)


def _ok(index, name, detail):
    return AxiomResult(index, name, "pass", detail)


def _skipped(index, name, thing):
    """The model offers no witness constructor for an existential axiom."""
    return AxiomResult(index, name, "skipped", f"no {thing} constructor")


def _flat(f: HomMorphism) -> list:
    """The linear map of `f`, row-major, as one vector."""
    return [x for row in dr.dense_matrix(f) for x in row]


def _in_span(field, columns, flat) -> bool:
    """Is the flattened linear map `flat` a combination of the flattened
    maps `columns`?"""
    return bool(columns) and (
        fieldmod.solve_linear(field, fieldmod.transpose(columns), flat) is not None
    )


def _combo_vectors(model, b):
    """Spanning vectors plus up to two deterministic combinations."""
    vs = model.fiber_spanning_set(b)
    field = model.field
    out = list(vs)
    if len(vs) >= 2:
        out.append(dr.add_vectors(vs[0], vs[1]))
        out.append(dr.add_vectors(vs[0], dr.scale_vector(field.of(2), vs[1])))
    elif vs:
        out.append(dr.scale_vector(field.of(2), vs[0]))
    return out


def _hom_table(model, reps, keep):
    """hom(x, y): the first `keep` basis morphisms of Hom(reps[x], reps[y])
    and their dense matrices, each read from the model once."""

    @functools.cache
    def hom(x, y):
        basis = model.hom_basis(reps[x], reps[y])[:keep]
        return basis, [dr.dense_matrix(f) for f in basis]

    return hom


def _product_table(model, combos):
    """product(x, p, y, q) = tensor_vec(combos[x][p], combos[y][q]), each
    evaluated once."""
    return functools.cache(
        lambda x, p, y, q: model.tensor_vec(combos[x][p], combos[y][q])
    )


def _nonzero_homs(reps, hom):
    """(b, c, hom(b, c)) for every pair of `reps` whose hom basis is not
    empty, b-major (row-major) order; read lazily, so a bounded consumer
    reads no pair past its bound."""
    for b in reps:
        for c in reps:
            basis = hom(b, c)
            if basis:
                yield b, c, basis


# ---------------------------------------------------------------------------
# The 27 checks


def check_field_axioms(model: FragmentModel):
    i, name = 1, "field axioms"
    f = model.field
    elems = f.elements()
    add, mul = model.field_add, model.field_mul
    zero, one = f.zero(), f.one()
    if zero == one:
        return _fail(i, name, "0 = 1")
    for a in elems:
        if add(a, zero) != a:
            return _fail(i, name, "additive identity fails", a=str(a))
        if mul(a, one) != a:
            return _fail(i, name, "multiplicative identity fails", a=str(a))
        if not any(add(a, b) == zero for b in elems):
            return _fail(i, name, "no additive inverse", a=str(a))
        if a != zero and not any(mul(a, b) == one for b in elems):
            return _fail(i, name, "no multiplicative inverse", a=str(a))
    for a in elems:
        for b in elems:
            if add(a, b) != add(b, a) or mul(a, b) != mul(b, a):
                return _fail(i, name, "commutativity fails", a=str(a), b=str(b))
            for c in elems:
                if add(add(a, b), c) != add(a, add(b, c)):
                    return _fail(i, name, "additive associativity fails",
                                 a=str(a), b=str(b), c=str(c))
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    return _fail(i, name, "multiplicative associativity fails",
                                 a=str(a), b=str(b), c=str(c))
                if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
                    return _fail(i, name, "distributivity fails",
                                 a=str(a), b=str(b), c=str(c))
    return _ok(i, name, f"exhaustive over |k|^3 = {len(elems) ** 3} triples")


def check_projection_surjective(model: FragmentModel):
    i, name = 2, "object projection surjective"
    objs = model.all_objects()
    for b in objs:
        v = model.sample_vector(b)
        if v is None or v.obj != b:
            return _fail(i, name, "fiber has no point over the object", b=str(b))
    return _ok(
        i,
        name,
        f"all {len(objs)} fragment objects have nonempty fibers "
        "(sorts restricted to the fragment; the axiom is a scheme over all sorts)",
    )


def check_zero_exists(model: FragmentModel):
    i, name = 3, "existence of zero vectors"
    for b in model.all_objects():
        zs = model.zero_vectors(b)
        if len(zs) != 1:
            return _fail(
                i, name, f"fiber carries {len(zs)} zero vectors", b=str(b)
            )
        z = zs[0]
        if z.obj != b or not z.is_zero_vector():
            return _fail(i, name, "marked zero is not the zero vector", b=str(b))
    return _ok(i, name, "unique zero verified in every fragment fiber")


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
        sums = [[model.vector_add(v, w) for w in vs] for v in vs]
        for p, v in enumerate(vs):
            for q in range(len(vs)):
                s1 = sums[p][q]
                if s1.obj != b:
                    return _fail(i, name, "sum leaves the fiber", b=str(b))
                if not _vec_eq(s1, sums[q][p]):
                    return _fail(i, name, "commutativity fails", b=str(b))
                for r, u in enumerate(vs[:3]):
                    if not _vec_eq(
                        model.vector_add(s1, u), model.vector_add(v, sums[q][r])
                    ):
                        return _fail(i, name, "associativity fails", b=str(b))
    return _ok(i, name, "group laws on spanning sets plus combinations, all objects")


def _all_fiber_vectors(field, b):
    """Every vector of the fiber over b, or None past 1000 of them."""
    if field.p is None or field.p**b.dimension > 1000:
        return None
    out = []
    for coeffs in itertools.product(field.elements(), repeat=b.dimension):
        out.append(ModelVector(field, b, tuple(coeffs)))
    return out


def check_scalar_multiplication(model: FragmentModel):
    i, name = 5, "scalar multiplication"
    field = model.field
    scalars = field.elements()
    for b in model.all_objects():
        vs = _combo_vectors(model, b)
        for v in vs:
            scaled = {lam: model.scalar_mul(lam, v) for lam in scalars}
            for lam in scalars:
                if scaled[lam].obj != b:
                    return _fail(i, name, "scaling leaves the fiber", b=str(b))
                for mu in scalars:
                    if not _vec_eq(
                        scaled[field.mul(lam, mu)], model.scalar_mul(lam, scaled[mu])
                    ):
                        return _fail(i, name, "mixed associativity fails", b=str(b))
                    want = _coeff_sum(field, scaled[lam].coeffs, scaled[mu].coeffs)
                    if scaled[field.add(lam, mu)].coeffs != want:
                        return _fail(i, name, "scalar distributivity fails", b=str(b))
            if not _vec_eq(scaled[field.one()], v):
                return _fail(i, name, "1 does not act as identity", b=str(b))
    return _ok(i, name, "exhaustive over scalars, spanning vectors, all objects")


def check_dimension(model: FragmentModel):
    i, name = 6, "fiber dimension matches the sort"
    field = model.field
    for b in model.all_objects():
        span = model.fiber_spanning_set(b)
        if any(v.obj != b for v in span):
            return _fail(i, name, "spanning set leaves the fiber", b=str(b))
        r = fieldmod.rank(field, [list(v.coeffs) for v in span])
        if r != b.dimension:
            return _fail(
                i, name, f"fiber spans rank {r}, sort demands {b.dimension}", b=str(b)
            )
    return _ok(i, name, "rank of every fragment fiber equals its sort dimension")


def _sample_morphisms(reps, hom):
    """The first 4 basis morphisms of each of the first 40 nonzero hom
    spaces between `reps`, each basis read by `hom(b, c)`."""
    homs = itertools.islice(_nonzero_homs(reps, hom), 40)
    return [f for _, _, basis in homs for f in basis[:4]]


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


def check_morphisms_are_linear_graphs(model: FragmentModel):
    i, name = 9, "morphisms are graphs of linear maps, faithfully"
    field = model.field
    reps = model.sigma_reps()
    hom = functools.cache(model.hom_basis)  # each pair read once
    ms = _sample_morphisms(reps, hom)
    for f in ms:
        vs = _combo_vectors(model, f.source)
        pairs = model.morphism_graph_pairs(f, vs)
        lookup = {v.coeffs: w for v, w in pairs}
        for v1, w1 in pairs:
            for v2, w2 in pairs:
                key = _coeff_sum(field, v1.coeffs, v2.coeffs)
                if key in lookup:
                    if lookup[key].coeffs != _coeff_sum(field, w1.coeffs, w2.coeffs):
                        return _fail(i, name, "graph is not additive",
                                     f=str(f.source) + " -> " + str(f.target))
    checked = 0
    for b, c, basis in itertools.islice(_nonzero_homs(reps, hom), 200):
        checked += 1
        flat = [_flat(f) for f in basis]
        if fieldmod.rank(field, flat) != len(basis):
            for a in range(len(basis)):
                for bb in range(a + 1, len(basis)):
                    if basis[a] != basis[bb] and flat[a] == flat[bb]:
                        return _fail(
                            i, name,
                            "distinct morphisms share one linear map",
                            source=str(b), target=str(c),
                        )
            return _fail(i, name, "morphism labels are linearly dependent",
                         source=str(b), target=str(c))
    return _ok(
        i, name, f"graph linearity sampled; faithfulness on {checked} rep pairs"
    )


def check_identity_exists(model: FragmentModel):
    i, name = 10, "existence of identities"
    for b in model.all_objects():
        f = model.identity_morphism(b)
        if f is None:
            return _skipped(i, name, "identity")
        if f.source != b or f.target != b:
            return _fail(i, name, "identity has wrong endpoints", b=str(b))
        for v in _combo_vectors(model, b):
            if not _vec_eq(dr.apply_morphism(f, v), v):
                return _fail(i, name, "claimed identity moves a vector", b=str(b))
    return _ok(i, name, "constructive identity verified on every fragment object")


def check_composition(model: FragmentModel):
    i, name = 11, "composition of morphisms"
    field = model.field
    reps = model.sigma_reps()[:18]
    hom = _hom_table(model, reps, 3)
    budget = 2500
    done = 0
    for ia, a in enumerate(reps):
        for ib, b in enumerate(reps):
            basis_ab, dense_ab = hom(ia, ib)
            if not basis_ab:
                continue
            for ic, c in enumerate(reps):
                basis_bc, dense_bc = hom(ib, ic)
                if not basis_bc:
                    continue
                for f, df in zip(basis_ab, dense_ab):
                    for g, dg in zip(basis_bc, dense_bc):
                        h = model.compose_morphisms(g, f)
                        if h.source != a or h.target != c:
                            return _fail(i, name, "composite has wrong endpoints",
                                         a=str(a), b=str(b), c=str(c))
                        want = fieldmod.mat_mul(field, dg, df)
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
    checked = 0
    for b, c, basis in itertools.islice(
        _nonzero_homs(model.sigma_reps(), model.hom_basis), 150
    ):
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
    return _ok(i, name, f"{checked} hom spaces verified closed")


def check_tensor_projection_compatible(model: FragmentModel):
    i, name = 13, "tensor compatible with projections"
    reps = model.sigma_reps()[:15]
    combos = [_combo_vectors(model, b) for b in reps]
    for b, vs in zip(reps, combos):
        for c, ws in zip(reps, combos):
            owners = {model.tensor_vec(v, w).obj for v in vs for w in ws}
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
    combos = [_combo_vectors(model, b)[:3] for b in reps]
    for ib, b in enumerate(reps):
        vs = combos[ib]
        for ic, c in enumerate(reps):
            ws = combos[ic]
            prods = [[model.tensor_vec(v, w) for w in ws] for v in vs]
            for p, v1 in enumerate(vs):
                for q, v2 in enumerate(vs):
                    for r, w in enumerate(ws):
                        left = model.tensor_vec(
                            ModelVector(field, b, _coeff_sum(field, v1.coeffs, v2.coeffs)),
                            w,
                        )
                        right = _coeff_sum(field, prods[p][r].coeffs, prods[q][r].coeffs)
                        if left.coeffs != right:
                            return _fail(i, name, "left additivity fails",
                                         b=str(b), c=str(c))
            for lam in (field.of(2), field.of(3)):
                for p, v in enumerate(vs[:2]):
                    for r, w in enumerate(ws[:2]):
                        lhs = model.tensor_vec(dr.scale_vector(lam, v), w).coeffs
                        rhs = tuple(field.mul(lam, x) for x in prods[p][r].coeffs)
                        if lhs != rhs:
                            return _fail(i, name, "scalar compatibility fails",
                                         b=str(b), c=str(c))
                        lhs2 = model.tensor_vec(v, dr.scale_vector(lam, w)).coeffs
                        if lhs2 != rhs:
                            return _fail(i, name, "right scalar compatibility fails",
                                         b=str(b), c=str(c))
    return _ok(i, name, f"bilinearity over {len(reps)}^2 representative pairs")


def check_tensor_product(model: FragmentModel):
    i, name = 15, "tensor product induces an isomorphism"
    field = model.field
    reps = model.sigma_reps()[:15]
    for b in reps:
        for c in reps:
            nb, nc = b.dimension, c.dimension
            rows = []
            for ib in range(nb):
                for ic in range(nc):
                    t = model.tensor_vec(
                        dr.basis_vector(field, b, ib), dr.basis_vector(field, c, ic)
                    )
                    rows.append(list(t.coeffs))
            if fieldmod.rank(field, rows) != nb * nc:
                return _fail(
                    i, name,
                    "basis tensors do not span the tensor fiber",
                    b=str(b), c=str(c), rank=fieldmod.rank(field, rows),
                )
    return _ok(i, name, f"basis tensors independent over {len(reps)}^2 pairs")


def check_tensor_functorial(model: FragmentModel):
    i, name = 16, "functoriality of the tensor product"
    field = model.field
    reps = model.sigma_reps()[:8]
    hom = _hom_table(model, reps, 2)
    done = 0
    for ib1, b1 in enumerate(reps):
        for ic1, c1 in enumerate(reps):
            fs, dfs = hom(ib1, ic1)
            if not fs:
                continue
            for ib2, b2 in enumerate(reps[:4]):
                for ic2, c2 in enumerate(reps[:4]):
                    gs, dgs = hom(ib2, ic2)
                    if not gs:
                        continue
                    for f, df in zip(fs, dfs):
                        for g, dg in zip(gs, dgs):
                            h = model.tensor_hom(f, g)
                            want = fieldmod.kron(field, [df, dg])
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
    combos = [_combo_vectors(model, b)[:2] for b in reps]
    product = _product_table(model, combos)
    for ib, b in enumerate(reps):
        for ic, c in enumerate(reps):
            for id_, d in enumerate(reps[:4]):
                f = model.associator_morphism(b, c, d)
                for p, vb in enumerate(combos[ib]):
                    for q, vc in enumerate(combos[ic]):
                        for r, vd in enumerate(combos[id_]):
                            lhs = model.tensor_vec(vb, product(ic, q, id_, r))
                            rhs = model.tensor_vec(product(ib, p, ic, q), vd)
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
    combos = [_combo_vectors(model, b)[:2] for b in reps]
    product = _product_table(model, combos)
    for ib, b in enumerate(reps):
        for ic, c in enumerate(reps):
            f = model.braiding_morphism(b, c)
            for p in range(len(combos[ib])):
                for q in range(len(combos[ic])):
                    lhs = product(ib, p, ic, q)
                    got = dr.apply_morphism(
                        f, ModelVector(field, f.source, lhs.coeffs)
                    )
                    want = product(ic, q, ib, p)
                    if got.coeffs != want.coeffs:
                        return _fail(i, name, "swap map wrong", b=str(b), c=str(c))
    return _ok(i, name, f"verified over {len(reps)}^2 object pairs")


def check_factorization_unique(model: FragmentModel):
    i, name = 19, "uniqueness of tensor factorization"
    objs = model.all_objects()
    n = len(objs)
    # hash of a product -> index p*n + q of the first pair giving it; pairs
    # whose products only share that hash chain on in `collided`
    first: dict[int, int] = {}
    collided: dict[int, list[int]] = {}
    for p, b in enumerate(objs):
        for q, c in enumerate(objs):
            t = model.tensor_obj(b, c)
            h = hash(t)
            if h not in first:
                first[h] = p * n + q
                continue
            for j in [first[h], *collided.get(h, ())]:
                b0, c0 = objs[j // n], objs[j % n]
                if model.tensor_obj(b0, c0) == t:
                    if (b0, c0) != (b, c):
                        return _fail(
                            i, name, "two distinct factorizations of one object",
                            product=str(t), first=[str(b0), str(c0)],
                            second=[str(b), str(c)],
                        )
                    break
            else:
                collided.setdefault(h, []).append(p * n + q)
    return _ok(i, name, f"tensor injective on all {len(objs)}^2 fragment pairs")


def check_factorization_exists(model: FragmentModel):
    i, name = 20, "existence of tensor factorization"
    for b in model.all_objects():
        tree = model.tensor_factorization(b)
        leaves = _tree_leaves(tree)
        if len(leaves) != b.tensor_length:
            return _fail(i, name, "factor count differs from tensor length", b=str(b))
        for leaf in leaves:
            if leaf.tensor_length != 1:
                return _fail(i, name, "factor is not irreducible", b=str(b))
        if dr.retensor(tree, model.tensor_obj) != b:
            return _fail(i, name, "factors do not multiply back", b=str(b))
    return _ok(i, name, "constructive factorization on every fragment object")


def _tree_leaves(tree):
    if isinstance(tree, BaseObject):
        return [tree]
    l, r = tree
    return _tree_leaves(l) + _tree_leaves(r)


def check_tensor_skeletal(model: FragmentModel):
    i, name = 21, "tensor skeletal"
    field = model.field
    for b in model.all_objects():
        pair = model.normalizer(b)
        if pair is None:
            return _skipped(i, name, "normalizer")
        c, iso = pair
        if c.tensor_length != 1 or c.dimension != b.dimension:
            return _fail(i, name, "normal form has the wrong sort", b=str(b))
        if iso.source != b or iso.target != c:
            return _fail(i, name, "normalizing morphism has wrong endpoints", b=str(b))
        if fieldmod.rank(field, dr.dense_matrix(iso)) != b.dimension:
            return _fail(i, name, "normalizing morphism is not bijective", b=str(b))
    for n in range(1, model.bound.max_dimension + 1):
        irr = model.irreducible_objects(n)
        for x in irr:
            for y in irr:
                if x != y and dr.isotypic_weights(x) == dr.isotypic_weights(y):
                    return _fail(
                        i, name,
                        "two distinct isomorphic irreducible objects",
                        first=str(x) + ("#" + x.leaves[0].tag if x.leaves[0].tag else ""),
                        second=str(y) + ("#" + y.leaves[0].tag if y.leaves[0].tag else ""),
                    )
    return _ok(i, name, "normal forms exist; irreducibles unique per class")


def check_identity_object(model: FragmentModel):
    i, name = 22, "existence of the identity object"
    field = model.field
    unit = dr.unit_object(model.group)
    for b in model.sigma_reps()[:25]:
        target = dr.tensor_obj(unit, b)
        for u0 in field.units():
            u0vec = ModelVector(field, unit, (field.of(u0),))
            required = fieldmod.transpose(
                [
                    list(model.tensor_vec(u0vec, dr.basis_vector(field, b, j)).coeffs)
                    for j in range(b.dimension)
                ]
            )
            f = model.unit_embedding(b, field.of(u0))
            if (
                f is not None
                and f.source == b
                and f.target == target
                and dr.dense_matrix(f) == required
            ):
                continue
            # the constructed witness fails; existence may still hold in the span
            columns = [_flat(h) for h in model.hom_basis(b, target)]
            if not _in_span(field, columns, [x for row in required for x in row]):
                return _fail(i, name, "no morphism realizes v -> u0 (x) v",
                             b=str(b), u0=str(u0))
    return _ok(i, name, "all unit scalars, representative objects")


def check_duals(model: FragmentModel):
    i, name = 23, "existence of duals"
    field = model.field
    for b in model.all_objects():
        dd = model.dual_data(b)
        if dd is None:
            return _skipped(i, name, "dual")
        if dd.dual.tensor_length != 1 or dd.dual.dimension != b.dimension:
            return _fail(i, name, "dual has the wrong sort", b=str(b))
        s1, s2 = dr.snake_composites(field, b, dd)
        if s1 != dr.identity_morphism(field, b):
            return _fail(i, name, "first rigidity composite is not the identity",
                         b=str(b))
        if s2 != dr.identity_morphism(field, dd.dual):
            return _fail(i, name, "second rigidity composite is not the identity",
                         b=str(b))
    return _ok(i, name, "both rigidity composites are identities, all objects")


def check_biproducts(model: FragmentModel):
    i, name = 24, "existence of biproducts"
    field = model.field
    reps = model.sigma_reps()[:15]
    for b in reps:
        for c in reps:
            data = model.biproduct_data(b, c)
            if data is None:
                return _skipped(i, name, "biproduct")
            d = data.total
            if d.tensor_length != 1 or d.dimension != b.dimension + c.dimension:
                return _fail(i, name, "biproduct has the wrong sort", b=str(b), c=str(c))
            idd = dr.identity_morphism(field, d)
            eq1 = dr.add_morphisms(
                dr.compose(data.inj1, data.proj1), dr.compose(data.inj2, data.proj2)
            )
            if eq1 != idd:
                return _fail(i, name, "injections and projections do not sum to 1",
                             b=str(b), c=str(c))
            if dr.compose(data.proj1, data.inj1) != dr.identity_morphism(field, b):
                return _fail(i, name, "p1 i1 != id", b=str(b), c=str(c))
            if dr.compose(data.proj2, data.inj2) != dr.identity_morphism(field, c):
                return _fail(i, name, "p2 i2 != id", b=str(b), c=str(c))
            if not dr.compose(data.proj2, data.inj1).is_zero_morphism():
                return _fail(i, name, "p2 i1 != 0", b=str(b), c=str(c))
            if not dr.compose(data.proj1, data.inj2).is_zero_morphism():
                return _fail(i, name, "p1 i2 != 0", b=str(b), c=str(c))
    return _ok(i, name, f"five biproduct equations over {len(reps)}^2 pairs")


def _morphisms_with_kernels(model):
    """Per pair of class representatives, the first basis morphism, the sum
    of the first two and the zero map, until at least 25 are collected."""
    field = model.field
    reps = model.sigma_reps()
    out = []
    for b in reps:
        for c in reps:
            basis = model.hom_basis(b, c)
            if basis:
                out.append(basis[0])
            if len(basis) >= 2:
                out.append(dr.add_morphisms(basis[0], basis[1]))
            out.append(dr.zero_morphism(field, b, c))
            if len(out) >= 25:
                return out
    return out


def check_kernels(model: FragmentModel):
    i, name = 25, "existence of kernels"
    field = model.field
    for f in _morphisms_with_kernels(model):
        dense = dr.dense_matrix(f)
        expected = f.source.dimension - fieldmod.rank(field, dense)
        data = model.kernel_data(f)
        if data is None:
            return _skipped(i, name, "kernel")
        u, inc = data
        if u.is_zero:
            if expected != 0:
                return _fail(i, name, "kernel object missing", expected_dim=expected,
                             f=f"{f.source}->{f.target}")
            continue
        if u.dimension != expected:
            return _fail(
                i, name,
                f"kernel has dimension {u.dimension}, linear kernel has {expected}",
                f=f"{f.source}->{f.target}",
            )
        if inc.source != u or inc.target != f.source:
            return _fail(i, name, "inclusion has wrong endpoints")
        if fieldmod.rank(field, dr.dense_matrix(inc)) != u.dimension:
            return _fail(i, name, "inclusion is not injective")
        if not dr.compose(f, inc).is_zero_morphism():
            return _fail(i, name, "f composed with its kernel inclusion is nonzero")
    # universal property: f' = f o g with f injective factors through f
    reps = model.sigma_reps()[:8]
    for b in reps:
        _, inj = dr.normalize_to_irreducible(field, b)  # bijective, so injective
        for u in reps:
            basis = model.hom_basis(u, b)
            if not basis:
                continue
            g = basis[0]
            fprime = dr.compose(inj, g)
            columns = [_flat(dr.compose(inj, e)) for e in basis]
            if not _in_span(field, columns, _flat(fprime)):
                return _fail(i, name, "universal factorization has no solution",
                             u=str(u), b=str(b))
    return _ok(i, name, "kernel data and factorization property verified")


def check_cokernels(model: FragmentModel):
    i, name = 26, "existence of cokernels"
    field = model.field
    for f in _morphisms_with_kernels(model):
        dense = dr.dense_matrix(f)
        expected = f.target.dimension - fieldmod.rank(field, dense)
        data = model.cokernel_data(f)
        if data is None:
            return _skipped(i, name, "cokernel")
        w, proj = data
        if w.is_zero:
            if expected != 0:
                return _fail(i, name, "cokernel object missing", expected_dim=expected,
                             f=f"{f.source}->{f.target}")
            continue
        if w.dimension != expected:
            return _fail(
                i, name,
                f"cokernel has dimension {w.dimension}, linear cokernel has {expected}",
                f=f"{f.source}->{f.target}",
            )
        if proj.source != f.target or proj.target != w:
            return _fail(i, name, "projection has wrong endpoints")
        if fieldmod.rank(field, dr.dense_matrix(proj)) != w.dimension:
            return _fail(i, name, "projection is not surjective")
        if not dr.compose(proj, f).is_zero_morphism():
            return _fail(i, name, "projection composed with f is nonzero")
    return _ok(i, name, "cokernel data verified on sampled morphisms")


def check_linear_independence(model: FragmentModel):
    i, name = 27, "linear independence relation"
    field = model.field
    for b in model.sigma_reps()[:25]:
        n = b.dimension
        basis = [dr.basis_vector(field, b, k) for k in range(n)]
        if not model.li_predicate(basis):
            return _fail(i, name, "independent basis rejected", b=str(b))
        degenerate = [basis[0]] * n
        if n >= 2 and model.li_predicate(degenerate):
            return _fail(i, name, "repeated vector accepted as independent", b=str(b))
        zeros = [dr.zero_vector(field, b)] + basis[1:]
        if model.li_predicate(zeros):
            return _fail(i, name, "zero vector accepted as independent", b=str(b))
    return _ok(i, name, "accepts bases, rejects degenerate families")


AXIOM_CHECKS = [
    check_field_axioms,
    check_projection_surjective,
    check_zero_exists,
    check_addition,
    check_scalar_multiplication,
    check_dimension,
    check_morphism_projection,
    check_source_target_commute,
    check_morphisms_are_linear_graphs,
    check_identity_exists,
    check_composition,
    check_linearity,
    check_tensor_projection_compatible,
    check_tensor_bilinear,
    check_tensor_product,
    check_tensor_functorial,
    check_associativity,
    check_commutativity,
    check_factorization_unique,
    check_factorization_exists,
    check_tensor_skeletal,
    check_identity_object,
    check_duals,
    check_biproducts,
    check_kernels,
    check_cokernels,
    check_linear_independence,
]

if len(AXIOM_CHECKS) != 27:
    raise RuntimeError(f"expected 27 axiom checks, found {len(AXIOM_CHECKS)}")


def check_axioms(
    field: ExactField,
    group: FgAbelianGroup,
    bound: FragmentBound,
    model: FragmentModel | None = None,
) -> AxiomReport:
    if model is None:
        model = FragmentModel(field, group, bound)
    return AxiomReport(field, group, bound, _run_checks(model))


# ---------------------------------------------------------------------------
# Running the checks on every usable core


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_checks(model: FragmentModel) -> tuple[AxiomResult, ...]:
    """The results of AXIOM_CHECKS on `model`, in check order.

    The checks share no state, so they run in the parent and in forked
    children, which pull check indices from one pipe in index order. A check
    whose result does not come back (it raised, its result would not pickle,
    or its child died) is run again here, in check order, so the first check
    that raises raises in the caller as it would serially. Without `os.fork`,
    on one usable CPU, or while other threads are alive (a fork is unsafe
    then) every check runs here, one after another."""
    checks = list(AXIOM_CHECKS)
    workers = min(_usable_cpus(), len(checks))
    done: dict[int, AxiomResult] = {}
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        done = _run_forked(model, checks, workers - 1)
    return tuple(
        done[i] if i in done else chk(model) for i, chk in enumerate(checks)
    )


def _run_forked(model, checks, children: int) -> dict[int, AxiomResult]:
    """Fork up to `children` workers; run checks here too until the queue is
    empty; return every result that came back, by check index."""
    import pickle

    queue, handout = os.pipe()
    os.write(handout, bytes(range(len(checks))))
    os.close(handout)
    forked: list = []  # (pid, reader of that child's results)
    try:
        for _ in range(children):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _child(queue, w, model, checks)
            os.close(w)
            forked.append((pid, open(r, "rb")))
        done = _pull(queue, model, checks)
        for _, reader in forked:
            # a child that died wrote nothing, or a cut pickle
            with contextlib.suppress(EOFError, pickle.UnpicklingError):
                done.update(pickle.loads(reader.read()))
        return done
    except BaseException:
        import signal

        for pid, _ in forked:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, reader in forked:
            reader.close()
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _pull(queue: int, model, checks) -> dict[int, AxiomResult]:
    """Run the checks whose indices this process reads from `queue`, one
    byte at a time until EOF; a check that raises is left out."""
    done = {}
    while index := os.read(queue, 1):
        i = index[0]
        try:
            done[i] = checks[i](model)
        except Exception:
            continue
    return done


def _child(queue: int, out: int, model, checks):
    """A forked worker: pickle the results that pickle to `out`, then leave
    without running the parent's exit handlers."""
    try:
        import pickle

        sent = {}
        for i, result in _pull(queue, model, checks).items():
            try:
                pickle.dumps(result)
            except Exception:
                continue
            sent[i] = result
        with open(out, "wb") as fh:
            fh.write(pickle.dumps(sent))
    finally:
        os._exit(0)


# ---------------------------------------------------------------------------
# Targeted corruptions


@dataclass(frozen=True)
class Mutation:
    """A corruption of one model hook, meant to flip exactly `axiom`."""

    name: str
    axiom: int
    description: str
    patch: Callable[[FragmentModel], None]

    def apply(self, model: FragmentModel) -> FragmentModel:
        self.patch(model)
        return model


MUTATIONS: dict[str, Mutation] = {}


def _mutation(name: str, axiom: int, description: str):
    """Register the decorated model patch as the corruption `name`."""

    def register(patch):
        MUTATIONS[name] = Mutation(name, axiom, description, patch)
        return patch

    return register


@_mutation("field-mul-corrupted", 1, "one product rewired to 0")
def _patch_field_mul(model):
    f = model.field
    bad = {(f.of(2), f.of(3)), (f.of(3), f.of(2))}

    def mul(m, a, b):
        if (a, b) in bad:
            return f.zero()
        return f.mul(a, b)

    model.override("field_mul", mul)


@_mutation("fiber-sample-missing", 2, "object fibers emptied")
def _patch_sample_vector(model):
    model.override("sample_vector", lambda m, b: None)


@_mutation("zero-relation-empty", 3, "zero relation emptied")
def _patch_zero_vectors(model):
    model.override("zero_vectors", lambda m, b: [])


@_mutation("addition-projects-left", 4, "addition returns its first argument")
def _patch_vector_add(model):
    model.override("vector_add", lambda m, v, w: v)


@_mutation("scaling-ignores-scalar", 5, "scalar action ignores the scalar")
def _patch_scalar_mul(model):
    model.override("scalar_mul", lambda m, lam, v: v)


@_mutation("spanning-set-degenerate", 6, "fiber presented by a rank-deficient set")
def _patch_spanning_set(model):
    def span(m, b):
        first = dr.basis_vector(m.field, b, 0)
        return [first for _ in range(b.dimension)]

    model.override("fiber_spanning_set", span)


@_mutation("hom-duplicate-labels", 9, "two morphism labels share one linear map")
def _patch_hom_duplicates(model):
    def hom(m, b, c):
        basis = list(m.canonical_hom_basis(b, c))
        if basis:
            basis.append(replace(basis[0], tag="dup"))
        return basis

    model.override("hom_basis", hom)


@_mutation("identity-rescaled", 10, "identity scaled by 2")
def _patch_identity(model):
    def ident(m, b):
        return dr.scale_morphism(m.field.of(2), dr.identity_morphism(m.field, b))

    model.override("identity_morphism", ident)


@_mutation("composition-collapses", 11, "every composite replaced by zero")
def _patch_compose(model):
    def comp(m, g, f):
        return dr.zero_morphism(m.field, f.source, g.target)

    model.override("compose_morphisms", comp)


@_mutation(
    "tensor-owner-inconsistent", 13, "tensor projection depends on representatives"
)
def _patch_tensor_owner(model):
    def tvec(m, v, w):
        out = dr.tensor_vec(v, w)
        swapped = dr.tensor_obj(w.obj, v.obj)
        if (
            v.coeffs
            and v.coeffs[0] == m.field.zero()
            and swapped != out.obj
            and swapped.dimension == out.obj.dimension
        ):
            return ModelVector(m.field, swapped, out.coeffs)
        return out

    model.override("tensor_vec", tvec)


@_mutation("tensor-collapses-to-zero", 15, "tensor of vectors replaced by the zero map")
def _patch_tensor_zero(model):
    def tvec(m, v, w):
        return dr.zero_vector(m.field, dr.tensor_obj(v.obj, w.obj))

    model.override("tensor_vec", tvec)


@_mutation("tensor-hom-dropped", 16, "tensor of morphisms replaced by zero")
def _patch_tensor_hom(model):
    def thom(m, f, g):
        h = dr.tensor_hom(f, g)
        return dr.zero_morphism(m.field, h.source, h.target)

    model.override("tensor_hom", thom)


@_mutation("duplicate-irreducible", 21, "two isomorphic irreducible objects")
def _patch_duplicate_irreducible(model):
    def irr(m, n):
        out = [
            dr.make_irreducible(ms) for ms in dr.enumerate_multisets(m.group, n)
        ]
        if n == 1 and out:
            first = out[0].leaves[0]
            out.append(
                dr.make_irreducible(
                    dr.WeightMultiset(first.group, first.elements, "dup")
                )
            )
        return out

    model.override("irreducible_objects", irr)


@_mutation("coevaluation-erased", 23, "coevaluation zeroed")
def _patch_coev(model):
    def dual(m, b):
        dd = dr.dual_data(m.field, b)
        broken = dr.zero_morphism(m.field, dd.coev.source, dd.coev.target)
        return dr.DualData(dd.dual, dd.ev, broken)

    model.override("dual_data", dual)


@_mutation("biproduct-projection-erased", 24, "second projection zeroed")
def _patch_biproduct(model):
    def bip(m, b, c):
        data = dr.direct_sum_data(m.field, b, c)
        broken = dr.zero_morphism(m.field, data.total, c)
        return dr.BiproductData(data.total, data.inj1, data.inj2, data.proj1, broken)

    model.override("biproduct_data", bip)


@_mutation("kernel-truncated", 25, "kernels reported as zero")
def _patch_kernel(model):
    def ker(m, f):
        u, inc = dr.kernel_of(m.field, f)
        if not u.is_zero:
            return dr.ZERO, dr.zero_morphism(m.field, dr.ZERO, f.source)
        return u, inc

    model.override("kernel_data", ker)


@_mutation("cokernel-truncated", 26, "cokernels reported as zero")
def _patch_cokernel(model):
    def coker(m, f):
        w, proj = dr.cokernel_of(m.field, f)
        if not w.is_zero:
            return dr.ZERO, dr.zero_morphism(m.field, f.target, dr.ZERO)
        return w, proj

    model.override("cokernel_data", coker)


@_mutation("independence-tautology", 27, "independence relation always holds")
def _patch_li(model):
    model.override("li_predicate", lambda m, vs: True)


def mutated_model(
    field: ExactField, group: FgAbelianGroup, bound: FragmentBound, name: str
) -> FragmentModel:
    model = FragmentModel(field, group, bound)
    return MUTATIONS[name].apply(model)


def report_to_text(report: AxiomReport) -> str:
    lines = [
        f"model: field {report.field}, group {report.group}, "
        f"N = {report.bound.max_dimension}, M = {report.bound.max_tensor_length}"
    ]
    for r in report.results:
        lines.append(f"  axiom {r.index:2d} [{r.status:4s}] {r.name}: {r.detail}")
        if r.witness:
            lines.append(f"            witness: {json.dumps(r.witness, sort_keys=True)}")
    lines.append(
        f"{report.passed}/27 passed, {len(report.failed)} failed, "
        f"{len(report.skipped)} skipped"
    )
    return "\n".join(lines)

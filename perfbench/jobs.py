"""Seeded job lists of the three benchmark workloads, with their oracles.

A job is one verdict a user would ask diagcat for. `run` is the timed call;
`digest` reduces its answer to a small comparable value (every round must
give the same digest); `check` compares the answer with an oracle that does
not go through the timed call and says whether the verdict was decided.

The seed only picks among inputs that are equivalent for the question asked
(weight vectors related by an automorphism of the character group, a
subspace moved by a diagonal torus element);
the runner also draws each round's job order from it. Each workload
therefore has the same job classes, the same answers and nearly the same
cost on every seed, so the seed changes the inputs without changing what a
run measures. The axiom sweep has no input to vary: the seed only orders it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from diagcat import axioms as ax
from diagcat import diagrep as dr
from diagcat import field as fieldmod
from diagcat import laurent as la
from diagcat import stab
from diagcat.abelian import parse_group
from diagcat.field import QQ, ExactField

F101 = ExactField(101)
F5 = ExactField(5)


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], tuple[bool, bool, str]]  # (ok, decided, detail)


# ---------------------------------------------------------------------------
# axiom-sweep: criterion 03 (canonical model plus every targeted corruption)

# target axiom of each corruption, restated here so the oracle does not read
# the program's own registry
MUTATION_TARGETS = {
    "field-mul-corrupted": 1,
    "fiber-sample-missing": 2,
    "zero-relation-empty": 3,
    "addition-projects-left": 4,
    "scaling-ignores-scalar": 5,
    "spanning-set-degenerate": 6,
    "hom-duplicate-labels": 9,
    "identity-rescaled": 10,
    "composition-collapses": 11,
    "tensor-owner-inconsistent": 13,
    "tensor-collapses-to-zero": 15,
    "tensor-hom-dropped": 16,
    "duplicate-irreducible": 21,
    "coevaluation-erased": 23,
    "biproduct-projection-erased": 24,
    "kernel-truncated": 25,
    "cokernel-truncated": 26,
    "independence-tautology": 27,
}


def _report_digest(report):
    return (
        report.passed,
        tuple(sorted(r.index for r in report.failed)),
        len(report.skipped),
    )


def _axiom_job(field, group, bound, mutation):
    if mutation is None:
        job_id = f"canonical-N{bound.max_dimension}M{bound.max_tensor_length}"
        expected_failed: tuple = ()

        def run():
            return ax.check_axioms(field, group, bound)

    else:
        job_id = f"mutant:{mutation}"
        expected_failed = (MUTATION_TARGETS[mutation],)

        def run():
            model = ax.mutated_model(field, group, bound, mutation)
            return ax.check_axioms(field, group, bound, model)

    def check(report):
        passed, failed, skipped = _report_digest(report)
        ok = failed == expected_failed and passed == 27 - len(failed)
        return ok, skipped == 0, f"failed {list(failed)} skipped {skipped}"

    return Job(job_id, run, _report_digest, check)


def axiom_sweep(rng: random.Random) -> list[Job]:
    group = parse_group("Z/4")
    jobs = [_axiom_job(F5, group, ax.bounds(3, 2), None)]
    small = ax.bounds(2, 2)
    jobs += [_axiom_job(F5, group, small, name) for name in MUTATION_TARGETS]
    return jobs


# ---------------------------------------------------------------------------
# Weight variants: inputs that present the same subgroup up to relabelling


def _variant(rng: random.Random, group_text: str, weights):
    """Apply a random automorphism of the character group: the image
    subgroup is the same, so every defining degree is unchanged, and so is
    the cost. (Permuting coordinates would also keep the answers, but not
    the cost: Z/4 weights (1,2) take 23% more field operations on the
    general path than (2,1).)"""
    weights = [list(w) for w in weights]
    if group_text.startswith("Z/"):
        k = int(group_text[2:])
        u = rng.choice([x for x in range(1, k) if math.gcd(x, k) == 1] or [1])
        weights = [[(u * c) % k for c in w] for w in weights]
    elif group_text == "Z":
        sign = rng.choice([1, -1])
        weights = [[sign * c for c in w] for w in weights]
    else:  # Z^2: swap and negate coordinates
        if rng.random() < 0.5:
            weights = [w[::-1] for w in weights]
        sign = rng.choice([1, -1])
        weights = [[sign * c for c in w] for w in weights]
    return weights


def _elements(group_text: str, weights):
    group = parse_group(group_text)
    return [group.element(w) for w in weights]


def _label(group_text, weights):
    return f"{group_text}:" + ";".join(",".join(map(str, w)) for w in weights)


def _point_refutes(gens, f, point) -> bool:
    """Certificate check by evaluation: every generator vanishes at the
    point and the refuted element does not."""
    zmat, wmat = point
    zero = f.field.zero()
    return la.evaluate_at_point(f, zmat, wmat) != zero and all(
        la.evaluate_at_point(g, zmat, wmat) == zero for g in gens
    )


def _degree_digest(res):
    return (res.status, res.degree, len(res.witnesses), len(res.refutations))


# ---------------------------------------------------------------------------
# degree-general: defining degrees on the Macaulay-matrix path

# (field, cap, group, weights): the general-path degree at this cap equals
# the exact degree of the weights path; (1,3) over Q at cap 3, for example,
# gives 3 against the exact 2, so it is not in this list
GENERAL_SLOTS = [
    (F101, 4, "Z", [[1], [2]]),  # catalog torus-t-t2-gl2
    (F101, 4, "Z^2", [[1, 0], [0, 1]]),  # catalog diagonal-torus-gl2
    (F101, 4, "Z", [[2], [3]]),
    (F101, 4, "Z", [[1], [-1]]),
    (F101, 4, "Z/3", [[1], [1]]),
    (F101, 4, "Z/4", [[1], [2]]),
    (QQ, 3, "Z", [[1], [2]]),  # catalog torus-t-t2-gl2
    (QQ, 3, "Z^2", [[1, 0], [0, 1]]),  # catalog diagonal-torus-gl2
    (QQ, 3, "Z", [[2], [3]]),
    (QQ, 3, "Z/3", [[1], [2]]),
]
GENERAL_DMAX = 3


def _general_job(field, cap, group_text, weights):
    elems = _elements(group_text, weights)
    exact = la.diagonalizable_image_ideal(field, elems, "w")
    bare = la.SubgroupPresentation(field, exact.n, exact.ideal, None, "bare")
    job_id = f"general:{field}:cap{cap}:{_label(group_text, weights)}"

    def run():
        return stab.defining_degree(bare, GENERAL_DMAX, cap)

    def check(res):
        oracle = stab.defining_degree(exact, GENERAL_DMAX, cap)
        if res.status != "found" or oracle.status != "found":
            return False, False, f"status {res.status} (weights path {oracle.status})"
        if res.degree != oracle.degree:
            return False, True, f"degree {res.degree} != weights path {oracle.degree}"
        if not res.witness_ok():
            return False, False, "witness does not re-verify"
        for ref in res.refutations:
            if ref.point is None:
                continue
            # the exact slice (weights path) generates an ideal containing
            # the capped slice, so a point it kills is a valid certificate;
            # only otherwise rebuild the capped slice itself
            gens = la.character_slice_generators(field, elems, ref.d)
            if not _point_refutes(gens, ref.generator, ref.point):
                gens = stab.group_le_d(bare, ref.d, cap)[0].ideal.generators
                if not _point_refutes(gens, ref.generator, ref.point):
                    return False, True, f"refutation point at d={ref.d} does not refute"
        return True, True, f"degree {res.degree}"

    return Job(job_id, run, _degree_digest, check)


def degree_general(rng: random.Random) -> list[Job]:
    return [
        _general_job(field, cap, g, _variant(rng, g, w))
        for field, cap, g, w in GENERAL_SLOTS
    ]


# ---------------------------------------------------------------------------
# exact-queries: weights-path defining degrees and presented stability

# (group, weights, exact defining degree); GL_1 degrees also follow the
# closed form below; GL_2 degrees equal the general path's over F_101 at
# cap 4, except Z/5 (1,2), where cap 4 gives the cap-relative 3; GL_3
# degrees agree over Q and F_101
WEIGHT_SLOTS = [
    ("Z/2", [[1]], 1),
    ("Z/3", [[1]], 2),
    ("Z/4", [[1]], 2),
    ("Z/5", [[1]], 3),
    ("Z/6", [[1]], 3),
    ("Z/7", [[1]], 4),
    ("Z/8", [[2]], 2),
    ("Z/6", [[3]], 1),
    ("Z", [[3]], 0),
    ("Z", [[0]], 1),
    ("Z", [[1], [2]], 2),
    ("Z", [[1], [3]], 2),
    ("Z", [[2], [3]], 3),
    ("Z", [[1], [-1]], 1),
    ("Z", [[1], [1]], 1),
    ("Z^2", [[1, 0], [0, 1]], 1),
    ("Z^2", [[1, 1], [1, -1]], 1),
    ("Z/3", [[1], [2]], 2),
    ("Z/4", [[1], [2]], 2),
    ("Z/5", [[1], [2]], 2),
    ("Z", [[1], [-1], [0]], 1),
    ("Z^2", [[1, 0], [0, 1], [1, 1]], 2),
]
WEIGHT_CAP = 4


def _gl1_degree(group_text, weights) -> int:
    """Closed form on GL_1: a character of order m has image mu_m, of
    defining degree ceil(m/2) (the binomial Z^ceil(m/2) - W^floor(m/2));
    the trivial image needs Z - 1, and an infinite image is all of GL_1."""
    (c,) = weights[0]
    if group_text == "Z":
        return 0 if c != 0 else 1
    k = int(group_text[2:])
    m = k // math.gcd(c, k)
    return 1 if m == 1 else (m + 1) // 2


def _weights_job(field, group_text, weights, expected):
    elems = _elements(group_text, weights)
    pres = la.diagonalizable_image_ideal(field, elems, "w")
    dmax = 4 if len(weights) == 1 else 3
    job_id = f"degree:{field}:{_label(group_text, weights)}"

    def run():
        return stab.defining_degree(pres, dmax, WEIGHT_CAP)

    def check(res):
        if res.status != "found":
            return False, False, f"status {res.status}"
        if res.degree != expected:
            return False, True, f"degree {res.degree} != expected {expected}"
        if len(weights) == 1 and res.degree != _gl1_degree(group_text, weights):
            return False, True, "GL_1 closed form disagrees"
        if not res.witness_ok():
            return False, False, "witness does not re-verify"
        for ref in res.refutations:
            if ref.point is None:
                continue
            gens = la.character_slice_generators(field, elems, ref.d)
            if not _point_refutes(gens, ref.generator, ref.point):
                return False, True, f"refutation point at d={ref.d} does not refute"
        return True, True, f"degree {res.degree}"

    return Job(job_id, run, _degree_digest, check)


# (group, weights); every shape and subspace rank below is asked of each
STABLE_GROUPS = [
    ("Z", [[1], [2]]),
    ("Z/4", [[1], [2]]),
    ("Z/2", [[1], [0]]),
    ("Z^2", [[1, 0], [0, 1]]),
]
STABLE_SHAPES = ["X", "X+Y", "X*Y", "X^2"]
STABLE_CAP = 4


def _subspace(rng: random.Random, field, s: int, r: int):
    while True:
        A = [[field.of(rng.choice([0, 0, 1, 2, -1])) for _ in range(r)] for _ in range(s)]
        if fieldmod.rank(field, A) == r:
            return A


def _torus_scaling(field, P, n: int, t):
    """Diagonal entries of the action of diag(t) on the canonical basis of
    P(V): each V factor i contributes t_i, each V* factor j contributes
    1/t_j."""
    out = []
    for lab in stab.canonical_basis(P, n):
        x = field.one()
        for i in lab.vfactors:
            x = field.mul(x, t[i])
        for j in lab.dualfactors:
            x = field.div(x, t[j])
        out.append(x)
    return out


def _stable_job(field, group_text, weights, shape, A):
    elems = _elements(group_text, weights)
    b = dr.irreducible(parse_group(group_text), elems)
    basis = list(dr.basis_weights(b))
    exact = la.diagonalizable_image_ideal(field, basis, "w")
    pres = la.SubgroupPresentation(field, exact.n, exact.ideal, None, "presented")
    P = stab.parse_shape(shape)
    job_id = f"stable:{field}:{_label(group_text, weights)}:{shape}:r{len(A[0])}"

    def run():
        return stab.is_stable(field, b, P, A, presentation=pres, membership_cap=STABLE_CAP)

    def check(answer):
        if answer is None:
            return True, False, "unknown at cap"
        oracle = stab.is_stable(field, b, P, A)
        return answer == oracle, True, f"{answer} (weights path {oracle})"

    return Job(job_id, run, lambda a: a, check)


def exact_queries(rng: random.Random) -> list[Job]:
    jobs = []
    for field in (QQ, F101):
        for g, w, expected in WEIGHT_SLOTS:
            jobs.append(_weights_job(field, g, _variant(rng, g, w), expected))
    # the subspaces come from a fixed stream so that every seed asks the
    # same questions; the seed moves each subspace by a torus element,
    # which commutes with the diagonal group and keeps every answer
    base = random.Random(20190826)
    for field in (QQ, F101):
        for g, w in STABLE_GROUPS:
            n = len(w)
            for shape in STABLE_SHAPES:
                P = stab.parse_shape(shape)
                s = P.dimension(n)
                for r in (1, 2):
                    A0 = _subspace(base, field, s, r)
                    t = [field.of(rng.choice([1, 2, 3, -1, -2])) for _ in range(n)]
                    scale = _torus_scaling(field, P, n, t)
                    A = [[field.mul(x, row[j]) for j in range(r)] for x, row in zip(scale, A0)]
                    jobs.append(_stable_job(field, g, w, shape, A))
    return jobs


WORKLOADS = {
    "axiom-sweep": axiom_sweep,
    "degree-general": degree_general,
    "exact-queries": exact_queries,
}

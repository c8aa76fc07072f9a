"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function by a wrapper at every place
its callers look it up: module attributes, names bound by `from ... import`
in any diagcat module, the entries of `axioms.AXIOM_CHECKS` and class
attributes. `uninstall()` puts the originals back. Wrapped functions record
spans (name, start, end, parent span, job) in memory; hot scalar methods
only count calls. Layer self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from diagcat import abelian, axioms, diagrep, field, laurent, paren, sparsepoly, stab
from diagcat.axioms import FragmentModel
from diagcat.field import ExactField
from diagcat.sparsepoly import SparsePoly


def _field_split(args):
    return "q" if args[0].p is None else "fp"


def _rref_extra(args, result, counters, name):
    m = args[1]
    counters[name + ".cells"] += len(m) * (len(m[0]) if m else 0)
    counters[name + ".rank"] += len(result[1])


def _mul_extra(args, result, counters, name):
    counters[name + ".terms_out"] += len(result.terms)


def _refutation_extra(args, result, counters, name):
    if result is not None:
        counters[name + ".hits"] += 1


def _membership_extra(args, result, counters, name):
    if result.status == "member":
        outcome = "member"
    elif result.status == "unknown":
        outcome = "over_budget"
    elif result.definitive:
        outcome = "refuted"
    else:
        outcome = "capped"
    counters["laurent.membership." + outcome] += 1


# (owner, attribute, metric name, split by field, extra recorder)
SPANNED = [
    (field, "rref", "field.rref", True, _rref_extra),
    (field, "solve_linear", "field.solve_linear", True, None),
    (field, "kernel", "field.kernel", True, None),
    (field, "rank", "field.rank", False, None),
    (field, "mat_mul", "field.mat_mul", False, None),
    (field, "inverse", "field.inverse", False, None),
    (field, "det", "field.det", False, None),
    (SparsePoly, "__mul__", "sparsepoly.mul", False, _mul_extra),
    (sparsepoly, "monomials_up_to", "sparsepoly.monomials_up_to", False, None),
    (laurent, "truncated_ideal_part", "laurent.truncated_ideal_part", False, None),
    (laurent, "ideal_membership", "laurent.ideal_membership", False, None),
    (laurent, "ideal_membership_ascending", "laurent.ideal_membership_ascending", False, _membership_extra),
    (laurent, "find_refutation_point", "laurent.find_refutation_point", False, _refutation_extra),
    (laurent, "character_slice", "laurent.character_slice", False, None),
    (laurent, "character_slice_generators", "laurent.character_slice_generators", False, None),
    (laurent, "verify_membership_witness", "laurent.verify_membership_witness", False, None),
    (stab, "defining_degree", "stab.defining_degree", False, None),
    (stab, "group_le_d", "stab.group_le_d", False, None),
    (stab, "is_stable", "stab.is_stable", False, None),
    (stab, "stabilizer_polys", "stab.stabilizer_polys", False, None),
    (stab, "action_matrix", "stab.action_matrix", False, None),
    (axioms, "check_axioms", "axioms.check_axioms", False, None),
    (FragmentModel, "all_objects", "axioms.all_objects", False, None),
    (diagrep, "hom_space", "diagrep.hom_space", False, None),
    (diagrep, "compose", "diagrep.compose", False, None),
    (diagrep, "tensor_hom", "diagrep.tensor_hom", False, None),
    (diagrep, "apply_morphism", "diagrep.apply_morphism", False, None),
    (diagrep, "dual_data", "diagrep.dual_data", False, None),
    (diagrep, "direct_sum_data", "diagrep.direct_sum_data", False, None),
    (diagrep, "kernel_of", "diagrep.kernel_of", False, None),
    (diagrep, "cokernel_of", "diagrep.cokernel_of", False, None),
    (abelian, "relation_lattice", "abelian.relation_lattice", False, None),
    (abelian, "smith_normal_form", "abelian.smith_normal_form", False, None),
    (paren, "enumerate_shapes", "paren.enumerate_shapes", False, None),
]

# hot scalar methods: call counts only
COUNTED = [
    (ExactField, "of", "field.of"),
    (laurent, "evaluate_at_point", "laurent.evaluate_at_point"),
    (FragmentModel, "_call", "axioms.hook"),
]

CHECK_NAMES = [f"axioms.check_{i + 1:02d}" for i in range(len(axioms.AXIOM_CHECKS))]


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for _, _, base, split, extra in SPANNED:
        for suffix in ((".fp", ".q") if split else ("",)):
            names += [base + suffix + ".calls", base + suffix + ".self_s"]
            if extra is _rref_extra:
                names += [base + suffix + ".cells", base + suffix + ".rank"]
            elif extra is _mul_extra:
                names.append(base + ".terms_out")
            elif extra is _refutation_extra:
                names.append(base + ".hits")
            elif extra is _membership_extra:
                names += [
                    f"laurent.membership.{o}"
                    for o in ("member", "refuted", "capped", "over_budget")
                ]
    names += [name + ".self_s" for name in CHECK_NAMES]
    names += [name + ".calls" for _, _, name in COUNTED]
    return names


def _diagcat_namespaces():
    return [
        vars(mod)
        for name, mod in sorted(sys.modules.items())
        if name == "diagcat" or name.startswith("diagcat.")
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span: [name id, start, end, parent index, job index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.job = -1
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, base, split, extra):
        spans, stack, counters = self.spans, self.stack, self.counters
        ids = {s: self._name_id(base + s) for s in ((".fp", ".q") if split else ("",))}
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            suffix = "." + _field_split(args) if split else ""
            idx = len(spans)
            span = [ids[suffix], clock(), 0.0, stack[-1] if stack else -1, tracer.job]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if extra is not None:
                extra(args, result, counters, base + suffix)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counters = self.counters
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, wrapper):
        """Bind `wrapper` wherever `owner.attr` is looked up."""
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for ns in _diagcat_namespaces():
            for name, value in list(ns.items()):
                if value is original:
                    self._restore.append((ns, name, original))
                    ns[name] = wrapper

    def install(self):
        for owner, attr, base, split, extra in SPANNED:
            fn = getattr(owner, attr)
            self._replace(owner, attr, self._span_wrapper(fn, base, split, extra))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, self._count_wrapper(getattr(owner, attr), name))
        checks = axioms.AXIOM_CHECKS
        for i, chk in enumerate(list(checks)):
            self._restore.append((checks, i, chk))
            checks[i] = self._span_wrapper(chk, CHECK_NAMES[i], False, None)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, type):
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._restore.clear()

    def totals(self) -> dict[str, float]:
        """calls and self seconds per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name_id, start, end, _, _), inner in zip(self.spans, child):
            name = self.names[name_id]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - inner
        for key, value in self.counters.items():
            out[key] += value
        return out

    def write(self, path, job_ids: list[str]):
        """One JSON line per span: name, start, end, parent index, job id."""
        with open(path, "w") as fh:
            for name_id, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        [self.names[name_id], round(start, 7), round(end, 7), parent,
                         job_ids[job] if job >= 0 else None]
                    )
                    + "\n"
                )

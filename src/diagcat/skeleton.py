"""The free parenthesized tensor closure of a set of irreducible labels.

Closing the labels under a formal pair-forming tensor yields a category with
the unique tensor factorization property by construction. The closure is the
canonical model's own object layer: a closure object is a `diagrep` object
whose leaves are weight-multiset labels, so the tensor and the tree walk
exist once, in `diagrep`. The provider supplies the labels and the hom-set
and associativity oracles; its oracles are pure, for thread safety.
"""

from __future__ import annotations

from . import diagrep
from .field import ExactField

ClosureObject = diagrep.BaseObject
ZERO_CLOSURE = diagrep.ZERO
closure_leaf = diagrep.make_irreducible
closure_tensor = diagrep.tensor_obj
closure_factorize = diagrep.tensor_factorize
closure_retensor = diagrep.retensor
is_tensor_irreducible = diagrep.is_tensor_irreducible


def tensor_length(x: ClosureObject) -> int:
    return x.tensor_length


class DiagonalizableProvider:
    """The canonical instantiation: labels are weight multisets, and no two
    distinct labels are isomorphic."""

    def __init__(self, field: ExactField, group, max_size: int = 2):
        self.field = field
        self.group = group
        self.max_size = max_size

    def labels(self) -> list:
        """The irreducible object labels up to `max_size` weights."""
        out = []
        for size in range(1, self.max_size + 1):
            out.extend(diagrep.enumerate_multisets(self.group, size))
        return out

    def evaluate(self, x: ClosureObject) -> ClosureObject:
        """The underlying object of an evaluated tensor word: itself."""
        return x

    def hom_basis(self, x: ClosureObject, y: ClosureObject) -> list:
        return list(diagrep.hom_space(self.field, x, y).basis)

    def associator(self, x, y, z):
        """The constraint x (x) (y (x) z) -> (x (x) y) (x) z."""
        return diagrep.associator(self.field, x, y, z)

    def isomorphism_exists(self, x: ClosureObject, y: ClosureObject) -> bool:
        if x.is_zero or y.is_zero:
            return x.is_zero and y.is_zero
        return diagrep.isotypic_weights(x) == diagrep.isotypic_weights(y)

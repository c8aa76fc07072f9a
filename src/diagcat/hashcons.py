"""Hash-consed value classes: equal values are one object.

`Interned` is the metaclass of the fragment's object layer (`ParenShape`,
`GroupElement`, `WeightMultiset`, `BaseObject`). Each is a frozen dataclass
declared with `eq=False`, so `==` is identity. Calling the class returns the
one live instance with those field values; a new instance is validated by
its `__post_init__` as before and gets a stored hash, the hash of its field
tuple. That is the value the dataclass hash would give, and it derives from
values only, never from `id()`, so dict and set orders do not change.

Each class has one table, which holds its instances weakly: an object lives
as long as something else refers to it. The memos of `diagrep.basis_weights`
and `diagrep.weight_slots` (`lru_cache(maxsize=None)`) are such referrers, so
every object passed to them stays in the table for the life of the process.
They are kept on purpose: per-object `cached_property` caches instead made
the serial canonical axiom check over F5, Z/4 at N=3 about 25% slower.
"""

from __future__ import annotations

from weakref import KeyedRef


class Interned(type):
    def __init__(cls, name, bases, namespace):
        super().__init__(name, bases, namespace)
        # the dataclass fields, in declaration order
        cls._fields = tuple(namespace.get("__annotations__", ()))
        # field tuple -> weak reference to the instance
        table = cls._table = {}

        def drop(ref):
            if table.get(ref.key) is ref:
                del table[ref.key]

        cls._drop = staticmethod(drop)
        cls._key = lambda self: tuple(getattr(self, f) for f in cls._fields)
        cls.__hash__ = lambda self: self._h
        # copies and unpickled values go through the constructor too
        cls.__reduce__ = lambda self: (type(self), self._key())

    def __call__(cls, *args, **kwargs):
        obj = None
        if kwargs or len(args) != len(cls._fields):
            # keywords or defaults: build first, so the key is the full
            # field tuple whatever the call form
            obj = super().__call__(*args, **kwargs)
            args = obj._key()
        ref = cls._table.get(args)
        if ref is not None:
            found = ref()
            if found is not None:
                return found
        if obj is None:
            obj = super().__call__(*args)
        object.__setattr__(obj, "_h", hash(args))
        cls._table[args] = KeyedRef(obj, cls._drop, args)
        return obj

"""Hash-consed value classes: equal values are one object.

`Interned` is the metaclass of the fragment's object layer (`ParenShape`,
`GroupElement`, `WeightMultiset`, `BaseObject`). Each is a frozen dataclass
declared with `eq=False`, so `==` is identity. Calling the class returns the
one live instance with those field values; a new instance is validated by
its `__post_init__` as before and gets a stored hash, the hash of its field
tuple. That is the value the dataclass hash would give, and it derives from
values only, never from `id()`, so dict and set orders do not change.

Each class has one table, keyed by the stored hash, so a call hashes its
field tuple once and a dying value rehashes nothing. A slot lists weak
references that carry their value's hash and field tuple; it holds more
than one when live values share a hash (in CPython `hash(-1) == hash(-2)`).
A lookup compares field tuples, which is identity on interned fields, and a
dying value's reference leaves its slot by the int key (the weak table of
Filliâtre and Conchon, "Type-Safe Modular Hash-Consing", ML Workshop 2006).

A value lives as long as something else refers to it. Four memos do so,
each bounded by what the fragment builds:
- `diagrep.basis_weights` and `diagrep.weight_slots` keep every object
  passed to them (per-object `cached_property` caches made the serial
  canonical axiom check over F5, Z/4 at N=3 about 25% slower);
- `paren.pair` keeps every product shape: Catalan(m - 1) shapes of m leaves,
  with m at most twice the longest tensor word;
- an element of a finite group A keeps its sums, at most |A|² in all.
"""

from __future__ import annotations

from weakref import ref


class _Ref(ref):
    """A weak reference to an interned value, with the value's stored hash
    `h` and field tuple `fields`, which outlive the value."""

    __slots__ = ("h", "fields")


class Interned(type):
    def __init__(cls, name, bases, namespace):
        super().__init__(name, bases, namespace)
        # the dataclass fields, in declaration order
        cls._fields = tuple(namespace.get("__annotations__", ()))
        # stored hash -> the `_Ref`s of the live values with that hash
        table = cls._table = {}

        def drop(r):
            bucket = table[r.h]
            bucket.remove(r)  # a dead reference equals only itself
            if not bucket:
                del table[r.h]

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
        h = hash(args)
        bucket = cls._table.get(h)
        if bucket is not None:
            for r in bucket:
                if r.fields == args:
                    found = r()
                    if found is not None:
                        return found
        if obj is None:
            obj = super().__call__(*args)
        object.__setattr__(obj, "_h", h)
        new = _Ref(obj, cls._drop)
        new.h = h
        new.fields = args
        cls._table.setdefault(h, []).append(new)
        return obj

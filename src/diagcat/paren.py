"""Completely parenthesized sequences (full binary trees) and the 2-bit codec.

A `ParenShape` is a full binary tree; a `SlotPattern` attaches a slot count
to each leaf (a group of placeholders). Patterns are encoded into bit strings
read in blocks of two: `10` opens a parenthesis, `01` closes one, `00` is a
placeholder slot, and `11` blocks may only appear as trailing padding. Every
tree node (leaf group or pair) is wrapped in exactly one parenthesis pair, so
the single worked convention below round-trips:

    ((( . . . )( . ))( . . ))   <->   10 10 10 00 00 00 01 10 00 01 01 10 00 00 01 01
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .hashcons import Interned


@dataclass(frozen=True, eq=False)
class ParenShape(metaclass=Interned):
    """Leaf when `children is None`, otherwise an ordered pair of shapes;
    hash-consed, so equal shapes are one object."""

    children: tuple[ParenShape, ParenShape] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def leaf_count(self) -> int:
        return fold(self, lambda k: 1, lambda l, r: l + r)

    def __str__(self) -> str:
        return fold(self, lambda k: "*", lambda l, r: f"({l}{r})")


LEAF = ParenShape()


def pair(left: ParenShape, right: ParenShape) -> ParenShape:
    return ParenShape((left, right))


def enumerate_shapes(m: int) -> list[ParenShape]:
    """All full binary trees with m leaves; there are Catalan(m-1) of them."""
    if m < 1:
        raise ValueError("need at least one leaf")
    return list(_shapes(m))


@lru_cache(maxsize=None)
def _shapes(m: int) -> tuple[ParenShape, ...]:
    if m == 1:
        return (LEAF,)
    out = []
    for i in range(1, m):
        for l in _shapes(i):
            for r in _shapes(m - i):
                out.append(pair(l, r))
    return tuple(out)


def fold(shape: ParenShape, leaf, node):
    """Fold a shape bottom-up: `leaf(k)` at the k-th leaf from the left,
    `node(l, r)` at each pair on the values of its two children."""
    count = 0

    def walk(s: ParenShape):
        nonlocal count
        if s.children is None:
            count += 1
            return leaf(count - 1)
        l, r = s.children
        left = walk(l)
        return node(left, walk(r))

    return walk(shape)


# ---------------------------------------------------------------------------
# Slot patterns and the codec


@dataclass(frozen=True)
class SlotPattern:
    """A shape whose leaves carry positive slot counts."""

    shape: ParenShape
    slots: tuple[int, ...]

    def __post_init__(self):
        if len(self.slots) != self.shape.leaf_count:
            raise ValueError("slot count list does not match shape")
        if any(s < 1 for s in self.slots):
            raise ValueError("every group needs at least one slot")

    def __str__(self) -> str:
        return format_pattern(self)


class CodecError(ValueError):
    """Raised for invalid bit codes; `kind` distinguishes the failure."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def encode_pattern(pattern: SlotPattern, pad_to: int | None = None) -> str:
    slots = pattern.slots
    code = fold(
        pattern.shape,
        lambda k: "10" + "00" * slots[k] + "01",
        lambda l, r: "10" + l + r + "01",
    )
    if pad_to is not None:
        if pad_to % 2 != 0:
            raise CodecError("odd-length", "target bit length must be even")
        if pad_to < len(code):
            raise CodecError(
                "too-long", f"encoding needs {len(code)} bits, target is {pad_to}"
            )
        code += "11" * ((pad_to - len(code)) // 2)
    return code


_BLOCK_TOKENS = {"10": "(", "00": "_", "01": ")"}


def decode_pattern(code: str) -> SlotPattern:
    code = "".join(code.split())
    if any(ch not in "01" for ch in code):
        raise CodecError("malformed", "code must consist of 0/1 characters")
    if len(code) % 2 != 0:
        raise CodecError("odd-length", "code length must be even")
    blocks = [code[i : i + 2] for i in range(0, len(code), 2)]
    # strip trailing padding
    n = len(blocks)
    while n > 0 and blocks[n - 1] == "11":
        n -= 1
    body = blocks[:n]
    if any(b == "11" for b in body):
        raise CodecError("interior-padding", "11-block before end of content")
    if not body:
        raise CodecError("empty", "code carries no content")
    return _parse_tokens([_BLOCK_TOKENS[b] for b in body])


def parse_pattern(text: str) -> SlotPattern:
    """Parse `((( _ _ _ )( _ ))( _ _ ))`; `_` or `.` or `*` marks a slot."""
    tokens = []
    for ch in text:
        if ch in "(_.)*•":
            tokens.append("(" if ch == "(" else ")" if ch == ")" else "_")
        elif not ch.isspace():
            raise CodecError("malformed", f"unexpected character {ch!r} in pattern")
    return _parse_tokens(tokens)


def _parse_tokens(tokens: list[str]) -> SlotPattern:
    """The one pattern parser, over the tokens `(`, `_` and `)`; a token's
    position is its block index in a bit code."""
    pos = 0
    slots: list[int] = []

    def parse_node() -> ParenShape:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != "(":
            raise CodecError("unbalanced", f"expected '(' at block {pos}")
        pos += 1
        if pos < len(tokens) and tokens[pos] == "_":
            count = 0
            while pos < len(tokens) and tokens[pos] == "_":
                count += 1
                pos += 1
            if pos >= len(tokens) or tokens[pos] != ")":
                raise CodecError("malformed", "slot run not closed by ')'")
            pos += 1
            slots.append(count)
            return LEAF
        children = []
        while pos < len(tokens) and tokens[pos] == "(":
            children.append(parse_node())
        if pos >= len(tokens) or tokens[pos] != ")":
            raise CodecError("unbalanced", "unclosed parenthesis")
        pos += 1
        if len(children) == 0:
            raise CodecError("malformed", "empty group")
        if len(children) == 1:
            raise CodecError("malformed", "unary parenthesization")
        if len(children) > 2:
            raise CodecError("malformed", "parenthesization of arity > 2")
        return pair(children[0], children[1])

    shape = parse_node()
    if pos != len(tokens):
        raise CodecError("unbalanced", "trailing content after pattern")
    return SlotPattern(shape, tuple(slots))


def format_pattern(pattern: SlotPattern) -> str:
    slots = pattern.slots
    return fold(
        pattern.shape,
        lambda k: "(" + " ".join("_" * slots[k]) + ")",
        lambda l, r: f"({l}{r})",
    )


def format_bits(code: str) -> str:
    code = "".join(code.split())
    return " ".join(code[i : i + 2] for i in range(0, len(code), 2))

import random

import pytest

from diagcat import paren as pr

# the one worked codec example: pattern and its 16-block code
WORKED_PATTERN = "((( _ _ _ )( _ ))( _ _ ))"
WORKED_BITS = "10 10 10 00 00 00 01 10 00 01 01 10 00 00 01 01"


def _catalan_oracle(n):
    # independent recursive count C_n = sum C_i C_{n-1-i}
    if n == 0:
        return 1
    return sum(_catalan_oracle(i) * _catalan_oracle(n - 1 - i) for i in range(n))


def test_enumeration_counts():
    for m in range(1, 9):
        shapes = pr.enumerate_shapes(m)
        assert len(shapes) == _catalan_oracle(m - 1)
        assert len(set(shapes)) == len(shapes)
        assert all(s.leaf_count == m for s in shapes)
    with pytest.raises(ValueError):
        pr.enumerate_shapes(0)


def test_concat():
    two = pr.pair(pr.LEAF, pr.LEAF)
    assert two.leaf_count == 2 and not two.is_leaf
    a = pr.pair(pr.pair(pr.LEAF, pr.LEAF), pr.LEAF)
    b = pr.pair(pr.LEAF, pr.LEAF)
    joined = pr.pair(a, b)
    assert joined.leaf_count == 5
    assert joined.children == (a, b)
    assert pr.pair(a, b) != pr.pair(b, a)
    # trees associate strictly: distinct shapes
    c = pr.LEAF
    assert pr.pair(pr.pair(a, b), c) != pr.pair(a, pr.pair(b, c))


def test_worked_example_bits():
    pattern = pr.parse_pattern(WORKED_PATTERN)
    code = pr.encode_pattern(pattern)
    assert pr.format_bits(code) == WORKED_BITS
    decoded = pr.decode_pattern(WORKED_BITS)
    assert decoded == pattern
    # re-encode bit-identically
    assert pr.encode_pattern(decoded) == code


def test_single_group_encoding():
    pattern = pr.parse_pattern("( _ )")
    code = pr.encode_pattern(pattern)
    assert code == "100001"
    padded = pr.encode_pattern(pattern, 10)
    assert padded == "1000011111"
    assert pr.decode_pattern(padded) == pattern


def test_padding_rule():
    pattern = pr.parse_pattern(WORKED_PATTERN)
    code = pr.encode_pattern(pattern)
    padded = pr.encode_pattern(pattern, len(code) + 4)
    assert padded.endswith("1111") and padded[: len(code)] == code
    assert pr.decode_pattern(padded) == pattern


def test_encode_errors():
    pattern = pr.parse_pattern("( _ )")
    with pytest.raises(pr.CodecError) as e:
        pr.encode_pattern(pattern, 4)
    assert e.value.kind == "too-long"
    with pytest.raises(pr.CodecError) as e:
        pr.encode_pattern(pattern, 7)
    assert e.value.kind == "odd-length"


def test_decode_errors():
    with pytest.raises(pr.CodecError) as e:
        pr.decode_pattern("11 11 11 11")
    assert e.value.kind == "empty"

    with pytest.raises(pr.CodecError) as e:
        pr.decode_pattern("10 00 10")
    assert e.value.kind in ("unbalanced", "malformed")

    with pytest.raises(pr.CodecError) as e:
        pr.decode_pattern("10 11 00 01")
    assert e.value.kind == "interior-padding"

    with pytest.raises(pr.CodecError) as e:
        pr.decode_pattern("100")
    assert e.value.kind == "odd-length"

    # a unary parenthesization has no pattern reading
    with pytest.raises(pr.CodecError) as e:
        pr.decode_pattern("10 10 00 01 01")
    assert e.value.kind == "malformed"

    # empty group
    with pytest.raises(pr.CodecError) as e:
        pr.decode_pattern("10 01")
    assert e.value.kind == "malformed"

    # trailing content after a complete pattern
    with pytest.raises(pr.CodecError) as e:
        pr.decode_pattern("10 00 01 10 00 01")
    assert e.value.kind == "unbalanced"


def test_pattern_parser_rejects_redundant_wrapping():
    # a pair may contain either slots or exactly two subpatterns
    with pytest.raises(ValueError):
        pr.parse_pattern("(( _ _ ))")
    with pytest.raises(ValueError):
        pr.parse_pattern("(( _ )( _ )( _ ))")


def _random_pattern(rng, max_groups=6, max_slots=6):
    groups = rng.randint(1, max_groups)
    shape = rng.choice(pr.enumerate_shapes(groups))
    slots = tuple(rng.randint(1, max_slots) for _ in range(groups))
    return pr.SlotPattern(shape, slots)


def test_round_trip_seeded():
    rng = random.Random(20260808)
    for _ in range(300):
        pattern = _random_pattern(rng)
        code = pr.encode_pattern(pattern)
        assert pr.decode_pattern(code) == pattern
        for k in range(1, 4):
            padded = pr.encode_pattern(pattern, len(code) + 2 * k)
            assert pr.decode_pattern(padded) == pattern
        # text form round trip
        assert pr.parse_pattern(pr.format_pattern(pattern)) == pattern


# ---------------------------------------------------------------------------
# The one fold and the one parser against the hand-written walks they replace


def _reference_encode(pattern):
    bits = []

    def walk(shape, at):
        bits.append("10")
        if shape.is_leaf:
            bits.append("00" * pattern.slots[at])
            at += 1
        else:
            l, r = shape.children
            at = walk(l, at)
            at = walk(r, at)
        bits.append("01")
        return at

    walk(pattern.shape, 0)
    return "".join(bits)


def _reference_format(pattern):
    def walk(shape, at):
        if shape.is_leaf:
            return "(" + " ".join("_" for _ in range(pattern.slots[at])) + ")", at + 1
        l, r = shape.children
        ls, at = walk(l, at)
        rs, at = walk(r, at)
        return f"({ls}{rs})", at

    return walk(pattern.shape, 0)[0]


def test_fold_matches_reference_walks():
    for m in range(1, 7):
        for shape in pr.enumerate_shapes(m):
            assert pr.fold(shape, lambda k: [k], lambda l, r: l + r) == list(range(m))
            assert shape.leaf_count == m
            for slots in (tuple(range(1, m + 1)), tuple(range(m, 0, -1))):
                pattern = pr.SlotPattern(shape, slots)
                assert pr.encode_pattern(pattern) == _reference_encode(pattern)
                assert pr.format_pattern(pattern) == _reference_format(pattern)


# malformed layouts as `(`, `_`, `)` tokens, with the kind both parsers give
MALFORMED_LAYOUTS = [
    ("_", "unbalanced"),
    (")", "unbalanced"),
    ("(", "unbalanced"),
    ("(_", "malformed"),
    ("(__(", "malformed"),
    ("()", "malformed"),
    ("((_))", "malformed"),
    ("((_)(_)(_))", "malformed"),
    ("((_)(_)", "unbalanced"),
    ("((_)(_)_)", "unbalanced"),
    ("(_)(_)", "unbalanced"),
    ("(_))", "unbalanced"),
    ("(()(_))", "malformed"),
]


@pytest.mark.parametrize("layout, kind", MALFORMED_LAYOUTS)
def test_decode_and_parse_agree_on_malformed_layouts(layout, kind):
    bits = " ".join({"(": "10", "_": "00", ")": "01"}[t] for t in layout)
    kinds = []
    for parse, text in ((pr.decode_pattern, bits), (pr.parse_pattern, layout)):
        with pytest.raises(pr.CodecError) as e:
            parse(text)
        kinds.append(e.value.kind)
    assert set(kinds) == {kind}

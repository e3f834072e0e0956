import math
from fractions import Fraction

import pytest

from smplab.words import (
    christoffel,
    christoffel_tree,
    cyclic_rotations,
    is_primitive,
    is_sturmian_word,
    lyndon_rotation,
    lyndon_words,
    mechanical_prefix,
    signature,
    sturmian_class_words,
    words_with_counts,
)


def test_is_primitive():
    assert is_primitive("01")
    assert not is_primitive("0101")
    assert is_primitive("00101")
    assert not is_primitive("000")
    assert is_primitive("0")


def test_lyndon_rotation():
    assert lyndon_rotation("10") == "01"
    assert lyndon_rotation("0010") == "0001"
    assert lyndon_rotation("00101") == "00101"
    with pytest.raises(ValueError):
        lyndon_rotation("0101")


def test_signature_examples():
    assert signature("01") == (1, 1, 1)
    assert signature("0010") == (3, 1, 1)
    assert signature("00101") == (3, 2, 2)
    with pytest.raises(ValueError):
        signature("0101")


def test_signature_power_forms():
    for n in range(1, 12):
        assert signature("0" * n + "1") == (n, 1, 1)
        assert signature("0" + "1" * n) == (1, n, 1)


def test_power_form_signatures_linearly_independent():
    words = ["0" * n + "1" for n in range(1, 8)] + ["0" + "1" * n for n in range(2, 8)]
    sigs = {w: signature(w) for w in words}
    for i, w1 in enumerate(words):
        for w2 in words[i + 1:]:
            m1, k1, l1 = sigs[w1]
            m2, k2, l2 = sigs[w2]
            crosses = (m1 * k2 - m2 * k1, m1 * l2 - m2 * l1, k1 * l2 - k2 * l1)
            assert any(c != 0 for c in crosses), (w1, w2)


def test_mechanical_examples():
    assert mechanical_prefix(1, 0, "lower", 4) == "1111"
    assert mechanical_prefix(Fraction(2, 5), 0, "lower", 5) == "00101"
    assert mechanical_prefix(0, 0.7, "lower", 3) == "000"
    assert mechanical_prefix(Fraction(2, 5), 0, "upper", 5) == "10100"
    with pytest.raises(ValueError):
        mechanical_prefix(1.5, 0, "lower", 3)
    with pytest.raises(ValueError):
        mechanical_prefix(0.5, 0, "middle", 3)


def test_mechanical_ones_count_matches_slope():
    for q in range(1, 31):
        for p in range(0, q + 1):
            if math.gcd(p, q) != 1:
                continue
            w = mechanical_prefix(Fraction(p, q), 0, "lower", q)
            assert w.count("1") == p


def test_christoffel_examples():
    assert christoffel(1, 2) == "01"
    assert christoffel(2, 5) == "00101"
    assert christoffel(0, 1) == "0"
    assert christoffel(1, 1) == "1"
    with pytest.raises(ValueError):
        christoffel(2, 4)


def test_christoffel_words_are_lyndon():
    for q in range(2, 31):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            w = christoffel(p, q)
            assert is_primitive(w)
            assert lyndon_rotation(w) == w


def test_christoffel_matches_mechanical_prefix():
    for q in range(1, 65):
        for p in range(q + 1):
            if math.gcd(p, q) == 1:
                assert christoffel(p, q) == mechanical_prefix(Fraction(p, q), 0, "lower", q)


def test_christoffel_factorizes_over_stern_brocot_neighbours():
    # C(l (+) r) = C(l) C(r) for Stern-Brocot neighbours l < r
    pairs = [((0, 1), (1, 1))]
    for _ in range(11):  # depths 0..10
        nxt = []
        for l, r in pairs:
            m = (l[0] + r[0], l[1] + r[1])
            assert christoffel(*m) == christoffel(*l) + christoffel(*r), (l, r)
            nxt += [(l, m), (m, r)]
        pairs = nxt


def test_christoffel_tree_layers():
    assert [(n.u, n.v) for n in christoffel_tree(0)] == [("0", "1")]
    depth1 = christoffel_tree(1)
    assert [(n.u, n.v) for n in depth1[1:]] == [("0", "01"), ("01", "1")]
    depth2 = christoffel_tree(2)
    left_left = [n for n in depth2 if n.depth == 2][0]
    assert (left_left.u, left_left.v) == ("0", "001")


def test_christoffel_tree_concatenations_unique():
    nodes = christoffel_tree(6)
    words = [n.u + n.v for n in nodes]
    assert len(words) == len(set(words)) == 2 ** 7 - 1


def test_sturmian_examples():
    ok, witness = is_sturmian_word("01")
    assert ok and witness == (1, 2, Fraction(0))
    assert is_sturmian_word("0011") == (False, None)
    ok, witness = is_sturmian_word("00101")
    assert ok and witness == (2, 5, Fraction(0))
    assert is_sturmian_word("010011")[0] is False


def test_sturmian_accepts_mechanical_prefixes():
    for q in range(1, 16):
        for p in range(0, q + 1):
            if math.gcd(p, q) != 1:
                continue
            for i in range(q):
                w = mechanical_prefix(Fraction(p, q), Fraction(i, q), "lower", q)
                assert is_sturmian_word(w)[0], (p, q, i, w)


def test_sturmian_class_words():
    assert set(sturmian_class_words(1, 1)) == {"01", "10"}
    rots = sturmian_class_words(3, 2)
    assert len(rots) == 5 and set(rots) == set(cyclic_rotations("00101"))
    assert set(sturmian_class_words(1, 2)) == set(cyclic_rotations("011"))
    with pytest.raises(ValueError):
        sturmian_class_words(2, 4)


def test_lyndon_words_enumeration():
    ws = list(lyndon_words(5))
    assert len(ws) == len(set(ws))
    # binary Lyndon counts by length: 2, 1, 2, 3, 6
    by_len = {}
    for w in ws:
        by_len.setdefault(len(w), []).append(w)
        assert is_primitive(w)
        assert lyndon_rotation(w) == w
    assert [len(by_len[k]) for k in range(1, 6)] == [2, 1, 2, 3, 6]


def test_words_with_counts():
    ws = list(words_with_counts(3, 2))
    assert len(ws) == 10
    assert all(w.count("0") == 3 and w.count("1") == 2 for w in ws)

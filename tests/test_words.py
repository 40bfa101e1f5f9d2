import random

import pytest
from hypothesis import given, strategies as st

from helpers import random_word
from lodehn.twobridge import FAMILY_U, TwoBridgeFraction, build_presentation
from lodehn.words import Word, WordParseError

letters_strategy = st.lists(
    st.tuples(st.sampled_from(["x", "y"]), st.sampled_from([1, -1])),
    max_size=40,
)


def test_reduce_cancels_adjacent_inverses():
    assert Word([("x", 1), ("x", -1), ("y", 1)]) == Word([("y", 1)])


def test_words_share_the_four_letter_tuples():
    # A presentation of p = 485 holds about 2900 letters; one tuple per
    # letter made it the largest object of a certify call.
    pres = build_presentation(TwoBridgeFraction(485, 283))
    letters = {id(letter) for word in (pres.w, pres.v, pres.relator, pres.longitude)
               for letter in word}
    assert len(letters) == 4
    assert Word([["x", 1]]).letters[0] is pres.relator.letters[0]


def test_reduce_empty_is_identity():
    assert Word([]).is_identity()


def test_word_times_inverse_is_identity():
    assert (FAMILY_U * FAMILY_U.inverse()).is_identity()


def test_invert_reverses_and_negates():
    assert Word([("x", 1), ("y", -1)]).inverse() == Word([("y", 1), ("x", -1)])


def test_invert_empty():
    assert Word([]).inverse() == Word([])


def test_invert_is_involution_on_riley_word():
    w = build_presentation(TwoBridgeFraction(29, 17)).w
    assert w.inverse().inverse() == w


def test_exponent_sums_of_u_vanish():
    # independent letter count over the printed word
    text = "(yx^-1yx)(y^-1x^-1yx^-1)(y^-1xyx^-1)(y^-1xy^-1x^-1)(yxy^-1x)(yx^-1y^-1x)"
    plain = text.replace("(", "").replace(")", "")
    count_x = plain.count("x") - 2 * plain.count("x^-1")
    count_y = plain.count("y") - 2 * plain.count("y^-1")
    assert (count_x, count_y) == (0, 0)
    assert FAMILY_U.exponent_sum("x") == 0
    assert FAMILY_U.exponent_sum("y") == 0


def test_exponent_sum_empty():
    assert Word([]).exponent_sum("x") == 0


def test_parse_uppercase_shorthand():
    assert Word.parse("yX") == Word([("y", 1), ("x", -1)])


def test_parse_cancels():
    assert Word.parse("x x^-1").is_identity()


def test_parse_power_suffix():
    prefix = Word.parse("yx^-1y^-1x")
    assert prefix.letters == (("y", 1), ("x", -1), ("y", -1), ("x", 1))


def test_parse_rejects_unknown_character():
    with pytest.raises(WordParseError) as err:
        Word.parse("xz")
    assert err.value.position == 1


def test_parse_rejects_dangling_caret():
    with pytest.raises(WordParseError):
        Word.parse("x^2")


def test_word_powers():
    w = Word.parse("yx^-1")
    assert w**3 == Word.parse("yx^-1yx^-1yx^-1")
    assert w**0 == Word()
    assert w**-2 == (w.inverse()) ** 2


@given(letters_strategy)
def test_reduce_is_idempotent(letters):
    once = Word(letters)
    assert Word(once.letters) == once


@given(letters_strategy, letters_strategy)
def test_exponent_sum_additive(a, b):
    wa, wb = Word(a), Word(b)
    for gen in ("x", "y"):
        assert (wa * wb).exponent_sum(gen) == wa.exponent_sum(gen) + wb.exponent_sum(gen)


@given(letters_strategy, letters_strategy)
def test_invert_antihomomorphism(a, b):
    wa, wb = Word(a), Word(b)
    assert (wa * wb).inverse() == wb.inverse() * wa.inverse()


@given(letters_strategy)
def test_invert_involution(letters):
    w = Word(letters)
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).is_identity()


@given(letters_strategy)
def test_parse_format_roundtrip(letters):
    w = Word(letters)
    assert Word.parse(str(w)) == w


def test_products_powers_and_inverses_match_full_reduction():
    # Products cancel only at the junction of two reduced words, and the
    # inverse, backwards spelling and powers skip reduction altogether;
    # the oracle is the public constructor reducing the whole sequence.
    rng = random.Random(29)
    shared = {id(letter) for letter in Word.parse("xyXY")}
    words = [Word(), Word.parse("x"), Word.parse("xyX"), Word.parse("xYxy")]
    words += [random_word(rng, rng.randint(0, 30)) for _ in range(150)]
    for a in words:
        b = random_word(rng, rng.randint(0, 30))
        k = rng.randint(0, len(a))
        partial = Word(a.inverse().letters[:k]) * b
        empty = Word()
        for left, right in ((a, b), (a, partial), (a, a.inverse()),
                            (a, empty), (empty, a), (a, a)):
            product = left * right
            assert product == Word(left.letters + right.letters)
            assert {id(letter) for letter in product} <= shared
        assert (a * a.inverse()).is_identity() and (a.inverse() * a).is_identity()
        inverse = Word([(gen, -sign) for gen, sign in reversed(a.letters)])
        assert a.inverse() == inverse
        assert a.spelled_backwards() == Word(a.letters[::-1])
        for n in range(-3, 4):
            base = a if n >= 0 else inverse
            assert a**n == Word(base.letters * abs(n))
        for derived in (a.inverse(), a.spelled_backwards(), a**3, a**-2):
            assert {id(letter) for letter in derived} <= shared


def test_generators_exchanged_keeps_signs_and_order():
    # x <-> y letter by letter, from the shared letter tuples; a reduced
    # word stays reduced, and exchanging twice gives the word back.
    shared = {id(letter) for letter in Word.parse("xyXY")}
    assert Word.parse("xy^-1Xyy").generators_exchanged() == Word.parse("yx^-1Yxx")
    rng = random.Random(41)
    for a in [Word()] + [random_word(rng, rng.randint(0, 30)) for _ in range(100)]:
        exchanged = a.generators_exchanged()
        swap = {"x": "y", "y": "x"}
        assert exchanged == Word([(swap[gen], sign) for gen, sign in a.letters])
        assert {id(letter) for letter in exchanged} <= shared
        assert exchanged.generators_exchanged() == a


def test_constructor_rejects_unknown_generators_and_signs():
    for letters in ([("z", 1)], [("x", 1), ("X", -1)], [("x", 2)], [("y", 0)]):
        with pytest.raises(ValueError):
            Word(letters)

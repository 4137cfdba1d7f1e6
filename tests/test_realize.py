"""Tests for presentations and manifold recipes."""

import random

import pytest

import simpleloop.realize
from simpleloop.cover import ResourceLimitError
from simpleloop.demos import OrientationCharacter, extend_to_dimension, z2xz_is_trivial
from simpleloop.realize import (
    DIMENSION_NOTE,
    ManifoldRecipe,
    Presentation,
    parse_presentation,
    recipe_for_G,
    recipe_for_presentation,
)
from simpleloop.words import from_letters


def test_presentation_reduces_relators():
    p = Presentation(generators=("a", "b"), relators=(from_letters((1, -1, 2, 2)),))
    assert p.relators == (from_letters((2, 2)),)


def test_presentation_validates_names_and_letters():
    with pytest.raises(ValueError):
        Presentation(generators=("a", "a"), relators=())
    with pytest.raises(ValueError):
        Presentation(generators=("A",), relators=())
    with pytest.raises(ValueError):
        Presentation(generators=("a",), relators=(from_letters((2,)),))
    with pytest.raises(ValueError):
        Presentation(generators=("a",), relators=("?",))


DIMENSION = "^ambient dimension must be at least 4: %s$" % DIMENSION_NOTE
NO_INVERSE = "has no uppercase inverse spelling"


# One row per entry point of each presentation rule in simpleloop.realize:
# generator letters (generator_letters), generator names (Presentation) and
# the ambient dimension (check_dimension).
@pytest.mark.parametrize(
    "fn, args, match",
    [
        (Presentation, (("a",), (from_letters((2,)),)), "^unknown generator 2$"),
        (Presentation, (("a",), (from_letters((1, -3)),)), "^unknown generator 3$"),
        (OrientationCharacter((0,)).on_word, (from_letters((-2,)),), "^unknown generator 2$"),
        (z2xz_is_trivial, (from_letters((1, 3)),), "^unknown generator 3$"),
        (Presentation, (("\u0131",), ()), NO_INVERSE),
        (Presentation, (("a", "\u00df"), ()), NO_INVERSE),
        (Presentation, (("\ufb00",), ()), NO_INVERSE),
        (parse_presentation, ("\u0131\nI",), NO_INVERSE),
        (
            Presentation,
            (("a b", "c"), (from_letters((1, 2)),)),
            "^generator name 'a b' contains whitespace$",
        ),
        (recipe_for_presentation, (Presentation(("a",), ()), 3), DIMENSION),
        (recipe_for_G, (2, 3), DIMENSION),
        (recipe_for_G, (1, 3), DIMENSION),
        (extend_to_dimension, (3,), DIMENSION),
    ],
    ids=[
        "presentation_letter",
        "presentation_inverse_letter",
        "on_word",
        "z2xz_is_trivial",
        "dotless_i",
        "sharp_s",
        "ff_ligature",
        "parse_presentation_dotless_i",
        "whitespace_name",
        "realize",
        "recipe_for_G",
        "recipe_for_G_dimension_before_genus",
        "extend_to_dimension",
    ],
)
def test_bad_presentation_input_rejected(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)


def test_accepted_names_read_their_inverse_back():
    # Every name Presentation accepts spells its inverse so that parse_word
    # reads it back; the others are rejected by the name check.
    inverse = from_letters((-1,))
    accepted = 0
    for code in range(0x10000):
        for name in (chr(code) + "x", "x" + chr(code)):
            try:
                p = Presentation((name,), ())
            except ValueError:
                continue
            assert p.parse_word(p.word_str(inverse)) == inverse, name
            accepted += 1
    assert accepted > 1000


def test_word_round_trip():
    p = Presentation(generators=("a", "b", "c"), relators=())
    w = from_letters((1, -2, 3, 3, -1))
    assert p.parse_word(p.word_str(w)) == w


def test_parse_presentation_file():
    text = """
    # generators then relators
    a b
    a a
    a b A B
    """
    p = parse_presentation(text)
    assert p.generators == ("a", "b")
    assert p.relators == (from_letters((1, 1)), from_letters((1, 2, -1, -2)))
    with pytest.raises(ValueError):
        parse_presentation("")
    with pytest.raises(ValueError):
        parse_presentation("a\nz")


def test_parse_presentation_builds_one_presentation(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Presentation(*args)

    monkeypatch.setattr(simpleloop.realize, "Presentation", counting)
    p = parse_presentation("a b\na a\nb A\n")
    assert len(built) == 1
    assert p == Presentation(("a", "b"), (from_letters((1, 1)), from_letters((2, -1))))


@pytest.mark.parametrize(
    "text, match",
    [
        ("A b\nx\n", "^generator name 'A' must start lowercase$"),
        ("a a\nx\n", "^duplicate generator name 'a'$"),
        ("a b\na x\nc\n", "^unknown generator 'x' in word$"),
        ("a b\nc\na x\n", "^unknown generator 'c' in word$"),
    ],
    ids=["name", "duplicate", "first-relator", "first-bad-line"],
)
def test_parse_presentation_reports_names_before_relators(text, match):
    # A bad name is reported before a bad relator, and relators in line order.
    with pytest.raises(ValueError, match=match):
        parse_presentation(text)


def test_realize_smallest_example():
    p = Presentation(generators=("a",), relators=(from_letters((1, 1)),))
    recipe = recipe_for_presentation(p, 4)
    assert isinstance(recipe, ManifoldRecipe)
    assert recipe.dimension == 4
    assert recipe.base["summands"] == ["S^4", "S^3 x S^1"]
    assert len(recipe.steps) == 1
    assert recipe.steps[0]["relator"] == "a a"
    assert recipe.steps[0]["remove"] == "S^1 x D^3"
    assert recipe.steps[0]["glue"] == "S^2 x D^2"
    assert recipe.resulting_group == p


def test_realize_free_group_has_no_steps():
    p = Presentation(generators=("a", "b", "c"), relators=())
    recipe = recipe_for_presentation(p, 5)
    assert recipe.steps == ()
    assert recipe.base["summands"].count("S^4 x S^1") == 3


def test_realize_rejects_low_dimension():
    p = Presentation(generators=("a",), relators=())
    with pytest.raises(ValueError):
        recipe_for_presentation(p, 3)


def test_realize_round_trip_random_presentations():
    rng = random.Random(0)
    names = ("a", "b", "c", "d", "e")
    for _ in range(50):
        k = rng.randrange(1, 6)
        gens = names[:k]
        relators = []
        for _ in range(rng.randrange(0, 6)):
            length = rng.randrange(1, 8)
            word = []
            for _ in range(length):
                x = rng.randrange(1, k + 1) * rng.choice((1, -1))
                if word and word[-1] == -x:
                    continue
                word.append(x)
            relators.append(from_letters(word))
        p = Presentation(generators=gens, relators=tuple(relators))
        recipe = recipe_for_presentation(p, 4)
        assert recipe.resulting_group == p
        assert len(recipe.steps) == len(p.relators)


def test_recipe_for_quotient_group():
    rec = recipe_for_G(2, 4)
    assert rec["group_order_log2"] == 38
    assert rec["cover_genus"] == 17
    assert rec["dimension"] == 4
    rec5 = recipe_for_G(2, 5)
    assert rec5["group_order_log2"] == 38
    assert rec5["dimension"] == 5
    assert recipe_for_G(3, 4)["group_order_log2"] == 264
    with pytest.raises(ValueError):
        recipe_for_G(2, 3)
    with pytest.raises(ValueError):
        recipe_for_G(1, 4)
    with pytest.raises(ResourceLimitError):
        recipe_for_G(5, 4)

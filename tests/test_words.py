"""Tests for surface-group words, reduction, Dehn's algorithm, classes."""

import itertools
import random
import re
from collections import deque

import pytest

from simpleloop.words import (
    _canonical_images,
    canonical_class,
    check_letters,
    commutator,
    concat,
    cyclic_reduce,
    dehn_normal_form,
    free_reduce,
    from_letters,
    gen_index,
    gen_name,
    inverse,
    is_proper_power,
    is_trivial,
    letter_index,
    separating_word,
    spell_words,
    substitute,
    surface_relator,
    word_from_str,
    word_to_str,
)

from oracles import (
    abelianization_mod2,
    letter_order_key,
    literal_power,
    naive_canonical_class,
    random_letters,
    random_reduced_word,
    substitute_per_letter,
    to_letters,
    tuple_cyclic_reduce,
    tuple_dehn_normal_form,
    tuple_free_reduce,
    tuple_inverse,
    tuple_surface_relator,
)

G = 2
R = surface_relator(G)


def all_reduced_words(genus, max_len):
    letters = from_letters(x for k in range(1, 2 * genus + 1) for x in (k, -k))
    frontier = [""]
    yield ""
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in letters:
                if w and w[-1] == inverse(x):
                    continue
                nw = w + x
                nxt.append(nw)
                yield nw
        frontier = nxt


def relator_insertion_closure(genus, budget):
    """One-sided triviality oracle: breadth-first insertion of relator
    conjugates (as cyclic rotations at every position) from the empty
    word, keeping everything up to the length budget."""
    r = surface_relator(genus)
    inserts = []
    for base in (r, inverse(r)):
        for i in range(len(base)):
            inserts.append(base[i:] + base[:i])
    seen = {""}
    queue = deque([""])
    while queue:
        w = queue.popleft()
        for p in range(len(w) + 1):
            for ins in inserts:
                nw = free_reduce(w[:p] + ins + w[p:])
                if len(nw) <= budget and nw not in seen:
                    seen.add(nw)
                    queue.append(nw)
    return seen


def test_parse_format_round_trip():
    w = word_from_str("a1 b1 A1 B1 a2 b2 A2 B2", 2)
    assert w == R
    assert word_to_str(w) == "a1 b1 A1 B1 a2 b2 A2 B2"


def test_free_reduce():
    assert free_reduce(from_letters((1, -1))) == ""
    assert free_reduce(from_letters((1, 2, -2, -1))) == ""
    assert free_reduce(from_letters((1, 2, -2, 3))) == from_letters((1, 3))
    assert free_reduce("") == ""


def test_cyclic_reduce():
    assert cyclic_reduce(from_letters((1, 2, -1))) == from_letters((2,))
    assert cyclic_reduce(from_letters((1, 2, 3, -2, -1))) == from_letters((3,))
    assert cyclic_reduce(from_letters((1, 2))) == from_letters((1, 2))


def test_concat_inverse():
    rng = random.Random(3)
    for _ in range(100):
        u = random_reduced_word(rng, G, rng.randrange(0, 12))
        assert concat(u, inverse(u)) == ""
        assert free_reduce(u) == u


def test_relator_shape():
    assert R == from_letters((1, 2, -1, -2, 3, 4, -3, -4))
    assert to_letters(surface_relator(4)) == tuple_surface_relator(4)
    assert len(surface_relator(3)) == 12
    assert abelianization_mod2(R, G) == 0


def test_relator_is_trivial():
    assert is_trivial(R, G)
    assert is_trivial("", G)
    assert is_trivial(inverse(R), G)


def test_conjugates_of_relator_are_trivial():
    rng = random.Random(5)
    for _ in range(100):
        u = random_reduced_word(rng, G, rng.randrange(0, 10))
        w = concat(u, R if rng.random() < 0.5 else inverse(R), inverse(u))
        assert is_trivial(w, G)


def test_products_of_relator_conjugates_are_trivial():
    rng = random.Random(7)
    for _ in range(50):
        u = random_reduced_word(rng, G, rng.randrange(0, 8))
        v = random_reduced_word(rng, G, rng.randrange(0, 8))
        w = concat(u, R, inverse(u), v, inverse(R), inverse(v))
        assert is_trivial(w, G)


def test_nontrivial_words():
    a1, b1 = from_letters((1, 2))
    assert not is_trivial(a1, G)
    assert not is_trivial(a1 * 4, G)
    assert not is_trivial(commutator(a1, b1), G)
    witness = commutator(a1 * 2, b1 * 2)
    assert not is_trivial(witness, G)


def test_dehn_agrees_with_insertion_oracle_short_words():
    certified = relator_insertion_closure(G, budget=12)
    for w in certified:
        assert is_trivial(w, G)
    short_certified = {w for w in certified if len(w) <= 6}
    assert short_certified == {""}
    # complete check: the only trivially reducible word of length <= 6
    # is the empty one, so Dehn must refute everything else
    for w in all_reduced_words(G, 6):
        assert is_trivial(w, G) == (w == "")


def test_dehn_normal_form_of_relator_power():
    assert dehn_normal_form(concat(R, R), G) == ""


def test_triviality_genus_3():
    r3 = surface_relator(3)
    rng = random.Random(9)
    for _ in range(30):
        u = random_reduced_word(rng, 3, rng.randrange(0, 8))
        assert is_trivial(concat(u, r3, inverse(u)), 3)
    assert not is_trivial(from_letters((5, 6)), 3)


def test_abelianization_homomorphism():
    rng = random.Random(11)
    for _ in range(1000):
        u = random_reduced_word(rng, G, rng.randrange(0, 15))
        v = random_reduced_word(rng, G, rng.randrange(0, 15))
        assert abelianization_mod2(concat(u, v), G) == (
            abelianization_mod2(u, G) ^ abelianization_mod2(v, G)
        )
    assert abelianization_mod2(from_letters((1,)), G) == 1
    assert abelianization_mod2(from_letters((2,)), G) == 2
    assert abelianization_mod2(from_letters((-1,)), G) == 1


def test_separating_words_abelianize_to_zero():
    for g in (2, 3, 4):
        for k in range(1, g):
            assert abelianization_mod2(separating_word(g, k), g) == 0


def test_canonical_class_rotation_and_inverse_invariance():
    rng = random.Random(13)
    for _ in range(300):
        w = cyclic_reduce(random_reduced_word(rng, G, rng.randrange(1, 14)))
        if not w:
            continue
        c = canonical_class(w)
        i = rng.randrange(len(w))
        assert canonical_class(w[i:] + w[:i]) == c
        assert canonical_class(inverse(w)) == c
        u = random_reduced_word(rng, G, rng.randrange(0, 6))
        assert canonical_class(concat(u, w, inverse(u))) == c


def test_canonical_class_least_rotation_matches_naive():
    # The words are built as tuples of signed generator indices, and the
    # naive least rotation compares letter_order_key lists of the tuples.
    rng = random.Random(17)
    words = []
    for genus in (2, 3, 4):
        for _ in range(300):
            words.append(random_letters(rng, genus, rng.randrange(1, 41)))
        # Periodic and near-periodic words have several least rotations, and
        # w and w^-1 can tie.
        for k in range(1, 21):
            u = random_letters(rng, genus, rng.randrange(1, 5))
            words += [(1, 2) * k, (1, 2) * k + (3,), (1,) * k, u * k, u * k + (1,)]
            # The least letter repeats: only some of its starts win.
            words += [(1, 2) * k + (1, 3), (1, 3) * k + (1, 2)]
    words += [(1, 3, 1, 2), (1, 2, 1, 3), (-1, 3, -1, 2, -1, 2)]
    # The inverse wins: w holds A1 but not a1, so w^-1 holds the least letter.
    words += [(-1, 2), (2, -1, 3, -1, -2), (-1,) * 3 + (4, 3)]
    for genus in (2, 3, 4):
        for _ in range(100):
            u = random_letters(rng, genus, rng.randrange(1, 30))
            words.append(tuple(-x if abs(x) == 1 else x for x in u))
    # Ties: both sides hold the least letter, and w^-1 is a rotation of w.
    words += [(1, 2, -1, -2), (1, -1), (1, 2, -1, 3), (1, 2, -2, -1)]
    words += [(1, 2, -1, -2) * 2, (1, 3, -1, -3, 2, -2)]
    # Seam trimming: conjugates of shorter words, reduced only at the seam.
    for genus in (2, 3, 4):
        for _ in range(100):
            u = random_letters(rng, genus, rng.randrange(1, 6))
            v = random_letters(rng, genus, rng.randrange(1, 20))
            words.append(tuple_free_reduce(u + v + tuple_inverse(u)))
    for w in words:
        w = tuple_cyclic_reduce(w)
        if not w:
            continue
        cands = []
        for base in (w, tuple_inverse(w)):
            for i in range(len(base)):
                cands.append(base[i:] + base[:i])
        naive = min(cands, key=lambda t: [letter_order_key(x) for x in t])
        assert canonical_class(from_letters(w)) == from_letters(naive)


def test_canonical_images_match_canonical_class_per_word():
    rng = random.Random(23)
    for genus in (2, 3, 4):
        n_gens = 2 * genus
        for _ in range(40):
            # A random endomorphism: its images may cancel deeply or vanish.
            images = {
                k: random_reduced_word(rng, genus, rng.randrange(0, 5))
                for k in range(1, n_gens + 1)
                if rng.random() < 0.6
            }
            batch = []
            for _ in range(30):
                w = cyclic_reduce(random_reduced_word(rng, genus, rng.randrange(1, 25)))
                if w and cyclic_reduce(substitute(w, images)):
                    batch.append(w)
            got = _canonical_images(images, batch, genus)
            assert got == [canonical_class(substitute(w, images)) for w in batch]
    # An image that cancels to nothing has no class, even inside a batch.
    batch = [from_letters((2,)), from_letters((1, 2, -1)), from_letters((3,))]
    with pytest.raises(ValueError, match="trivial"):
        _canonical_images({2: ""}, batch, 2)
    assert _canonical_images({}, [], 2) == []


def _least_generator_words(rng, genus):
    """Words for the least-letter search of canonical_class, as tuples."""
    words = []
    for _ in range(60):
        u = random_letters(rng, genus, rng.randrange(1, 30))
        least = min(abs(x) for x in u)
        # The least generator only inverted, only positive, or both.
        words.append(tuple(-abs(x) if abs(x) == least else x for x in u))
        words.append(tuple(abs(x) if abs(x) == least else x for x in u))
        words.append(u + (least, 2 * genus, -least, 2 * genus))
        # A proper power, and a conjugate that keeps a seam to trim.
        words.append(u * rng.randrange(2, 5))
        c = random_letters(rng, genus, rng.randrange(1, 6))
        words.append(c + u + tuple_inverse(c))
    if genus == 4:
        # Neither a1 nor b1, so the search passes a1, A1, b1 and B1.
        for _ in range(100):
            u = random_letters(rng, 3, rng.randrange(1, 30))
            words.append(tuple(x + (2 if x > 0 else -2) for x in u))
    return words


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_canonical_class_least_letter_matches_oracle(genus):
    # canonical_class finds the least letter by testing generators from a1
    # upward; the oracle compares every rotation of the word and its inverse.
    rng = random.Random(100 + genus)
    tried = 0
    for u in _least_generator_words(rng, genus):
        w = from_letters(u)
        if not cyclic_reduce(w):
            continue
        assert canonical_class(w) == naive_canonical_class(w), u
        tried += 1
    assert tried > 250


def test_canonical_images_substitute_every_generator():
    # At genus 4 a substitution can move all 16 letters, each to an image
    # that holds moved letters; every letter then becomes a mark first.
    rng = random.Random(29)
    for _ in range(20):
        images = {
            k: random_reduced_word(rng, 4, rng.randrange(1, 6)) for k in range(1, 9)
        }
        batch = []
        for _ in range(40):
            w = cyclic_reduce(random_reduced_word(rng, 4, rng.randrange(1, 25)))
            if w and cyclic_reduce(substitute(w, images)):
                batch.append(w)
        got = _canonical_images(images, batch, 4)
        assert got == [canonical_class(substitute(w, images)) for w in batch]
    # Past the marks: 68 letters move at genus 17, and the last few are
    # replaced by their images directly.
    genus = 17
    shift = {k: from_letters((2 * genus + 1 - k,)) for k in range(1, 2 * genus + 1)}
    batch = [random_reduced_word(rng, genus, rng.randrange(1, 40)) for _ in range(30)]
    batch = [w for w in map(cyclic_reduce, batch) if w]
    got = _canonical_images(shift, batch, genus)
    assert got == [naive_canonical_class(substitute_per_letter(w, shift)) for w in batch]


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_spell_words_matches_word_to_str(genus):
    rng = random.Random(genus)
    ws = [random_reduced_word(rng, genus, rng.randrange(0, 30)) for _ in range(300)]
    ws += ["", "", from_letters(range(1, 2 * genus + 1))]
    assert spell_words(ws) == [word_to_str(w) for w in ws]
    assert spell_words([]) == []
    assert spell_words([""]) == [""]


@pytest.mark.parametrize("bad", ["\n", "?", ","])
def test_spell_words_rejects_non_letters_like_word_to_str(bad):
    # "\n" separates the words of the pass, but inside a word it is no letter.
    ws = [from_letters((1, 2)), from_letters((3,)) + bad]
    with pytest.raises(ValueError) as want:
        word_to_str(ws[1])
    with pytest.raises(ValueError, match="^%s$" % re.escape(str(want.value))):
        spell_words(ws)


def test_word_to_str_matches_per_letter_names():
    for genus in range(1, 9):
        letters = [k for k in range(1, 2 * genus + 1)]
        letters += [-k for k in letters]
        for x in letters:
            name = gen_name(abs(x))
            want = name if x > 0 else name[0].upper() + name[1:]
            assert word_to_str(from_letters((x,))) == want
        w = from_letters(letters + letters[::-1])
        text = word_to_str(w)
        assert text == " ".join(word_to_str(c) for c in w)
        assert word_from_str(text, genus) == w
    assert word_to_str("") == ""


def test_word_to_str_matches_tuple_spelling():
    # word_to_str looks each letter's token up in one table; the reference
    # spells each signed index of the word's tuple.
    rng = random.Random(13)
    for genus in range(2, 9):
        for _ in range(50):
            u = random_letters(rng, genus, rng.randrange(0, 20))
            names = [gen_name(abs(x)) for x in u]
            want = " ".join(n if x > 0 else n.capitalize() for x, n in zip(u, names))
            assert word_to_str(from_letters(u)) == want
            assert to_letters(from_letters(u)) == u
            assert tuple(map(letter_index, from_letters(u))) == u


def test_canonical_class_rejects_empty():
    with pytest.raises(ValueError):
        canonical_class("")
    with pytest.raises(ValueError):
        canonical_class(from_letters((1, -1)))


def test_proper_powers():
    a1, b1 = from_letters((1, 2))
    assert is_proper_power(a1 * 2)
    assert is_proper_power((a1 + b1) * 3)
    assert is_proper_power(a1 * 4)
    assert not is_proper_power(a1)
    assert not is_proper_power(a1 + b1)
    assert not is_proper_power(commutator(a1 * 2, b1 * 2))
    assert not is_proper_power("")
    # conjugation does not hide the period after cyclic reduction
    assert is_proper_power(from_letters((2, 1, 1, -2)))


def test_proper_power_matches_divisor_loop():
    rng = random.Random(20)
    for _ in range(20_000):
        u = random_reduced_word(rng, 2, rng.randrange(0, 6))
        c = random_reduced_word(rng, 2, rng.randrange(0, 3))
        w = c + u * rng.randrange(1, 5) + inverse(c)
        assert is_proper_power(w) == literal_power(w), w


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (gen_index, ("c1",), "bad generator name"),
        (word_from_str, ("a3", 2), "^letter a3 outside genus 2$"),
        (surface_relator, (1,), "at least 2"),
        (separating_word, (2, 2), "out of range"),
        (abelianization_mod2, (from_letters((5,)), 2), "^letter a3 outside genus 2$"),
        (gen_index, ("",), "bad generator name"),
        (word_from_str, ("a+1", 10), "bad generator name"),
        (word_from_str, ("a01", 10), "bad generator name"),
        (word_from_str, ("b1_0", 10), "bad generator name"),
        (word_from_str, ("a\u0661", 10), "bad generator name"),
        (dehn_normal_form, (from_letters((5,)), 2), "^letter a3 outside genus 2$"),
        (is_trivial, (from_letters((1, -6)), 2), "^letter B3 outside genus 2$"),
        (abelianization_mod2, ("?", 2), "not a letter"),
        (dehn_normal_form, ("@?", 2), "not a letter"),
        (letter_index, ("?",), "not a letter"),
        (from_letters, ((1, 0),), "zero is not a letter"),
        (check_letters, (from_letters((1, -5)), 2), "^letter A3 outside genus 2$"),
        (word_from_str, ("a1 B3", 2), "^letter B3 outside genus 2$"),
        (check_letters, ("@?", 2), "not a letter"),
    ],
    ids=[
        "gen_index",
        "word_from_str",
        "surface_relator",
        "separating_word",
        "abelianization",
        "gen_index_empty",
        "word_from_str_sign",
        "word_from_str_leading_zero",
        "word_from_str_underscore",
        "word_from_str_non_ascii_digit",
        "dehn_normal_form",
        "is_trivial",
        "abelianization_non_letter",
        "dehn_normal_form_non_letter",
        "letter_index",
        "from_letters",
        "check_letters",
        "word_from_str_inverse",
        "check_letters_non_letter",
    ],
)
def test_out_of_range_input_rejected(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)


def test_word_from_str_accepted_names():
    # Only [aAbB][1-9][0-9]* is a token; int() would also read "a+1", "a01",
    # "b1_0" and non-ASCII digits.
    assert word_from_str("a1 B2 a10 A12", 12) == from_letters((1, -4, 19, -23))
    assert word_from_str(" a1\tb1\n", 2) == from_letters((1, 2))
    assert gen_index("b10") == 20


def test_substitute():
    a1, b1, a2, b2 = from_letters((1, 2, 3, 4))
    images = {1: a1 + b1, 2: b1, 3: a2, 4: b2}
    assert substitute(a1, images) == a1 + b1
    assert substitute(inverse(a1), images) == from_letters((-2, -1))
    assert substitute(from_letters((1, -1)), images) == ""


def test_substitute_rejects_zero_like_free_reduce():
    # A character below "@" is not a letter, as zero was not one.
    with pytest.raises(ValueError, match="not a letter"):
        free_reduce("?")
    with pytest.raises(ValueError, match="not a letter"):
        substitute("?", {})
    with pytest.raises(ValueError, match="not a letter"):
        substitute(from_letters((1,)), {1: "?"})
    with pytest.raises(ValueError, match="zero is not a letter"):
        substitute(from_letters((1,)), {0: from_letters((1,))})


def test_exhaustive_short_word_problem():
    # every nonempty freely reduced word of length <= 4 is nontrivial
    for w in itertools.islice(all_reduced_words(G, 4), 1, None):
        assert not is_trivial(w, G)


def _spliced_letters(rng, genus):
    """A random tuple word with conjugates of relator pieces spliced in."""
    r = tuple_surface_relator(genus)
    w = random_letters(rng, genus, rng.randrange(0, 20))
    for _ in range(rng.randrange(0, 3)):
        u = random_letters(rng, genus, rng.randrange(0, 4))
        base = r if rng.random() < 0.5 else tuple_inverse(r)
        i = rng.randrange(len(base))
        piece = (base[i:] + base[:i])[: rng.randrange(2 * genus, len(base) + 1)]
        pos = rng.randrange(len(w) + 1)
        w = w[:pos] + u + piece + tuple_inverse(u) + w[pos:]
    return w


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_string_words_match_tuple_references(genus):
    # The tuple spelling of each operation is kept in the oracles; every
    # string operation must agree with it on random words with relator
    # pieces spliced in, so that Dehn's algorithm has work to do.
    rng = random.Random(31 + genus)
    n_rewritten = 0
    for _ in range(1500):
        t = _spliced_letters(rng, genus)
        w = from_letters(t)
        assert free_reduce(w) == from_letters(tuple_free_reduce(t))
        assert cyclic_reduce(w) == from_letters(tuple_cyclic_reduce(t))
        assert inverse(w) == from_letters(tuple_inverse(t))
        normal_form = dehn_normal_form(w, genus)
        assert normal_form == from_letters(tuple_dehn_normal_form(t, genus))
        n_rewritten += len(normal_form) < len(cyclic_reduce(w))
        if cyclic_reduce(w):
            assert canonical_class(w) == naive_canonical_class(w)
    assert n_rewritten > 300

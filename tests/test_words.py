"""Tests for surface-group words, reduction, Dehn's algorithm, classes."""

import itertools
import random
from collections import deque

import pytest

from simpleloop.words import (
    abelianization_mod2,
    canonical_class,
    commutator,
    concat,
    cyclic_reduce,
    dehn_normal_form,
    free_reduce,
    gen_index,
    gen_name,
    inverse,
    is_proper_power,
    is_trivial,
    separating_word,
    substitute,
    surface_relator,
    word_from_str,
    word_to_str,
)

from oracles import literal_power, random_reduced_word

G = 2
R = surface_relator(G)


def all_reduced_words(genus, max_len):
    letters = [k for k in range(1, 2 * genus + 1)]
    letters += [-k for k in letters]
    frontier = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in letters:
                if w and w[-1] == -x:
                    continue
                nw = w + (x,)
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
    seen = {()}
    queue = deque([()])
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
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, -2, 3)) == (1, 3)
    assert free_reduce(()) == ()


def test_cyclic_reduce():
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, 2, 3, -2, -1)) == (3,)
    assert cyclic_reduce((1, 2)) == (1, 2)


def test_concat_inverse():
    rng = random.Random(3)
    for _ in range(100):
        u = random_reduced_word(rng, G, rng.randrange(0, 12))
        assert concat(u, inverse(u)) == ()
        assert free_reduce(u) == u


def test_relator_shape():
    assert R == (1, 2, -1, -2, 3, 4, -3, -4)
    assert len(surface_relator(3)) == 12
    assert abelianization_mod2(R, G) == 0


def test_relator_is_trivial():
    assert is_trivial(R, G)
    assert is_trivial((), G)
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
    assert not is_trivial((1,), G)
    assert not is_trivial((1, 1, 1, 1), G)
    assert not is_trivial(commutator((1,), (2,)), G)
    witness = commutator((1, 1), (2, 2))
    assert not is_trivial(witness, G)


def test_dehn_agrees_with_insertion_oracle_short_words():
    certified = relator_insertion_closure(G, budget=12)
    for w in certified:
        assert is_trivial(w, G)
    short_certified = {w for w in certified if len(w) <= 6}
    assert short_certified == {()}
    # complete check: the only trivially reducible word of length <= 6
    # is the empty one, so Dehn must refute everything else
    for w in all_reduced_words(G, 6):
        assert is_trivial(w, G) == (w == ())


def test_dehn_normal_form_of_relator_power():
    assert dehn_normal_form(concat(R, R), G) == ()


def test_triviality_genus_3():
    r3 = surface_relator(3)
    rng = random.Random(9)
    for _ in range(30):
        u = random_reduced_word(rng, 3, rng.randrange(0, 8))
        assert is_trivial(concat(u, r3, inverse(u)), 3)
    assert not is_trivial((5, 6), 3)


def test_abelianization_homomorphism():
    rng = random.Random(11)
    for _ in range(1000):
        u = random_reduced_word(rng, G, rng.randrange(0, 15))
        v = random_reduced_word(rng, G, rng.randrange(0, 15))
        assert abelianization_mod2(concat(u, v), G) == (
            abelianization_mod2(u, G) ^ abelianization_mod2(v, G)
        )
    assert abelianization_mod2((1,), G) == 1
    assert abelianization_mod2((2,), G) == 2
    assert abelianization_mod2((-1,), G) == 1


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
    from simpleloop.words import letter_order_key

    rng = random.Random(17)
    words = []
    for genus in (2, 3, 4):
        for _ in range(300):
            words.append(random_reduced_word(rng, genus, rng.randrange(1, 41)))
        # Periodic and near-periodic words have several least rotations, and
        # w and w^-1 can tie.
        for k in range(1, 21):
            u = random_reduced_word(rng, genus, rng.randrange(1, 5))
            words += [(1, 2) * k, (1, 2) * k + (3,), (1,) * k, u * k, u * k + (1,)]
            # The least letter repeats: only some of its starts win.
            words += [(1, 2) * k + (1, 3), (1, 3) * k + (1, 2)]
    words += [(1, 3, 1, 2), (1, 2, 1, 3), (-1, 3, -1, 2, -1, 2)]
    # The inverse wins: w holds A1 but not a1, so w^-1 holds the least key.
    words += [(-1, 2), (2, -1, 3, -1, -2), (-1,) * 3 + (4, 3)]
    for genus in (2, 3, 4):
        for _ in range(100):
            u = random_reduced_word(rng, genus, rng.randrange(1, 30))
            words.append(tuple(-x if abs(x) == 1 else x for x in u))
    # Ties: both sides hold the least key, and w^-1 is a rotation of w.
    words += [(1, 2, -1, -2), (1, -1), (1, 2, -1, 3), (1, 2, -2, -1)]
    words += [(1, 2, -1, -2) * 2, (1, 3, -1, -3, 2, -2)]
    # Seam trimming: conjugates of shorter words, reduced only at the seam.
    for genus in (2, 3, 4):
        for _ in range(100):
            u = random_reduced_word(rng, genus, rng.randrange(1, 6))
            v = random_reduced_word(rng, genus, rng.randrange(1, 20))
            words.append(free_reduce(u + v + inverse(u)))
    for w in words:
        w = cyclic_reduce(w)
        if not w:
            continue
        cands = []
        for base in (w, inverse(w)):
            for i in range(len(base)):
                cands.append(base[i:] + base[:i])
        naive = min(cands, key=lambda t: [letter_order_key(x) for x in t])
        assert canonical_class(w) == naive


def test_canonical_images_match_canonical_class_per_word():
    from simpleloop.words import _canonical_images, _key_string, _key_translation, _key_word

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
            keys = [_key_string(w) for w in batch]
            got = _canonical_images(_key_translation(images), keys, genus)
            assert list(map(_key_word, got)) == [
                canonical_class(substitute(w, images)) for w in batch
            ]
    # An image that cancels to nothing has no class, even inside a batch.
    keys = [_key_string((2,)), _key_string((1, 2, -1)), _key_string((3,))]
    with pytest.raises(ValueError, match="trivial"):
        _canonical_images(_key_translation({2: ()}), keys, 2)
    assert _canonical_images(_key_translation({}), [], 2) == []


def test_word_to_str_matches_per_letter_names():
    for genus in range(1, 9):
        letters = [k for k in range(1, 2 * genus + 1)]
        letters += [-k for k in letters]
        for x in letters:
            name = gen_name(abs(x))
            want = name if x > 0 else name[0].upper() + name[1:]
            assert word_to_str((x,)) == want
        w = tuple(letters) + tuple(reversed(letters))
        text = word_to_str(w)
        assert text == " ".join(word_to_str((x,)) for x in w)
        assert word_from_str(text, genus) == w
    assert word_to_str(()) == ""


def test_key_text_matches_word_to_str():
    from simpleloop.words import _key_string, _key_text

    rng = random.Random(13)
    for genus in range(2, 9):
        for _ in range(50):
            w = random_reduced_word(rng, genus, rng.randrange(0, 20))
            assert _key_text(_key_string(w)) == word_to_str(w)
    assert _key_text("") == ""


def test_canonical_class_rejects_empty():
    import pytest

    with pytest.raises(ValueError):
        canonical_class(())
    with pytest.raises(ValueError):
        canonical_class((1, -1))


def test_proper_powers():
    assert is_proper_power((1, 1))
    assert is_proper_power((1, 2, 1, 2, 1, 2))
    assert is_proper_power((1, 1, 1, 1))
    assert not is_proper_power((1,))
    assert not is_proper_power((1, 2))
    assert not is_proper_power(commutator((1, 1), (2, 2)))
    assert not is_proper_power(())
    # conjugation does not hide the period after cyclic reduction
    assert is_proper_power((2, 1, 1, -2))


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
        (word_from_str, ("a3", 2), "outside genus"),
        (surface_relator, (1,), "at least 2"),
        (separating_word, (2, 2), "out of range"),
        (abelianization_mod2, ((5,), 2), "outside genus"),
    ],
    ids=["gen_index", "word_from_str", "surface_relator", "separating_word", "abelianization"],
)
def test_out_of_range_input_rejected(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)


def test_substitute():
    images = {1: (1, 2), 2: (2,), 3: (3,), 4: (4,)}
    assert substitute((1,), images) == (1, 2)
    assert substitute((-1,), images) == (-2, -1)
    assert substitute((1, -1), images) == ()


def test_substitute_rejects_zero_like_free_reduce():
    with pytest.raises(ValueError, match="zero is not a letter"):
        free_reduce((0,))
    with pytest.raises(ValueError, match="zero is not a letter"):
        substitute((0,), {})
    with pytest.raises(ValueError, match="zero is not a letter"):
        substitute((1,), {1: (0,)})


def test_exhaustive_short_word_problem():
    # every nonempty freely reduced word of length <= 4 is nontrivial
    for w in itertools.islice(all_reduced_words(G, 4), 1, None):
        assert not is_trivial(w, G)

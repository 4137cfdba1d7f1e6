"""Tests for rho, the group law it respects, and the kernel search."""

import functools
import itertools
import random
from collections import Counter

import pytest

from simpleloop import quotient
from simpleloop.cover import ResourceLimitError, build_mod2_cover
from simpleloop.curves import SimpleClass, twist_table, verify_non_geometric
from simpleloop.quotient import (
    MAX_HALF_WORDS,
    GElement,
    GroupContext,
    check_search_budget,
    image_rank,
    in_kernel,
    rho,
    search_kernel_elements,
)
from simpleloop.words import (
    Word,
    canonical_class,
    check_length_bound,
    check_letters,
    commutator,
    concat,
    dehn_normal_form,
    free_reduce,
    inverse,
    is_proper_power,
    from_letters,
    is_trivial,
    separating_word,
    substitute,
    surface_relator,
    word_from_str,
)

from oracles import (
    abelianization_mod2,
    census,
    cocycle,
    deck_action,
    deck_apply,
    even_cube_classes,
    face_chains,
    image_rank_by_group_law,
    inv_by_deck_action,
    letter_order_key,
    lift,
    literal_power,
    mul_by_deck_action,
    random_reduced_word,
    to_letters,
)


def make_ctx(genus=2):
    return GroupContext(build_mod2_cover(genus))


# The group law of G, from the deck action on H1 (tests/oracles.py).
def mul(ctx, x, y):
    return mul_by_deck_action(ctx.cover, x, y)


def inv(ctx, x):
    return inv_by_deck_action(ctx.cover, x)


CTX = make_ctx()
CTX3 = make_ctx(3)
CTX4 = make_ctx(4)
A1, B1 = from_letters((1, 2))


@functools.cache
def shared_search(ctx, max_len):
    """One kernel search per context and length bound, for tests that only
    read its witnesses."""
    return tuple(search_kernel_elements(ctx, max_len))


def dfs_search_kernel_elements(ctx: GroupContext, max_len: int) -> list[Word]:
    """Find nontrivial kernel words up to a length bound, depth first.

    Oracle for search_kernel_elements, which must return the same list.

    Enumerates freely and cyclically reduced words by increasing length, as
    tuples of signed generator indices, one canonical representative per
    free conjugacy class (kernel membership is a class property), and keeps
    the Dehn-nontrivial ones that map to the identity.

    Returns:
        The kept words in discovery order.
    """
    check_length_bound(max_len, "kernel length")
    genus = ctx.genus
    alphabet = sorted(
        [k for k in range(1, 2 * genus + 1)]
        + [-k for k in range(1, 2 * genus + 1)],
        key=letter_order_key,
    )
    position = {x: i for i, x in enumerate(alphabet)}
    hits: list[Word] = []
    word: list[int] = []

    def extend(phi: int, length: int) -> None:
        if len(word) == length:
            if phi != 0 or word[-1] == -word[0]:
                return
            w = from_letters(word)
            if canonical_class(w) != w:
                return
            if ctx.cover.walk(w, 0)[0] != 0:
                return
            if is_trivial(w, genus):
                return
            hits.append(w)
            return
        remaining = length - len(word)
        if phi.bit_count() > remaining:
            return
        # A canonical word starts with its least letter, so no later letter
        # may precede the first one in the canonical order.
        for x in alphabet[position[word[0]]:] if word else alphabet:
            if word and x == -word[-1]:
                continue
            word.append(x)
            extend(phi ^ (1 << (abs(x) - 1)), length)
            word.pop()

    for length in range(1, max_len + 1):
        extend(0, length)
    return hits


def test_rho_of_relator_and_empty_word():
    assert rho(CTX, surface_relator(2)) == CTX.identity
    assert rho(CTX, "") == CTX.identity


def test_rho_of_generator_nonidentity():
    el = rho(CTX, A1)
    assert el.v == 1
    assert el != CTX.identity


def test_rho_of_standard_separating_curve():
    el = rho(CTX, commutator(A1, B1))
    assert el.v == 0
    assert el.h != 0


def test_identity_laws():
    rng = random.Random(1)
    for _ in range(50):
        el = rho(CTX, random_reduced_word(rng, 2, rng.randrange(0, 10)))
        assert mul(CTX, CTX.identity, el) == el
        assert mul(CTX, el, CTX.identity) == el


def test_inverses():
    assert mul(CTX, rho(CTX, A1), rho(CTX, inverse(A1))) == CTX.identity
    rng = random.Random(2)
    for _ in range(100):
        w = random_reduced_word(rng, 2, rng.randrange(0, 12))
        el = rho(CTX, w)
        assert mul(CTX, el, inv(CTX, el)) == CTX.identity
        assert mul(CTX, inv(CTX, el), el) == CTX.identity
        assert inv(CTX, el) == rho(CTX, inverse(w))


def test_homomorphism_law_random_pairs():
    rng = random.Random(3)
    for ctx, n_pairs in ((CTX, 1000), (CTX3, 200)):
        for _ in range(n_pairs):
            w1 = random_reduced_word(rng, ctx.genus, rng.randrange(0, 10))
            w2 = random_reduced_word(rng, ctx.genus, rng.randrange(0, 10))
            assert mul(ctx, rho(ctx, w1), rho(ctx, w2)) == rho(ctx, concat(w1, w2))


def test_associativity_random_triples():
    rng = random.Random(4)
    for _ in range(1000):
        els = [
            rho(CTX, random_reduced_word(rng, 2, rng.randrange(0, 8)))
            for _ in range(3)
        ]
        x, y, z = els
        assert mul(CTX, mul(CTX, x, y), z) == mul(CTX, x, mul(CTX, y, z))


def test_cocycle_identity_all_triples():
    cover = CTX.cover
    n = cover.n_vertices
    for v1 in range(n):
        a1 = deck_action(cover, v1)
        for v2 in range(n):
            c12 = cocycle(cover, v1, v2)
            for v3 in range(n):
                left = c12 ^ cocycle(cover, v1 ^ v2, v3)
                right = deck_apply(a1, cocycle(cover, v2, v3)) ^ cocycle(
                    cover, v1, v2 ^ v3
                )
                assert left == right


def test_rho_invariant_under_relator_splices():
    rng = random.Random(5)
    relator = surface_relator(2)
    for _ in range(200):
        w = random_reduced_word(rng, 2, rng.randrange(0, 10))
        u = random_reduced_word(rng, 2, rng.randrange(0, 5))
        r = relator if rng.random() < 0.5 else inverse(relator)
        pos = rng.randrange(len(w) + 1)
        spliced = w[:pos] + concat(u, r, inverse(u)) + w[pos:]
        assert rho(CTX, free_reduce(spliced)) == rho(CTX, w)
        assert rho(CTX, spliced) == rho(CTX, w)


def test_kernel_membership_basics():
    assert in_kernel(CTX, "")
    assert not in_kernel(CTX, A1)
    witness = commutator(A1 * 2, B1 * 2)
    assert in_kernel(CTX, witness)
    assert not is_trivial(witness, 2)


def test_fourth_powers_lie_in_kernel():
    rng = random.Random(6)
    for _ in range(50):
        w = random_reduced_word(rng, 2, rng.randrange(1, 6))
        assert in_kernel(CTX, free_reduce(w * 4))
        el = rho(CTX, w)
        fourth = mul(CTX, el, el)
        fourth = mul(CTX, fourth, fourth)
        assert fourth == CTX.identity


def test_generator_squares_not_in_kernel():
    for letter in from_letters(range(1, 5)):
        assert not in_kernel(CTX, letter * 2)


def test_search_length3_empty():
    assert search_kernel_elements(CTX, 3) == []


def test_search_length4_finds_fourth_powers():
    hits = search_kernel_elements(CTX, 4)
    assert hits == [letter * 4 for letter in from_letters(range(1, 5))]
    assert all(is_proper_power(w) for w in hits)


def test_search_length8_finds_commutator_witness():
    hits = search_kernel_elements(CTX, 8)
    witness = canonical_class(commutator(A1 * 2, B1 * 2))
    assert witness in hits
    assert is_proper_power(witness) is False
    for w in hits:
        assert 1 <= len(w) <= 8
        assert abelianization_mod2(w, 2) == 0
        assert in_kernel(CTX, w)
        assert not is_trivial(w, 2)
        assert canonical_class(w) == w
    assert len(set(hits)) == len(hits)


def test_search_matches_brute_force_filter():
    # Oracle: every cyclically reduced word, by length and then in the
    # canonical letter order, kept when canonical, in the kernel and
    # Dehn-nontrivial; the list order checks the search's discovery order.
    alphabet = sorted((1, 2, 3, 4, -1, -2, -3, -4), key=letter_order_key)
    expected = []
    for length in range(1, 7):
        for letters in itertools.product(alphabet, repeat=length):
            if any(x == -y for x, y in zip(letters, letters[1:] + letters[:1])):
                continue
            w = from_letters(letters)
            if in_kernel(CTX, w) and canonical_class(w) == w and not is_trivial(w, 2):
                expected.append(w)
    assert expected
    assert search_kernel_elements(CTX, 6) == expected


@pytest.mark.parametrize("ctx, max_len", [(CTX, 8), (CTX3, 6)], ids=["g2", "g3"])
def test_search_matches_dfs_oracle(ctx, max_len):
    # The oracle searches each length on its own, so its run at max_len
    # restricted to lengths <= L is its run at L.
    expected = dfs_search_kernel_elements(ctx, max_len)
    assert expected
    for bound in range(1, max_len + 1):
        prefix = [w for w in expected if len(w) <= bound]
        assert search_kernel_elements(ctx, bound) == prefix


def test_search_genus3_length8_hits_are_witnesses():
    hits = search_kernel_elements(CTX3, 8)
    assert any(len(w) == 8 for w in hits)
    order = [(len(w), [letter_order_key(x) for x in to_letters(w)]) for w in hits]
    assert order == sorted(order)
    for w in hits:
        assert canonical_class(w) == w
        assert in_kernel(CTX3, w)
        assert not is_trivial(w, 3)
        assert is_proper_power(w) == literal_power(w)


def test_search_budget_counts_half_words():
    def half_words(genus, max_len):
        n = 4 * genus
        return sum(n * (n - 1) ** (k - 1) for k in range(1, (max_len + 1) // 2 + 1))

    for genus in (2, 3, 4):
        for max_len in range(1, 16):
            if half_words(genus, max_len) <= MAX_HALF_WORDS:
                check_search_budget(genus, max_len)
            else:
                with pytest.raises(ResourceLimitError):
                    check_search_budget(genus, max_len)
    check_search_budget(2, 12)
    check_search_budget(3, 10)
    with pytest.raises(ResourceLimitError):
        check_search_budget(4, 10)
    with pytest.raises(ValueError):
        check_search_budget(1, 8)
    with pytest.raises(ResourceLimitError):
        check_search_budget(5, 8)


def test_search_over_budget_raises_before_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the search walked before checking its budget")

    # A fresh context: on undo, monkeypatch leaves the bound method on the
    # instance, which would hide later class-level patches of CoverCW.walk.
    ctx = make_ctx()
    monkeypatch.setattr(ctx.cover, "walk", fail)
    with pytest.raises(ResourceLimitError):
        search_kernel_elements(ctx, 40)


def test_kernel_is_normal():
    rng = random.Random(7)
    hits = search_kernel_elements(CTX, 6)
    assert hits
    for w in hits:
        for _ in range(5):
            u = random_reduced_word(rng, 2, rng.randrange(1, 8))
            assert in_kernel(CTX, concat(u, w, inverse(u)))


@pytest.mark.parametrize(
    "ctx, max_len, n_hits, n_twists",
    [(CTX, 8, 81, 10), (CTX3, 6, 6, 16)],
    ids=["g2", "g3"],
)
def test_every_twist_maps_kernel_witnesses_into_the_kernel(
    ctx, max_len, n_hits, n_twists
):
    # ker rho is characteristic, so every automorphism preserves it.
    hits = search_kernel_elements(ctx, max_len)
    twists = twist_table(ctx.genus)
    assert (len(hits), len(twists)) == (n_hits, n_twists)
    for name, images in twists.items():
        for w in hits:
            assert in_kernel(ctx, substitute(w, images)), (name, w)


def test_twist_compositions_map_kernel_witnesses_into_the_kernel():
    rng = random.Random(11)
    hits = search_kernel_elements(CTX, 8)
    twists = list(twist_table(2).values())
    for _ in range(200):
        w = rng.choice(hits)
        for t in rng.choices(twists, k=rng.randint(1, 5)):
            w = substitute(w, t)
        assert in_kernel(CTX, w)


def test_every_element_has_order_dividing_four():
    rng = random.Random(8)
    for _ in range(100):
        el = rho(CTX, random_reduced_word(rng, 2, rng.randrange(1, 12)))
        sq = mul(CTX, el, el)
        assert mul(CTX, sq, sq) == CTX.identity


@pytest.mark.parametrize(
    "ctx, h1_dim", [(CTX, 34), (CTX3, 258), (CTX4, 1538)], ids=["g2", "g3", "g4"]
)
def test_image_rank_is_full(ctx, h1_dim):
    v_dim = 2 * ctx.genus
    assert image_rank(ctx) == {
        "v_rank": v_dim,
        "h_rank": h1_dim,
        "v_dim": v_dim,
        "h_dim": h1_dim,
    }


@pytest.mark.parametrize(
    "ctx, walks", [(CTX, 38), (CTX3, 264), (CTX4, 1546)], ids=["g2", "g3", "g4"]
)
def test_image_rank_walks_generators_and_unit_cycle_words(ctx, walks, monkeypatch):
    # One walk per generator and per basis class, 2g + h1_dim in all; the
    # dense classes of the cotree edges are never walked.
    words = []
    real_walk = ctx.cover.walk

    def counting_walk(word, start):
        words.append((word, start))
        return real_walk(word, start)

    monkeypatch.setattr(ctx.cover, "walk", counting_walk)
    image_rank(ctx)
    assert len(words) == walks == 2 * ctx.genus + ctx.cover.h1_dim
    assert words[: 2 * ctx.genus] == [(x, 0) for x in from_letters(range(1, 2 * ctx.genus + 1))]
    assert words[2 * ctx.genus :] == [(w, 0) for w in ctx.cover.unit_cycle_words]


def test_image_rank_checks_each_unit_cycle_word():
    # image_rank reads the ranks off 2g + h1_dim equalities rather than
    # eliminating, so a unit cycle word of the wrong class must raise.
    cover = build_mod2_cover(2)
    words = list(cover.unit_cycle_words)
    words[0], words[1] = words[1], words[0]
    cover.unit_cycle_words = tuple(words)
    with pytest.raises(AssertionError, match="unit cycle word 0"):
        image_rank(GroupContext(cover))


def test_image_rank_checks_each_generator():
    # A fresh cover whose letter a1 steps to the wrong end vertex, v ^ 2 in
    # place of v ^ 1: a1 no longer maps to deck bit 0.
    cover = build_mod2_cover(2)
    a1 = from_letters((1,))
    cover._steps[a1] = tuple((e, v ^ 3) for e, v in cover._steps[a1])
    with pytest.raises(AssertionError, match="generator 1 does not map to deck bit 0"):
        image_rank(GroupContext(cover))


@pytest.mark.parametrize("n_samples", [20, 100, 500])
@pytest.mark.parametrize("ctx", [CTX, CTX3], ids=["g2", "g3"])
def test_group_law_sampler_stays_within_image_rank(ctx, n_samples):
    exact = image_rank(ctx)
    for seed in range(6):
        sampled = image_rank_by_group_law(ctx, n_samples, seed)
        assert sampled["v_rank"] <= exact["v_rank"]
        assert sampled["h_rank"] <= exact["h_rank"]
        if ctx is CTX and n_samples >= 100:
            assert sampled == exact


def test_search_rejects_bad_bound():
    with pytest.raises(ValueError):
        search_kernel_elements(CTX, 0)


def test_gelement_equality_is_structural():
    assert GElement(3, 5) == GElement(3, 5)
    assert GElement(3, 5) != GElement(3, 4)


def test_rho_and_in_kernel_reject_letters_outside_genus():
    # words.check_letters states the rule; the walk runs it only when a
    # letter has no edge.
    for letters, name in (((5,), "a3"), ((1, -5, 5), "A3"), ((-6, 6), "B3")):
        for fn in (rho, in_kernel):
            with pytest.raises(ValueError, match="^letter %s outside genus 2$" % name):
                fn(CTX, from_letters(letters))


@pytest.mark.parametrize(
    "call",
    [
        lambda w: CTX.cover.walk(w, 5),
        lambda w: rho(CTX, w),
        lambda w: verify_non_geometric(CTX, [SimpleClass(w, "a1", (), False)]),
    ],
    ids=["walk", "rho", "verify_non_geometric"],
)
def test_walks_raise_the_letter_check_error(call):
    # Each walk, and each caller of one, raises check_letters' own error,
    # unchanged.
    cases = [
        (from_letters((5,)), "letter a3 outside genus 2"),
        (from_letters((1, -6, 6)), "letter B3 outside genus 2"),
        ("@?", "'?' is not a letter"),
    ]
    for w, message in cases:
        with pytest.raises(ValueError) as expected:
            check_letters(w, 2)
        assert str(expected.value) == message
        with pytest.raises(ValueError) as raised:
            call(w)
        assert str(raised.value) == message


@pytest.mark.parametrize("ctx", [CTX, CTX3, CTX4], ids=["g2", "g3", "g4"])
def test_orbit_facts(ctx):
    # The orbit argument reduces the verdict to a1, the separating curves
    # s_k and one kernel witness, at every genus.
    assert rho(ctx, A1).v == 1
    for k in range(1, ctx.genus):
        el = rho(ctx, separating_word(ctx.genus, k))
        assert el.v == 0 and el.h != 0
    witness = commutator(A1 * 2, B1 * 2)
    assert len(witness) == 8
    assert in_kernel(ctx, witness)
    assert dehn_normal_form(witness, ctx.genus) == witness


@pytest.mark.parametrize(
    "ctx, kernel_len, single_face",
    [(CTX, 11, {8: 1, 10: 32}), (CTX3, 10, {}), (CTX4, 8, {})],
    ids=["g2", "g3", "g4"],
)
def test_short_kernel_words_bound_at_most_one_face(ctx, kernel_len, single_face):
    # A word is in the kernel iff its lift from 0 closes and its edge chain
    # bounds a face set. On the doubled 2g-cube, a nonzero boundary has at
    # least 4g edges (one face or its complement) and any other at least
    # 8g - 4, while the chain of a word has at most |w| edges.
    genus, cover = ctx.genus, ctx.cover
    faces = set(face_chains(cover))

    def criterion(w):
        chain, end = lift(cover, w, 0)
        if len(w) < 4 * genus:
            assert in_kernel(ctx, w) == (chain == 0)
        assert in_kernel(ctx, w) == (end == 0 and (chain == 0 or chain in faces))
        return chain

    rng = random.Random(67 + genus)
    for _ in range(3000):
        criterion(random_reduced_word(rng, genus, rng.randrange(0, 8 * genus - 4)))
    witnesses = shared_search(ctx, kernel_len)
    assert kernel_len < 8 * genus - 4
    on_one_face = Counter(len(w) for w in witnesses if criterion(w))
    assert on_one_face == single_face
    # Up to length 8, 8g(3g - 1) witnesses have chain 0 at every genus here.
    up_to_8 = sum(len(w) <= 8 for w in witnesses)
    assert up_to_8 == 8 * genus * (3 * genus - 1) + single_face.get(8, 0)


def test_census_counts_by_generator_count():
    # N_k(L), k = 1..5: a^4 from length 4, a^8 and 12 two-generator classes
    # such as [a^2, b^2] from length 8, and three generators from length 10.
    def n(max_len):
        return tuple(
            sum(even_cube_classes(k, m) for m in range(1, max_len + 1)) for k in range(1, 6)
        )

    assert [n(L) for L in range(1, 4)] == [(0,) * 5] * 3
    assert [n(L) for L in range(4, 8)] == [(1, 0, 0, 0, 0)] * 4
    assert n(8) == n(9) == (2, 12, 0, 0, 0)
    assert n(10) == (2, 48, 12, 0, 0)
    assert [census(g, 8) for g in (2, 3, 4)] == [8 * g * (3 * g - 1) for g in (2, 3, 4)]
    assert census(3, 10) == 972


@pytest.mark.parametrize(
    "ctx, kernel_len, counts",
    [
        (CTX, 8, [0, 0, 0, 4, 4, 4, 4, 81]),
        (CTX3, 10, [0, 0, 0, 6, 6, 6, 6, 192, 192, 972]),
        (CTX4, 8, [0, 0, 0, 8, 8, 8, 8, 352]),
    ],
    ids=["g2", "g3", "g4"],
)
def test_search_counts_the_census_below_length_4g(ctx, kernel_len, counts):
    # Below length 4g the kernel words are the words of [E, E]E^2, E the
    # free subgroup of words with even exponent sums, which the census
    # counts without the package. From length 4g the relator adds words:
    # at genus 2 and length 8, one face's boundary.
    genus = ctx.genus
    witnesses = shared_search(ctx, kernel_len)
    found = [sum(len(w) <= L for w in witnesses) for L in range(1, kernel_len + 1)]
    assert found == counts
    for L in range(1, min(kernel_len, 4 * genus - 1) + 1):
        assert found[L - 1] == census(genus, L)
    if kernel_len >= 4 * genus:
        face = word_from_str("a1 b1 A1 B1 b2 a2 B2 A2", genus)
        assert found[4 * genus - 1] == census(genus, 4 * genus) + 1
        assert [w for w in witnesses if lift(ctx.cover, w, 0)[0]] == [face]

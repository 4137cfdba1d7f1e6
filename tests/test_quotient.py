"""Tests for the quotient group arithmetic and kernel search."""

import itertools
import random

import pytest

from simpleloop import quotient
from simpleloop.cover import ResourceLimitError, build_mod2_cover
from simpleloop.curves import twist_table
from simpleloop.quotient import (
    MAX_HALF_WORDS,
    GElement,
    GroupContext,
    check_search_budget,
    image_rank,
    in_kernel,
    inv,
    mul,
    representative,
    rho,
    search_kernel_elements,
)
from simpleloop.words import (
    Word,
    abelianization_mod2,
    canonical_class,
    check_length_bound,
    commutator,
    concat,
    free_reduce,
    inverse,
    is_proper_power,
    is_trivial,
    letter_order_key,
    random_reduced_word,
    substitute,
    surface_relator,
)

from oracles import (
    cocycle,
    deck_action,
    deck_apply,
    image_rank_by_group_law,
    inv_by_deck_action,
    mul_by_deck_action,
)


def make_ctx(genus=2):
    return GroupContext(build_mod2_cover(genus))


CTX = make_ctx()
CTX3 = make_ctx(3)
CTX4 = make_ctx(4)


def dfs_search_kernel_elements(
    ctx: GroupContext, max_len: int
) -> list[tuple[Word, bool]]:
    """Find nontrivial kernel words up to a length bound, depth first.

    Oracle for search_kernel_elements, which must return the same list.

    Enumerates freely and cyclically reduced words by increasing length, one
    canonical representative per free conjugacy class (kernel membership is
    a class property), and keeps the Dehn-nontrivial ones that map to the
    identity. Each hit is paired with its proper-power flag.

    Returns:
        List of (word, is_proper_power) pairs in discovery order.
    """
    check_length_bound(max_len, "kernel length")
    genus = ctx.genus
    alphabet = sorted(
        [k for k in range(1, 2 * genus + 1)]
        + [-k for k in range(1, 2 * genus + 1)],
        key=letter_order_key,
    )
    position = {x: i for i, x in enumerate(alphabet)}
    hits: list[tuple[Word, bool]] = []
    word: list[int] = []

    def extend(phi: int, length: int) -> None:
        if len(word) == length:
            if phi != 0 or word[-1] == -word[0]:
                return
            w = tuple(word)
            if canonical_class(w) != w:
                return
            if ctx.cover.walk(w, 0)[0] != 0:
                return
            if is_trivial(w, genus):
                return
            hits.append((w, is_proper_power(w)))
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
    assert rho(CTX, ()) == CTX.identity


def test_rho_of_generator_nonidentity():
    el = rho(CTX, (1,))
    assert el.v == 1
    assert el != CTX.identity


def test_rho_of_standard_separating_curve():
    el = rho(CTX, commutator((1,), (2,)))
    assert el.v == 0
    assert el.h != 0


def test_identity_laws():
    rng = random.Random(1)
    for _ in range(50):
        el = rho(CTX, random_reduced_word(rng, 2, rng.randrange(0, 10)))
        assert mul(CTX, CTX.identity, el) == el
        assert mul(CTX, el, CTX.identity) == el


def test_inverses():
    assert mul(CTX, rho(CTX, (1,)), rho(CTX, (-1,))) == CTX.identity
    rng = random.Random(2)
    for _ in range(100):
        w = random_reduced_word(rng, 2, rng.randrange(0, 12))
        el = rho(CTX, w)
        assert mul(CTX, el, inv(CTX, el)) == CTX.identity
        assert mul(CTX, inv(CTX, el), el) == CTX.identity
        assert inv(CTX, el) == rho(CTX, inverse(w))


def test_homomorphism_law_random_pairs():
    rng = random.Random(3)
    for _ in range(1000):
        w1 = random_reduced_word(rng, 2, rng.randrange(0, 10))
        w2 = random_reduced_word(rng, 2, rng.randrange(0, 10))
        assert mul(CTX, rho(CTX, w1), rho(CTX, w2)) == rho(CTX, concat(w1, w2))


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


def random_element(rng, ctx):
    return GElement(rng.randrange(ctx.cover.n_vertices), rng.getrandbits(ctx.cover.h1_dim))


@pytest.mark.parametrize("ctx", [CTX, CTX3, CTX4], ids=["g2", "g3", "g4"])
def test_representative_maps_to_its_element(ctx):
    rng = random.Random(61 + ctx.genus)
    elements = [ctx.identity, GElement(ctx.cover.n_vertices - 1, (1 << ctx.cover.h1_dim) - 1)]
    elements += [random_element(rng, ctx) for _ in range(50)]
    for x in elements:
        assert rho(ctx, representative(ctx, x)) == x


@pytest.mark.parametrize("ctx", [CTX, CTX3], ids=["g2", "g3"])
def test_mul_and_inv_match_deck_action_law(ctx):
    rng = random.Random(67 + ctx.genus)
    for _ in range(200):
        x = random_element(rng, ctx)
        y = random_element(rng, ctx)
        assert mul(ctx, x, y) == mul_by_deck_action(ctx.cover, x, y)
        assert inv(ctx, x) == inv_by_deck_action(ctx.cover, x)


def test_arithmetic_leaves_context_and_cover_unchanged():
    ctx = make_ctx(2)
    ctx_keys = set(vars(ctx))
    cover_keys = set(vars(ctx.cover))
    rng = random.Random(71)
    for _ in range(50):
        x = random_element(rng, ctx)
        y = random_element(rng, ctx)
        mul(ctx, x, y)
        inv(ctx, x)
    assert set(vars(ctx)) == ctx_keys
    assert set(vars(ctx.cover)) == cover_keys


def test_rho_invariant_under_relator_splices():
    rng = random.Random(5)
    relator = surface_relator(2)
    for _ in range(200):
        w = random_reduced_word(rng, 2, rng.randrange(0, 10))
        u = random_reduced_word(rng, 2, rng.randrange(0, 5))
        r = relator if rng.random() < 0.5 else inverse(relator)
        pos = rng.randrange(len(w) + 1)
        spliced = w[:pos] + tuple(concat(u, r, inverse(u))) + w[pos:]
        assert rho(CTX, free_reduce(spliced)) == rho(CTX, w)
        assert rho(CTX, spliced) == rho(CTX, w)


def test_kernel_membership_basics():
    assert in_kernel(CTX, ())
    assert not in_kernel(CTX, (1,))
    witness = commutator((1, 1), (2, 2))
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
    for k in range(1, 5):
        assert not in_kernel(CTX, (k, k))


def test_search_length3_empty():
    assert search_kernel_elements(CTX, 3) == []


def test_search_length4_finds_fourth_powers():
    hits = search_kernel_elements(CTX, 4)
    words = [w for w, _ in hits]
    assert words == [(k,) * 4 for k in range(1, 5)]
    assert all(flag for _, flag in hits)


def test_search_length8_finds_commutator_witness():
    hits = search_kernel_elements(CTX, 8)
    words = [w for w, _ in hits]
    witness = canonical_class(commutator((1, 1), (2, 2)))
    assert witness in words
    flags = dict(hits)
    assert flags[witness] is False
    for w, flag in hits:
        assert 1 <= len(w) <= 8
        assert abelianization_mod2(w, 2) == 0
        assert in_kernel(CTX, w)
        assert not is_trivial(w, 2)
        assert canonical_class(w) == w
    assert len(set(words)) == len(words)


def test_search_matches_brute_force_filter():
    # Oracle: every cyclically reduced word, by length and then in the
    # canonical letter order, kept when canonical, in the kernel and
    # Dehn-nontrivial; the list order checks the search's discovery order.
    alphabet = sorted((1, 2, 3, 4, -1, -2, -3, -4), key=letter_order_key)
    expected = []
    for length in range(1, 7):
        for w in itertools.product(alphabet, repeat=length):
            if any(x == -y for x, y in zip(w, w[1:] + w[:1])):
                continue
            if in_kernel(CTX, w) and canonical_class(w) == w and not is_trivial(w, 2):
                expected.append((w, is_proper_power(w)))
    assert expected
    assert search_kernel_elements(CTX, 6) == expected


@pytest.mark.parametrize("ctx, max_len", [(CTX, 8), (CTX3, 6)], ids=["g2", "g3"])
def test_search_matches_dfs_oracle(ctx, max_len):
    # The oracle searches each length on its own, so its run at max_len
    # restricted to lengths <= L is its run at L.
    expected = dfs_search_kernel_elements(ctx, max_len)
    assert expected
    for bound in range(1, max_len + 1):
        prefix = [hit for hit in expected if len(hit[0]) <= bound]
        assert search_kernel_elements(ctx, bound) == prefix


def test_search_genus3_length8_hits_are_witnesses():
    hits = search_kernel_elements(CTX3, 8)
    assert any(len(w) == 8 for w, _ in hits)
    order = [(len(w), [letter_order_key(x) for x in w]) for w, _ in hits]
    assert order == sorted(order)
    for w, flag in hits:
        assert canonical_class(w) == w
        assert in_kernel(CTX3, w)
        assert not is_trivial(w, 3)
        assert flag == is_proper_power(w)


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

    monkeypatch.setattr(CTX.cover, "walk", fail)
    with pytest.raises(ResourceLimitError):
        search_kernel_elements(CTX, 40)


def test_kernel_is_normal():
    rng = random.Random(7)
    hits = search_kernel_elements(CTX, 6)
    assert hits
    for w, _ in hits:
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
        for w, _ in hits:
            assert in_kernel(ctx, substitute(w, images)), (name, w)


def test_twist_compositions_map_kernel_witnesses_into_the_kernel():
    rng = random.Random(11)
    hits = [w for w, _ in search_kernel_elements(CTX, 8)]
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
    real_rho = quotient.rho

    def counting_rho(c, w):
        words.append(w)
        return real_rho(c, w)

    monkeypatch.setattr(quotient, "rho", counting_rho)
    image_rank(ctx)
    assert len(words) == walks == 2 * ctx.genus + ctx.cover.h1_dim
    assert words[2 * ctx.genus :] == list(ctx.cover.unit_cycle_words)


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
    for w in ((5,), (1, -5, 5), (-6, 6)):
        with pytest.raises(ValueError):
            rho(CTX, w)
        with pytest.raises(ValueError):
            in_kernel(CTX, w)

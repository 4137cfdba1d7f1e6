"""Tests for the mod-2 homology cover CW complex."""

import random

import pytest

from simpleloop import cover as cover_module
from simpleloop.cover import (
    CoverCW,
    ResourceLimitError,
    build_mod2_cover,
    cover_genus,
    group_order_log2,
)
from simpleloop.gf2 import GF2Matrix, kernel_basis, rank
from simpleloop.quotient import GroupContext, search_kernel_elements
from simpleloop.realize import recipe_for_G
from simpleloop.words import (
    abelianization_mod2,
    commutator,
    random_reduced_word,
    surface_relator,
)

from oracles import (
    coords,
    cycle_basis,
    deck_action,
    deck_apply,
    face_chains,
    full_quotient,
    incidence,
    loop_class,
    translate_chain,
    tree_chains,
)


def test_genus2_cell_counts_and_invariants():
    cover = build_mod2_cover(2)
    assert cover.n_vertices == 16
    assert cover.n_edges == 64
    assert cover.n_faces == 16
    assert cover.n_vertices - cover.n_edges + cover.n_faces == -32
    assert cover_genus(2) == 17
    assert cover.h1_dim == 34
    assert cover.h1_dim == 2 * cover_genus(2)


def test_boundary_maps_compose_to_zero():
    # Every face chain lies in the kernel of the incidence matrix: adding
    # the faces to a kernel basis leaves its rank unchanged.
    for genus in (2, 3, 4):
        cover = build_mod2_cover(genus)
        kernel = kernel_basis(incidence(cover))
        faces = face_chains(cover)
        both = GF2Matrix(len(kernel) + len(faces), cover.n_edges, tuple(kernel) + faces)
        assert rank(both) == len(kernel)


def test_boundary_ranks_genus2():
    cover = build_mod2_cover(2)
    d1 = incidence(cover)
    assert rank(d1) == 15
    assert rank(GF2Matrix(cover.n_faces, cover.n_edges, face_chains(cover))) == 15
    assert len(kernel_basis(d1)) == 49
    assert len(cycle_basis(cover)) == 49
    assert cover.n_edges - cover.n_vertices + 1 == 49


def test_fundamental_cycles_are_cycles():
    cover = build_mod2_cover(2)
    d1 = incidence(cover)
    for cycle in cycle_basis(cover):
        boundary = 0
        for v in range(cover.n_vertices):
            if (d1.data[v] & cycle).bit_count() & 1:
                boundary |= 1 << v
        assert boundary == 0


def test_relator_lift_closes_with_trivial_class():
    cover = build_mod2_cover(2)
    relator = surface_relator(2)
    for v in range(cover.n_vertices):
        chain, end = cover.lift(relator, v)
        assert end == v
        assert loop_class(cover, chain) == 0


def test_commutator_lift_has_nonzero_class():
    cover = build_mod2_cover(2)
    chain, end = cover.lift(commutator((1,), (2,)), 0)
    assert end == 0
    assert loop_class(cover, chain) != 0


def test_fourth_power_chain_cancels_mod2():
    cover = build_mod2_cover(2)
    chain, end = cover.lift((1, 1, 1, 1), 0)
    assert end == 0
    assert chain == 0
    assert loop_class(cover, chain) == 0


def test_generator_squares_have_nonzero_class():
    cover = build_mod2_cover(2)
    for k in range(1, 5):
        chain, end = cover.lift((k, k), 0)
        assert end == 0
        assert chain != 0
        assert loop_class(cover, chain) != 0


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_spanning_tree_paths(genus):
    cover = build_mod2_cover(genus)
    chains = tree_chains(cover)
    assert cover.tree_words[0] == ()
    assert chains[0] == 0
    for v in range(cover.n_vertices):
        word = cover.tree_words[v]
        assert len(word) == bin(v).count("1")
        assert abelianization_mod2(word, genus) == v
        chain, end = cover.lift(word, 0)
        assert end == v
        assert chain == chains[v]
    # Every tree edge ends some tree path, so the paths cover the tree.
    tree = 0
    for chain in chains:
        tree |= chain
    assert cover.nontree_edges == tuple(
        e for e in range(cover.n_edges) if not tree >> e & 1
    )
    assert len(cover.nontree_edges) == cover.n_edges - cover.n_vertices + 1


@pytest.mark.parametrize(
    "genus, cover_genus_, order_log2", [(2, 17, 38), (3, 129, 264), (4, 769, 1546)]
)
def test_cover_genus_and_group_order_agree(genus, cover_genus_, order_log2):
    cover = build_mod2_cover(genus)
    recipe = recipe_for_G(genus, 4)
    assert cover_genus(genus) == recipe["cover_genus"] == cover_genus_
    assert group_order_log2(genus) == recipe["group_order_log2"] == order_log2
    assert 2 * genus + cover.h1_dim == order_log2
    assert cover.h1_dim == 2 * cover_genus_


def test_h1_dim_is_checked_against_the_cover_genus(monkeypatch):
    monkeypatch.setattr(cover_module, "cover_genus", lambda genus: 1)
    with pytest.raises(AssertionError, match="cover genus"):
        build_mod2_cover(2)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_face_edges_are_the_relator_lift(genus):
    cover = build_mod2_cover(genus)
    relator = surface_relator(genus)
    for f in range(cover.n_faces):
        chain, end = cover.lift(relator, f)
        assert end == f
        edges = [e for e, _ in cover._face_edges(f)]
        assert sorted(edges) == [e for e in range(cover.n_edges) if chain >> e & 1]


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_every_edge_lies_in_exactly_two_faces(genus):
    cover = build_mod2_cover(genus)
    faces_of = [[] for _ in range(cover.n_edges)]
    pairs = []
    for f in range(cover.n_faces):
        for e, across in cover._face_edges(f):
            faces_of[e].append(f)
            pairs.append((e, {f, across}))
    for faces in faces_of:
        assert len(set(faces)) == len(faces) == 2
    # The face named across an edge is the other face that holds it.
    for e, faces in pairs:
        assert faces == set(faces_of[e])


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_unit_cycle_words_walk_to_unit_classes(genus):
    cover = build_mod2_cover(genus)
    assert len(cover.unit_cycle_words) == cover.h1_dim
    for j, word in enumerate(cover.unit_cycle_words):
        assert cover.walk(word, 0) == (1 << j, 0)


def test_face_zero_relation_is_checked(monkeypatch):
    # Dropping a1's lift from the start of every face leaves each such edge
    # in one face, so the relations of the other faces no longer imply
    # face 0's.
    face_edges = CoverCW._face_edges
    monkeypatch.setattr(CoverCW, "_face_edges", lambda self, f: list(face_edges(self, f))[1:])
    with pytest.raises(AssertionError, match="face 0 relation"):
        build_mod2_cover(2)


def test_lift_endpoint_tracks_abelianization():
    cover = build_mod2_cover(2)
    rng = random.Random(7)
    for _ in range(200):
        w = random_reduced_word(rng, 2, rng.randrange(0, 12))
        start = rng.randrange(16)
        _, end = cover.lift(w, start)
        assert end == start ^ abelianization_mod2(w, 2)


def test_walk_class_matches_loop_class_for_closed_words():
    cover = build_mod2_cover(2)
    word = commutator((1,), (2,))
    for v in (0, 3, 10):
        chain, end = cover.lift(word, v)
        assert end == v
        assert cover.walk(word, v)[0] == loop_class(cover, chain)


def test_walk_accepts_open_words():
    cover = build_mod2_cover(2)
    for v in (0, 5):
        cover.walk((1,), v)
        cover.walk((2, -3), v)


def test_deck_action_identity():
    cover = build_mod2_cover(2)
    columns = deck_action(cover, 0)
    assert columns == tuple(1 << j for j in range(cover.h1_dim))


def test_deck_action_is_involutive_homomorphism():
    cover = build_mod2_cover(2)
    rng = random.Random(11)
    for _ in range(30):
        u = rng.randrange(16)
        w = rng.randrange(16)
        h = rng.getrandbits(cover.h1_dim)
        once = deck_apply(deck_action(cover, u), h)
        assert deck_apply(deck_action(cover, u), once) == h
        composed = deck_apply(deck_action(cover, u), deck_apply(deck_action(cover, w), h))
        assert composed == deck_apply(deck_action(cover, u ^ w), h)


def test_translate_chain_moves_face_boundaries():
    cover = build_mod2_cover(2)
    relator = surface_relator(2)
    base_chain, _ = cover.lift(relator, 0)
    for u in (1, 6, 15):
        chain_u, _ = cover.lift(relator, u)
        assert translate_chain(cover, base_chain, u) == chain_u


def test_translate_chain_preserves_classes_count():
    cover = build_mod2_cover(2)
    cycles = cycle_basis(cover)
    rng = random.Random(3)
    for _ in range(20):
        u = rng.randrange(16)
        cycle = cycles[rng.randrange(len(cycles))]
        translated = translate_chain(cover, cycle, u)
        assert translated.bit_count() == cycle.bit_count()
        loop_class(cover, translated)


def test_genus3_cover_dimensions():
    cover = build_mod2_cover(3)
    assert cover.n_vertices == 64
    assert cover.n_edges == 384
    assert cover.n_faces == 64
    assert cover_genus(3) == 129
    assert cover.h1_dim == 258


def test_genus_bounds():
    with pytest.raises(ValueError):
        build_mod2_cover(1)
    with pytest.raises(ResourceLimitError):
        build_mod2_cover(5)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_edge_classes_are_fundamental_cycle_classes(genus):
    cover = build_mod2_cover(genus)
    quotient = full_quotient(cover)
    nontree = set(cover.nontree_edges)
    for e in range(cover.n_edges):
        if e not in nontree:
            assert cover.edge_classes[e] == 0
    for e, cycle in zip(cover.nontree_edges, cycle_basis(cover)):
        assert cover.edge_classes[e] == coords(quotient, cycle)


@pytest.mark.parametrize("genus", [2, 3])
def test_schreier_word_lifts_to_the_fundamental_cycle(genus):
    cover = build_mod2_cover(genus)
    for e, cycle in zip(cover.nontree_edges, cycle_basis(cover)):
        word = cover.schreier_word(e)
        assert cover.lift(word, 0) == (cycle, 0)
        assert cover.walk(word, 0) == (cover.edge_classes[e], 0)


@pytest.mark.parametrize("genus", [2, 3])
def test_table_classes_match_quotient_coords_on_closed_lifts(genus):
    cover = build_mod2_cover(genus)
    chains = tree_chains(cover)
    quotient = full_quotient(cover)
    rng = random.Random(41 + genus)
    for _ in range(200):
        w = random_reduced_word(rng, genus, rng.randrange(0, 16))
        start = rng.randrange(cover.n_vertices)
        chain, end = cover.lift(w, start)
        closed = chain ^ chains[start] ^ chains[end]
        h, walk_end = cover.walk(w, start)
        assert walk_end == end
        assert h == coords(quotient, closed)
        assert cover.walk(w, start)[0] == h
        assert loop_class(cover, closed) == h


@pytest.mark.parametrize("genus", [2, 3])
def test_table_classes_match_quotient_coords_on_translated_cycles(genus):
    cover = build_mod2_cover(genus)
    cycles = cycle_basis(cover)
    quotient = full_quotient(cover)
    rng = random.Random(43 + genus)
    for _ in range(200):
        u = rng.randrange(cover.n_vertices)
        cycle = cycles[rng.randrange(len(cycles))]
        translated = translate_chain(cover, cycle, u)
        assert loop_class(cover, translated) == coords(quotient, translated)


@pytest.mark.parametrize("genus", [2, 3])
def test_walk_is_deck_equivariant_on_closed_words(genus):
    # The lift from v of a closed word is the deck translate by v of its lift
    # from 0; the lift lemma in verify_non_geometric rests on this. Kernel
    # words cover the h == 0 case.
    cover = build_mod2_cover(genus)
    words = [commutator((1, 1), (2, 2)), surface_relator(genus)]
    words += [w for w, _ in search_kernel_elements(GroupContext(cover), 6)]
    rng = random.Random(53 + genus)
    while len(words) < 150:
        w = random_reduced_word(rng, genus, rng.randrange(1, 16))
        if abelianization_mod2(w, genus) == 0:
            words.append(w)
    assert sum(cover.walk(w, 0)[0] == 0 for w in words) > 2
    for w in words:
        h = cover.walk(w, 0)[0]
        for v in range(cover.n_vertices):
            assert cover.walk(w, v) == (deck_apply(deck_action(cover, v), h), v)


def test_deck_action_matches_translated_basis_cycles():
    # Unit cycle word j is a loop at 0 of class 1 << j, so its lift from u is
    # the translate by u of a cycle of that class.
    cover = build_mod2_cover(2)
    for u in range(cover.n_vertices):
        walked = tuple(cover.walk(w, u)[0] for w in cover.unit_cycle_words)
        assert walked == deck_action(cover, u)


def test_loop_class_rejects_open_chain():
    cover = build_mod2_cover(2)
    chain, end = cover.lift((1,), 0)
    assert end != 0
    with pytest.raises(ValueError):
        loop_class(cover, chain)
    with pytest.raises(ValueError):
        loop_class(cover, 1 << cover.n_edges)


"""Tests for the mod-2 homology cover CW complex."""

import random
from collections import Counter

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
from simpleloop.quotient import GroupContext, image_rank, search_kernel_elements
from simpleloop.realize import recipe_for_G
from simpleloop.words import (
    commutator,
    from_letters,
    separating_word,
    surface_relator,
)

from oracles import (
    abelianization_mod2,
    coords,
    cycle_basis,
    deck_action,
    deck_apply,
    edge_classes,
    face_chains,
    full_quotient,
    incidence,
    lift,
    loop_class,
    random_letters,
    random_reduced_word,
    translate_chain,
    tree_chains,
)

A1, B1 = from_letters((1, 2))


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
        chain, end = lift(cover, relator, v)
        assert end == v
        assert loop_class(cover, chain) == 0


def test_commutator_lift_has_nonzero_class():
    cover = build_mod2_cover(2)
    chain, end = lift(cover, commutator(A1, B1), 0)
    assert end == 0
    assert loop_class(cover, chain) != 0


def test_fourth_power_chain_cancels_mod2():
    cover = build_mod2_cover(2)
    chain, end = lift(cover, A1 * 4, 0)
    assert end == 0
    assert chain == 0
    assert loop_class(cover, chain) == 0


def test_generator_squares_have_nonzero_class():
    cover = build_mod2_cover(2)
    for letter in from_letters(range(1, 5)):
        chain, end = lift(cover, letter * 2, 0)
        assert end == 0
        assert chain != 0
        assert loop_class(cover, chain) != 0


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_spanning_tree_paths(genus):
    cover = build_mod2_cover(genus)
    chains = tree_chains(cover)
    assert cover.tree_words[0] == ""
    assert chains[0] == 0
    for v in range(cover.n_vertices):
        word = cover.tree_words[v]
        assert len(word) == bin(v).count("1")
        assert abelianization_mod2(word, genus) == v
        chain, end = lift(cover, word, 0)
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
        chain, end = lift(cover, relator, f)
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


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_dual_graph_is_the_doubled_cube(genus, monkeypatch):
    # Face f meets f ^ a_i across two edges and f ^ b_i across two edges,
    # and no other face: the dual graph is the 2g-cube with every edge
    # doubled. The short-word kernel criterion rests on this. Genus 5 runs
    # with the genus cap raised.
    monkeypatch.setattr(cover_module, "MAX_GENUS", 5)
    cover = build_mod2_cover(genus)
    faces_of = [[] for _ in range(cover.n_edges)]
    for f in range(cover.n_faces):
        across = Counter()
        for e, g in cover._face_edges(f):
            faces_of[e].append(f)
            across[g] += 1
        assert across == {f ^ (1 << j): 2 for j in range(2 * genus)}
    for f, g in faces_of:
        assert (f ^ g).bit_count() == 1


def test_least_face_set_boundary_genus2():
    # Harper's edge-isoperimetric inequality on the doubled 4-cube, by brute
    # force: every set of the 16 faces, in Gray-code order, one face toggled
    # per step. A boundary of 8 edges is one face or its complement, one of
    # 12 two faces or their complement; any other nonzero boundary has 16.
    faces = face_chains(build_mod2_cover(2))
    least = [None] * 17
    chain = members = 0
    for i in range(1, 1 << 16):
        j = (i & -i).bit_length() - 1
        chain ^= faces[j]
        members ^= 1 << j
        size, edges = members.bit_count(), chain.bit_count()
        if least[size] is None or edges < least[size]:
            least[size] = edges
    assert least[1:] == [8, 12, 16, 16, 20, 20, 20, 16, 20, 20, 20, 16, 16, 12, 8, 0]


def _is_cocycle(cover, edges):
    """Whether an edge set meets every face an even number of times."""
    return all(
        sum(e in edges for e, _ in cover._face_edges(f)) % 2 == 0
        for f in range(cover.n_faces)
    )


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_separating_curve_certificates(genus):
    # The closed-form certificate that rho(s_k) != 1 at every genus: the
    # mod-2 cocycle Z_k = {(0, a1), (0, a_{k+1}), (b1, a_{k+1}), (b_{k+1}, a1)}
    # pairs to 1 with the lift of s_k from 0, which meets it only in (0, a1).
    cover = build_mod2_cover(genus)
    a1_edge = cover.edge_index(0, 1)
    for k in range(1, genus):
        # a_{k+1} is generator 2k + 1; vertex b_i is 1 << (2i - 1).
        a, b1, b = 2 * k + 1, 1 << 1, 1 << (2 * k + 1)
        pairs = ((0, 1), (0, a), (b1, a), (b, 1))
        zk = {cover.edge_index(v, j) for v, j in pairs}
        assert len(zk) == 4 and _is_cocycle(cover, zk)
        chain, end = lift(cover, separating_word(genus, k), 0)
        assert end == 0
        assert [e for e in zk if chain >> e & 1] == [a1_edge]
        # No edge can be dropped, and Z_k's translate by a1 is a cocycle
        # that pairs to 0 with the same lift.
        for e in zk:
            assert not _is_cocycle(cover, zk - {e})
        moved = {cover.edge_index(v ^ 1, j) for v, j in pairs}
        assert _is_cocycle(cover, moved)
        assert sum(chain >> e & 1 for e in moved) % 2 == 0


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
        _, end = lift(cover, w, start)
        assert end == start ^ abelianization_mod2(w, 2)


def test_walk_class_matches_loop_class_for_closed_words():
    cover = build_mod2_cover(2)
    word = commutator(A1, B1)
    for v in (0, 3, 10):
        chain, end = lift(cover, word, v)
        assert end == v
        assert cover.walk(word, v)[0] == loop_class(cover, chain)


def test_walk_accepts_open_words():
    cover = build_mod2_cover(2)
    for v in (0, 5):
        cover.walk(A1, v)
        cover.walk(from_letters((2, -3)), v)


@pytest.mark.parametrize("method", ["walk"])
@pytest.mark.parametrize(
    "word, start", [(A1, -1), (A1, 16), ("", -1)], ids=["a1-minus1", "a1-16", "empty-minus1"]
)
def test_start_outside_the_cover_rejected(method, word, start):
    # A negative start would otherwise index the step table from its end.
    cover = build_mod2_cover(2)
    with pytest.raises(ValueError, match="^vertex %d outside genus 2$" % start):
        getattr(cover, method)(word, start)


# Edges and their ends: a vertex or generator out of range would otherwise
# name another edge, and an edge out of range another edge's ends and word.
@pytest.mark.parametrize(
    "method, args, message",
    [
        ("edge_index", (0, 5), "generator 5"),
        ("edge_index", (0, 0), "generator 0"),
        ("edge_index", (16, 1), "vertex 16"),
        ("edge_index", (-1, 1), "vertex -1"),
        ("edge_endpoints", (-1,), "edge -1"),
        ("edge_endpoints", (64,), "edge 64"),
        ("schreier_word", (-1,), "edge -1"),
        ("schreier_word", (64,), "edge 64"),
    ],
    ids=[
        "index-generator5",
        "index-generator0",
        "index-vertex16",
        "index-vertex-minus1",
        "endpoints-minus1",
        "endpoints-64",
        "schreier-minus1",
        "schreier-64",
    ],
)
def test_edge_outside_the_cover_rejected(method, args, message):
    cover = build_mod2_cover(2)
    with pytest.raises(ValueError, match="^%s outside genus 2$" % message):
        getattr(cover, method)(*args)


def test_edges_at_the_ends_of_their_ranges_accepted():
    cover = build_mod2_cover(2)
    assert cover.edge_index(0, 1) == 0
    assert cover.edge_index(15, 4) == 63
    assert cover.edge_endpoints(0) == (0, 1)
    assert cover.edge_endpoints(63) == (15, 7)
    assert cover.walk(cover.schreier_word(63), 0) == (edge_classes(cover)[63], 0)


@pytest.mark.parametrize("method", ["walk"])
def test_start_at_the_last_vertex_accepted(method):
    cover = build_mod2_cover(2)
    assert getattr(cover, method)(A1, 15)[1] == 14
    assert getattr(cover, method)("", 15) == (0, 15)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_walk_reads_key_strings_as_words(genus):
    # Reference: the oracle's edge classes XORed over the chain of its lift,
    # which reads the word back as signed generator indices.
    cover = build_mod2_cover(genus)
    classes = edge_classes(cover)
    rng = random.Random(genus)
    for _ in range(300):
        word = from_letters(random_letters(rng, genus, rng.randrange(0, 20)))
        start = rng.randrange(cover.n_vertices)
        chain, v = lift(cover, word, start)
        h = 0
        for e in range(cover.n_edges):
            if chain >> e & 1:
                h ^= classes[e]
        assert cover.walk(word, start) == (h, v)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_step_table_is_the_closed_form(genus):
    # Generator k from v: the class of edge (v, k), ending at v ^ bit; its
    # inverse from v: the class of the same edge from v ^ bit, run backwards
    # to v ^ bit.
    cover = build_mod2_cover(genus)
    classes = edge_classes(cover)
    letters = from_letters(x for k in range(1, 2 * genus + 1) for x in (k, -k))
    assert sorted(cover._steps) == sorted(letters)
    for k in range(1, 2 * genus + 1):
        bit = 1 << (k - 1)
        forward, back = (cover._steps[x] for x in from_letters((k, -k)))
        assert forward == tuple(
            (classes[cover.edge_index(v, k)], v ^ bit) for v in range(cover.n_vertices)
        )
        assert back == tuple(
            (classes[cover.edge_index(v ^ bit, k)], v ^ bit) for v in range(cover.n_vertices)
        )


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
    base_chain, _ = lift(cover, relator, 0)
    for u in (1, 6, 15):
        chain_u, _ = lift(cover, relator, u)
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


def test_genus5_cover_with_the_cap_raised(monkeypatch):
    # The cover fits genus 5; the cap waits on the twist-depth and kernel
    # search budgets. image_rank walks every unit cycle word.
    monkeypatch.setattr(cover_module, "MAX_GENUS", 5)
    cover = CoverCW(5)
    assert cover.n_vertices == cover.n_faces == 1024
    assert cover.h1_dim == 8194 == 2 * cover_genus(5)
    assert image_rank(GroupContext(cover)) == {
        "v_rank": 10,
        "h_rank": 8194,
        "v_dim": 10,
        "h_dim": 8194,
    }


def test_genus_bounds():
    with pytest.raises(ValueError):
        build_mod2_cover(1)
    with pytest.raises(ResourceLimitError):
        build_mod2_cover(5)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_edge_classes_are_fundamental_cycle_classes(genus):
    # Every single-letter walk: generator k from v adds the class of edge
    # (v, k), which the oracle takes from the GF(2) quotient (0 on a tree
    # edge, the class of its fundamental cycle otherwise), and ends at v ^ bit.
    cover = build_mod2_cover(genus)
    classes = edge_classes(cover)
    for k, letter in enumerate(from_letters(range(1, 2 * genus + 1)), 1):
        bit = 1 << (k - 1)
        for v in range(cover.n_vertices):
            assert cover.walk(letter, v) == (classes[cover.edge_index(v, k)], v ^ bit)


@pytest.mark.parametrize("genus", [2, 3])
def test_schreier_word_lifts_to_the_fundamental_cycle(genus):
    cover = build_mod2_cover(genus)
    for e, cycle in zip(cover.nontree_edges, cycle_basis(cover)):
        word = cover.schreier_word(e)
        assert lift(cover, word, 0) == (cycle, 0)
        assert cover.walk(word, 0) == (edge_classes(cover)[e], 0)


@pytest.mark.parametrize("genus", [2, 3])
def test_table_classes_match_quotient_coords_on_closed_lifts(genus):
    cover = build_mod2_cover(genus)
    chains = tree_chains(cover)
    quotient = full_quotient(cover)
    rng = random.Random(41 + genus)
    for _ in range(200):
        w = random_reduced_word(rng, genus, rng.randrange(0, 16))
        start = rng.randrange(cover.n_vertices)
        chain, end = lift(cover, w, start)
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
    words = [commutator(A1 * 2, B1 * 2), surface_relator(genus)]
    words += search_kernel_elements(GroupContext(cover), 6)
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
    chain, end = lift(cover, A1, 0)
    assert end != 0
    with pytest.raises(ValueError):
        loop_class(cover, chain)
    with pytest.raises(ValueError):
        loop_class(cover, 1 << cover.n_edges)


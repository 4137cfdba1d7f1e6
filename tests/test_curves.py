"""Tests for twist automorphisms and certified simple class generation."""

import random
import re

import pytest

from simpleloop import curves
from simpleloop.cover import (
    MAX_GENUS,
    CoverCW,
    ResourceLimitError,
    build_mod2_cover,
    check_genus,
)
from simpleloop.curves import (
    MAX_DEPTH,
    SimpleClass,
    _validate_table,
    check_depth,
    commuting_twists,
    generate_simple_classes,
    replay_certificate,
    root_word,
    standard_curves,
    twist_table,
    verify_non_geometric,
)
from simpleloop.quotient import GroupContext
from simpleloop.words import (
    canonical_class,
    check_min_genus,
    dehn_normal_form,
    from_letters,
    is_proper_power,
    separating_word,
    substitute,
    surface_relator,
)


from oracles import (
    abelianization_mod2,
    lemma_check_all_vertices,
    random_reduced_word,
    substitute_per_letter,
    to_letters,
    twist_bfs,
)

CTX = GroupContext(build_mod2_cover(2))
A1 = from_letters((1,))


def test_table_sizes():
    assert len(twist_table(2)) == 10
    assert len(twist_table(3)) == 16
    assert len(twist_table(4)) == 22


def test_table_rejects_low_genus():
    with pytest.raises(ValueError):
        twist_table(1)


@pytest.mark.parametrize("genus", [1, 0, -1])
def test_genus_below_two_rejected_by_one_rule(genus, monkeypatch):
    # words.check_min_genus is the one home of the rule; twist_table runs it
    # before it builds any table entry.
    def no_table(*args):
        raise AssertionError("twist table built")

    monkeypatch.setattr(curves, "from_letters", no_table)
    for fn in (check_min_genus, check_genus, surface_relator, twist_table, standard_curves):
        with pytest.raises(ValueError, match="^genus must be at least 2$"):
            fn(genus)


def test_verify_rejects_letters_outside_the_genus():
    # The pass reads the walk directly and raises its error on a bad letter.
    liar = SimpleClass(from_letters((1, 5)), "a1", (), False)
    with pytest.raises(ValueError, match="^letter a3 outside genus 2$"):
        verify_non_geometric(CTX, standard_curves(2) + [liar])


def test_every_twist_fixes_relator_exactly():
    for g in (2, 3):
        relator = surface_relator(g)
        for images in twist_table(g).values():
            assert substitute(relator, images) == relator


def test_validation_rejects_non_automorphism():
    bad = {
        "bad": {2: A1},
        "bad_inv": {2: A1},
    }
    with pytest.raises(AssertionError):
        _validate_table(2, bad)


def test_validation_rejects_a_conjugation():
    # Conjugation by a1 fixes the relator's conjugacy class and cancels with
    # its inverse, but moves the relator itself.
    conj = {
        "conj": {k: from_letters((1, k, -1)) for k in range(1, 5)},
        "conj_inv": {k: from_letters((-1, k, 1)) for k in range(1, 5)},
    }
    relator = surface_relator(2)
    assert canonical_class(substitute(relator, conj["conj"])) == canonical_class(relator)
    with pytest.raises(AssertionError, match="does not fix the relator"):
        _validate_table(2, conj)


def test_validation_rejects_twists_that_do_not_cancel():
    # ta1 fixes the relator, but ta1 composed with itself is not the identity.
    table = dict(twist_table(2))
    table["ta1_inv"] = table["ta1"]
    with pytest.raises(AssertionError, match="twist ta1 and its inverse do not cancel"):
        _validate_table(2, table)


def test_standard_curves_reject_low_genus():
    with pytest.raises(ValueError):
        standard_curves(1)


def test_identity_images_leave_words_alone():
    rng = random.Random(1)
    for _ in range(20):
        w = random_reduced_word(rng, 2, rng.randrange(0, 10))
        assert substitute(w, {}) == w


def test_inverse_pairs_cancel_on_random_words():
    table = twist_table(2)
    rng = random.Random(2)
    for name in ("ta1", "tb2", "tc1"):
        t, t_inv = table[name], table[name + "_inv"]
        for _ in range(100):
            w = random_reduced_word(rng, 2, rng.randrange(0, 16))
            assert substitute(substitute(w, t), t_inv) == w
            assert substitute(substitute(w, t_inv), t) == w


def _integer_abelianization(images: dict, genus: int) -> tuple:
    n = 2 * genus
    mat = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for x in to_letters(images.get(k, from_letters((k,)))):
            mat[abs(x) - 1][k - 1] += 1 if x > 0 else -1
    return tuple(tuple(row) for row in mat)


def _matmul_z(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def test_braid_relations_on_homology():
    table = twist_table(2)
    mats = {
        name: _integer_abelianization(images, 2) for name, images in table.items()
    }
    adjacent = [("ta1", "tb1"), ("tb1", "tc1"), ("tc1", "tb2"), ("tb2", "ta2")]
    for x, y in adjacent:
        a, b = mats[x], mats[y]
        assert _matmul_z(_matmul_z(a, b), a) == _matmul_z(_matmul_z(b, a), b)


def test_disjoint_twists_commute_on_homology():
    table = twist_table(2)
    mats = {
        name: _integer_abelianization(images, 2) for name, images in table.items()
    }
    disjoint = [("ta1", "ta2"), ("ta1", "tb2"), ("ta1", "tc1"), ("ta2", "tc1")]
    for x, y in disjoint:
        assert _matmul_z(mats[x], mats[y]) == _matmul_z(mats[y], mats[x])


def test_chain_relation_is_word_level_identity():
    table = twist_table(2)
    sequence = [table[n] for n in ("ta1", "tb1", "tc1", "tb2", "ta2")] * 6
    for letter in from_letters(range(1, 5)):
        image = letter
        for t in sequence:
            image = substitute(image, t)
        assert dehn_normal_form(image, 2) == letter


def test_standard_curves_genus2():
    curves = standard_curves(2)
    assert [sc.root for sc in curves] == ["a1", "b1", "a2", "b2", "s1"]
    for sc in curves:
        assert sc.twists == ()
        assert sc.separating == (abelianization_mod2(sc.cls, 2) == 0)
    assert sum(sc.separating for sc in curves) == 1


def test_standard_curves_genus3():
    curves = standard_curves(3)
    assert len(curves) == 8
    assert sum(sc.separating for sc in curves) == 2
    for sc in curves:
        if sc.separating:
            assert abelianization_mod2(sc.cls, 3) == 0
        else:
            assert abelianization_mod2(sc.cls, 3) != 0


def test_root_words():
    assert root_word(2, "a1") == from_letters((1,))
    assert root_word(2, "b2") == from_letters((4,))
    assert root_word(2, "s1") == separating_word(2, 1)
    assert root_word(4, "b4") == from_letters((8,))
    assert root_word(4, "s3") == separating_word(4, 3)
    assert root_word(12, "a10") == from_letters((19,))
    with pytest.raises(ValueError):
        root_word(2, "s2")
    with pytest.raises(ValueError):
        root_word(2, "x1")


# Names int() would read ("a+1", "a01", "a\u0661", "b 2", "s01"), names it
# would not, and names outside the genus.
BAD_ROOTS = [
    "a+1", "a01", "a\u0661", "b 2", "s01",
    "a", "a_1", "", "s", "A1", "x1",
    "a3", "b0", "s0", "s2",
]


@pytest.mark.parametrize("root", BAD_ROOTS)
@pytest.mark.parametrize(
    "entry",
    [root_word, lambda genus, root: replay_certificate(genus, root, ("ta1",))],
    ids=["root_word", "replay_certificate"],
)
def test_bad_root_names_rejected(entry, root):
    with pytest.raises(ValueError, match="^unknown standard curve %s$" % re.escape(repr(root))):
        entry(2, root)


def test_depth0_is_standard_curves():
    assert generate_simple_classes(2, 0, 64) == standard_curves(2)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_standard_curves_kept_at_any_max_len(genus):
    # s1 has 4 letters and s(g-1) 4(g-1), yet max_len 1 keeps them.
    assert generate_simple_classes(genus, 2, 1) == standard_curves(genus)


def test_depth1_count_pinned():
    assert len(generate_simple_classes(2, 1, 64)) == 15


def test_depth2_count_pinned():
    assert len(generate_simple_classes(2, 2, 64)) == 54


def test_generated_classes_are_canonical_and_distinct():
    fam = generate_simple_classes(2, 2, 64)
    classes = [sc.cls for sc in fam]
    assert len(set(classes)) == len(classes)
    for sc in fam:
        assert canonical_class(sc.cls) == sc.cls
        assert sc.separating == (abelianization_mod2(sc.cls, 2) == 0)
        assert not is_proper_power(sc.cls)


def test_certificate_replay():
    fam = generate_simple_classes(2, 2, 64)
    for sc in fam:
        assert replay_certificate(2, sc.root, sc.twists) == sc.cls


# A name outside the genus-2 table, and names near a real one. A bare string
# is read name by name, so "ta1" fails on "t".
@pytest.mark.parametrize(
    "twists, name",
    [(("ta3",), "ta3"), (("t",), "t"), (("",), ""), (("TA1",), "TA1"), (("ta1 ",), "ta1 "),
     (("ta1", "tb3_inv"), "tb3_inv"), ("ta1", "t")],
    ids=["ta3", "t", "empty", "TA1", "trailing_space", "second", "bare_string"],
)
def test_bad_twist_names_rejected(twists, name):
    with pytest.raises(ValueError, match="^unknown twist %s$" % re.escape(repr(name))):
        replay_certificate(2, "a1", twists)


def test_max_len_prunes():
    short = generate_simple_classes(2, 2, 8)
    assert all(len(sc.cls) <= 8 for sc in short)
    assert len(short) < len(generate_simple_classes(2, 2, 64))


@pytest.mark.parametrize(
    "genus, depth, max_len",
    [
        (2, 6, 64),
        (3, 3, 64),
        (4, 2, 64),
        (2, 4, 20),
        (3, 3, 20),
        (4, 2, 20),
        (2, 4, 2),
        (2, 6, 20),
        (2, 5, 12),
        (3, 3, 12),
        (4, 2, 16),
        (3, 4, 10),
        (4, 3, 64),
        (5, 2, 64),
        (5, 3, 64),
        (3, 4, 12),
    ],
)
def test_generation_matches_reference_bfs(genus, depth, max_len):
    # The reference tries every twist, the undo twists included, reduces
    # every image from scratch and computes each separating flag; the list
    # must agree class by class. A tight max_len rejects s(p) but not t(p)
    # for some commuting twists s and t, so the commutation skip must not
    # treat the pair symmetrically.
    got = generate_simple_classes(genus, depth, max_len)
    want = twist_bfs(genus, depth, max_len)
    assert [(sc.cls, sc.root, sc.twists, sc.separating) for sc in got] == [
        (sc.cls, sc.root, sc.twists, sc.separating) for sc in want
    ]


@pytest.mark.parametrize("genus, count", [(2, 58), (3, 184), (4, 382)])
def test_commuting_twists_match_brute_force(genus, count):
    table = twist_table(genus)
    want = {
        (s, t)
        for s in table
        for t in table
        if s != t
        and all(
            substitute(substitute(x, table[t]), table[s])
            == substitute(substitute(x, table[s]), table[t])
            for x in from_letters(range(1, 2 * genus + 1))
        )
    }
    got = commuting_twists(genus)
    assert got == want
    assert len(got) == count
    assert {("ta1", "ta2"), ("ta2", "ta1"), ("ta1", "tc1"), ("tc1", "ta1")} <= got
    assert ("tb1", "tc1") not in got and ("tc1", "tb1") not in got


@pytest.mark.parametrize(
    "genus, depth, classes, images",
    [
        (2, 6, 11831, 15314),
        # Genus 5 is over the cover's budget, but the twist BFS builds no cover.
        (5, 4, 4739, 5867),
        # The MAX_DEPTH budgets, the deepest runs a command allows.
        (2, 7, 44490, 59868),
        (3, 6, 48999, 60572),
        (4, 6, 91004, 111251),
    ],
    ids=["g2-d6", "g5-d4", "g2-d7", "g3-d6", "g4-d6"],
)
def test_generation_skips_decided_twist_images(monkeypatch, genus, depth, classes, images):
    # Skipping only the undo twist reads 27 374 images at (2, 6). Without
    # the entries a commuting skip defers, (2, 6) and (5, 4) read 18 981 and
    # 7 399.
    counts = []
    real = curves._canonical_images

    def counting_canonical_images(twist, words, genus):
        counts.append(len(words))
        return real(twist, words, genus)

    monkeypatch.setattr(curves, "_canonical_images", counting_canonical_images)
    assert len(generate_simple_classes(genus, depth, 64)) == classes
    assert sum(counts) == images


def test_substitute_matches_per_letter_reference():
    rng = random.Random(29)
    for genus in (2, 3, 4):
        n_gens = 2 * genus
        for _ in range(300):
            # A random endomorphism: some generators unmapped, images with
            # inverse letters, occasionally the empty image.
            images = {
                k: random_reduced_word(rng, genus, rng.randrange(0, 6))
                for k in range(1, n_gens + 1)
                if rng.random() < 0.6
            }
            w = random_reduced_word(rng, genus, rng.randrange(0, 30))
            assert substitute(w, images) == substitute_per_letter(w, images)
        for images in twist_table(genus).values():
            w = random_reduced_word(rng, genus, 40)
            assert substitute(w, images) == substitute_per_letter(w, images)


def test_generation_rejects_negative_depth():
    with pytest.raises(ValueError):
        generate_simple_classes(2, -1, 64)


def test_depth_budget_covers_every_genus():
    # The default depth, and the depths the benchmark runs, stay allowed.
    for genus in range(2, MAX_GENUS + 1):
        assert genus in MAX_DEPTH
        check_depth(6, genus)


def test_no_depth_budget_above_the_table():
    # A BFS at a genus the table does not list would run unbounded; a genus
    # below 2 is check_min_genus's to refuse.
    with pytest.raises(ResourceLimitError, match="^no depth budget at genus 7$"):
        check_depth(1, 7)
    check_depth(1, 1)


@pytest.mark.parametrize("genus", sorted(MAX_DEPTH))
def test_depth_over_budget_refused_before_generation(genus, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the twist table was read before the depth check")

    monkeypatch.setattr(curves, "twist_table", fail)
    with pytest.raises(ResourceLimitError, match="depth"):
        generate_simple_classes(genus, MAX_DEPTH[genus] + 1, 64)


@pytest.mark.parametrize("max_len", [0, -3])
def test_generation_rejects_max_len_below_one(max_len):
    with pytest.raises(ValueError):
        generate_simple_classes(2, 1, max_len)


def test_verify_standard_curves():
    report = verify_non_geometric(CTX, standard_curves(2))
    assert report.total == 5
    assert report.n_separating == 1
    assert report.n_nonseparating == 4
    assert report.kernel_hits == []
    for rec in report.records:
        if rec["separating"]:
            assert not rec["v_nonzero"]
            assert rec["h_nonzero"]
        else:
            assert rec["v_nonzero"]
        assert not rec["in_kernel"]


def test_verify_depth3_no_kernel_hits():
    fam = generate_simple_classes(2, 3, 64)
    assert len(fam) == 201
    report = verify_non_geometric(CTX, fam)
    assert report.kernel_hits == []
    assert report.total == 201


def test_simple_class_holds_its_canonical_word():
    assert SimpleClass._fields == ("cls", "root", "twists", "separating")
    for sc in standard_curves(3):
        assert sc.cls == canonical_class(root_word(3, sc.root))


def test_lemma_check_standard_curves():
    report = verify_non_geometric(CTX, standard_curves(2))
    assert report.lemma_failures == []
    assert report.n_separating == 1
    assert report.n_nonseparating == 4


def test_lemma_check_catches_false_separating_flag():
    liar = SimpleClass(cls=A1, root="a1", twists=(), separating=True)
    report = verify_non_geometric(CTX, [liar])
    assert "nonzero mod-2" in report.lemma_failures[0]["reason"]


def test_lemma_check_catches_false_nonseparating_flag():
    liar = SimpleClass(
        cls=canonical_class(separating_word(2, 1)),
        root="s1",
        twists=(),
        separating=False,
    )
    report = verify_non_geometric(CTX, [liar])
    assert "zero mod-2" in report.lemma_failures[0]["reason"]


def test_twist_images_of_separating_curve_still_certified():
    fam = generate_simple_classes(2, 3, 64)
    separating = [sc for sc in fam if sc.separating]
    assert separating
    report = verify_non_geometric(CTX, separating)
    assert report.lemma_failures == []
    assert report.n_separating == len(separating)


def test_lemma_check_catches_separating_lift_that_bounds():
    liar = SimpleClass(
        cls=canonical_class(surface_relator(2)),
        root="s1",
        twists=(),
        separating=True,
    )
    report = verify_non_geometric(CTX, [liar])
    assert report.n_separating == 1
    assert len(report.lemma_failures) == 16
    for v, failure in enumerate(report.lemma_failures):
        assert failure["reason"] == "lift from vertex %d separates the cover" % v


def _relator_liar():
    return SimpleClass(
        cls=canonical_class(surface_relator(2)), root="s1", twists=(), separating=True
    )


@pytest.mark.parametrize(
    "ctx, classes",
    [
        (CTX, generate_simple_classes(2, 4, 64)),
        (GroupContext(build_mod2_cover(3)), generate_simple_classes(3, 2, 64)),
        (CTX, [_relator_liar()]),
    ],
    ids=["g2-depth4", "g3-depth2", "relator-liar"],
)
def test_lemma_check_matches_all_vertex_oracle(ctx, classes):
    report = verify_non_geometric(ctx, classes)
    got = (report.n_separating, report.n_nonseparating, report.lemma_failures)
    assert got == lemma_check_all_vertices(ctx, classes)


def test_lemma_check_walks_once_per_class(monkeypatch):
    classes = generate_simple_classes(2, 4, 64) + [_relator_liar()]
    calls = []
    walk = CoverCW.walk

    def counting_walk(self, word, start):
        calls.append((word, start))
        return walk(self, word, start)

    monkeypatch.setattr(CoverCW, "walk", counting_walk)
    report = verify_non_geometric(CTX, classes)
    separating = [sc.cls for sc in classes if sc.separating]
    assert len(separating) > 1
    # One walk from vertex 0 per class, on its canonical word, decides rho
    # and the lift lemma.
    assert calls == [(sc.cls, 0) for sc in classes]
    assert len(report.lemma_failures) == CTX.cover.n_vertices

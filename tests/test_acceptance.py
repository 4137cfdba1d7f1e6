"""Acceptance suite: one test per shipped guarantee, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
lines; add ``-s`` for the timing detail printed by each test.
"""

import random
import time

import pytest

from simpleloop.cli import _cover_stats_record
from simpleloop.cover import CoverCW
from simpleloop.curves import (
    generate_simple_classes,
    twist_table,
    verify_non_geometric,
)
from simpleloop.demos import (
    main_construction_sidedness,
    torus_inclusion_sidedness,
    torus_kernel_scan,
)
from simpleloop.gf2 import GF2Matrix, kernel_basis, rank
from simpleloop.quotient import in_kernel, rho, search_kernel_elements
from simpleloop.realize import Presentation, recipe_for_presentation
from simpleloop.words import (
    canonical_class,
    commutator,
    concat,
    free_reduce,
    from_letters,
    inverse,
    is_proper_power,
    is_trivial,
    substitute,
    surface_relator,
)

from oracles import (
    abelianization_mod2,
    lift,
    loop_class,
    mul_by_deck_action,
    random_reduced_word,
    shared_cover,
)

_CACHE = {}


def _family():
    """Depth-6 certified family at genus 2, built once and timed."""
    if "family" not in _CACHE:
        start = time.perf_counter()
        _CACHE["family"] = generate_simple_classes(2, 6, 64)
        _CACHE["family_s"] = time.perf_counter() - start
    return _CACHE["family"]


def _report(num, label, elapsed=None, bound=None):
    timing = ""
    if elapsed is not None:
        timing = " (%.2fs%s)" % (elapsed, "" if bound is None else " < %gs" % bound)
    print("criterion %2d: %s PASS%s" % (num, label, timing))
    if bound is not None:
        assert elapsed < bound, "criterion %d took %.2fs, bound %gs" % (
            num,
            elapsed,
            bound,
        )


def test_criterion_01_cover_statistics():
    start = time.perf_counter()
    record = _cover_stats_record(CoverCW(2))
    elapsed = time.perf_counter() - start
    assert record["degree"] == 16
    assert record["euler_characteristic"] == -32
    assert record["cover_genus"] == 17
    assert record["h1_dim"] == 34
    _report(1, "genus-2 cover: degree 16, chi -32, genus 17, h1 34", elapsed, 1.0)


def test_criterion_02_separating_orbit_lifts():
    start = time.perf_counter()
    cover = shared_cover(2)
    table = twist_table(2)
    seed = canonical_class(commutator(*from_letters((1, 2))))
    orbit = {seed}
    frontier = [seed]
    for _ in range(3):
        next_frontier = []
        for w in frontier:
            for name in sorted(table):
                img = canonical_class(substitute(w, table[name]))
                if img not in orbit:
                    orbit.add(img)
                    next_frontier.append(img)
        frontier = next_frontier
    assert len(orbit) > 1
    for w in sorted(orbit):
        assert abelianization_mod2(w, 2) == 0
        for vertex in range(16):
            chain, end = lift(cover, w, vertex)
            assert end == vertex
            assert loop_class(cover, chain) != 0
    elapsed = time.perf_counter() - start
    _report(
        2,
        "commutator orbit to depth 3: %d classes, 16 closed lifts each,"
        " all with nonzero class" % len(orbit),
        elapsed,
        10.0,
    )


def test_criterion_03_nonseparating_nonzero_image():
    family = _family()
    for sc in family:
        root_separating = sc.root.startswith("s")
        image = abelianization_mod2(sc.cls, 2)
        assert sc.separating == root_separating
        assert (image == 0) == root_separating
    _report(
        3,
        "all %d nonseparating classes have nonzero mod-2 image"
        % sum(1 for sc in family if not sc.separating),
    )


def test_criterion_04_no_simple_class_in_kernel():
    family = _family()
    start = time.perf_counter()
    report = verify_non_geometric(shared_cover(2), family)
    elapsed = _CACHE["family_s"] + (time.perf_counter() - start)
    assert report.total == 11831  # regression pin from the first full run
    assert report.total >= 5000
    assert report.kernel_hits == []
    assert all(not rec["in_kernel"] for rec in report.records)
    _report(
        4,
        "%d certified simple classes (depth 6, max len 64), zero kernel hits"
        % report.total,
        elapsed,
        300.0,
    )


def test_criterion_05_kernel_is_nontrivial():
    cover = shared_cover(2)
    start = time.perf_counter()
    witnesses = search_kernel_elements(cover, 8)
    assert witnesses
    assert any(not is_proper_power(w) for w in witnesses)
    for w in witnesses:
        assert in_kernel(cover, w)
        assert not is_trivial(w, 2)
    a1, b1 = from_letters((1, 2))
    direct = commutator(a1 * 2, b1 * 2)
    assert in_kernel(cover, direct)
    assert not is_trivial(direct, 2)
    elapsed = time.perf_counter() - start
    _report(
        5,
        "%d kernel witnesses at length 8; commutator of squares verifies"
        % len(witnesses),
        elapsed,
        60.0,
    )


def test_criterion_06_group_law_matches_evaluation():
    cover = shared_cover(2)
    rng = random.Random(0)
    start = time.perf_counter()
    for _ in range(1000):
        w1 = random_reduced_word(rng, 2, rng.randrange(0, 12))
        w2 = random_reduced_word(rng, 2, rng.randrange(0, 12))
        assert mul_by_deck_action(cover, rho(cover, w1), rho(cover, w2)) == rho(cover, w1 + w2)
    relator = surface_relator(2)
    for _ in range(1000):
        w = random_reduced_word(rng, 2, rng.randrange(0, 12))
        u = random_reduced_word(rng, 2, rng.randrange(0, 6))
        r = relator if rng.randrange(2) else inverse(relator)
        pos = rng.randrange(0, len(w) + 1)
        spliced = w[:pos] + concat(u, r, inverse(u)) + w[pos:]
        assert rho(cover, spliced) == rho(cover, w)
    elapsed = time.perf_counter() - start
    _report(
        6,
        "1000 product pairs and 1000 relator splices agree with evaluation",
        elapsed,
        60.0,
    )


def test_criterion_07_rank_nullity():
    rng = random.Random(1)
    start = time.perf_counter()
    for _ in range(500):
        n_rows = rng.randrange(1, 201)
        n_cols = rng.randrange(1, 201)
        data = tuple(
            rng.getrandbits(n_cols) if rng.randrange(4) else 0
            for _ in range(n_rows)
        )
        m = GF2Matrix(n_rows, n_cols, data)
        assert rank(m) + len(kernel_basis(m)) == n_cols
    elapsed = time.perf_counter() - start
    _report(7, "rank plus nullity on 500 random matrices up to 200x200", elapsed)


def test_criterion_08_torus_demo():
    start = time.perf_counter()
    scan = torus_kernel_scan(100)
    expected = {(2 * k, 0) for k in range(-50, 51) if k}
    assert set(scan["kernel_classes"]) == expected
    assert scan["simple_in_kernel"] == []
    assert scan["non_geometric"] is True
    assert torus_inclusion_sidedness()["two_sided"] is False
    assert main_construction_sidedness(2)["two_sided"] is True
    elapsed = time.perf_counter() - start
    _report(
        8,
        "torus kernel is the even multiples of one factor, none simple;"
        " inclusion 1-sided, surface construction 2-sided",
        elapsed,
        1.0,
    )


def test_criterion_09_genus3_smoke():
    start = time.perf_counter()
    cover = shared_cover(3)
    assert cover.h1_dim == 258
    classes = generate_simple_classes(3, 2, 64)
    report = verify_non_geometric(cover, classes)
    assert report.total == len(classes)
    assert report.kernel_hits == []
    elapsed = time.perf_counter() - start
    _report(
        9,
        "genus-3 cover (h1 258), %d classes at depth 2, zero kernel hits"
        % report.total,
        elapsed,
        120.0,
    )


def test_criterion_10_realization_round_trip():
    names = ("a", "b", "c", "d", "e")
    rng = random.Random(2)
    for _ in range(50):
        k = rng.randrange(1, 6)
        relators = []
        for _ in range(rng.randrange(0, 6)):
            while True:
                word = from_letters(
                    rng.choice((1, -1)) * rng.randrange(1, k + 1)
                    for _ in range(rng.randrange(1, 7))
                )
                reduced = free_reduce(word)
                if reduced:
                    relators.append(reduced)
                    break
        p = Presentation(generators=names[:k], relators=tuple(relators))
        recipe = recipe_for_presentation(p, 4)
        assert recipe.resulting_group == p
        assert len(recipe.steps) == len(p.relators)
        assert recipe.dimension == 4
        with pytest.raises(ValueError):
            recipe_for_presentation(p, 3)
    _report(10, "50 random presentations realize at dimension 4; 3 rejected")

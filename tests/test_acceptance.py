"""Acceptance suite: one test per shipped guarantee, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
lines; add ``-s`` for the timing detail printed by each test.
"""

import random
import time

import pytest

from simpleloop.cli import _cover_stats_record
from simpleloop.cover import build_mod2_cover
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
from simpleloop.quotient import (
    GroupContext,
    in_kernel,
    mul,
    rho,
    search_kernel_elements,
)
from simpleloop.realize import Presentation, realize
from simpleloop.words import (
    abelianization_mod2,
    canonical_class,
    commutator,
    concat,
    free_reduce,
    inverse,
    is_trivial,
    random_reduced_word,
    substitute,
    surface_relator,
)

from oracles import loop_class

_CACHE = {}


def _ctx(genus=2):
    key = ("ctx", genus)
    if key not in _CACHE:
        _CACHE[key] = GroupContext(build_mod2_cover(genus))
    return _CACHE[key]


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
    record = _cover_stats_record(build_mod2_cover(2))
    elapsed = time.perf_counter() - start
    assert record["degree"] == 16
    assert record["euler_characteristic"] == -32
    assert record["cover_genus"] == 17
    assert record["h1_dim"] == 34
    _report(1, "genus-2 cover: degree 16, chi -32, genus 17, h1 34", elapsed, 1.0)


def test_criterion_02_separating_orbit_lifts():
    start = time.perf_counter()
    cover = _ctx().cover
    table = twist_table(2)
    seed = canonical_class(commutator((1,), (2,)))
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
            chain, end = cover.lift(w, vertex)
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
    report = verify_non_geometric(_ctx(), family)
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
    ctx = _ctx()
    start = time.perf_counter()
    witnesses = search_kernel_elements(ctx, 8)
    assert witnesses
    assert any(not power_flag for _, power_flag in witnesses)
    for w, _ in witnesses:
        assert in_kernel(ctx, w)
        assert not is_trivial(w, 2)
    direct = commutator((1, 1), (2, 2))
    assert in_kernel(ctx, direct)
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
    ctx = _ctx()
    rng = random.Random(0)
    start = time.perf_counter()
    for _ in range(1000):
        w1 = random_reduced_word(rng, 2, rng.randrange(0, 12))
        w2 = random_reduced_word(rng, 2, rng.randrange(0, 12))
        assert mul(ctx, rho(ctx, w1), rho(ctx, w2)) == rho(ctx, w1 + w2)
    relator = surface_relator(2)
    for _ in range(1000):
        w = random_reduced_word(rng, 2, rng.randrange(0, 12))
        u = random_reduced_word(rng, 2, rng.randrange(0, 6))
        r = relator if rng.randrange(2) else inverse(relator)
        pos = rng.randrange(0, len(w) + 1)
        spliced = w[:pos] + concat(u, r, inverse(u)) + w[pos:]
        assert rho(ctx, spliced) == rho(ctx, w)
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
    ctx = _ctx(3)
    assert ctx.cover.h1_dim == 258
    classes = generate_simple_classes(3, 2, 64)
    report = verify_non_geometric(ctx, classes)
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
                word = tuple(
                    rng.choice((1, -1)) * rng.randrange(1, k + 1)
                    for _ in range(rng.randrange(1, 7))
                )
                reduced = free_reduce(word)
                if reduced:
                    relators.append(reduced)
                    break
        p = Presentation(generators=names[:k], relators=tuple(relators))
        recipe = realize(p, 4)
        assert recipe.resulting_group == p
        assert len(recipe.steps) == len(p.relators)
        assert recipe.dimension == 4
        with pytest.raises(ValueError):
            realize(p, 3)
    _report(10, "50 random presentations realize at dimension 4; 3 rejected")

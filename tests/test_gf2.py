"""Tests for the GF(2) linear algebra layer."""

import random

import pytest

from simpleloop.gf2 import (
    GF2Matrix,
    QuotientMap,
    rank,
    kernel_basis,
    rref,
)

from oracles import basis_cycles, coords


def vec(*bits):
    out = 0
    for i, b in enumerate(bits):
        if b:
            out |= 1 << i
    return out


def brute_kernel(m):
    """Oracle: enumerate every vector and keep those killed by all rows."""
    out = []
    for x in range(1 << m.cols):
        if all((r & x).bit_count() % 2 == 0 for r in m.data):
            out.append(x)
    return set(out)


def span(vectors):
    out = {0}
    for v in vectors:
        out |= {w ^ v for w in out}
    return out


def rref_column_scan(rows, n_cols):
    """Oracle: Gauss-Jordan elimination scanning the columns in order."""
    rows = list(rows)
    out, pivots = [], []
    for col in range(n_cols):
        bit = 1 << col
        src = next((i for i, r in enumerate(rows) if r & bit), None)
        if src is None:
            continue
        piv = rows.pop(src)
        rows = [r ^ piv if r & bit else r for r in rows]
        out = [r ^ piv if r & bit else r for r in out]
        out.append(piv)
        pivots.append(col)
    return out, pivots


def test_rref_matches_column_scan():
    rng = random.Random(5)
    for _ in range(300):
        cols = rng.randrange(1, 40)
        rows = [rng.randrange(1 << cols) for _ in range(rng.randrange(0, 30))]
        rows += rng.sample(rows, len(rows) // 3)
        assert rref(rows) == rref_column_scan(rows, cols)


def test_rank_identity():
    m = GF2Matrix(3, 3, (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)))
    assert rank(m) == 3


def test_rank_dependent_rows():
    m = GF2Matrix(3, 3, (vec(1, 1, 0), vec(0, 1, 1), vec(1, 0, 1)))
    assert rank(m) == 2


def test_kernel_small_example():
    m = GF2Matrix(2, 3, (vec(1, 1, 0), vec(0, 1, 1)))
    basis = kernel_basis(m)
    assert basis == [vec(1, 1, 1)]
    # oracle agreement: the kernel as a set matches brute enumeration
    assert span(basis) == brute_kernel(m)


def test_kernel_of_zero_matrix_is_everything():
    m = GF2Matrix(2, 4, (0, 0))
    basis = kernel_basis(m)
    assert len(basis) == 4
    assert span(basis) == set(range(16))


def test_kernel_trivial():
    m = GF2Matrix(2, 2, (vec(1, 0), vec(0, 1)))
    assert kernel_basis(m) == []


def test_kernel_oracle_random_small():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 7)
        m = GF2Matrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))
        assert span(kernel_basis(m)) == brute_kernel(m)


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randrange(1, 60)
        cols = rng.randrange(1, 60)
        m = GF2Matrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))
        assert rank(m) + len(kernel_basis(m)) == m.cols


def test_matmul_kernel_members():
    rng = random.Random(13)
    for _ in range(50):
        rows, cols = rng.randrange(1, 30), rng.randrange(1, 30)
        m = GF2Matrix(rows, cols, tuple(rng.randrange(1 << cols) for _ in range(rows)))
        for x in kernel_basis(m):
            assert all((r & x).bit_count() % 2 == 0 for r in m.data)


def test_quotient_whole_space_no_boundaries():
    q = QuotientMap([vec(1, 0), vec(0, 1)], [0])
    assert q.dim == 2
    seen = {coords(q, v) for v in (0, 1, 2, 3)}
    assert seen == {0, 1, 2, 3}
    assert coords(q, 0) == 0


def test_quotient_everything_bounds():
    cycles = [vec(1, 1, 0), vec(0, 1, 1)]
    q = QuotientMap(cycles, cycles)
    assert q.dim == 0
    for c in cycles:
        assert coords(q, c) == 0


@pytest.mark.parametrize(
    "rows, cols, data, match",
    [
        (2, 3, (vec(1, 0, 0),), "row count"),
        (1, 3, (1 << 3,), "outside the column range"),
        (1, 3, (-1,), "outside the column range"),
    ],
    ids=["row-count", "bit-past-cols", "negative-row"],
)
def test_matrix_rejects_malformed_data(rows, cols, data, match):
    with pytest.raises(ValueError, match=match):
        GF2Matrix(rows, cols, data)


def test_quotient_rejects_boundary_outside_cycles():
    with pytest.raises(ValueError):
        QuotientMap([vec(1, 1, 0)], [vec(0, 0, 1)])


def test_quotient_rejects_non_cycle_vector():
    q = QuotientMap([vec(1, 1, 0)], [])
    with pytest.raises(ValueError):
        coords(q, vec(1, 0, 0))


def test_quotient_vanishes_exactly_on_boundaries_brute():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(3, 12)
        nz = rng.randrange(1, min(n, 8) + 1)
        cycles_raw = [rng.randrange(1, 1 << n) for _ in range(nz)]
        cyc_span = span(cycles_raw)
        boundaries = [rng.choice(sorted(cyc_span)) for _ in range(rng.randrange(0, 3))]
        q = QuotientMap(cycles_raw, boundaries)
        b_span = span(boundaries)
        for w in cyc_span:
            if w in b_span:
                assert coords(q, w) == 0
            else:
                assert coords(q, w) != 0
        # linearity makes the induced quotient map injective
        images = {}
        for w in sorted(cyc_span):
            images.setdefault(coords(q, w), set()).add(w)
        for img, pre in images.items():
            first = min(pre)
            assert all((w ^ first) in b_span for w in pre)


def test_quotient_basis_cycles_hit_unit_coordinates():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randrange(3, 12)
        cycles = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 7))]
        boundaries = [rng.choice(sorted(span(cycles))) for _ in range(rng.randrange(0, 3))]
        q = QuotientMap(cycles, boundaries)
        basis = basis_cycles(q)
        assert len(basis) == q.dim
        for j, c in enumerate(basis):
            assert coords(q, c) == 1 << j

"""Finite 2-group quotient of a surface group via its mod-2 homology cover.

A word w maps to rho(w) = (v, h): v is its mod-2 abelianization (the vertex
its lift from vertex 0 reaches) and h is the GF(2) homology class of that
lift closed up through the spanning tree. Words act trivially exactly when
their lifts close up and bound mod 2, so the kernel of rho consists of loops
that stay invisible in the cover's first homology. The group is
pi_1(S) / ker rho, of order 2^(2g + 2g'), and is never materialized: the
verifier needs rho and its kernel only, never a product in the group.
"""

from typing import NamedTuple

from .cover import CoverCW, ResourceLimitError, check_genus
from .words import (
    Word,
    canonical_class,
    check_length_bound,
    from_letters,
    inverse,
    is_trivial,
)

# Largest kernel search allowed: genus 3 at length 10 (193 260 half-words)
# peaks near 70 MB; genus 4 at length 10 (867 856) would take over 300 MB.
MAX_HALF_WORDS = 500_000


class GElement(NamedTuple):
    """Group element as a (deck vector, H1 class) pair of GF(2) bitmasks."""

    v: int
    h: int


class GroupContext:
    """Empty: rho and its callers take the CoverCW. It exists only because
    perfbench/tracing.py (CLASSES) and test_traced_layers_and_classes_resolve
    look the name up; ROADMAP item 8 removes it with them."""


def rho(cover: CoverCW, w: Word) -> GElement:
    """Image of a word, read from one walk of its lift from vertex 0.

    v is the vertex the lift ends at (the mod-2 abelianization) and h the
    lift's class closed up through the tree. A letter outside the genus
    raises the walk's ValueError.
    """
    h, v = cover.walk(w, 0)
    return GElement(v, h)


def in_kernel(cover: CoverCW, w: Word) -> bool:
    """Whether a word maps to the identity (lift closed and bounding mod 2)."""
    return rho(cover, w) == GElement(0, 0)


def longest_kernel_len(genus: int) -> int:
    """The longest kernel search whose half-word tables fit MAX_HALF_WORDS.

    A search to length L holds the 4g (4g - 1)^(k - 1) reduced words of
    each length k <= ceil(L / 2), a count known before any work starts.
    """
    check_genus(genus)
    total, k = 4 * genus, 0
    while total <= MAX_HALF_WORDS:
        k += 1
        total += 4 * genus * (4 * genus - 1) ** k
    return 2 * k


def check_search_budget(genus: int, max_len: int) -> None:
    """Reject a kernel search longer than longest_kernel_len(genus)."""
    check_length_bound(max_len, "kernel length")
    if max_len > longest_kernel_len(genus):
        raise ResourceLimitError(
            "kernel length %d needs more than %d half-words at genus %d"
            % (max_len, MAX_HALF_WORDS, genus)
        )


def search_kernel_elements(cover: CoverCW, max_len: int) -> list[Word]:
    """Find nontrivial kernel words up to a length bound.

    Meet in the middle: a cyclically reduced word of length L is u v^-1 with
    |u| = ceil(L/2), |v| = floor(L/2), and since edge classes are
    direction-free over GF(2) it maps to the identity exactly when
    walk(u, 0) == walk(v, 0). Half-words are bucketed by that pair, and of
    the colliding pairs the canonical representatives of their free
    conjugacy classes are kept when Dehn-nontrivial: u v^-1 is canonical
    when it is its own canonical_class.

    Returns:
        The kept words, by length and then in the letter order.
    """
    genus, walk = cover.genus, cover.walk
    check_search_budget(genus, max_len)
    letters = from_letters(x for k in range(1, 2 * genus + 1) for x in (k, -k))
    steps = [(x, inverse(x)) for x in letters]
    # tables[k] maps walk(u, 0) to the reduced words u of length k.
    tables = [{(0, 0): [""]}]
    for _ in range((max_len + 1) // 2):
        grown = {}
        for (h, end), words in tables[-1].items():
            for x, back in steps:
                step, stop = walk(x, end)
                grown.setdefault((h ^ step, stop), []).extend(
                    u + x for u in words if u[-1:] != back
                )
        tables.append(grown)
    hits: list[Word] = []
    for length in range(1, max_len + 1):
        found = []
        for key, us in tables[(length + 1) // 2].items():
            for v in tables[length // 2].get(key, ()):
                v_inv = inverse(v)
                for u in us:
                    # u v^-1 must be freely and cyclically reduced.
                    if v and (u[-1] == v[-1] or u[0] == v[0]):
                        continue
                    w = u + v_inv
                    if canonical_class(w) == w and not is_trivial(w, genus):
                        found.append(w)
        hits.extend(sorted(found))
    return hits


def image_rank(cover: CoverCW) -> dict:
    """Ranks of the v and h parts of rho's image, from one walk per word.

    Generator k maps to v = 1 << (k - 1), so the v parts span all 2g deck
    bits. Unit cycle word j (CoverCW.unit_cycle_words) walks from vertex 0
    back to 0 with class 1 << j, so the image holds every (0, h): rho is
    onto the extension group, v_rank is 2g and h_rank is h1_dim. Each of
    these 2g + h1_dim equalities is checked; a failure raises AssertionError.

    Returns:
        Dict with v_rank, h_rank, v_dim, h_dim.
    """
    v_dim, h_dim = 2 * cover.genus, cover.h1_dim
    for k, letter in enumerate(from_letters(range(1, v_dim + 1)), 1):
        if rho(cover, letter).v != 1 << (k - 1):
            raise AssertionError("generator %d does not map to deck bit %d" % (k, k - 1))
    for j, word in enumerate(cover.unit_cycle_words):
        if cover.walk(word, 0) != (1 << j, 0):
            raise AssertionError("unit cycle word %d does not have class 1 << %d" % (j, j))
    return {"v_rank": v_dim, "h_rank": h_dim, "v_dim": v_dim, "h_dim": h_dim}

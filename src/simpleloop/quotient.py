"""Finite 2-group quotient of a surface group via its mod-2 homology cover.

A word w maps to rho(w) = (v, h): v is its mod-2 abelianization (the vertex
its lift from vertex 0 reaches) and h is the GF(2) homology class of that
lift closed up through the spanning tree. Words act trivially exactly when
their lifts close up and bound mod 2, so the kernel of rho consists of loops
that stay invisible in the cover's first homology. The group is
pi_1(S) / ker rho, of order 2^(2g + 2g'), and is never materialized: the
product of two elements is the image of the product of representative
words.
"""

from typing import NamedTuple

from .cover import CoverCW, ResourceLimitError, check_genus
from .gf2 import Echelon
from .words import (
    Word,
    _key_string,
    canonical_class,
    check_length_bound,
    inverse,
    is_proper_power,
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
    """Arithmetic context for the quotient group of a surface group.

    Holds the cover, its genus and the identity; immutable after construction.
    """

    def __init__(self, cover: CoverCW):
        self.cover = cover
        self.genus = cover.genus
        self.identity = GElement(0, 0)


def rho(ctx: GroupContext, w: Word) -> GElement:
    """Image of a word, read from one walk of its lift from vertex 0.

    v is the vertex the lift ends at (the mod-2 abelianization) and h the
    lift's class closed up through the tree. Raises ValueError on a letter
    outside the genus.
    """
    try:
        h, v = ctx.cover.walk(w, 0)
    except KeyError as exc:
        raise ValueError("letter %s outside genus %d" % (exc.args[0], ctx.genus)) from None
    return GElement(v, h)


def representative(ctx: GroupContext, x: GElement) -> Word:
    """A word w with rho(ctx, w) == x.

    It spells the unit cycle word of each set bit of x.h, ascending, then
    tree_words[x.v]: unit cycle word j is a loop at vertex 0 of class
    1 << j, and tree edges add 0 to h.
    """
    units = ctx.cover.unit_cycle_words
    word = []
    for j in range(x.h.bit_length()):
        if x.h >> j & 1:
            word.extend(units[j])
    return tuple(word) + ctx.cover.tree_words[x.v]


def mul(ctx: GroupContext, x: GElement, y: GElement) -> GElement:
    """Product in the quotient group: rho of the representatives' product."""
    return rho(ctx, representative(ctx, x) + representative(ctx, y))


def inv(ctx: GroupContext, x: GElement) -> GElement:
    """Inverse in the quotient group: rho of the inverse representative."""
    return rho(ctx, inverse(representative(ctx, x)))


def in_kernel(ctx: GroupContext, w: Word) -> bool:
    """Whether a word maps to the identity (lift closed and bounding mod 2)."""
    return rho(ctx, w) == ctx.identity


def check_search_budget(genus: int, max_len: int) -> None:
    """Reject a kernel search whose half-word tables exceed MAX_HALF_WORDS.

    They hold the 4g (4g - 1)^(k - 1) reduced words of each length
    k <= ceil(max_len / 2), a count known before any work starts.
    """
    check_length_bound(max_len, "kernel length")
    check_genus(genus)
    total = 0
    for k in range((max_len + 1) // 2):
        total += 4 * genus * (4 * genus - 1) ** k
        if total > MAX_HALF_WORDS:
            raise ResourceLimitError(
                "kernel length %d needs more than %d half-words at genus %d"
                % (max_len, MAX_HALF_WORDS, genus)
            )


def search_kernel_elements(
    ctx: GroupContext, max_len: int
) -> list[tuple[Word, bool]]:
    """Find nontrivial kernel words up to a length bound.

    Meet in the middle: a cyclically reduced word of length L is u v^-1 with
    |u| = ceil(L/2), |v| = floor(L/2), and since edge classes are
    direction-free over GF(2) it maps to the identity exactly when
    walk(u, 0) == walk(v, 0). Half-words are bucketed by that pair, and of
    the colliding pairs the canonical representatives of their free
    conjugacy classes are kept when Dehn-nontrivial, each paired with its
    proper-power flag.

    Returns:
        List of (word, is_proper_power) pairs, by length and then in the
        canonical letter order.
    """
    check_search_budget(ctx.genus, max_len)
    genus, walk = ctx.genus, ctx.cover.walk
    letters = [x for k in range(1, 2 * genus + 1) for x in (k, -k)]
    # tables[k] maps walk(u, 0) to the reduced words u of length k.
    tables = [{(0, 0): [()]}]
    for _ in range((max_len + 1) // 2):
        grown = {}
        for (h, end), words in tables[-1].items():
            for x in letters:
                step, stop = walk((x,), end)
                grown.setdefault((h ^ step, stop), []).extend(
                    u + (x,) for u in words if not u or u[-1] != -x
                )
        tables.append(grown)
    hits: list[tuple[Word, bool]] = []
    for length in range(1, max_len + 1):
        found = []
        for key, us in tables[(length + 1) // 2].items():
            for v in tables[length // 2].get(key, ()):
                for u in us:
                    # u v^-1 must be freely and cyclically reduced.
                    if v and (u[-1] == v[-1] or u[0] == v[0]):
                        continue
                    w = u + inverse(v)
                    if canonical_class(w) == w and not is_trivial(w, genus):
                        found.append(w)
        found.sort(key=_key_string)
        hits.extend((w, is_proper_power(w)) for w in found)
    return hits


def image_rank(ctx: GroupContext) -> dict:
    """GF(2) ranks of the v and h parts of rho's image, one walk per word.

    The 2g generators give the v parts. Unit cycle word j
    (CoverCW.unit_cycle_words) is a loop at vertex 0 of class 1 << j, so
    the image holds every (0, h) and maps onto every v: rho is onto the
    extension group, v_rank is 2g and h_rank is h1_dim, from 2g + h1_dim
    walks.

    Returns:
        Dict with v_rank, h_rank, v_dim, h_dim.
    """
    v_span = Echelon()
    h_span = Echelon()
    for k in range(1, 2 * ctx.genus + 1):
        v_span.insert(rho(ctx, (k,)).v, 0)
    for word in ctx.cover.unit_cycle_words:
        h_span.insert(rho(ctx, word).h, 0)
    return {
        "v_rank": len(v_span.rows),
        "h_rank": len(h_span.rows),
        "v_dim": 2 * ctx.genus,
        "h_dim": ctx.cover.h1_dim,
    }

"""Slow reference paths shared by the tests.

The package reads H1 classes of lifted words only through ``CoverCW.walk``,
and builds its edge-class table by tree-cotree over the closed-form faces,
with no elimination. These helpers compute the same classes the long way,
by Gaussian elimination over full-width edge chains and by the group law,
so the tests can check the table, the walk and the deck-symmetry argument
of the lift lemma in ``verify_non_geometric`` against an independent path.
The package keeps no boundary matrices either: ``incidence`` and
``face_chains`` (the relator lifted from each vertex) state the cover's
chain complex in full, so the tests can check that it is one.

The package multiplies in G through representative words. The reference
law here states G as an extension of the deck group by H1 instead: the
deck action on H1 comes from translating full-width basis cycles, and the
h parts of a product are twisted by it and by a spanning-tree cocycle.

The twist BFS has references too: ``substitute_per_letter`` inverts an
image for every negative letter, and ``twist_bfs`` tries every twist on
every frontier class, reduces each image from scratch and takes its least
rotation naively (``naive_canonical_class``).
"""

import functools
import random

from simpleloop.curves import SimpleClass, root_word, standard_curves, twist_table
from simpleloop.gf2 import Echelon, GF2Matrix, QuotientMap
from simpleloop.quotient import GElement, inv, mul, rho
from simpleloop.words import (
    abelianization_mod2,
    cyclic_reduce,
    inverse,
    letter_order_key,
    random_reduced_word,
    surface_relator,
    word_to_str,
)


def tree_chains(cover) -> tuple[int, ...]:
    """Per vertex, the edge chain of the breadth-first tree path from 0.

    Grows the tree by breadth-first search, generators in index order, and
    records chains rather than words; the cover states the same tree in
    closed form.
    """
    chains = [0] * cover.n_vertices
    seen = [False] * cover.n_vertices
    seen[0] = True
    queue = [0]
    while queue:
        next_queue = []
        for v in queue:
            for k in range(1, 2 * cover.genus + 1):
                w = v ^ (1 << (k - 1))
                if not seen[w]:
                    seen[w] = True
                    chains[w] = chains[v] ^ (1 << cover.edge_index(v, k))
                    next_queue.append(w)
        queue = next_queue
    return tuple(chains)


def cycle_basis(cover) -> tuple[int, ...]:
    """One full-width fundamental cycle per non-tree edge, in edge order."""
    chains = tree_chains(cover)
    cycles = []
    for e in cover.nontree_edges:
        v, w = cover.edge_endpoints(e)
        cycles.append(chains[v] ^ (1 << e) ^ chains[w])
    return tuple(cycles)


def incidence(cover) -> GF2Matrix:
    """Vertex-by-edge boundary matrix: row v marks the edges that end at v."""
    rows = [0] * cover.n_vertices
    for e in range(cover.n_edges):
        v, w = cover.edge_endpoints(e)
        rows[v] |= 1 << e
        rows[w] |= 1 << e
    return GF2Matrix(cover.n_vertices, cover.n_edges, tuple(rows))


def face_chains(cover) -> tuple[int, ...]:
    """Per face v, the full-width edge chain of the relator lifted from v."""
    relator = surface_relator(cover.genus)
    return tuple(cover.lift(relator, v)[0] for v in range(cover.n_faces))


def full_quotient(cover) -> QuotientMap:
    """H1 quotient map over full-width edge chains.

    Eliminates the fundamental cycles against the lifted faces without
    contracting the tree or growing a cotree, so its coordinates check the
    cover's edge table. The cycles that ``unit_cycle_words`` lift to go
    first, so cycle j gets coordinates 1 << j only if they are independent
    modulo the faces: then both sides use the same basis.
    """
    units = [cover.lift(w, 0)[0] for w in cover.unit_cycle_words]
    first = set(units)
    cycles = units + [c for c in cycle_basis(cover) if c not in first]
    return QuotientMap(cycles, face_chains(cover))


def image_rank_by_group_law(ctx, n_samples: int = 500, seed: int = 0) -> dict:
    """Sampled lower bound on ``image_rank``, formed by the group law.

    Reports the rank of the v parts of the images of random words and the
    rank of the h parts of their squares and commutators, whose v parts are
    zero, multiplied by mul/inv rather than taken from Schreier words.
    """
    rng = random.Random(seed)
    v_span = Echelon()
    h_span = Echelon()
    elements = []
    for _ in range(n_samples):
        w = random_reduced_word(rng, ctx.genus, rng.randrange(1, 16))
        el = rho(ctx, w)
        elements.append(el)
        v_span.insert(el.v, 0)
    for _ in range(n_samples):
        x = elements[rng.randrange(len(elements))]
        y = elements[rng.randrange(len(elements))]
        square = mul(ctx, x, x)
        comm = mul(ctx, mul(ctx, x, y), inv(ctx, mul(ctx, y, x)))
        for el in (square, comm):
            if el.v == 0:
                h_span.insert(el.h, 0)
    return {
        "v_rank": len(v_span.rows),
        "h_rank": len(h_span.rows),
        "v_dim": 2 * ctx.genus,
        "h_dim": ctx.cover.h1_dim,
    }


def loop_class(cover, chain: int) -> int:
    """H1 coordinates of a closed edge chain (raises if not a cycle)."""
    if chain < 0 or chain >> cover.n_edges:
        raise ValueError("chain has bits outside the edge range")
    width = 2 * cover.genus
    classes = cover.edge_classes
    h = 0
    boundary = 0
    while chain:
        low = chain & -chain
        e = low.bit_length() - 1
        v, j = divmod(e, width)
        boundary ^= (1 << v) ^ (1 << (v ^ (1 << j)))
        h ^= classes[e]
        chain ^= low
    if boundary:
        raise ValueError("chain is not a cycle")
    return h


def translate_chain(cover, chain: int, u: int) -> int:
    """Image of an edge chain under the deck translation by u."""
    if u == 0:
        return chain
    width = 2 * cover.genus
    out = 0
    while chain:
        low = chain & -chain
        e = low.bit_length() - 1
        v, j = divmod(e, width)
        out |= 1 << ((v ^ u) * width + j)
        chain ^= low
    return out


def coords(quotient, vec: int) -> int:
    """Quotient coordinates of a cycle vector; rejects non-cycles."""
    rem, tag = quotient._echelon.reduce(vec)
    if rem:
        raise ValueError("vector is not in the cycle span")
    return tag


def basis_cycles(quotient) -> list[int]:
    """Representative cycles c_j with coords(quotient, c_j) == 1 << j."""
    rows = [(e, t) for e, t in quotient._echelon.rows.values() if t]
    rows.sort(key=lambda et: et[1].bit_length())
    basis: list[int] = []
    for vec, tag in rows:
        for k in range(tag.bit_length() - 1):
            if (tag >> k) & 1:
                vec ^= basis[k]
        basis.append(vec)
    return basis


@functools.cache
def _full_basis(cover) -> tuple[QuotientMap, list[int]]:
    quotient = full_quotient(cover)
    return quotient, basis_cycles(quotient)


@functools.cache
def deck_action(cover, u: int) -> tuple[int, ...]:
    """Matrix of the deck translation by u on H1, as H1-coordinate columns.

    Column j is the class of the translate by u of a full-width cycle of
    class 1 << j; apply it with ``deck_apply``. Memoized per (cover, u).
    """
    quotient, basis = _full_basis(cover)
    return tuple(coords(quotient, translate_chain(cover, c, u)) for c in basis)


def deck_apply(columns: tuple[int, ...], h: int) -> int:
    """Apply a deck-action matrix (tuple of columns) to an H1 vector."""
    out = 0
    while h:
        low = h & -h
        out ^= columns[low.bit_length() - 1]
        h ^= low
    return out


def cocycle(cover, v1: int, v2: int) -> int:
    """H1 class of the tree loop 0 -> v1 -> v1+v2 -> 0.

    Only the middle leg, the tree path to v2 translated to start at v1,
    leaves the spanning tree.
    """
    return cover.walk(cover.tree_words[v2], v1)[0]


def mul_by_deck_action(cover, x, y):
    """Product in G as an extension: h twisted by deck action and cocycle."""
    h = x.h ^ deck_apply(deck_action(cover, x.v), y.h) ^ cocycle(cover, x.v, y.v)
    return GElement(x.v ^ y.v, h)


def inv_by_deck_action(cover, x):
    """Inverse in G as an extension, the partner of ``mul_by_deck_action``."""
    h = deck_apply(deck_action(cover, x.v), x.h ^ cocycle(cover, x.v, x.v))
    return GElement(x.v, h)


def lemma_check_all_vertices(ctx, classes) -> tuple[int, int, list[dict]]:
    """The lift lemma with every lift of a separating class walked explicitly.

    Reads off the end vertex and closed-up H1 class of the lift from each of
    the 2^(2g) vertices instead of relying on deck symmetry. Returns the
    number of separating and of nonseparating classes, and the failures.
    """
    cover = ctx.cover
    failures = []
    n_sep = 0
    n_nonsep = 0
    for sc in classes:
        phi = abelianization_mod2(sc.cls, ctx.genus)
        if sc.separating:
            n_sep += 1
            if phi != 0:
                failures.append(
                    {"word": word_to_str(sc.cls), "reason": "separating class with nonzero mod-2 image"}
                )
                continue
            for v in range(cover.n_vertices):
                h, end = cover.walk(sc.cls, v)
                if end != v:
                    failures.append(
                        {"word": word_to_str(sc.cls), "reason": "lift from vertex %d not closed" % v}
                    )
                elif h == 0:
                    failures.append(
                        {"word": word_to_str(sc.cls), "reason": "lift from vertex %d separates the cover" % v}
                    )
        else:
            n_nonsep += 1
            if phi == 0:
                failures.append(
                    {"word": word_to_str(sc.cls), "reason": "nonseparating class with zero mod-2 image"}
                )
    return n_sep, n_nonsep, failures


def substitute_per_letter(w, images):
    """``substitute`` looking up and inverting the image of each letter."""
    out = []
    for x in w:
        img = images.get(abs(x), (abs(x),))
        if x < 0:
            img = inverse(img)
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def naive_canonical_class(w):
    """``canonical_class`` as the least of every rotation of w and of w^-1.

    Words are compared as lists of ``letter_order_key`` values, so this
    shares no rotation code with the package's key strings.
    """
    w = cyclic_reduce(w)
    if not w:
        raise ValueError("the trivial word has no essential class")
    rotations = []
    for side in (w, inverse(w)):
        keys = [letter_order_key(x) for x in side]
        rotations += [(keys[i:] + keys[:i], side[i:] + side[:i]) for i in range(len(w))]
    return min(rotations)[1]


def twist_bfs(genus, depth, max_len):
    """``generate_simple_classes`` applying every twist, undo twists included.

    Each image comes from ``substitute_per_letter`` and is canonicalised by
    ``naive_canonical_class``, which reduces it again.
    """
    table = twist_table(genus)
    names = sorted(table)
    seen = {}
    order = []
    for sc in standard_curves(genus):
        cls = naive_canonical_class(root_word(genus, sc.root))
        if cls not in seen:
            seen[cls] = sc._replace(cls=cls)
            order.append(seen[cls])
    frontier = list(order)
    for _ in range(depth):
        next_frontier = []
        for sc in frontier:
            for name in names:
                cls = naive_canonical_class(substitute_per_letter(sc.cls, table[name]))
                if len(cls) > max_len or cls in seen:
                    continue
                new = SimpleClass(
                    cls=cls,
                    root=sc.root,
                    twists=sc.twists + (name,),
                    separating=abelianization_mod2(cls, genus) == 0,
                )
                seen[cls] = new
                order.append(new)
                next_frontier.append(new)
        frontier = next_frontier
    return order

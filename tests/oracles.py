"""Slow reference paths shared by the tests.

The package reads H1 classes of lifted words only through ``CoverCW.walk``,
and builds the classes of its step table by tree-cotree over the
closed-form faces, with no elimination. These helpers compute the same
classes the long way, by Gaussian elimination over full-width edge chains
and by the group law, so the tests can check the table, the walk and the
deck-symmetry argument of the lift lemma in ``verify_non_geometric``
against an independent path. ``edge_classes`` is the per-edge reference:
each edge's class from the GF(2) quotient, read off neither the step table
nor ``CoverCW.walk``.
``abelianization_mod2`` reads a word's mod-2 class off its letters, the
reference for the vertex a walk ends at.
The package keeps no boundary matrices either: ``incidence`` and
``face_chains`` (the relator lifted from each vertex) state the cover's
chain complex in full, so the tests can check that it is one. The cover
keeps its edge numbering and spanning tree to itself; ``edge_index``,
``edge_endpoints``, ``nontree_edges`` and ``tree_words`` state them here in
closed form, so a wrong numbering in the build fails the tests instead of
being shared by them. ``lift`` gives a word's full-width edge chain, one
``edge_index`` per letter, and never reads the step table that
``CoverCW.walk`` follows; the face chains, the cycles of ``full_quotient``
and the chain tests of the walk all come from it.

The package never multiplies in G; it needs only rho and its kernel. The
group law here states G as an extension of the deck group by H1: the deck
action on H1 comes from translating full-width basis cycles, and the h
parts of a product are twisted by it and by a spanning-tree cocycle.

``random_reduced_word`` draws the random words of the property tests.

``census(g, L)`` counts the short kernel words with no code of the
package: free conjugacy classes of words in the free group whose lift to
the (Z/2)^k cube of the generators they use runs every edge an even number
of times, found by meeting in the middle on signed-integer tuples.

The package spells a word as a string, one character per letter. The word
layer keeps its earlier spelling here as a reference: a word as a tuple of
signed generator indices (+k for generator k, -k for its inverse), with
``tuple_free_reduce``, ``tuple_cyclic_reduce``, ``tuple_dehn_normal_form``
and ``naive_canonical_class`` (every rotation compared by
``letter_order_key``). ``to_letters`` reads a string word back as such a
tuple, with its own letter arithmetic.

The twist BFS has references too: ``substitute_per_letter`` inverts an
image for every negative letter, and ``twist_bfs`` tries every twist on
every frontier class, reduces each image from scratch and takes its least
rotation naively. ``literal_power`` finds a proper power by trying every
period that divides the length.
"""

import functools
import math
import random

from simpleloop.curves import SimpleClass, root_word, standard_curves, twist_table
from simpleloop.gf2 import Echelon, GF2Matrix, QuotientMap
from simpleloop.quotient import GElement, rho
from simpleloop.words import (
    check_letters,
    from_letters,
    surface_relator,
    word_to_str,
)


def to_letters(w: str) -> tuple[int, ...]:
    """Signed generator indices of a word: character 0x40 + 2(k - 1) is
    generator k, the next character its inverse."""
    out = []
    for c in w:
        code = ord(c) - 0x40
        if code < 0:
            raise ValueError("%r is not a letter" % c)
        out.append(-(code // 2 + 1) if code % 2 else code // 2 + 1)
    return tuple(out)


def abelianization_mod2(w: str, genus: int) -> int:
    """Class in H_1(S; Z/2) = (Z/2)^{2g} as a bitmask, bit k-1 for generator k."""
    check_letters(w, genus)
    v = 0
    for x in to_letters(w):
        v ^= 1 << (abs(x) - 1)
    return v


def letter_order_key(x: int) -> int:
    """Total order a1 < a1^-1 < b1 < b1^-1 < a2 < ... as an integer key."""
    return 2 * (abs(x) - 1) + (1 if x < 0 else 0)


def random_letters(rng: random.Random, genus: int, length: int) -> tuple[int, ...]:
    """Uniform-ish freely reduced tuple word of exactly the given length."""
    letters = [k for k in range(1, 2 * genus + 1)] + [-k for k in range(1, 2 * genus + 1)]
    out: list[int] = []
    while len(out) < length:
        x = rng.choice(letters)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return tuple(out)


def random_reduced_word(rng: random.Random, genus: int, length: int) -> str:
    """``random_letters`` spelled as a word."""
    return from_letters(random_letters(rng, genus, length))


def tuple_inverse(w: tuple) -> tuple:
    return tuple(-x for x in reversed(w))


def tuple_free_reduce(w) -> tuple:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for x in w:
        if x == 0:
            raise ValueError("zero is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def tuple_cyclic_reduce(w) -> tuple:
    """Free reduction, then cancellation across the seam."""
    w = tuple_free_reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def tuple_surface_relator(genus: int) -> tuple:
    return tuple(x for a in range(1, 2 * genus, 2) for x in (a, a + 1, -a, -a - 1))


@functools.cache
def _tuple_dehn_table(genus: int) -> dict:
    r = tuple_surface_relator(genus)
    n = len(r)
    table = {}
    for base in (r, tuple_inverse(r)):
        for rot in range(n):
            rr = base[rot:] + base[:rot]
            for length in range(2 * genus + 1, n + 1):
                table[rr[:length]] = tuple_inverse(rr[length:])
    return table


def tuple_dehn_normal_form(w, genus: int) -> tuple:
    """Dehn's algorithm on tuple words: replace the first, longest piece of
    more than half a relator rotation, until none is left."""
    table = _tuple_dehn_table(genus)
    w = tuple_cyclic_reduce(w)
    changed = True
    while changed and w:
        changed = False
        n = len(w)
        doubled = w + w
        for i in range(n):
            if changed:
                break
            for length in range(min(4 * genus, n), 2 * genus, -1):
                rep = table.get(doubled[i:i + length])
                if rep is not None:
                    w = tuple_cyclic_reduce(rep + doubled[i + length:i + n])
                    changed = True
                    break
    return w


@functools.cache
def _cube_halves(k: int, m: int) -> dict:
    """Reduced words of length m over generators 1..k, as signed-integer
    tuples, keyed by the end vertex and the odd-edge bitmask of their lift
    from 0 in the (Z/2)^k cube: generator j from v runs edge (v, j), and
    its inverse from v runs edge (v ^ bit, j) backwards."""
    if m == 0:
        return {(0, 0): [()]}
    grown = {}
    for (v, odd), words in _cube_halves(k, m - 1).items():
        for x in (*range(1, k + 1), *range(-k, 0)):
            bit = 1 << (abs(x) - 1)
            edge = (v if x > 0 else v ^ bit) * k + abs(x) - 1
            grown.setdefault((v ^ bit, odd ^ (1 << edge)), []).extend(
                w + (x,) for w in words if not w or w[-1] != -x
            )
    return grown


@functools.cache
def even_cube_classes(k: int, n: int) -> int:
    """Free conjugacy classes, up to inversion, of cyclically reduced words
    of length n that use each of generators 1..k and whose lift from 0 runs
    every edge of the (Z/2)^k cube an even number of times.

    A word u v^-1 (|u| = ceil(n/2), |v| = floor(n/2)) has such a lift exactly
    when u and v share their ``_cube_halves`` key.
    """
    classes = set()
    halves = _cube_halves(k, n // 2)
    for key, us in _cube_halves(k, (n + 1) // 2).items():
        for v in halves.get(key, ()):
            for u in us:
                if v and (u[-1] == v[-1] or u[0] == v[0]):
                    continue
                w = u + tuple_inverse(v)
                if len({abs(x) for x in w}) == k:
                    keys = []
                    for side in (w, tuple_inverse(w)):
                        order = [letter_order_key(x) for x in side]
                        keys += [tuple(order[i:] + order[:i]) for i in range(n)]
                    classes.add(min(keys))
    return len(classes)


def census(genus: int, max_len: int) -> int:
    """Short kernel words by count: the sum over k of C(2g, k) N_k(L).

    N_k(L) is ``even_cube_classes(k, n)`` summed over n <= L: each class
    uses exactly k of the 2g generators, which the binomial chooses. A
    generator used once runs one edge once, so k <= L / 2.
    """
    return sum(
        math.comb(2 * genus, k) * sum(even_cube_classes(k, n) for n in range(1, max_len + 1))
        for k in range(1, min(2 * genus, max_len // 2) + 1)
    )


def edge_index(cover, v: int, k: int) -> int:
    """Index of edge (v, k), the lift of generator k (1-based) from vertex v."""
    return v * 2 * cover.genus + k - 1


def edge_endpoints(cover, e: int) -> tuple[int, int]:
    """Start and end vertex of edge e: the lift of generator k flips bit k - 1."""
    v, j = divmod(e, 2 * cover.genus)
    return v, v ^ (1 << j)


@functools.cache
def tree_words(cover) -> tuple[str, ...]:
    """Per vertex v, the tree path from 0: the generators of the set bits of
    v, ascending."""
    n = 2 * cover.genus
    return tuple(
        from_letters(k for k in range(1, n + 1) if v >> (k - 1) & 1)
        for v in range(cover.n_vertices)
    )


@functools.cache
def nontree_edges(cover) -> tuple[int, ...]:
    """Edges off the spanning tree of ``tree_words``, ascending: edge (u, k)
    with u >= 2^(k - 1), as the tree edge into v is v's top letter."""
    return tuple(
        edge_index(cover, u, k)
        for u in range(cover.n_vertices)
        for k in range(1, 2 * cover.genus + 1)
        if u >> (k - 1)
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
                    chains[w] = chains[v] ^ (1 << edge_index(cover, v, k))
                    next_queue.append(w)
        queue = next_queue
    return tuple(chains)


def cycle_basis(cover) -> tuple[int, ...]:
    """One full-width fundamental cycle per non-tree edge, in edge order."""
    chains = tree_chains(cover)
    cycles = []
    for e in nontree_edges(cover):
        v, w = edge_endpoints(cover, e)
        cycles.append(chains[v] ^ (1 << e) ^ chains[w])
    return tuple(cycles)


def incidence(cover) -> GF2Matrix:
    """Vertex-by-edge boundary matrix: row v marks the edges that end at v."""
    rows = [0] * cover.n_vertices
    for e in range(cover.n_edges):
        v, w = edge_endpoints(cover, e)
        rows[v] |= 1 << e
        rows[w] |= 1 << e
    return GF2Matrix(cover.n_vertices, cover.n_edges, tuple(rows))


def lift(cover, word: str, start: int) -> tuple[int, int]:
    """Edge chain and end vertex of a word's lift from a start vertex.

    Generator k from v runs along edge (v, k) to v ^ bit, and its inverse
    from v runs the same generator's edge from v ^ bit backwards, also to
    v ^ bit. The chain is a bitmask over edges, each taken mod 2.
    """
    chain, v = 0, start
    for x in to_letters(word):
        k = abs(x)
        bit = 1 << (k - 1)
        chain ^= 1 << edge_index(cover, v if x > 0 else v ^ bit, k)
        v ^= bit
    return chain, v


def face_chains(cover) -> tuple[int, ...]:
    """Per face v, the full-width edge chain of the relator lifted from v."""
    relator = surface_relator(cover.genus)
    return tuple(lift(cover, relator, v)[0] for v in range(cover.n_faces))


def full_quotient(cover) -> QuotientMap:
    """H1 quotient map over full-width edge chains.

    Eliminates the fundamental cycles against the lifted faces without
    contracting the tree or growing a cotree, so its coordinates check the
    cover's step table. The cycles that ``unit_cycle_words`` lift to go
    first, so cycle j gets coordinates 1 << j only if they are independent
    modulo the faces: then both sides use the same basis.
    """
    units = [lift(cover, w, 0)[0] for w in cover.unit_cycle_words]
    first = set(units)
    cycles = units + [c for c in cycle_basis(cover) if c not in first]
    return QuotientMap(cycles, face_chains(cover))


@functools.cache
def edge_classes(cover) -> tuple[int, ...]:
    """Per edge, its H1 coordinates from the GF(2) quotient: 0 on a tree
    edge, the coordinates of its fundamental cycle on a non-tree edge."""
    quotient = full_quotient(cover)
    classes = [0] * cover.n_edges
    for e, cycle in zip(nontree_edges(cover), cycle_basis(cover)):
        classes[e] = coords(quotient, cycle)
    return tuple(classes)


def image_rank_by_group_law(ctx, n_samples: int = 500, seed: int = 0) -> dict:
    """Sampled lower bound on ``image_rank``, formed by the group law.

    Reports the rank of the v parts of the images of random words and the
    rank of the h parts of their squares and commutators, whose v parts are
    zero, formed by the deck-action law (``mul_by_deck_action``,
    ``inv_by_deck_action``) rather than taken from Schreier words.
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
    mul = functools.partial(mul_by_deck_action, ctx.cover)
    for _ in range(n_samples):
        x = elements[rng.randrange(len(elements))]
        y = elements[rng.randrange(len(elements))]
        square = mul(x, x)
        comm = mul(mul(x, y), inv_by_deck_action(ctx.cover, mul(y, x)))
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
    classes = edge_classes(cover)
    h = 0
    boundary = 0
    while chain:
        low = chain & -chain
        e = low.bit_length() - 1
        v, w = edge_endpoints(cover, e)
        boundary ^= (1 << v) ^ (1 << w)
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
        # edge_index(cover, v ^ u, j + 1), inlined in this hot loop
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
    return cover.walk(tree_words(cover)[v2], v1)[0]


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
    """``substitute`` looking up and inverting the image of each letter, on
    tuple words."""
    images = {k: to_letters(img) for k, img in images.items()}
    out = []
    for x in to_letters(w):
        img = images.get(abs(x), (abs(x),))
        if x < 0:
            img = tuple_inverse(img)
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return from_letters(out)


def naive_canonical_class(w):
    """``canonical_class`` as the least of every rotation of w and of w^-1.

    Words are compared as lists of ``letter_order_key`` values of their
    tuple spelling, so this shares no rotation code with the package.
    """
    w = tuple_cyclic_reduce(to_letters(w))
    if not w:
        raise ValueError("the trivial word has no essential class")
    rotations = []
    for side in (w, tuple_inverse(w)):
        keys = [letter_order_key(x) for x in side]
        rotations += [(keys[i:] + keys[:i], side[i:] + side[:i]) for i in range(len(w))]
    return from_letters(min(rotations)[1])


def literal_power(w) -> bool:
    """``is_proper_power`` by trying each period d < n that divides n."""
    v = tuple_cyclic_reduce(to_letters(w))
    n = len(v)
    return any(
        n % d == 0 and all(v[i] == v[i % d] for i in range(d, n))
        for d in range(1, n // 2 + 1)
    )


def twist_bfs(genus, depth, max_len):
    """``generate_simple_classes`` applying every twist to every class.

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

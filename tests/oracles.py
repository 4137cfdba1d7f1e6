"""Chain-level H1 oracles shared by the tests.

The package reads H1 classes of lifted words only through ``CoverCW.walk``.
These helpers compute the same classes the long way, from explicit edge
chains, so the tests can check the walk and the deck-symmetry argument of
``lemma_check`` against an independent path.
"""

from simpleloop.curves import LemmaReport
from simpleloop.words import abelianization_mod2, word_to_str


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


def lemma_check_all_vertices(ctx, classes) -> LemmaReport:
    """``lemma_check`` with every lift of a separating class walked explicitly.

    Reads off the end vertex and closed-up H1 class of the lift from each of
    the 2^(2g) vertices instead of relying on deck symmetry.
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
    return LemmaReport(
        genus=ctx.genus,
        n_separating=n_sep,
        n_nonseparating=n_nonsep,
        lifts_per_class=cover.n_vertices,
        failures=failures,
    )

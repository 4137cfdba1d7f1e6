"""Manifold recipes realizing a finitely presented group in dimension >= 4.

The construction is bookkeeping, not geometry: start from a connected sum of
one sphere and one handle (sphere-times-circle) per generator, whose
fundamental group is free on the generators, then perform one surgery per
relator (remove a thickened loop spelling the relator, glue a thickened
sphere back in), which kills exactly that relator. In dimension at least 4
the surgery loops can be embedded disjointly and unknotted, so the steps
compose and the resulting fundamental group is the presented group. The
recipe records the steps and that justification; it never claims a
homeomorphism type.
"""

from typing import NamedTuple

from .cover import check_genus, cover_genus, group_order_log2
from .words import Word, free_reduce

DIMENSION_NOTE = "surgery loops embed disjointly and unknot in dimension >= 4"


class Presentation(NamedTuple("Presentation", [("generators", tuple), ("relators", tuple)])):
    """A finite group presentation over named generators.

    Relators are words over the generators encoded as tuples of nonzero
    ints: letter +k means generator number k (1-based), -k its inverse.
    Relators are freely reduced at construction.
    """

    __slots__ = ()

    def __new__(cls, generators: tuple[str, ...], relators: tuple[Word, ...]):
        seen = set()
        for name in generators:
            if not name or not name[0].islower():
                raise ValueError("generator name %r must start lowercase" % (name,))
            if name in seen:
                raise ValueError("duplicate generator name %r" % (name,))
            seen.add(name)
        reduced = []
        for rel in relators:
            for x in rel:
                if x == 0 or abs(x) > len(generators):
                    raise ValueError("relator letter %d out of range" % x)
            reduced.append(free_reduce(rel))
        return super().__new__(cls, generators, tuple(reduced))

    def word_str(self, w: Word) -> str:
        parts = []
        for x in w:
            name = self.generators[abs(x) - 1]
            parts.append(name if x > 0 else name[0].upper() + name[1:])
        return " ".join(parts)

    def parse_word(self, text: str) -> Word:
        w = []
        for token in text.split():
            name = token[0].lower() + token[1:]
            if name not in self.generators:
                raise ValueError("unknown generator %r in word" % token)
            k = self.generators.index(name) + 1
            w.append(k if token[0].islower() else -k)
        return free_reduce(tuple(w))


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation file: generator names, then one relator per line."""
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty presentation input")
    pres = Presentation(generators=tuple(lines[0].split()), relators=())
    relators = tuple(pres.parse_word(line) for line in lines[1:])
    return Presentation(generators=pres.generators, relators=relators)


def free_product(p1: Presentation, p2: Presentation) -> Presentation:
    """Free product; second factor's colliding names are renamed."""
    used = set(p1.generators)
    renamed = []
    for name in p2.generators:
        fresh = name
        suffix = 2
        while fresh in used:
            fresh = "%s%d" % (name, suffix)
            suffix += 1
        used.add(fresh)
        renamed.append(fresh)
    shift = len(p1.generators)

    def shift_word(w: Word) -> Word:
        return tuple(x + shift if x > 0 else x - shift for x in w)

    return Presentation(
        generators=p1.generators + tuple(renamed),
        relators=p1.relators + tuple(shift_word(r) for r in p2.relators),
    )


class ManifoldRecipe(NamedTuple):
    """A symbolic construction plan for a manifold with prescribed group."""

    dimension: int
    base: dict
    steps: tuple
    resulting_group: Presentation
    notes: tuple = ()


def realize(p: Presentation, n: int) -> ManifoldRecipe:
    """Recipe for an n-manifold with fundamental group presented by p."""
    if n < 4:
        raise ValueError(
            "ambient dimension must be at least 4: " + DIMENSION_NOTE
        )
    k = len(p.generators)
    base = {
        "summands": ["S^%d" % n] + ["S^%d x S^1" % (n - 1)] * k,
        "group_after_base": "free on %d generators" % k,
    }
    steps = tuple(
        {
            "surgery": i + 1,
            "relator": p.word_str(rel),
            "remove": "S^1 x D^%d" % (n - 1),
            "glue": "S^%d x D^2" % (n - 2),
            "justification": DIMENSION_NOTE,
        }
        for i, rel in enumerate(p.relators)
    )
    return ManifoldRecipe(
        dimension=n,
        base=base,
        steps=steps,
        resulting_group=p,
        notes=("recipe certifies group accounting only, not topology",),
    )


def recipe_for_G(g: int, n: int) -> dict:
    """Symbolic recipe template for a manifold with the quotient group.

    No finite presentation of the group is computed, so the record is a
    template over any presentation, annotated with the cover genus and group
    order from their closed forms (no cover is built), and the 2-sidedness
    note (the target's orientation character is trivial).
    """
    if n < 4:
        raise ValueError(
            "ambient dimension must be at least 4: " + DIMENSION_NOTE
        )
    check_genus(g)
    return {
        "genus": g,
        "dimension": n,
        "cover_genus": cover_genus(g),
        "group_order_log2": group_order_log2(g),
        "template": (
            "for any presentation of the quotient group with k generators "
            "and l relators: start from S^%d connected-sum k copies of "
            "S^%d x S^1, then perform l relator surgeries" % (n, n - 1)
        ),
        "two_sidedness_note": (
            "the target's orientation character is trivial, so the surface "
            "map is 2-sided"
        ),
    }

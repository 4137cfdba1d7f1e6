"""Manifold recipes realizing a finitely presented group in dimension >= 4.

The construction is bookkeeping, not geometry: start from a connected sum of
one sphere and one handle (sphere-times-circle) per generator, whose
fundamental group is free on the generators, then perform one surgery per
relator (remove a thickened loop spelling the relator, glue a thickened
sphere back in), which kills exactly that relator. In dimension at least 4
the surgery loops can be embedded disjointly and unknotted, so the steps
compose and the resulting fundamental group is the presented group. The
recipe records the steps and that justification; it never claims a
homeomorphism type. Relators are words in the letter encoding of
simpleloop.words, over generator indices 1 to the number of generators.
"""

from collections.abc import Iterable
from typing import NamedTuple

from .cover import check_genus, cover_genus, group_order_log2
from .words import Word, free_reduce, from_letters, letter_index

DIMENSION_NOTE = "surgery loops embed disjointly and unknot in dimension >= 4"


def check_dimension(n: int) -> None:
    """Reject an ambient dimension below 4, where DIMENSION_NOTE does not hold."""
    if n < 4:
        raise ValueError("ambient dimension must be at least 4: " + DIMENSION_NOTE)


def generator_letters(w: Word, n: int) -> list[int]:
    """Signed generator indices of w's letters; one of no generator 1..n raises ValueError."""
    letters = list(map(letter_index, w))
    for x in letters:
        if abs(x) > n:
            raise ValueError("unknown generator %d" % abs(x))
    return letters


class Presentation(NamedTuple("Presentation", [("generators", tuple), ("relators", tuple)])):
    """A finite group presentation over named generators.

    Relators are words (simpleloop.words) whose generator k is the k-th
    name (1-based), given as any iterable, which is read once the names are
    checked. Relators are freely reduced at construction.
    """

    __slots__ = ()

    def __new__(cls, generators: tuple[str, ...], relators: Iterable[Word]):
        seen = set()
        for name in generators:
            if not name or not name[0].islower():
                raise ValueError("generator name %r must start lowercase" % (name,))
            # word_str joins names with spaces, and parse_word splits at them.
            if any(c.isspace() for c in name):
                raise ValueError("generator name %r contains whitespace" % (name,))
            # parse_word must read word_str's inverse spelling back.
            inverse = name[0].upper() + name[1:]
            if inverse[0].islower() or inverse[0].lower() + inverse[1:] != name:
                raise ValueError("generator name %r has no uppercase inverse spelling" % (name,))
            if name in seen:
                raise ValueError("duplicate generator name %r" % (name,))
            seen.add(name)
        reduced = []
        for rel in relators:
            generator_letters(rel, len(generators))
            reduced.append(free_reduce(rel))
        return super().__new__(cls, generators, tuple(reduced))

    def word_str(self, w: Word) -> str:
        parts = []
        for x in map(letter_index, w):
            name = self.generators[abs(x) - 1]
            parts.append(name if x > 0 else name[0].upper() + name[1:])
        return " ".join(parts)

    def parse_word(self, text: str) -> Word:
        return _parse_word(self.generators, text)


def _parse_word(generators: tuple[str, ...], text: str) -> Word:
    """The word spelled by names of the generators, an uppercase first letter
    meaning the inverse, freely reduced."""
    letters = []
    for token in text.split():
        name = token[0].lower() + token[1:]
        if name not in generators:
            raise ValueError("unknown generator %r in word" % token)
        k = generators.index(name) + 1
        letters.append(k if token[0].islower() else -k)
    return free_reduce(from_letters(letters))


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation file: generator names, then one relator per line."""
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty presentation input")
    generators = tuple(lines[0].split())
    # Presentation reads the relators after its name checks, so a bad name
    # is reported before a bad relator line.
    return Presentation(generators, (_parse_word(generators, line) for line in lines[1:]))


class ManifoldRecipe(NamedTuple):
    """A symbolic construction plan for a manifold with prescribed group."""

    dimension: int
    base: dict
    steps: tuple
    resulting_group: Presentation
    notes: tuple = ()


def recipe_for_presentation(p: Presentation, n: int) -> ManifoldRecipe:
    """Recipe for an n-manifold with fundamental group presented by p."""
    check_dimension(n)
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
    check_dimension(n)
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

"""Torus counterexample in dimension 3 and the two-sidedness character test.

The inclusion of a torus into the product of the projective plane with a
circle induces the map (p, q) -> (p mod 2, q) on fundamental groups. Its
kernel is the set of classes (2k, 0), none of which is primitive, so none is
a simple closed curve: the kernel is non-geometric, exhaustively checkable
on any finite window. Sidedness of a map between manifolds is decided by
comparing orientation characters: the map is 2-sided exactly when the source
character equals the target character composed with the induced map.
"""

import math
from typing import NamedTuple

from .cover import CoverCW
from .quotient import in_kernel
from .realize import Presentation, check_dimension, generator_letters
from .words import Word, from_letters, gen_name, substitute, surface_relator


class TorusClass(NamedTuple):
    """A class (p, q) in the fundamental group Z x Z of the torus."""

    p: int
    q: int


def iota_star(c: TorusClass) -> tuple[int, int]:
    """Image of a torus class in Z2 x Z under the inclusion-induced map."""
    return (c.p % 2, c.q)


def is_simple_torus(c: TorusClass) -> bool:
    """Whether a nonzero torus class is a simple closed curve (primitive)."""
    if c.p == 0 and c.q == 0:
        raise ValueError("the zero class is not an essential curve")
    return math.gcd(abs(c.p), abs(c.q)) == 1


def torus_kernel_scan(bound: int) -> dict:
    """Scan all classes with |p|, |q| <= bound for simple kernel elements."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    kernel = []
    simple_in_kernel = []
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if p == 0 and q == 0:
                continue
            c = TorusClass(p, q)
            if iota_star(c) == (0, 0):
                kernel.append((p, q))
                if is_simple_torus(c):
                    simple_in_kernel.append((p, q))
    return {
        "bound": bound,
        "kernel_classes": kernel,
        "simple_in_kernel": simple_in_kernel,
        "non_geometric": not simple_in_kernel,
    }


class OrientationCharacter(NamedTuple("OrientationCharacter", [("values", tuple)])):
    """A homomorphism to Z2: values[k - 1] is its value on generator k."""

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]):
        if not set(values) <= {0, 1}:
            raise ValueError("character values must be 0 or 1")
        return super().__new__(cls, values)

    def on_word(self, word: Word) -> int:
        """Value on a word; a letter of no generator 1..len(values) raises ValueError."""
        return sum(self.values[abs(x) - 1] for x in generator_letters(word, len(self.values))) % 2


def _generators(n: int) -> dict[int, Word]:
    """Images sending each of generators 1..n to itself."""
    return dict(enumerate(from_letters(range(1, n + 1)), 1))


def _surface_group(genus: int) -> Presentation:
    names = tuple(gen_name(k) for k in range(1, 2 * genus + 1))
    return Presentation(names, (surface_relator(genus),))


def z2xz_is_trivial(word: Word) -> bool:
    """Word problem for Z2 x Z with generators x = 1 (order 2) and y = 2."""
    letters = generator_letters(word, 2)
    return (letters.count(1) + letters.count(-1)) % 2 == 0 and letters.count(2) == letters.count(-2)


def sidedness_report(
    source: Presentation,
    source_char: OrientationCharacter,
    target_char: OrientationCharacter,
    images: dict[int, Word],
    target_is_trivial=None,
) -> dict:
    """Decide 2-sidedness and report the checks performed.

    The map is 2-sided when the source character equals the target character
    composed with the generator images (source generator index to target
    word). The source relators certify well-definedness: the source character
    and the characters of relator images must vanish, and relator images
    must be trivial in the target whenever a target word problem is supplied
    (otherwise a note records that the check was skipped).
    """
    n = len(source.generators)
    if set(images) != set(range(1, n + 1)):
        raise ValueError("images must map each source generator 1..%d" % n)
    notes = []
    for rel in source.relators:
        if source_char.on_word(rel) != 0:
            raise ValueError("source character does not vanish on a relator")
        image = substitute(rel, images)
        if target_char.on_word(image) != 0:
            raise ValueError("relator image has nonzero target character")
        if target_is_trivial is None:
            notes.append(
                "target word problem unavailable; relator image triviality "
                "not checked"
            )
        elif not target_is_trivial(image):
            raise ValueError("relator image is nontrivial in the target")
    checks = {
        name: source_char.on_word(from_letters((k,))) == target_char.on_word(images[k])
        for k, name in enumerate(source.generators, 1)
    }
    return {
        "two_sided": all(checks.values()),
        "generator_checks": checks,
        "notes": notes,
    }


def torus_inclusion_sidedness() -> dict:
    """Sidedness of the torus inside the projective-plane-times-circle target."""
    report = sidedness_report(
        Presentation(("a", "b"), (from_letters((1, 2, -1, -2)),)),
        OrientationCharacter((0, 0)),
        OrientationCharacter((1, 0)),
        _generators(2),
        z2xz_is_trivial,
    )
    report["name"] = "torus in projective-plane times circle"
    return report


def main_construction_sidedness(genus: int = 2) -> dict:
    """Sidedness of the surface map into the constructed target manifold.

    Both orientation characters are trivial (orientable surface, orientable
    target), so the map is 2-sided whatever the generator images are. The
    target's word problem is G's, in_kernel, which checks the relator image.
    """
    cover = CoverCW(genus)
    n = 2 * genus
    report = sidedness_report(
        _surface_group(genus),
        OrientationCharacter((0,) * n),
        OrientationCharacter((0,) * n),
        _generators(n),
        lambda w: in_kernel(cover, w),
    )
    report["name"] = "surface into the realized target (genus %d)" % genus
    return report


def free_factor_sidedness() -> dict:
    """Sidedness of a map avoiding the order-2 free factor of the target.

    The target's extra order-2 free factor, generator 5, carries the whole
    orientation character; images that avoid it satisfy the character
    equation, so the map is 2-sided though the target is non-orientable.
    """
    report = sidedness_report(
        _surface_group(2),
        OrientationCharacter((0, 0, 0, 0)),
        OrientationCharacter((0, 0, 0, 0, 1)),
        _generators(4),
    )
    report["name"] = "surface avoiding the order-2 free factor"
    return report


def extend_to_dimension(n: int) -> dict:
    """The torus demo with the target thickened to ambient dimension n.

    For n at least 5 the extra factor is simply connected, the fundamental
    group is unchanged and the torus kernel scan applies verbatim. Dimension
    4 adds a circle factor to the fundamental group; the record's warning
    says why the kernel of the induced map is unchanged all the same.
    """
    check_dimension(n)
    record = {
        "dimension": n,
        "pi1_unchanged": n >= 5,
    }
    if n == 4:
        record["warning"] = (
            "the circle factor in dimension 4 adds a Z factor to pi1, but f lands in "
            "M x {pt} and pi1(M) is a retract of pi1(M x S^1), so ker f_* is unchanged"
        )
    return record

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
from dataclasses import dataclass

from .cover import check_genus


@dataclass(frozen=True)
class TorusClass:
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


def kernel_is_non_geometric_torus(bound: int) -> bool:
    """True when no class in the scan window is both simple and in the kernel."""
    return torus_kernel_scan(bound)["non_geometric"]


def _letter_name(letter: str) -> str:
    """Base generator name of a word letter (leading uppercase = inverse)."""
    if letter and letter[0].isupper():
        return letter[0].lower() + letter[1:]
    return letter


def _letter_sign(letter: str) -> int:
    return -1 if letter and letter[0].isupper() else 1


@dataclass(frozen=True)
class OrientationCharacter:
    """A homomorphism to Z2 given by its values on named generators."""

    values: dict

    def __post_init__(self):
        for name, val in self.values.items():
            if val not in (0, 1):
                raise ValueError("character value for %r must be 0 or 1" % name)

    def on_word(self, word: tuple) -> int:
        """Value on a word (tuple of letters; leading uppercase = inverse)."""
        total = 0
        for letter in word:
            name = _letter_name(letter)
            if name not in self.values:
                raise ValueError("unknown generator %r" % name)
            total ^= self.values[name]
        return total


def z2xz_is_trivial(word: tuple) -> bool:
    """Word problem for the group Z2 x Z with generators x (order 2) and y."""
    x_parity = 0
    y_sum = 0
    for letter in word:
        name = _letter_name(letter)
        if name == "x":
            x_parity ^= 1
        elif name == "y":
            y_sum += _letter_sign(letter)
        else:
            raise ValueError("unknown generator %r" % name)
    return x_parity == 0 and y_sum == 0


def _substitute_names(word: tuple, images: dict) -> tuple:
    out = []
    for letter in word:
        image = images[_letter_name(letter)]
        if _letter_sign(letter) < 0:
            image = tuple(
                (_letter_name(l) if _letter_sign(l) < 0 else l[0].upper() + l[1:])
                for l in reversed(image)
            )
        out.extend(image)
    return tuple(out)


def sidedness_report(
    source_char: OrientationCharacter,
    target_char: OrientationCharacter,
    images: dict,
    source_relators: tuple = (),
    target_is_trivial=None,
) -> dict:
    """Decide 2-sidedness and report the checks performed.

    The map is 2-sided when the source character equals the target character
    composed with the generator images. Source relators, when supplied, are
    used to certify well-definedness: the source character and the characters
    of relator images must vanish, and relator images must be trivial in the
    target whenever a target word problem is supplied (otherwise a note
    records that the check was skipped).
    """
    notes = []
    for rel in source_relators:
        if source_char.on_word(rel) != 0:
            raise ValueError("source character does not vanish on a relator")
        image = _substitute_names(rel, images)
        if target_char.on_word(image) != 0:
            raise ValueError("relator image has nonzero target character")
        if target_is_trivial is None:
            notes.append(
                "target word problem unavailable; relator image triviality "
                "not checked"
            )
        elif not target_is_trivial(image):
            raise ValueError("relator image is nontrivial in the target")
    if not source_relators:
        notes.append("no source relators supplied; character checks only")
    checks = {
        name: source_char.on_word((name,)) == target_char.on_word(images[name])
        for name in images
    }
    return {
        "two_sided": all(checks.values()),
        "generator_checks": checks,
        "notes": notes,
    }


def is_two_sided(
    source_char: OrientationCharacter,
    target_char: OrientationCharacter,
    images: dict,
    source_relators: tuple = (),
    target_is_trivial=None,
) -> bool:
    """Whether the character equation holds on every source generator."""
    report = sidedness_report(
        source_char, target_char, images, source_relators, target_is_trivial
    )
    return report["two_sided"]


def torus_inclusion_sidedness() -> dict:
    """Sidedness of the torus inside the projective-plane-times-circle target."""
    source_char = OrientationCharacter({"a": 0, "b": 0})
    target_char = OrientationCharacter({"x": 1, "y": 0})
    images = {"a": ("x",), "b": ("y",)}
    relator = ("a", "b", "A", "B")
    report = sidedness_report(
        source_char, target_char, images, (relator,), z2xz_is_trivial
    )
    report["name"] = "torus in projective-plane times circle"
    return report


def main_construction_sidedness(genus: int = 2) -> dict:
    """Sidedness of the surface map into the constructed target manifold.

    Both orientation characters are trivial (orientable surface, orientable
    target), so the map is 2-sided whatever the generator images are; the
    target word problem is not available here and the note records that.
    """
    check_genus(genus)
    names = []
    for i in range(1, genus + 1):
        names.extend(["a%d" % i, "b%d" % i])
    source_char = OrientationCharacter({n: 0 for n in names})
    target_names = ["g%d" % i for i in range(1, 2 * genus + 1)]
    target_char = OrientationCharacter({n: 0 for n in target_names})
    images = {n: (target_names[i],) for i, n in enumerate(names)}
    relator = []
    for i in range(1, genus + 1):
        a, b = "a%d" % i, "b%d" % i
        relator.extend([a, b, a.capitalize(), b.capitalize()])
    report = sidedness_report(
        source_char, target_char, images, (tuple(relator),), None
    )
    report["name"] = "surface into the realized target (genus %d)" % genus
    return report


def free_factor_sidedness() -> dict:
    """Sidedness of a map avoiding the order-2 free factor of the target.

    The target group has an extra order-2 free factor carrying the whole
    orientation character; images that avoid it satisfy the character
    equation, so the map is 2-sided even though the target manifold is
    non-orientable.
    """
    source_char = OrientationCharacter({"a1": 0, "b1": 0, "a2": 0, "b2": 0})
    target_char = OrientationCharacter(
        {"g1": 0, "g2": 0, "g3": 0, "g4": 0, "t": 1}
    )
    images = {
        "a1": ("g1",),
        "b1": ("g2",),
        "a2": ("g3",),
        "b2": ("g4",),
    }
    relator = ("a1", "b1", "A1", "B1", "a2", "b2", "A2", "B2")
    report = sidedness_report(source_char, target_char, images, (relator,), None)
    report["name"] = "surface avoiding the order-2 free factor"
    return report


def extend_to_dimension(n: int, bound: int = 100) -> dict:
    """The torus demo with the target thickened to ambient dimension n.

    For n at least 5 the extra factor is simply connected, the fundamental
    group is unchanged and the kernel scan applies verbatim. Dimension 4
    adds a circle factor to the fundamental group, so the record carries a
    warning instead of a geometric conclusion.
    """
    if n < 4:
        raise ValueError("ambient dimension must be at least 4")
    scan = torus_kernel_scan(bound)
    record = {
        "dimension": n,
        "pi1_unchanged": n >= 5,
        "scan": scan,
    }
    if n == 4:
        record["warning"] = (
            "the thickening factor in dimension 4 is a circle, which changes "
            "the fundamental group; flagged for manual review"
        )
    return record

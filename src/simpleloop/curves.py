"""Certified simple closed curves via Dehn twist automorphisms.

A Dehn twist along a simple closed curve is a homeomorphism of the surface,
so twist images of simple curves are simple. The module ships a fixed table
of twist actions on the surface group generators: one twist per handle curve
a_i and b_i, plus one per connector curve between adjacent handles, together
with their inverses. Each table entry is certified on the first
twist_table(genus) call, which caches the table: its image of the defining
relator must be the relator itself, letter for letter, so the substitution
maps the relator's normal closure into itself, and it must compose with its
inverse to the exact identity substitution, so it is an automorphism of the
surface group. Every class this module emits therefore carries a replayable
certificate (standard curve name plus twist names) that proves simplicity;
the enumeration makes no completeness claim. The twist depth is budgeted per
genus (MAX_DEPTH) before any work starts.

One verification pass (verify_non_geometric) walks each class once: the walk
decides whether the class lies in the kernel of rho and whether it passes
the lift lemma.
"""

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .cover import CoverCW, ResourceLimitError
from .words import (
    Word,
    _canonical_images,
    canonical_class,
    check_length_bound,
    check_min_genus,
    free_reduce,
    from_letters,
    gen_name,
    inverse,
    separating_word,
    substitute,
    surface_relator,
    word_to_str,
)


class SimpleClass(NamedTuple):
    """A certified simple closed curve class.

    Attributes:
        cls: canonical representative of the free conjugacy class.
        root: name of the standard curve the certificate starts from.
        twists: twist names applied to the root, in order.
        separating: whether the curve separates (mod-2 class zero).
    """

    cls: Word
    root: str
    twists: tuple[str, ...]
    separating: bool


def _connector_word(i: int) -> Word:
    """Curve word of the connector between handles i and i+1."""
    return from_letters((-(2 * i + 1), 2 * i, 2 * i - 1, -(2 * i)))


def _partner(name: str) -> str:
    """Name of the inverse twist of a table entry."""
    return name[:-4] if name.endswith("_inv") else name + "_inv"


def _validate_table(genus: int, table: dict[str, dict[int, Word]]) -> None:
    relator = surface_relator(genus)
    for name, images in table.items():
        if substitute(relator, images) != relator:
            raise AssertionError("twist %s does not fix the relator" % name)
        partner = table[_partner(name)]
        for letter in from_letters(range(1, 2 * genus + 1)):
            round_trip = substitute(substitute(letter, images), partner)
            if round_trip != letter:
                raise AssertionError(
                    "twist %s and its inverse do not cancel" % name
                )


@lru_cache(maxsize=None)
def twist_table(genus: int) -> MappingProxyType[str, MappingProxyType[int, Word]]:
    """The certified twist table for a genus: each twist's name mapped to its
    image word for each positive generator index it moves.

    A twist acts on a word w as substitute(w, table[name]). Both levels are
    read-only, so no caller can edit the cached, certified table.
    """
    check_min_genus(genus)
    table = {}
    for i in range(1, genus + 1):
        a, b = 2 * i - 1, 2 * i
        table["ta%d" % i] = {b: from_letters((b, a))}
        table["ta%d_inv" % i] = {b: from_letters((b, -a))}
        table["tb%d" % i] = {a: from_letters((a, -b))}
        table["tb%d_inv" % i] = {a: from_letters((a, b))}
    for i in range(1, genus):
        b, a2, b2 = 2 * i, 2 * i + 1, 2 * i + 2
        letter_b, letter_a2, letter_b2 = from_letters((b, a2, b2))
        for suffix, L in (("", _connector_word(i)), ("_inv", inverse(_connector_word(i)))):
            table["tc%d%s" % (i, suffix)] = {
                b: free_reduce(L + letter_b),
                a2: free_reduce(L + letter_a2 + inverse(L)),
                b2: free_reduce(letter_b2 + inverse(L)),
            }
    _validate_table(genus, table)
    return MappingProxyType({name: MappingProxyType(images) for name, images in table.items()})


def _commute(s: dict[int, Word], t: dict[int, Word]) -> bool:
    """Whether the substitutions s and t of the free group commute."""
    # A generator's image is its table entry, so each side takes one
    # substitution.
    for k in s.keys() | t.keys():
        letter = from_letters((k,))
        if substitute(t.get(k, letter), s) != substitute(s.get(k, letter), t):
            return False
    return True


@lru_cache(maxsize=None)
def commuting_twists(genus: int) -> frozenset[tuple[str, str]]:
    """Ordered pairs (s, t) of distinct table twists with s∘t = t∘s.

    A pair is accepted when s(t(k)) == t(s(k)) for every generator k that
    either twist moves (on the others both are the identity). Substitution
    is a free group homomorphism, so such twists commute on every word.
    Each twist pairs with its inverse.
    """
    table = twist_table(genus)
    names = sorted(table)
    pairs = set()
    for i, s in enumerate(names):
        for t in names[i + 1 :]:
            if _commute(table[s], table[t]):
                pairs.update(((s, t), (t, s)))
    return frozenset(pairs)


def _standard_roots(genus: int) -> dict[str, Word]:
    """Name and word of each standard curve: the generators a1, b1, ..., bg,
    named by words.gen_name, then the separating curves s1 ... s(g-1)."""
    roots = {gen_name(k): from_letters((k,)) for k in range(1, 2 * genus + 1)}
    roots.update(("s%d" % k, separating_word(genus, k)) for k in range(1, genus))
    return roots


def standard_curves(genus: int) -> list[SimpleClass]:
    """The standard simple curves: 2g handle curves and g-1 separating ones."""
    check_min_genus(genus)
    return [
        SimpleClass(cls=canonical_class(word), root=root, twists=(), separating=root[0] == "s")
        for root, word in _standard_roots(genus).items()
    ]


def root_word(genus: int, root: str) -> Word:
    """Word of a named standard curve (a1, b2, s1, ...); a name that is not
    one of the genus's standard curves raises ValueError."""
    word = _standard_roots(genus).get(root)
    if word is None:
        raise ValueError("unknown standard curve %r" % root)
    return word


def replay_certificate(genus: int, root: str, twists: tuple[str, ...]) -> Word:
    """Recompute the class a certificate describes (canonical form); a twist
    name that is not in the genus's twist_table raises ValueError."""
    table = twist_table(genus)
    w = canonical_class(root_word(genus, root))
    for name in twists:
        if name not in table:
            raise ValueError("unknown twist %r" % name)
        w = canonical_class(substitute(w, table[name]))
    return w


# Deepest twist BFS per genus. Each level costs about 4-8 times the one
# before (generate_simple_classes alone, measured in process at max_len 64
# on a 2-vCPU VM, peak RSS of the process; times drift by up to 25 %):
#   g = 2: depth 7 gives 44 490 classes in 0.43-0.49 s, 35 MB; depth 8
#          gives 155 986 in 2.1 s, 90 MB.
#   g = 3: depth 6 gives 48 999 classes in 0.40-0.54 s, 36 MB; depth 7
#          gives 232 786 in 2.5-2.7 s, 121 MB.
#   g = 4: depth 6 gives 91 004 classes in 0.80-0.95 s, 56 MB.
#   g = 5: depth 5 gives 24 876 classes in 0.17-0.18 s, 25 MB; depth 6
#          gives 132 726 in 1.2 s, 74 MB.
#   g = 6: depth 5 gives 32 235 classes in 0.25-0.26 s, 28 MB; depth 6
#          gives 173 963 in 1.6-1.7 s, 93 MB.
MAX_DEPTH = {2: 7, 3: 6, 4: 6, 5: 5, 6: 5}


def check_depth(depth: int, genus: int | None = None) -> None:
    """Reject a negative twist depth; given a genus, also one over MAX_DEPTH.

    The second is a resource bound, as is a genus above MAX_DEPTH's largest.
    A genus below 2 is left to check_min_genus.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if genus is not None and genus > max(MAX_DEPTH):
        raise ResourceLimitError("no depth budget at genus %d" % genus)
    if genus is not None and depth > MAX_DEPTH.get(genus, depth):
        raise ResourceLimitError(
            "depth %d exceeds the budget of %d at genus %d"
            % (depth, MAX_DEPTH[genus], genus)
        )


def generate_simple_classes(
    genus: int, depth: int, max_len: int
) -> list[SimpleClass]:
    """Breadth-first twist images of the standard curves, deduplicated.

    Level by level, applies every table twist to each class, canonicalizes,
    and keeps new classes whose canonical representative is at most max_len
    letters long. The 3g - 1 standard curves are kept whatever max_len is:
    at genus 2, max_len 1 gives all five, s1 with 4 letters. Working with
    canonical representatives is sound because a twist maps conjugate words
    to conjugate words. Output order and content are deterministic. A new
    class takes its separating flag from its parent, since twists are
    homeomorphisms.

    A twist s is skipped at a class c = class(t(p)), found by applying twist
    t to its parent p, when s commutes with t (commuting_twists) and m =
    class(s(p)) was discovered before c. Classes are numbered in discovery
    order, which is also the order in which they are expanded. Now
    class(s(c)) = class(t(m)), and m was expanded before c: there t was
    evaluated, or skipped by this rule, so class(t(m)) is already seen or
    over max_len, and the output is the same as when every twist is tried.
    A class discovered after c is expanded after it too, so without the
    "before c" test s(c) could be skipped at c and found later under
    another certificate. Every twist commutes with its inverse, so the rule
    also skips t's inverse at c whenever class(t^-1(p)) was found before c.

    The record of an expanded class lists, per twist, the number of its
    image class, or inf when that is over max_len. A skip defers c's entry
    for s: it is m's entry for t, copied when c's images are numbered. m's
    record is final by then, as m is at an earlier level or its images were
    numbered earlier in the same class order.

    Each level decides every skip first, then applies each twist to its
    whole batch of classes at once (_canonical_images), then numbers the new
    classes in (class, twist) order.
    """
    check_depth(depth, genus)
    check_length_bound(max_len, "max_len")
    table = twist_table(genus)
    names = sorted(table)
    twists = [table[name] for name in names]
    pairs = commuting_twists(genus)
    commutes = [[j for j, s in enumerate(names) if (s, t) in pairs] for t in names]
    order = standard_curves(genus)
    position = {sc.cls: n for n, sc in enumerate(order)}
    # Per class number: its parent's and its last twist's, and its record
    # once expanded (levels are expanded in class order). In the level being
    # expanded, None marks a twist to apply, inf a deferral.
    parent = [None] * len(order)
    last = [None] * len(order)
    records = []
    unknown = float("inf")
    level = range(len(order))
    for _ in range(depth):
        batches = [[] for _ in twists]
        for n in level:
            record = [None] * len(twists)
            records.append(record)
            if last[n] is not None:
                above = records[parent[n]]
                for j in commutes[last[n]]:
                    if above[j] < n:
                        record[j] = unknown
            for j, m in enumerate(record):
                if m is None:
                    batches[j].append(order[n].cls)
        next_image = [
            iter(_canonical_images(*tb, genus)).__next__ for tb in zip(twists, batches)
        ]
        for n in level:
            sc, record = order[n], records[n]
            for j, m in enumerate(record):
                if m is unknown:
                    record[j] = records[records[parent[n]][j]][last[n]]
                if m is not None:
                    continue
                cls = next_image[j]()
                m = position.get(cls) if len(cls) <= max_len else unknown
                if m is None:
                    m = position[cls] = len(order)
                    order.append(SimpleClass(cls, sc.root, sc.twists + (names[j],), sc.separating))
                    parent.append(n)
                    last.append(j)
                record[j] = m
        level = range(level.stop, len(order))
    return order


class VerificationReport(NamedTuple):
    """Outcome of testing certified simple classes against the kernel.

    flags has one byte per class: bit 0 is v != 0, bit 1 h != 0 for its rho.
    """

    total: int
    n_separating: int
    n_nonseparating: int
    kernel_hits: list[dict]
    lemma_failures: list[dict]
    classes: list[SimpleClass]
    flags: bytearray
    completeness_note = (
        "certificates prove simplicity of every tested class; the family is "
        "not an exhaustive enumeration of simple classes"
    )

    @property
    def records(self):
        """One record dict per class, in class order, built anew on each pass."""
        return map(_class_record, self.classes, self.flags)


def _class_record(sc: SimpleClass, flag: int) -> dict:
    return {
        "word": word_to_str(sc.cls),
        "length": len(sc.cls),
        "root": sc.root,
        "twists": list(sc.twists),
        "separating": sc.separating,
        "v_nonzero": bool(flag & 1),
        "h_nonzero": bool(flag & 2),
        "in_kernel": not flag,
    }


def verify_non_geometric(cover: CoverCW, classes: list[SimpleClass]) -> VerificationReport:
    """Evaluate rho on every certified class; collect kernel hits and lift failures.

    A kernel hit would contradict the non-geometric-kernel claim and is
    reported with its full certificate rather than raised.

    The same walk decides the lift lemma. Separating classes must have
    mod-2 class zero and every one of the 2^(2g) lifts must be a closed loop
    with nonzero H1 class (closed but non-separating upstairs).
    Nonseparating classes must have nonzero mod-2 class, so their lifts are
    not loops. The separating flag of a generated class comes from its
    certificate's root curve, so these two checks test the certificate
    against rho.

    rho(cover, w) is (v, h) for (h, v) = cover.walk(w, 0), which is read
    here directly, once per class: v is its mod-2 class and h the class of
    its lift from 0. With v == 0 every lift closes, and the lift from vertex
    u is the deck translate by u of the lift from 0, so its class is the
    image of h under that translation. Deck translations act invertibly on
    H1, so the lifts all have nonzero class when h != 0 and all fail when
    h == 0. A letter outside the genus raises the walk's ValueError.
    """
    n_vertices, walk = cover.n_vertices, cover.walk
    flags = bytearray()
    hits, failures = [], []
    n_sep = 0
    for sc in classes:
        h, v = walk(sc.cls, 0)
        flag = (v != 0) | (h != 0) << 1
        flags.append(flag)
        n_sep += sc.separating
        if not flag:
            hits.append(_class_record(sc, flag))
        if sc.separating and flag & 1:
            reasons = ["separating class with nonzero mod-2 image"]
        elif sc.separating and not flag & 2:
            reasons = ["lift from vertex %d separates the cover" % u for u in range(n_vertices)]
        elif not sc.separating and not flag & 1:
            reasons = ["nonseparating class with zero mod-2 image"]
        else:
            continue
        word = word_to_str(sc.cls)
        failures.extend({"word": word, "reason": r} for r in reasons)
    return VerificationReport(
        total=len(classes),
        n_separating=n_sep,
        n_nonseparating=len(classes) - n_sep,
        kernel_hits=hits,
        lemma_failures=failures,
        classes=classes,
        flags=flags,
    )

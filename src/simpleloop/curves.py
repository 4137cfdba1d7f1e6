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
from typing import NamedTuple

from .cover import ResourceLimitError
from .quotient import GroupContext, rho
from .words import (
    Word,
    _canonical_images,
    _key_string,
    _key_translation,
    _key_word,
    canonical_class,
    check_length_bound,
    free_reduce,
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
    return (-(2 * i + 1), 2 * i, 2 * i - 1, -(2 * i))


def _validate_table(genus: int, table: dict[str, dict[int, Word]]) -> None:
    relator = surface_relator(genus)
    for name, images in table.items():
        if substitute(relator, images) != relator:
            raise AssertionError("twist %s does not fix the relator" % name)
        partner = table[_partner(name)]
        for k in range(1, 2 * genus + 1):
            round_trip = substitute(substitute((k,), images), partner)
            if round_trip != (k,):
                raise AssertionError(
                    "twist %s and its inverse do not cancel" % name
                )


@lru_cache(maxsize=None)
def twist_table(genus: int) -> dict[str, dict[int, Word]]:
    """The certified twist table for a genus: each twist's name mapped to its
    image word for each positive generator index it moves.

    A twist acts on a word w as substitute(w, table[name]).
    """
    if genus < 2:
        raise ValueError("genus must be at least 2")
    table = {}
    for i in range(1, genus + 1):
        a, b = 2 * i - 1, 2 * i
        table["ta%d" % i] = {b: (b, a)}
        table["ta%d_inv" % i] = {b: (b, -a)}
        table["tb%d" % i] = {a: (a, -b)}
        table["tb%d_inv" % i] = {a: (a, b)}
    for i in range(1, genus):
        b, a2, b2 = 2 * i, 2 * i + 1, 2 * i + 2
        for suffix, L in (("", _connector_word(i)), ("_inv", inverse(_connector_word(i)))):
            table["tc%d%s" % (i, suffix)] = {
                b: free_reduce(L + (b,)),
                a2: free_reduce(L + (a2,) + inverse(L)),
                b2: free_reduce((b2,) + inverse(L)),
            }
    _validate_table(genus, table)
    return table


def _commute(s: dict[int, Word], t: dict[int, Word]) -> bool:
    """Whether the substitutions s and t of the free group commute."""
    s_uses = {abs(x) for w in s.values() for x in w}
    t_uses = {abs(x) for w in t.values() for x in w}
    if s.keys().isdisjoint(t.keys() | t_uses) and t.keys().isdisjoint(s_uses):
        # Each twist fixes every letter the other moves or writes.
        return True
    # A generator's image is its table entry, so each side takes one
    # substitution.
    return all(
        substitute(t.get(k, (k,)), s) == substitute(s.get(k, (k,)), t)
        for k in s.keys() | t.keys()
    )


@lru_cache(maxsize=None)
def commuting_twists(genus: int) -> frozenset[tuple[str, str]]:
    """Ordered pairs (s, t) of distinct table twists with s∘t = t∘s.

    A pair is accepted when s(t(k)) == t(s(k)) for every generator k that
    either twist moves (on the others both are the identity), or without
    substituting when neither twist moves a generator that the other moves
    or uses in its images. Substitution is a free group homomorphism, so
    such twists commute on every word.
    """
    table = twist_table(genus)
    names = sorted(table)
    pairs = set()
    for i, s in enumerate(names):
        for t in names[i + 1 :]:
            if _commute(table[s], table[t]):
                pairs.update(((s, t), (t, s)))
    return frozenset(pairs)


def standard_curves(genus: int) -> list[SimpleClass]:
    """The standard simple curves: 2g handle curves and g-1 separating ones."""
    if genus < 2:
        raise ValueError("genus must be at least 2")
    roots = ["%s%d" % (fam, i) for i in range(1, genus + 1) for fam in "ab"]
    roots += ["s%d" % k for k in range(1, genus)]
    return [
        SimpleClass(
            cls=canonical_class(root_word(genus, root)),
            root=root,
            twists=(),
            separating=root[0] == "s",
        )
        for root in roots
    ]


def root_word(genus: int, root: str) -> Word:
    """Word of a named standard curve (a1, b2, s1, ...)."""
    kind, idx = root[0], int(root[1:])
    if kind == "a" and 1 <= idx <= genus:
        return (2 * idx - 1,)
    if kind == "b" and 1 <= idx <= genus:
        return (2 * idx,)
    if kind == "s" and 1 <= idx <= genus - 1:
        return separating_word(genus, idx)
    raise ValueError("unknown standard curve %r" % root)


def replay_certificate(genus: int, root: str, twists: tuple[str, ...]) -> Word:
    """Recompute the class a certificate describes (canonical form)."""
    table = twist_table(genus)
    w = canonical_class(root_word(genus, root))
    for name in twists:
        w = canonical_class(substitute(w, table[name]))
    return w


# Deepest twist BFS per genus. Each level costs about 4-8 times the one
# before (generate_simple_classes alone, measured in process at max_len 64
# on a 2-vCPU VM, peak RSS of the process):
#   g = 2: depth 7 gives 44 490 classes in 1.0 s, 49 MB; depth 8 gives
#          155 986 in 6.1 s, 146 MB.
#   g = 3: depth 6 gives 48 999 classes in 1.0 s; depth 7 gives 232 786 in
#          8.0 s, 200 MB.
#   g = 4: depth 6 gives 91 004 classes in 2.0 s, 81 MB.
MAX_DEPTH = {2: 7, 3: 6, 4: 6}


def check_depth(depth: int, genus: int | None = None) -> None:
    """Reject a negative twist depth; given a genus, also one over MAX_DEPTH.

    The second is a resource bound. A genus outside MAX_DEPTH is left to
    check_genus, which every stage that needs the cover runs.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if genus is not None and depth > MAX_DEPTH.get(genus, depth):
        raise ResourceLimitError(
            "depth %d exceeds the budget of %d at genus %d"
            % (depth, MAX_DEPTH[genus], genus)
        )


def _partner(name: str) -> str:
    """Name of the inverse twist of a table entry."""
    return name[:-4] if name.endswith("_inv") else name + "_inv"


def generate_simple_classes(
    genus: int, depth: int, max_len: int
) -> list[SimpleClass]:
    """Breadth-first twist images of the standard curves, deduplicated.

    Applies every table twist to each frontier class, canonicalizes, and
    keeps new classes whose canonical representative is at most max_len
    letters long. Working with canonical representatives is sound because a
    twist maps conjugate words to conjugate words. Output order and content
    are deterministic. A new class takes its separating flag from its
    parent, since twists are homeomorphisms.

    Three kinds of twist are skipped at a class c = class(t(p)), found by
    applying twist t to its parent p. Each would only give an image that is
    already seen or over max_len, so the output is the same as when every
    twist is tried.

    - The undo twist, t's partner: _validate_table certifies that it undoes
      t on every generator, so the image is p.
    - A twist that moves no generator occurring in c: the image is c.
    - A twist s that commutes with t (commuting_twists) when class(s(p))
      was discovered before c. Classes are numbered in discovery order,
      which is also the order in which they are expanded. While p is
      expanded, the number of class(s(p)) is recorded for every twist s
      whose image class is known and at most max_len; p's undo twist maps
      to p's parent. Now class(s(c)) = class(t(s(p))), and class(s(p)) was
      expanded before c: there t was evaluated, or skipped by one of these
      rules, so class(t(s(p))) is already seen or over max_len. A class
      discovered after c is expanded after it too, so without the "before
      c" test s(c) could be skipped at c and found later under another
      certificate.

    A level's skips read only the records of the level above, so each level
    decides every skip first, then applies each twist to its whole batch of
    classes at once (_canonical_images), then numbers the new classes in (class,
    twist) order. Classes are deduplicated on their key strings.
    """
    check_depth(depth, genus)
    check_length_bound(max_len, "max_len")
    table = twist_table(genus)
    names = sorted(table)
    twists = [table[name] for name in names]
    # Per twist, the key characters of the letters it moves.
    moves = [frozenset(_key_string(x for k in t for x in (k, -k))) for t in twists]
    translations = [_key_translation(t) for t in twists]
    undo = [names.index(_partner(name)) for name in names]
    pairs = commuting_twists(genus)
    commutes = [
        frozenset(j for j, s in enumerate(names) if (s, t) in pairs) for t in names
    ]
    position: dict[str, int] = {}
    order: list[SimpleClass] = []
    # Frontier entries: (class number, key string, parent's number, index of
    # the last twist, parent's record). The record of a class p lists, per
    # twist j, the number of class(j(p)), or inf while that is not known.
    frontier = []
    for sc in standard_curves(genus):
        key = _key_string(sc.cls)
        if key not in position:
            position[key] = len(order)
            frontier.append((len(order), key, None, None, None))
            order.append(sc)
    unknown = float("inf")
    for level in range(depth):
        # Classes found at the last level are not expanded, so they get no
        # frontier entry, and the records made for their parents are freed
        # at once.
        expand_next = level + 1 < depth
        batches = [[] for _ in twists]
        expansions = []
        for n, key, parent, last, above in frontier:
            letters = set(key)
            record = [unknown] * len(twists)
            undone, commuting = None, frozenset()
            if last is not None:
                undone, commuting = undo[last], commutes[last]
                record[undone] = parent
            applied = []
            for j, moved in enumerate(moves):
                if j == undone:
                    continue
                if moved.isdisjoint(letters):
                    record[j] = n
                    continue
                if j in commuting and above[j] < n:
                    continue
                batches[j].append(key)
                applied.append(j)
            expansions.append((n, record, applied))
        next_image = [
            iter(_canonical_images(*tb, genus)).__next__ for tb in zip(translations, batches)
        ]
        next_frontier = []
        for n, record, applied in expansions:
            sc = order[n]
            for j in applied:
                cls = next_image[j]()
                if len(cls) > max_len:
                    continue
                m = position.get(cls)
                if m is None:
                    m = position[cls] = len(order)
                    order.append(
                        SimpleClass(
                            _key_word(cls), sc.root, sc.twists + (names[j],), sc.separating
                        )
                    )
                    if expand_next:
                        next_frontier.append((m, cls, n, j, record))
                record[j] = m
        frontier = next_frontier
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
    completeness_note: str = (
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


def verify_non_geometric(
    ctx: GroupContext, classes: list[SimpleClass]
) -> VerificationReport:
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

    rho walks the class once from vertex 0: v is its mod-2 class and h the
    class of its lift from 0. With v == 0 every lift closes, and the lift
    from vertex u is the deck translate by u of the lift from 0, so its class
    is the image of h under that translation. Deck translations act
    invertibly on H1, so the lifts all have nonzero class when h != 0 and
    all fail when h == 0.
    """
    n_vertices = ctx.cover.n_vertices
    flags, hits, failures = bytearray(), [], []
    for sc in classes:
        el = rho(ctx, sc.cls)
        flag = (el.v != 0) | (el.h != 0) << 1
        flags.append(flag)
        if not flag:
            hits.append(_class_record(sc, flag))
        if sc.separating and el.v:
            reasons = ["separating class with nonzero mod-2 image"]
        elif sc.separating and not el.h:
            reasons = ["lift from vertex %d separates the cover" % u for u in range(n_vertices)]
        elif not sc.separating and not el.v:
            reasons = ["nonseparating class with zero mod-2 image"]
        else:
            continue
        word = word_to_str(sc.cls)
        failures.extend({"word": word, "reason": r} for r in reasons)
    n_sep = sum(1 for sc in classes if sc.separating)
    return VerificationReport(
        total=len(classes),
        n_separating=n_sep,
        n_nonseparating=len(classes) - n_sep,
        kernel_hits=hits,
        lemma_failures=failures,
        classes=classes,
        flags=flags,
    )

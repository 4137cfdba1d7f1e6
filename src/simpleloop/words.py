"""Words in the fundamental group of a closed orientable genus-g surface.

The group is presented as

    < a_1, b_1, ..., a_g, b_g | [a_1,b_1][a_2,b_2]...[a_g,b_g] >

Generator k (1-based, in the order a_1, b_1, a_2, b_2, ...) is the letter
chr(0x40 + 2(k - 1)) and its inverse is the next character, so a_1 is "@",
a_1^-1 is "A", b_1 is "B" and a_2 is "D". A word is a str of such letters.
String order is then the letter order a_1 < a_1^-1 < b_1 < b_1^-1 < a_2 <
..., and inverting a letter flips the low bit of its code. from_letters
spells signed generator indices (+k for generator k, -k for its inverse) as
a word, and letter_index reads one letter back; no other module does letter
arithmetic. The literal syntax is whitespace separated tokens such as
"a1 b2 A1 B2", where an uppercase family letter means the inverse;
word_from_str and word_to_str are the only conversions to and from it.

The word problem is decided by Dehn's algorithm: the relator has
length 4g and satisfies the small cancellation condition, so any
freely and cyclically reduced word representing the identity contains
more than half of some cyclic rotation of the relator or its inverse,
and replacing that subword by the inverse of the complement strictly
shortens the word.
"""

import functools
import re
from operator import eq

__all__ = [
    "Word",
    "gen_name",
    "gen_index",
    "from_letters",
    "letter_index",
    "word_from_str",
    "word_to_str",
    "spell_words",
    "free_reduce",
    "inverse",
    "concat",
    "cyclic_reduce",
    "commutator",
    "check_min_genus",
    "surface_relator",
    "separating_word",
    "substitute",
    "check_letters",
    "dehn_normal_form",
    "is_trivial",
    "canonical_class",
    "is_proper_power",
    "check_length_bound",
]

Word = str  # one character per letter, see the module docstring

# Code of a_1, the least letter; every character below it is not a letter.
_BASE = 0x40
_GEN_NAME = re.compile("[ab][1-9][0-9]*")


def gen_name(k: int) -> str:
    """Name of generator index k >= 1 in the order a1, b1, a2, b2, ..."""
    fam = "a" if k % 2 == 1 else "b"
    return f"{fam}{(k + 1) // 2}"


def gen_index(name: str) -> int:
    """Index of a generator name [ab][1-9][0-9]*: a1 -> 1, b1 -> 2, a2 -> 3, ..."""
    if not _GEN_NAME.fullmatch(name):
        raise ValueError(f"bad generator name: {name!r}")
    idx = int(name[1:])
    return 2 * idx - 1 if name[0] == "a" else 2 * idx


def from_letters(letters) -> Word:
    """The word of a sequence of signed generator indices: +k is generator
    k, -k its inverse. Zero raises ValueError."""
    out = []
    for x in letters:
        if x == 0:
            raise ValueError("zero is not a letter")
        out.append(chr(_BASE + 2 * abs(x) - 2 + (x < 0)))
    return "".join(out)


def letter_index(c: str) -> int:
    """Signed generator index of one letter: k for generator k, -k for its
    inverse. A character below "@" raises ValueError."""
    code = ord(c) - _BASE
    if code < 0:
        raise ValueError("%r is not a letter" % c)
    return -(code // 2 + 1) if code & 1 else code // 2 + 1


def word_from_str(text: str, genus: int) -> Word:
    """Parse literal syntax; uppercase family letter means inverse."""
    w = from_letters(gen_index(t.lower()) * (1 if t[0] in "ab" else -1) for t in text.split())
    check_letters(w, genus)
    return w


class _LetterMemo(dict):
    """Lookup table whose entry for a key is computed on first use."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _token(c: str) -> str:
    x = letter_index(c)
    name = gen_name(abs(x))
    return (name if x > 0 else name.capitalize()) + " "


# Each letter's token and a space, keyed by the letter; "\n", spell_words'
# separator, stays as it is.
_TOKENS = _LetterMemo(_token)
_TOKENS["\n"] = "\n"
# str.translate table of each letter's inverse; characters below "@", such
# as the "," between the words of a batch, stay as they are.
_INVERT = _LetterMemo(lambda code: code ^ 1 if code >= _BASE else code)


def word_to_str(w: Word) -> str:
    return spell_words([w])[0]


def spell_words(ws: list[Word]) -> list[str]:
    """The literal syntax of each word, from one pass over the joined words.

    The pass looks each character up with one dict call, which is faster
    than str.translate writing several characters per character. A
    character below "@" raises letter_index's ValueError, "\n" included.
    """
    if not ws:
        return []
    texts = "".join(map(_TOKENS.__getitem__, "\n".join(ws))).split("\n")
    if len(texts) != len(ws):
        letter_index("\n")  # a word holds the separator
    return [text[:-1] for text in texts]


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    A character below "@" raises ValueError.
    """
    if w and min(w) < "@":
        raise ValueError("%r is not a letter" % min(w))
    # w[i + 1] cancels w[i] exactly when it is w[i]'s inverse.
    if not any(map(eq, w[1:], w.translate(_INVERT))):
        return w
    out: list[int] = []
    for code in map(ord, w):
        if out and out[-1] == code ^ 1:
            out.pop()
        else:
            out.append(code)
    return "".join(map(chr, out))


def inverse(w: Word) -> Word:
    return w[::-1].translate(_INVERT)


def concat(*ws: Word) -> Word:
    return free_reduce("".join(ws))


def _seam(key: str, inv: str) -> int:
    """Letters cancelling at each end of a freely reduced word, given its inverse."""
    # inv[i] is the inverse of key[-1 - i], so the seam cancels while they match.
    n, i = len(key), 0
    while n - 2 * i >= 2 and key[i] == inv[i]:
        i += 1
    return i


def cyclic_reduce(w: Word) -> Word:
    """Free reduction, then cancellation across the seam."""
    w = free_reduce(w)
    i = _seam(w, inverse(w))
    return w[i:len(w) - i]


def commutator(u: Word, v: Word) -> Word:
    return concat(u, v, inverse(u), inverse(v))


def check_min_genus(genus: int) -> None:
    """Reject a genus below 2, where Dehn's algorithm does not decide the
    word problem."""
    if genus < 2:
        raise ValueError("genus must be at least 2")


def surface_relator(genus: int) -> Word:
    """The defining relator [a1,b1]...[ag,bg]; genus must be >= 2."""
    check_min_genus(genus)
    return from_letters(
        x for a in range(1, 2 * genus, 2) for x in (a, a + 1, -a, -a - 1)
    )


def separating_word(genus: int, k: int) -> Word:
    """Standard separating curve word [a1,b1]...[ak,bk], 1 <= k <= g-1."""
    if not 1 <= k <= genus - 1:
        raise ValueError("separating index out of range")
    return surface_relator(genus)[:4 * k]


def _images_table(images: dict[int, Word]) -> dict[int, Word]:
    """str.translate table sending generator k to images[k], its inverse to
    the inverse image."""
    table = {}
    for k, img in images.items():
        code = ord(from_letters((k,)))
        table[code], table[code ^ 1] = img, inverse(img)
    return table


def substitute(w: Word, images: dict[int, Word]) -> Word:
    """Apply the endomorphism sending generator k to images[k], then reduce.

    The keys are positive generator indices; generators missing from the
    map are kept fixed. One str.translate replaces every letter, and
    free_reduce reduces the result, so a character below "@" raises
    ValueError.
    """
    return free_reduce(w.translate(_images_table(images)))


def check_letters(w: Word, genus: int) -> None:
    """Raise ValueError unless every character of w is a letter of the genus."""
    top = chr(_BASE + 4 * genus)
    if w and not "@" <= min(w) <= max(w) < top:
        c = next(c for c in w if not "@" <= c < top)
        raise ValueError("letter %s outside genus %d" % (word_to_str(c), genus))


@functools.lru_cache(maxsize=None)
def _dehn_table(genus: int) -> dict[Word, Word]:
    """Subwords of rotations of r and r^-1 longer than half, with replacements."""
    r = surface_relator(genus)
    n = len(r)
    table: dict[Word, Word] = {}
    for base in (r, inverse(r)):
        for rot in range(n):
            rr = base[rot:] + base[:rot]
            for length in range(2 * genus + 1, n + 1):
                table[rr[:length]] = inverse(rr[length:])
    return table


def dehn_normal_form(w: Word, genus: int) -> Word:
    """Fully Dehn-reduced cyclic word; empty iff w is trivial in the group.

    Each step replaces the longest piece, at the first start in the cyclic
    word, that is more than half of a relator rotation. A letter outside
    the genus raises ValueError.
    """
    check_letters(w, genus)
    table = _dehn_table(genus)
    w = cyclic_reduce(w)
    while w:
        n = len(w)
        doubled = w + w
        lengths = range(min(4 * genus, n), 2 * genus, -1)
        hit = next(((i, k) for i in range(n) for k in lengths if doubled[i:i + k] in table), None)
        if hit is None:
            break
        i, k = hit
        w = cyclic_reduce(table[doubled[i:i + k]] + doubled[i + k:i + n])
    return w


def is_trivial(w: Word, genus: int) -> bool:
    """Word problem via Dehn's algorithm; complete for surface groups."""
    return not dehn_normal_form(w, genus)


def _canonical_key(key: str, inv: str) -> str:
    """canonical_class of a freely reduced word, given the word and its inverse.

    Cuts the seam, then takes the least rotation of the word and of its
    inverse. Only a rotation that starts at the least character can be the
    least, so only those starts are compared. Rejects the empty word.
    """
    i = _seam(key, inv)
    n = len(key) - 2 * i
    if i:
        key, inv = key[i:i + n], inv[i:i + n]
    if not key:
        raise ValueError("the trivial word has no essential class")
    # The least character of key and inv is the positive letter of the least
    # generator that key spells: in key, or in inv when key holds its inverse.
    code = _BASE
    while chr(code) not in key and chr(code + 1) not in key:
        code += 2
    least = chr(code)
    best = None
    for side in (key, inv):
        if least not in side:
            continue
        doubled = side + side
        i = doubled.find(least)
        while 0 <= i < n:
            rotation = doubled[i:i + n]
            if best is None or rotation < best:
                best = rotation
            i = doubled.find(least, i + 1)
    return best


# The characters below "@" other than ",": no word of a batch holds one, so
# _canonical_images can stand them in for the letters it substitutes.
_MARKS = "".join(chr(code) for code in range(_BASE) if chr(code) != ",")


def _canonical_images(images: dict[int, Word], keys: list[Word], genus: int) -> list[Word]:
    """canonical_class of the image of each word under a substitution, for
    words over the letters of a genus.

    One translation of the joined batch replaces each moved letter by a
    mark, and one str.replace per mark puts in its image: str.translate
    keeps to its fast path only while it writes one character per
    character. Inverse pairs are then removed, cycling through the 4g
    pairs until each has been looked for since the last removal: each
    removal is a free cancellation and free reduction is confluent, so each
    word ends freely reduced. The inverses are read off the reversed batch.
    """
    if not keys:
        return []
    table = _images_table(images)
    # A substitution that moves more letters than there are marks (32
    # generators or more) has the rest replaced by the translation itself.
    marks = dict(zip(table, _MARKS))
    batch = ",".join(keys).translate({**table, **marks})
    for code, mark in marks.items():
        batch = batch.replace(mark, table[code])
    pairs = [c + inverse(c) for c in map(chr, range(_BASE, _BASE + 4 * genus))]
    # stale counts the pairs looked for in vain since the last removal.
    i = stale = 0
    while stale < len(pairs):
        size = len(batch)
        batch = batch.replace(pairs[i], "")
        stale = stale + 1 if len(batch) == size else 0
        i = (i + 1) % len(pairs)
    inverses = inverse(batch).split(",")
    return list(map(_canonical_key, batch.split(","), reversed(inverses)))


def canonical_class(w: Word) -> Word:
    """Canonical representative of the free conjugacy class of w or w^-1.

    Cyclically reduces, then takes the least rotation of the word and of
    its inverse in the letter order, which is the string order. Rejects the
    empty word.
    """
    key = free_reduce(w)
    return _canonical_key(key, inverse(key))


def is_proper_power(w: Word) -> bool:
    """True iff the cyclic reduction is a literal repetition u^k, k >= 2.

    A nonempty word of length n is such a repetition exactly when it equals
    one of its rotations by 1 to n - 1, that is when it occurs in its own
    square at one of those shifts.
    """
    key = cyclic_reduce(w)
    return key != "" and key in (key + key)[1:-1]


def check_length_bound(value: int, name: str) -> None:
    """Reject a word length bound below 1; the error names the bound."""
    if value < 1:
        raise ValueError("%s must be at least 1" % name)

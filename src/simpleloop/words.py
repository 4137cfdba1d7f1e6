"""Words in the fundamental group of a closed orientable genus-g surface.

The group is presented as

    < a_1, b_1, ..., a_g, b_g | [a_1,b_1][a_2,b_2]...[a_g,b_g] >

A word is a tuple of nonzero signed integers: letter +k is the k-th
generator in the fixed order a_1, b_1, a_2, b_2, ..., letter -k its
inverse.  The literal syntax is whitespace separated tokens such as
"a1 b2 A1 B2" where an uppercase family letter means the inverse.

The word problem is decided by Dehn's algorithm: the relator has
length 4g and satisfies the small cancellation condition, so any
freely and cyclically reduced word representing the identity contains
more than half of some cyclic rotation of the relator or its inverse,
and replacing that subword by the inverse of the complement strictly
shortens the word.
"""

from __future__ import annotations

import functools
import random

__all__ = [
    "Word",
    "gen_name",
    "gen_index",
    "word_from_str",
    "word_to_str",
    "free_reduce",
    "inverse",
    "concat",
    "cyclic_reduce",
    "commutator",
    "surface_relator",
    "separating_word",
    "substitute",
    "abelianization_mod2",
    "dehn_normal_form",
    "is_trivial",
    "letter_order_key",
    "canonical_class",
    "is_proper_power",
    "random_reduced_word",
    "check_length_bound",
]

Word = tuple  # tuple of nonzero signed ints


def gen_name(k: int) -> str:
    """Name of generator index k >= 1 in the order a1, b1, a2, b2, ..."""
    fam = "a" if k % 2 == 1 else "b"
    return f"{fam}{(k + 1) // 2}"


def gen_index(name: str) -> int:
    fam = name[0]
    idx = int(name[1:])
    if fam not in "ab" or idx < 1:
        raise ValueError(f"bad generator name: {name!r}")
    return 2 * idx - 1 if fam == "a" else 2 * idx


def word_from_str(text: str, genus: int) -> Word:
    """Parse literal syntax; uppercase family letter means inverse."""
    out = []
    for tok in text.split():
        fam = tok[0]
        sign = -1 if fam.isupper() else 1
        k = gen_index(fam.lower() + tok[1:])
        if k > 2 * genus:
            raise ValueError(f"letter {tok!r} outside genus {genus}")
        out.append(sign * k)
    return tuple(out)


class _LetterMemo(dict):
    """Values of a function of one letter or character, each computed on first use."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, x: int):
        value = self[x] = self.fn(x)
        return value


def _letter_token(x: int) -> str:
    name = gen_name(abs(x))
    return name if x > 0 else name[0].upper() + name[1:]


_LETTER_TOKENS = _LetterMemo(_letter_token)


def word_to_str(w: Word) -> str:
    return " ".join(map(_LETTER_TOKENS.__getitem__, w))


def free_reduce(w) -> Word:
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


def inverse(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def concat(*ws: Word) -> Word:
    return free_reduce(x for w in ws for x in w)


def cyclic_reduce(w: Word) -> Word:
    return _trim_seam(free_reduce(w))


def _trim_seam(w: Word) -> Word:
    """Cyclic reduction of a freely reduced word: cancel across the seam."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def commutator(u: Word, v: Word) -> Word:
    return concat(u, v, inverse(u), inverse(v))


def surface_relator(genus: int) -> Word:
    """The defining relator [a1,b1]...[ag,bg]; genus must be >= 2."""
    if genus < 2:
        raise ValueError("genus must be at least 2")
    out = []
    for i in range(1, genus + 1):
        a, b = 2 * i - 1, 2 * i
        out.extend([a, b, -a, -b])
    return tuple(out)


def separating_word(genus: int, k: int) -> Word:
    """Standard separating curve word [a1,b1]...[ak,bk], 1 <= k <= g-1."""
    if not 1 <= k <= genus - 1:
        raise ValueError("separating index out of range")
    return surface_relator(genus)[:4 * k]


def substitute(w: Word, images: dict[int, Word]) -> Word:
    """Apply the endomorphism sending generator k to images[k], then reduce.

    Generators missing from the map are kept fixed. The output is freely
    reduced; a zero letter raises ValueError, as in free_reduce.
    """
    table = {}
    for k, img in images.items():
        table[k] = img
        table[-k] = inverse(img)
    return free_reduce(y for x in w for y in table.get(x, (x,)))


def abelianization_mod2(w: Word, genus: int) -> int:
    """Class in H_1(S; Z/2) = (Z/2)^{2g} as a bitmask, bit k-1 for generator k."""
    v = 0
    for x in w:
        k = abs(x)
        if k > 2 * genus:
            raise ValueError(f"letter {x} outside genus {genus}")
        v ^= 1 << (k - 1)
    return v


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
                head, tail = rr[:length], rr[length:]
                table[head] = inverse(tail)
    return table


def dehn_normal_form(w, genus: int) -> Word:
    """Fully Dehn-reduced cyclic word; empty iff w is trivial in the group."""
    table = _dehn_table(genus)
    shortest = 2 * genus + 1
    longest = 4 * genus
    w = cyclic_reduce(w)
    changed = True
    while changed and w:
        changed = False
        n = len(w)
        doubled = w + w
        top = min(longest, n)
        for i in range(n):
            if changed:
                break
            for length in range(top, shortest - 1, -1):
                rep = table.get(doubled[i:i + length])
                if rep is not None:
                    rest = doubled[i + length:i + n]
                    w = cyclic_reduce(rep + rest)
                    changed = True
                    break
    return w


def is_trivial(w, genus: int) -> bool:
    """Word problem via Dehn's algorithm; complete for surface groups."""
    return len(dehn_normal_form(w, genus)) == 0


def letter_order_key(x: int) -> int:
    """Total order a1 < a1^-1 < b1 < b1^-1 < a2 < ... as an integer key."""
    return 2 * (abs(x) - 1) + (1 if x < 0 else 0)


# A word's key string spells it one character per letter, chr(0x40 + key)
# for the letter's letter_order_key. String order is then the letter order,
# and inverting a letter flips the low bit of its character's code.
_KEY_CHARS = _LetterMemo(lambda x: chr(0x40 + letter_order_key(x)))
_KEY_LETTERS = _LetterMemo(lambda c: (ord(c) - 0x3E) // 2 * (-1 if ord(c) & 1 else 1))
# str.translate table inverting each letter of a key string; characters
# below 0x40, such as the "," between the words of a batch, stay as they are.
_INVERT = _LetterMemo(lambda code: code ^ 1 if code >= 0x40 else code)


def _key_string(w) -> str:
    """Key string of a word: one character per letter, in the letter order."""
    return "".join(map(_KEY_CHARS.__getitem__, w))


def _key_word(key: str) -> Word:
    """The word a key string spells."""
    return tuple(map(_KEY_LETTERS.__getitem__, key))


def _canonical_key(key: str, inv: str) -> str:
    """Key string of canonical_class, given a freely reduced word's key string
    and the key string of its inverse.

    Cuts the seam, then takes the least rotation of the word and of its
    inverse. Only a rotation that starts at the least character can be the
    least, so only those starts are compared. Rejects the empty word.
    """
    # inv[i] is the inverse of key[-1 - i], so the seam cancels while they match.
    n, i = len(key), 0
    while n - 2 * i >= 2 and key[i] == inv[i]:
        i += 1
    if i:
        key, inv = key[i:n - i], inv[i:n - i]
        n -= 2 * i
    if not key:
        raise ValueError("the trivial word has no essential class")
    least = min(min(key), min(inv))
    best = None
    for side in (key, inv):
        doubled = side + side
        i = doubled.find(least)
        while 0 <= i < n:
            rotation = doubled[i:i + n]
            if best is None or rotation < best:
                best = rotation
            i = doubled.find(least, i + 1)
    return best


def _key_translation(images: dict[int, Word]) -> dict:
    """str.translate table of the substitution k -> images[k] on key strings."""
    return str.maketrans(
        {
            _key_string((x,)): _key_string(y)
            for k, w in images.items()
            for x, y in ((k, w), (-k, inverse(w)))
        }
    )


def _canonical_images(translation: dict, keys: list[str], genus: int) -> list[str]:
    """_canonical_key of the image of each key string under a translation,
    for words over the letters of a genus.

    One translation of the joined batch replaces each letter by its image.
    Inverse pairs are then removed until a pass removes none: each removal
    is a free cancellation and free reduction is confluent, so each word
    ends freely reduced. The inverses are read off the reversed batch.
    """
    if not keys:
        return []
    batch = ",".join(keys).translate(translation)
    pairs = [_key_string((x, -x)) for x in range(-2 * genus, 2 * genus + 1) if x]
    size = None
    while size != len(batch):
        size = len(batch)
        for pair in pairs:
            batch = batch.replace(pair, "")
    inverses = batch[::-1].translate(_INVERT).split(",")
    return list(map(_canonical_key, batch.split(","), reversed(inverses)))


def canonical_class(w) -> Word:
    """Canonical representative of the free conjugacy class of w or w^-1.

    Cyclically reduces, then takes the least rotation of the word and of
    its inverse under the fixed letter order.  Rejects the empty word.
    """
    key = _key_string(free_reduce(w))
    return _key_word(_canonical_key(key, key[::-1].translate(_INVERT)))


def is_proper_power(w) -> bool:
    """True iff the cyclic reduction is a literal repetition u^k, k >= 2."""
    v = cyclic_reduce(w)
    n = len(v)
    if n == 0:
        return False
    for d in range(1, n // 2 + 1):
        if n % d:
            continue
        if all(v[i] == v[i % d] for i in range(d, n)):
            return True
    return False


def random_reduced_word(rng: random.Random, genus: int, length: int) -> Word:
    """Uniform-ish freely reduced word of exactly the given length."""
    letters = [k for k in range(1, 2 * genus + 1)] + [-k for k in range(1, 2 * genus + 1)]
    out: list[int] = []
    while len(out) < length:
        x = rng.choice(letters)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return tuple(out)


def check_length_bound(value: int, name: str) -> None:
    """Reject a word length bound below 1; the error names the bound."""
    if value < 1:
        raise ValueError("%s must be at least 1" % name)

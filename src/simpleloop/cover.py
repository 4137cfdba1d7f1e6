"""Mod-2 homology cover of a closed surface, built as an explicit CW complex.

The base surface of genus g has one vertex, 2g loop edges and one face. Its
mod-2 homology cover has deck group Z2^(2g): vertices are bitmasks v in
[0, 2^(2g)), the lift of loop k starting at v is an edge from v to
v ^ (1 << (k - 1)), and one face per vertex carries the lifted relator.
One tree-cotree pass over the faces gives every edge its H1 class: 0 on the
spanning tree, the class of its fundamental cycle otherwise. The class of
any lifted loop, closed up through the tree, is then the XOR of these
classes along the lift. CoverCW.walk computes it and is the one way from a
lifted word to an H1 class: the finite quotient group and the lift lemma
read the complex through it. Words are strings of letters, as in
simpleloop.words, and walk reads one (class, end vertex) step per letter.
"""

from .words import Word, check_letters, check_min_genus, from_letters, inverse

# The build alone would fit genus 5 (0.03 s, 23 MB peak RSS in process on a
# 2-vCPU VM) and genus 6 (0.24 s, 160 MB). The cap stays at 4 until the twist
# depth and the kernel search have budgets for genus 5 and 6.
MAX_GENUS = 4


class ResourceLimitError(RuntimeError):
    """Raised when a requested cover exceeds the supported size budget."""


def check_genus(genus: int) -> None:
    """Reject a genus below 2 (ValueError) or above MAX_GENUS (resource bound)."""
    check_min_genus(genus)
    if genus > MAX_GENUS:
        raise ResourceLimitError(
            "genus %d cover exceeds the supported size budget (max genus %d)"
            % (genus, MAX_GENUS)
        )


def cover_genus(genus: int) -> int:
    """Genus of the cover, 1 + 2^(2g) (g - 1).

    The cover has 2^(2g) vertices, 2g 2^(2g) edges and 2^(2g) faces, so its
    Euler characteristic is 2^(2g) (2 - 2g) = 2 - 2 * (cover genus).
    """
    return 1 + (1 << (2 * genus)) * (genus - 1)


def group_order_log2(genus: int) -> int:
    """Log base 2 of the order of G: 2g deck bits plus dim H1 = 2 * cover genus."""
    return 2 * genus + 2 * cover_genus(genus)


class CoverCW:
    """CW complex of the mod-2 homology cover of a genus-g surface.

    The cells are not stored: face v is the lift of the surface relator from
    vertex v, and edge (v, k) the lift of loop k from v. The complex is read
    through walk, which follows each letter of a word through one step
    table, keyed by letter, of (H1 class, end vertex) per start vertex.

    Attributes:
        genus: genus of the base surface.
        n_vertices, n_edges, n_faces: cell counts (2^2g, 2g*2^2g, 2^2g).
        h1_dim: dimension of H1 of the cover over GF(2), checked against
            2 * cover_genus(genus).
        unit_cycle_words: per H1 coordinate j, a loop at vertex 0 of class
            1 << j: the tree path to basis edge j, along it, and back.
    """

    def __init__(self, genus: int):
        check_genus(genus)
        self.genus = genus
        self.n_vertices = 1 << (2 * genus)
        self.n_edges = self.n_vertices * 2 * genus
        self.n_faces = self.n_vertices
        self._build_h1()

    def walk(self, word: Word, start: int) -> tuple[int, int]:
        """XOR the edge classes along a word's lift from a start vertex.

        Returns:
            (h, end): H1 class of the lift closed up through the spanning
            tree (tree edges add 0), and the vertex where the lift ends.
            A letter outside the genus raises check_letters' ValueError,
            a start outside range(n_vertices) one naming the vertex.
        """
        if not 0 <= start < self.n_vertices:
            raise ValueError("vertex %d outside genus %d" % (start, self.genus))
        steps, h, v = self._steps, 0, start
        try:
            for x in word:
                c, v = steps[x][v]
                h ^= c
        except KeyError:
            check_letters(word, self.genus)
            raise
        return h, v

    def _face_edges(self, f: int):
        """Yield face f's 4g edges in relator order, each with the face across it.

        Edge (v, k), the lift of loop k from v, is numbered v * 2g + k - 1.
        """
        n = 2 * self.genus
        for j in range(0, n, 2):
            a, b = 1 << j, 1 << (j + 1)
            yield f * n + j, f ^ b
            yield (f ^ a) * n + j + 1, f ^ a
            yield (f ^ b) * n + j, f ^ b
            yield f * n + j + 1, f ^ a

    def _build_h1(self) -> None:
        # The tree path from 0 to v spells the set bits of v in ascending
        # order, so the tree edge into v != 0 is the lift of v's top letter
        # from v with that bit cleared: edge (u, k) is a tree edge exactly
        # when u < 2^(k - 1).
        n = 2 * self.genus
        nontree = {e for e in range(self.n_edges) if (e // n) >> (e % n)}
        # Tree-cotree: a BFS over the faces from face 0, crossing non-tree
        # edges only, grows the cotree; the non-tree edges left over are the
        # basis. Leaves first, each face gives its cotree edge the XOR of its
        # other edges. Face 0's relation follows (each edge is in two faces).
        cotree = {0: None}
        order = [0]
        for f in order:
            for e, g in self._face_edges(f):
                if e in nontree and g not in cotree:
                    cotree[g] = e
                    order.append(g)
        basis = sorted(nontree.difference(cotree.values()))
        self.h1_dim = len(basis)
        if self.h1_dim != 2 * cover_genus(self.genus):
            raise AssertionError("H1 dimension %d is not twice the cover genus" % self.h1_dim)
        classes = [0] * self.n_edges
        for j, e in enumerate(basis):
            classes[e] = 1 << j
        for f, e in reversed(cotree.items()):
            h = 0
            for edge, _ in self._face_edges(f):
                h ^= classes[edge]
            if f:
                classes[e] = h
            elif h:
                raise AssertionError("face 0 relation does not hold")
        # Step table by (letter, start vertex) of (class, end vertex): generator
        # j + 1 from v runs edge (v, j + 1) = v * n + j to v ^ 2^j; its inverse
        # runs the same generator's edge from v ^ 2^j backwards, also to v ^ 2^j.
        letters, self._steps = from_letters(range(1, n + 1)), {}
        for j, letter in enumerate(letters):
            ends = [v ^ (1 << j) for v in range(self.n_vertices)]
            forward = classes[j::n]
            self._steps[letter] = tuple(zip(forward, ends))
            self._steps[inverse(letter)] = tuple(zip([forward[w] for w in ends], ends))
        # The path to v in [2^j, 2^(j+1)) is the path to v - 2^j, then j + 1.
        tree_words = [""]
        for letter in letters:
            tree_words += [w + letter for w in tree_words]
        # Basis edge (v, j + 1): the tree path to v, the edge, the path back.
        self.unit_cycle_words = tuple(
            tree_words[v] + letters[j] + inverse(tree_words[v ^ (1 << j)])
            for v, j in (divmod(e, n) for e in basis)
        )


def build_mod2_cover(genus: int) -> CoverCW:
    """Build the mod-2 homology cover complex for a genus-g surface."""
    return CoverCW(genus)


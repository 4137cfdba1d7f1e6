"""Mod-2 homology cover of a closed surface, built as an explicit CW complex.

The base surface of genus g has one vertex, 2g loop edges and one face. Its
mod-2 homology cover has deck group Z2^(2g): vertices are bitmasks v in
[0, 2^(2g)), the lift of loop k starting at v is an edge from v to
v ^ (1 << (k - 1)), and one face per vertex carries the lifted relator.
Every edge carries its H1 class, from one tree-cotree pass over the faces:
0 on the spanning tree, the class of its fundamental cycle otherwise. The
class of any lifted loop, closed up through the tree, is then the XOR of
these entries along the lift. CoverCW.walk computes it and is the one way
from a lifted word to an H1 class: the finite quotient group and the lift
lemma read the complex through it.
"""

from .words import inverse

# The build alone would fit genus 5 (0.045 s, 25 MB in process on a 2-vCPU
# VM) and genus 6 (0.46 s, 160 MB). The cap stays at 4 until the twist depth
# and the kernel search have budgets for genus 5 and 6.
MAX_GENUS = 4


class ResourceLimitError(RuntimeError):
    """Raised when a requested cover exceeds the supported size budget."""


def check_genus(genus: int) -> None:
    """Reject a genus below 2 (ValueError) or above MAX_GENUS (resource bound)."""
    if genus < 2:
        raise ValueError("genus must be at least 2")
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

    The cells are not stored: edge_index and edge_endpoints name the edges,
    and face v is the lift of the surface relator from vertex v. The complex
    is read through lifts of words: lift gives a word's edge chain, walk its
    H1 class.

    Attributes:
        genus: genus of the base surface.
        n_vertices, n_edges, n_faces: cell counts (2^2g, 2g*2^2g, 2^2g).
        tree_words: per vertex v, the tree path from 0: the set bits of v,
            ascending.
        nontree_edges: edges outside the spanning tree, ascending.
        h1_dim: dimension of H1 of the cover over GF(2), checked against
            2 * cover_genus(genus).
        edge_classes: per edge, its H1 coordinates: 0 for a tree edge, the
            class of its fundamental cycle for a non-tree edge.
        unit_cycle_words: per H1 coordinate j, a loop at vertex 0 of class
            1 << j: the Schreier word of basis edge j (non-tree, non-cotree).
    """

    def __init__(self, genus: int):
        check_genus(genus)
        self.genus = genus
        self.n_vertices = 1 << (2 * genus)
        self.n_edges = self.n_vertices * 2 * genus
        self.n_faces = self.n_vertices
        self._build_tree()
        self._build_h1()

    def edge_index(self, v: int, k: int) -> int:
        """Index of the lift of loop k (1-based) starting at vertex v."""
        return v * (2 * self.genus) + (k - 1)

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        """Start and end vertex of edge e."""
        v, j = divmod(e, 2 * self.genus)
        return v, v ^ (1 << j)

    def lift(self, word, start: int) -> tuple[int, int]:
        """Lift a word to an edge chain from a start vertex.

        Returns:
            (chain, end): GF(2) edge chain as an int bitmask, and the vertex
            where the lifted path ends (start ^ mod-2 abelianization).
        """
        chain = 0
        v = start
        for x in word:
            k = abs(x)
            bit = 1 << (k - 1)
            if x > 0:
                chain ^= 1 << self.edge_index(v, k)
                v ^= bit
            else:
                v ^= bit
                chain ^= 1 << self.edge_index(v, k)
        return chain, v

    def walk(self, word, start: int) -> tuple[int, int]:
        """XOR the edge classes along a word's lift from a start vertex.

        Returns:
            (h, end): H1 class of the lift closed up through the spanning
            tree (tree edges add 0), and the vertex where the lift ends.
            A letter outside the genus raises KeyError.
        """
        classes = self._letter_classes
        flips = self._letter_flips
        h = 0
        v = start
        for x in word:
            h ^= classes[x][v]
            v ^= flips[x]
        return h, v

    def schreier_word(self, e: int) -> tuple[int, ...]:
        """Loop at vertex 0 that runs the tree to edge e, along it, and back.

        Its lift from 0 is the fundamental cycle of e, so for a non-tree
        edge walk(schreier_word(e), 0) is (edge_classes[e], 0).
        """
        v, w = self.edge_endpoints(e)
        letter = e % (2 * self.genus) + 1
        return self.tree_words[v] + (letter,) + inverse(self.tree_words[w])

    def _build_tree(self) -> None:
        # The tree path to v spells the set bits of v in ascending order, so
        # the tree edge into v != 0 is the lift of v's top letter from v with
        # that bit cleared: edge (u, k) is a tree edge exactly when
        # u < 2^(k - 1).
        n = 2 * self.genus
        self.tree_words = tuple(
            tuple(k for k in range(1, n + 1) if v >> (k - 1) & 1)
            for v in range(self.n_vertices)
        )
        self.nontree_edges = tuple(
            e for e in range(self.n_edges) if (e // n) >> (e % n)
        )

    def _face_edges(self, f: int):
        """Yield face f's 4g edges in relator order, each with the face across it."""
        for k in range(1, 2 * self.genus, 2):
            a, b = 1 << (k - 1), 1 << k
            yield self.edge_index(f, k), f ^ b
            yield self.edge_index(f ^ a, k + 1), f ^ a
            yield self.edge_index(f ^ b, k), f ^ b
            yield self.edge_index(f, k + 1), f ^ a

    def _build_h1(self) -> None:
        # Tree-cotree: a BFS over the faces from face 0, crossing non-tree
        # edges only, grows the cotree; the non-tree edges left over are the
        # basis. Leaves first, each face gives its cotree edge the XOR of its
        # other edges. Face 0's relation follows (each edge is in two faces).
        nontree = set(self.nontree_edges)
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
        self.edge_classes = tuple(classes)
        self.unit_cycle_words = tuple(self.schreier_word(e) for e in basis)
        # The edge table by (letter, start vertex): letter k from v runs
        # along edge (v, k), letter -k along edge (v ^ bit, k) backwards.
        self._letter_classes = {}
        self._letter_flips = {}
        for k in range(1, 2 * self.genus + 1):
            bit = 1 << (k - 1)
            forward = tuple(classes[self.edge_index(v, k)] for v in range(self.n_vertices))
            self._letter_classes[k] = forward
            self._letter_classes[-k] = tuple(forward[v ^ bit] for v in range(self.n_vertices))
            self._letter_flips[k] = self._letter_flips[-k] = bit


def build_mod2_cover(genus: int) -> CoverCW:
    """Build the mod-2 homology cover complex for a genus-g surface."""
    return CoverCW(genus)


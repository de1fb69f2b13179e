"""Vertices and dimension of the barcode polytopes.

Each lattice element embeds into the ambient permutation-vector space of
dimension N = n * (2^k + 1): distinguish copies, identify the symbol-copies
with 1..N in their total order, and read off the rank occupying each
position.  The polytope is the convex hull of these vectors.  They are
scattered from the lattice's word table, one row per element, in blocks of
rows, and the dimension and both writers read that array.

Its affine dimension is computed two independent ways.  The first is the
exact rank of the difference vectors D (one row per vertex but the first):
numpy forms the N x N Gram matrix G = D^T D in int64, or over Python
integers when its entries could reach 2^63, and fraction-free (Bareiss)
elimination ranks G without floats.  This is exact because Gx = 0 gives
|Dx|^2 = x^T G x = 0, so G and D have the same kernel.  The second is N
minus the number of blocks cut out by one maximal sorting chain up to the
fully nested permutation.  Both equal N - 2 whenever n >= 2.
"""

from __future__ import annotations

import numpy as np

from . import multiperm
from .lattice import (
    DEFAULT_POSITION_CAP,
    LatticeSpec,
    _check_cap,
    _frozen,
    _joined,
    _json_rows,
    _text,
    _word_table,
    top_element,
)
from .multiperm import iota


class VertexSet:
    """Integer vertex vectors, each a permutation of 1..ambient_dimension,
    as the rows of an integer array.  An integer array is kept as it is;
    other vectors become int64, or Python integers (``dtype=object``) where
    int64 does not hold them.

    Vertex sets are equal when their ambient dimensions and vector values
    are, and hash alike then: by the vectors' bytes as int64.
    """

    def __init__(self, ambient_dimension: int, vectors):
        self.ambient_dimension = ambient_dimension
        if not (isinstance(vectors, np.ndarray) and vectors.dtype.kind in "iu"):
            try:
                vectors = np.asarray(vectors, dtype=np.int64)
            except OverflowError:
                vectors = np.array(vectors, dtype=object)
        self.vectors = _frozen(vectors)

    def __eq__(self, other):
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.ambient_dimension == other.ambient_dimension and np.array_equal(
            self.vectors, other.vectors
        )

    def __hash__(self) -> int:
        vectors = self.vectors
        if vectors.dtype == object:
            data = repr(vectors.tolist())
        else:
            data = vectors.astype(np.int64, copy=False).tobytes()
        return hash((self.ambient_dimension, vectors.shape, data))

    def __repr__(self) -> str:
        return f"VertexSet({self.ambient_dimension}, {len(self.vectors)} vectors)"


def vertices(spec: LatticeSpec, cap: int = DEFAULT_POSITION_CAP) -> VertexSet:
    """One vertex per lattice element, in element (lexicographic) order, in
    the narrowest unsigned dtype.

    Copy r of symbol s becomes (s - 1) * m + r, so each word's vector lists
    these labels in word order.  A stable argsort of a word lists its
    positions in label order, and 1..N is scattered through it.  Words are
    sorted in blocks of at most ``multiperm._CELLS`` positions, so the int64
    argsort never spans the whole table.
    """
    _check_cap(spec, cap)
    words, _ = _word_table(spec.n, spec.m)
    labels = np.arange(1, spec.positions + 1, dtype=np.min_scalar_type(spec.positions))
    vectors = np.empty(words.shape, dtype=labels.dtype)
    step = multiperm._CELLS // spec.positions or 1
    for start in range(0, len(words), step):
        block = slice(start, start + step)
        order = np.argsort(words[block], axis=1, kind="stable")
        np.put_along_axis(vectors[block], order, labels, axis=1)
    return VertexSet(spec.positions, vectors)


def word_from_vector(vec: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Invert the embedding: recover the word from a vertex vector."""
    return tuple((v - 1) // m + 1 for v in vec)


def integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    pivot_row = 0
    prev = 1
    for col in range(n_cols):
        pivot = next(
            (i for i in range(pivot_row, n_rows) if mat[i][col] != 0), None
        )
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        lead = mat[pivot_row][col]
        for i in range(pivot_row + 1, n_rows):
            factor = mat[i][col]
            for j in range(col + 1, n_cols):
                mat[i][j] = (lead * mat[i][j] - factor * mat[pivot_row][j]) // prev
            mat[i][col] = 0
        prev = lead
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return pivot_row


def _narrow(mat: np.ndarray, largest: int) -> np.ndarray:
    """An integer array whose entries are at most ``largest`` in absolute
    value, in the narrowest signed dtype that holds that bound, or over
    Python integers (``dtype=object``) when int64 does not."""
    return mat.astype(np.min_scalar_type(-largest - 1), copy=False)


def _largest(mat: np.ndarray) -> int:
    return max(int(mat.max()), -int(mat.min()))


def _gram_rank(mat: np.ndarray) -> int:
    """Rank over the rationals of an integer matrix D (rows x N), as the
    Bareiss rank of its N x N Gram matrix G = D^T D.

    Gx = 0 gives |Dx|^2 = x^T G x = 0, so G and D have the same kernel and
    the same rank.  Each entry of G is at most rows * max|D|^2 in absolute
    value: below 2^63 it is summed in int64, otherwise over Python integers.
    """
    if mat.size == 0:
        return 0
    largest = _largest(mat)
    if len(mat) * largest * largest < 2**63:
        mat = _narrow(mat, largest)
        gram = np.einsum("ij,ik->jk", mat, mat, dtype=np.int64)
    else:
        mat = mat.astype(object)
        gram = mat.T @ mat
    return integer_rank(gram.tolist())


def affine_dimension(vertex_set: VertexSet) -> int:
    """Dimension of the affine hull, in exact integer arithmetic: the rank
    of the differences to the first vertex, from their Gram matrix."""
    vecs = vertex_set.vectors
    vecs = _narrow(vecs, 2 * _largest(vecs))  # room for every difference
    return _gram_rank(vecs[1:] - vecs[0])


def pi_partition_blocks(spec: LatticeSpec) -> int:
    """Blocks of the transposition graph along one maximal sorting chain.

    Walks from the identity to the fully nested permutation by moving each
    symbol-copy into place, symbols ascending and copies in descending copy
    order, each step an adjacent swap of an increasing pair.  Returns the
    number of connected components of the path graph on the N positions
    whose edges are the swap positions used; the polytope dimension is N
    minus this count.
    """
    target = list(iota(top_element(spec)))
    position = {elem: p for p, elem in enumerate(target)}
    current = sorted(target)
    used: set[int] = set()
    for sym in range(1, spec.n + 1):
        for copy in range(spec.m, 0, -1):
            elem = (sym, copy)
            cur = current.index(elem)
            tgt = position[elem]
            assert cur <= tgt, "sorting chain moved an element backwards"
            while cur < tgt:
                assert current[cur] < current[cur + 1], "swap is not a cover"
                current[cur], current[cur + 1] = current[cur + 1], current[cur]
                used.add(cur)
                cur += 1
    assert current == target
    return spec.positions - len(used)


def dimension_report(spec: LatticeSpec, cap: int = DEFAULT_POSITION_CAP) -> dict:
    """JSON-ready summary: ambient dimension, exact dim, formula, blocks."""
    return _dimension_report(spec, vertices(spec, cap))


def _dimension_report(spec: LatticeSpec, vertex_set: VertexSet) -> dict:
    """``dimension_report`` for vertices already computed for ``spec``."""
    return {
        "ambient": spec.positions,
        "dim": affine_dimension(vertex_set),
        "expected": spec.positions - 2,
        "blocks": pi_partition_blocks(spec),
    }


def format_vertices_csv(vertex_set: VertexSet) -> str:
    """One line per vector, its entries separated by commas."""
    vecs = vertex_set.vectors
    return _text(len(vecs), [*_joined(vecs, ","), "\n"]) or "\n"  # none: one empty line


def format_vertices_json(vertex_set: VertexSet) -> str:
    """``json.dumps`` of the vectors as a list of lists."""
    return "".join(_json_rows(vertex_set.vectors))

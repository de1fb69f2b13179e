"""Vertices and dimension of the barcode polytopes.

Each lattice element embeds into the ambient permutation-vector space of
dimension N = n * (2^k + 1): distinguish copies, identify the symbol-copies
with 1..N in their total order, and read off the rank occupying each
position.  The polytope is the convex hull of these vectors.  They are the
rows of the lattice's word table, which numbers copy r of symbol s as
(s - 1) * m + r while it builds the words, so the vertices are that array
as it is.  The dimension and both writers read it; the writers yield the
text in blocks of a few MB, which the CLI writes as they come.

Its affine dimension is computed two independent ways.  The first is the
exact rank of the difference vectors D (one row per vertex but the first):
the N x N Gram matrix G = D^T D is a float64 BLAS product over blocks of
rows while every entry is provably an integer below 2^53, and is summed
over Python integers beyond that, and fraction-free (Bareiss) elimination
ranks G without floats.  This is exact because Gx = 0 gives
|Dx|^2 = x^T G x = 0, so G and D have the same kernel.  The second is N
minus the number of blocks cut out by a maximal sorting chain up to the
fully nested permutation, read off the top's copy labels: the chain swaps
across the cut after position p exactly when the largest of the first p
labels exceeds p.  Both equal N - 2 whenever n >= 2.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import multiperm
from .multiperm import _frozen
from .lattice import (
    DEFAULT_POSITION_CAP,
    LatticeSpec,
    _check_cap,
    _joined,
    _json_rows,
    _text_blocks,
    _word_table,
    top_element,
)


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
    the narrowest unsigned dtype: the rows of the lattice's word table, which
    labels copy r of symbol s as (s - 1) * m + r in word order."""
    _check_cap(spec, cap)
    return VertexSet(spec.positions, _word_table(spec.n, spec.m)[0])


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


def _largest(mat: np.ndarray) -> int:
    return max(int(mat.max()), -int(mat.min()))


def _gram_rank(mat: np.ndarray) -> int:
    """Rank over the rationals of an integer matrix D (rows x N), as the
    Bareiss rank of its N x N Gram matrix G = D^T D.

    Gx = 0 gives |Dx|^2 = x^T G x = 0, so G and D have the same kernel and
    the same rank.  While rows * max|D|^2 < 2^53, G is a float64 BLAS
    product, summed over blocks of at most ``multiperm._CELLS`` bytes of
    rows, and it is exact: every product d_ij d_ik and every partial sum of
    entry (j, k), in any order and with or without fused multiply-adds, is
    an integer of magnitude at most sum_i |d_ij d_ik| <= rows * max|D|^2 <
    2^53, and float64 holds every such integer, so no step rounds.  Beyond
    that bound G is summed over Python integers.
    """
    if mat.size == 0:
        return 0
    largest = _largest(mat)
    if len(mat) * largest * largest < 2**53:
        gram = np.zeros((mat.shape[1], mat.shape[1]))
        step = multiperm._CELLS // (8 * mat.shape[1]) or 1
        for start in range(0, len(mat), step):
            block = mat[start : start + step].astype(np.float64)
            gram += block.T @ block
        gram = gram.astype(np.int64)
    else:
        mat = mat.astype(object)
        gram = mat.T @ mat
    return integer_rank(gram.tolist())


def affine_dimension(vertex_set: VertexSet) -> int:
    """Dimension of the affine hull, in exact integer arithmetic: the rank
    of the differences to the first vertex, from their Gram matrix."""
    vecs = vertex_set.vectors
    # a signed dtype with room for every difference, or Python integers
    signed = np.min_scalar_type(-2 * _largest(vecs) - 1)
    return _gram_rank(np.subtract(vecs[1:], vecs[0], dtype=signed))


def pi_partition_blocks(spec: LatticeSpec) -> int:
    """Blocks of the transposition graph along a maximal sorting chain.

    Every chain of covers from the identity up to the fully nested
    permutation swaps adjacent increasing pairs, and it swaps across the cut
    after position p exactly when the top's copy labels do not fill the
    first p positions with 1..p, that is when the largest of the first p
    labels exceeds p.  Returns N minus the number of such cuts: the number
    of connected components of the path graph on the N positions whose
    edges are the swap positions used.  The polytope dimension is N minus
    this count.
    """
    labels = multiperm._labels(top_element(spec))[1] + 1
    cuts = np.maximum.accumulate(labels) > np.arange(1, len(labels) + 1)
    return spec.positions - int(cuts.sum())


def dimension_report(spec: LatticeSpec, cap: int = DEFAULT_POSITION_CAP) -> dict:
    """JSON-ready summary: ambient dimension, exact dim, formula, blocks.
    The formula is N - 2 for n >= 2 and 0 for n = 1, whose lattice is one
    point."""
    return _dimension_report(spec, vertices(spec, cap))


def _dimension_report(spec: LatticeSpec, vertex_set: VertexSet) -> dict:
    """``dimension_report`` for vertices already computed for ``spec``."""
    return {
        "ambient": spec.positions,
        "dim": affine_dimension(vertex_set),
        "expected": spec.positions - 2 if spec.n > 1 else 0,
        "blocks": pi_partition_blocks(spec),
    }


def vertices_csv_chunks(vertex_set: VertexSet) -> Iterator[str]:
    """One line per vector, its entries separated by commas, in blocks of
    whole lines of at most a few MB, like ``HasseDiagram.dot_chunks``."""
    vecs = vertex_set.vectors
    if not len(vecs):
        yield "\n"  # no vectors: one empty line
        return
    yield from _text_blocks(len(vecs), [*_joined(vecs, ","), "\n"])


def vertices_json_chunks(vertex_set: VertexSet) -> Iterator[str]:
    """``json.dumps`` of the vectors as a list of lists, in pieces of at
    most a few MB."""
    return _json_rows(vertex_set.vectors)


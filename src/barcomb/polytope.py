"""Vertices and dimension of the barcode polytopes.

Each lattice element embeds into the ambient permutation-vector space of
dimension N = n * (2^k + 1): distinguish copies, identify the symbol-copies
with 1..N in their total order, and read off the rank occupying each
position.  The polytope is the convex hull of these vectors.

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

from dataclasses import dataclass

import numpy as np

from .lattice import (
    DEFAULT_POSITION_CAP,
    LatticeSpec,
    _check_cap,
    _joined,
    _json_rows,
    _text,
    _word_stream,
    top_element,
)
from .multiperm import iota


@dataclass(frozen=True)
class VertexSet:
    """Integer vertex vectors, each a permutation of 1..ambient_dimension."""

    ambient_dimension: int
    vectors: tuple[tuple[int, ...], ...]


def vertices(spec: LatticeSpec, cap: int = DEFAULT_POSITION_CAP) -> VertexSet:
    """One vertex per lattice element, in element (lexicographic) order.

    Copy r of symbol s becomes (s - 1) * m + r, so each word's vector lists
    these labels in word order.
    """
    _check_cap(spec, cap)
    first_labels = [0, *range(1, spec.positions, spec.m)]  # indexed by symbol
    vectors = []
    for word, _ in _word_stream(spec.n, spec.m):
        label = first_labels.copy()
        vec = []
        for sym in word:
            vec.append(label[sym])
            label[sym] += 1
        vectors.append(tuple(vec))
    return VertexSet(ambient_dimension=spec.positions, vectors=tuple(vectors))


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


def _vector_array(vertex_set: VertexSet) -> np.ndarray:
    """The vectors as the rows of an int64 array, or of Python integers
    (``dtype=object``) beyond int64."""
    try:
        return np.array(vertex_set.vectors, dtype=np.int64)
    except OverflowError:
        return np.array(vertex_set.vectors, dtype=object)


def affine_dimension(vertex_set: VertexSet) -> int:
    """Dimension of the affine hull, in exact integer arithmetic: the rank
    of the differences to the first vertex, from their Gram matrix."""
    vecs = _vector_array(vertex_set)
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
    vecs = _vector_array(vertex_set)
    return _text(len(vecs), [*_joined(vecs, ","), "\n"]) or "\n"  # none: one empty line


def format_vertices_json(vertex_set: VertexSet) -> str:
    """``json.dumps`` of the vectors as a list of lists."""
    return _json_rows(_vector_array(vertex_set))

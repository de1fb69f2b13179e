import json
from unittest import mock

import numpy as np
import pytest
from helpers import (
    ORACLE_SPECS,
    bareiss_affine_dimension,
    chain_partition_blocks,
    dumps_vertices_json,
    joined_vertices_csv,
    reference_vertices,
    text_mismatch,
    word_from_vector,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import barcomb.multiperm
import barcomb.polytope
from barcomb.errors import InvalidWordError
from barcomb.lattice import LatticeSpec, enumerate_lattice
from barcomb.multiperm import rank
from barcomb.polytope import (
    VertexSet,
    affine_dimension,
    dimension_report,
    integer_rank,
    pi_partition_blocks,
    vertices,
    vertices_csv_chunks,
    vertices_json_chunks,
)
from barcomb.polytope import _gram_rank


def test_integer_rank():
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[2, 4], [1, 2]]) == 1
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([]) == 0
    assert integer_rank([[0, 1, -1, 0], [0, 1, 1, -2]]) == 2
    # needs exact arithmetic: these rows are dependent over the rationals
    assert integer_rank([[3, 6, 9], [5, 10, 15], [1, 2, 4]]) == 2


def test_vertices_two_bars():
    vs = vertices(LatticeSpec(2, 0))
    assert vs.ambient_dimension == 4
    assert set(map(tuple, vs.vectors.tolist())) == {(1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2)}


def test_vertices_single_bar():
    vs = vertices(LatticeSpec(1, 0))
    assert vs.vectors.tolist() == [[1, 2]]
    assert affine_dimension(vs) == 0


def test_vertices_level_one():
    vs = vertices(LatticeSpec(2, 1))
    assert vs.ambient_dimension == 6
    assert len(vs.vectors) == 10
    assert len(set(map(tuple, vs.vectors.tolist()))) == 10
    for vec in vs.vectors:
        assert sorted(vec) == list(range(1, 7))


@pytest.mark.parametrize(
    "n,k,dim",
    [(1, 0, 0), (2, 0, 2), (3, 0, 4), (2, 1, 4), (3, 1, 7), (4, 0, 6)],
)
def test_affine_dimension_formula(n, k, dim):
    spec = LatticeSpec(n, k)
    assert affine_dimension(vertices(spec)) == dim == spec.positions - 2


@pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (4, 0)])
def test_blocks_and_rank_agree(n, k):
    spec = LatticeSpec(n, k)
    blocks = pi_partition_blocks(spec)
    assert blocks == 2
    assert affine_dimension(vertices(spec)) == spec.positions - blocks


@pytest.mark.parametrize(
    "n,k",
    [(n, 0) for n in range(1, 9)]
    + [(n, 1) for n in range(1, 6)]
    + [(2, 3), (3, 2)]
    + [(1, k) for k in range(5)],
)
def test_blocks_match_the_sorting_chain(n, k):
    spec = LatticeSpec(n, k)
    assert pi_partition_blocks(spec) == chain_partition_blocks(spec)


def test_single_bar_higher_levels_are_points():
    # with one bar the lattice is a single word: the polytope is a point and
    # the sorting chain is empty, so every position is its own block
    spec = LatticeSpec(1, 2)
    vs = vertices(spec)
    assert len(vs.vectors) == 1
    assert affine_dimension(vs) == 0
    assert pi_partition_blocks(spec) == spec.positions
    assert affine_dimension(vs) == spec.positions - pi_partition_blocks(spec)


def test_dimension_report():
    assert dimension_report(LatticeSpec(2, 1)) == {
        "ambient": 6,
        "dim": 4,
        "expected": 4,
        "blocks": 2,
    }


def test_vectors_decode_to_lattice_elements():
    for n, k in [(2, 0), (3, 0), (2, 1)]:
        spec = LatticeSpec(n, k)
        diagram = enumerate_lattice(spec)
        vs = vertices(spec)
        # row i is a vertex, and it labels element i
        decoded = [word_from_vector(row, spec.m) for row in vs.vectors.tolist()]
        assert decoded == [s.word for s in diagram.elements]


@pytest.mark.parametrize(
    "vec,m",
    [
        ((1, 1, 2, 2), 2),  # a repeated entry
        ((1, 2, 9, 4), 2),  # an entry past N
        ((0, 1, 2, 3), 2),  # an entry below 1
        ((1, 2, 3), 2),  # m does not divide N
        ((2, 1), 0),
        ((2, 1), -1),
        ((), 1),
        ((1.0, 2.0), 1),
        ((1, 2), 2.0),
        ((1, 2), True),
    ],
)
def test_word_from_vector_refuses_what_is_no_vertex(vec, m):
    # the decoding oracle above refuses what is no vertex, so a row that is
    # none cannot pass as an element
    with pytest.raises(InvalidWordError):
        word_from_vector(vec, m)


def test_identity_vector_is_bottom_and_top_is_unique():
    for n, k in [(2, 0), (3, 0), (2, 1)]:
        spec = LatticeSpec(n, k)
        diagram = enumerate_lattice(spec)
        vs = vertices(spec)
        vectors = list(map(tuple, vs.vectors.tolist()))
        identity = tuple(range(1, spec.positions + 1))
        assert identity in vectors
        bottom = vectors.index(identity)
        assert rank(diagram.elements[bottom]) == 0

        def inversions(vec):
            return sum(
                1
                for a in range(len(vec))
                for b in range(a + 1, len(vec))
                if vec[a] > vec[b]
            )

        counts = [inversions(v) for v in vectors]
        assert counts.count(max(counts)) == 1


def test_emitters():
    vs = VertexSet(4, ((1, 2, 3, 4), (1, 3, 2, 4)))
    assert "".join(vertices_csv_chunks(vs)) == "1,2,3,4\n1,3,2,4\n"
    assert json.loads("".join(vertices_json_chunks(vs))) == [[1, 2, 3, 4], [1, 3, 2, 4]]


@pytest.mark.parametrize(
    "vs",
    [
        # n = 12 at k = 0: two-digit entries
        VertexSet(24, (tuple(range(1, 25)), tuple(range(24, 0, -1)))),
        VertexSet(3, ((10**5, 0, 7), (2**32, 2**64, 2**70))),  # up to Python ints
        VertexSet(2, ((1, 2),)),
        VertexSet(2, ()),
        VertexSet(0, ((), ())),
    ],
)
def test_vertex_writers_of_hand_built_sets(vs):
    assert "".join(vertices_csv_chunks(vs)) == joined_vertices_csv(vs)
    assert "".join(vertices_json_chunks(vs)) == dumps_vertices_json(vs)


@pytest.mark.parametrize("n,k", ORACLE_SPECS)
def test_vertices_and_dimension_match_oracles(n, k):
    spec = LatticeSpec(n, k)
    vs = vertices(spec, cap=spec.positions)
    reference = reference_vertices(n, k)
    assert vs == reference
    assert affine_dimension(vs) == bareiss_affine_dimension(reference)
    assert text_mismatch("".join(vertices_csv_chunks(vs)), joined_vertices_csv(vs)) is None
    assert text_mismatch("".join(vertices_json_chunks(vs)), dumps_vertices_json(vs)) is None


def test_vertex_labels_beyond_one_byte():
    # 257 positions: the word table's labels need uint16, and a copy label
    # kept in any narrower dtype would wrap at copy 256
    spec = LatticeSpec(1, 8)
    vs = vertices(spec, cap=257)
    assert vs.vectors.dtype == np.uint16
    assert vs == reference_vertices(1, 8)


@st.composite
def integer_matrices(draw):
    """Integer rows, often dependent: combinations of a few base rows, with
    repeated, scaled, negated and zero rows among them."""
    cols = draw(st.integers(1, 7))
    entries = st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40))
    base = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=4))
    coefficients = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    rows = list(base)
    for coef in draw(st.lists(coefficients, max_size=6)):
        rows.append([sum(c * row[j] for c, row in zip(coef, base)) for j in range(cols)])
    return draw(st.permutations(rows))


@settings(deadline=None, max_examples=300)
@given(integer_matrices(), st.sampled_from([1, 24, 100, barcomb.multiperm._CELLS]))
def test_gram_rank_equals_bareiss_rank(rows, cells):
    # float64 blocks of 1 cell: one row each; of 24 and 100 cells: 3 and 12
    # rows of one column, 1 and 4 rows of three, so most matrices end in a
    # partial block
    with mock.patch.object(barcomb.multiperm, "_CELLS", cells):
        assert _gram_rank(np.array(rows, dtype=object)) == integer_rank(rows)
    vs = VertexSet(len(rows[0]), tuple(map(tuple, [[0] * len(rows[0])] + rows)))
    assert affine_dimension(vs) == integer_rank(rows)


def gram_rank(rows):
    return _gram_rank(np.array(rows, dtype=object))


def test_gram_rank_edge_cases():
    assert gram_rank([[0, 0, 0]]) == 0
    assert gram_rank([[0, -4, 7]]) == 1
    assert gram_rank([[1, 2], [2, 4], [-3, -6], [0, 0]]) == 1
    assert gram_rank([[2**70, 1], [2**70, 1]]) == 1
    assert gram_rank([[2**70, 1], [1, 2**70]]) == 2
    assert _gram_rank(np.zeros((0, 5), dtype=np.int64)) == 0


def test_gram_matrix_exact_beyond_int64(monkeypatch):
    # entries fit int32, but four rows of them give Gram entries near 2^64:
    # the product must be taken over Python integers
    big = 2**31 - 1
    rows = [[big, big, 0], [big, -big, 0], [big, big, 0], [big, 0, big]]
    grams = []

    def spy(matrix):
        grams.append(matrix)
        return integer_rank(matrix)

    monkeypatch.setattr(barcomb.polytope, "integer_rank", spy)
    assert _gram_rank(np.array(rows, dtype=np.int32)) == integer_rank(rows) == 3
    exact = [[sum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    assert grams == [exact] and exact[0][0] > 2**63


@pytest.mark.parametrize(
    "vectors, dim",
    [
        (((2**40, 0, 1), (2**40 + 1, 1, 1), (2**41, 2**40 + 5, 1), (2, 2, 2)), 3),
        (((2**70, 1), (2**70 + 1, 2), (2**70, 5)), 2),  # beyond int64, small steps
        (((2**62, 0), (-(2**62), 0), (0, 2**62 - 1)), 2),  # steps beyond int64
        (((7, 7, 7),), 0),
    ],
)
def test_affine_dimension_of_large_coordinates(vectors, dim):
    vs = VertexSet(len(vectors[0]), vectors)
    assert affine_dimension(vs) == bareiss_affine_dimension(vs) == dim


class Recording(np.ndarray):
    """An integer matrix that records the dtypes it is converted to, so a
    test can see which path of ``_gram_rank`` read it."""

    conversions: list = []

    def astype(self, dtype, *args, **kwargs):
        Recording.conversions.append(np.dtype(dtype))
        return super().astype(dtype, *args, **kwargs)


def gram_paths(mat: np.ndarray) -> tuple[list, set]:
    """The Gram matrix that ``_gram_rank`` hands to ``integer_rank`` for
    ``mat``, and the dtypes it converted ``mat`` to on the way."""
    Recording.conversions, grams = [], []

    def spy(matrix):
        grams.append(matrix)
        return integer_rank(matrix)

    with mock.patch.object(barcomb.polytope, "integer_rank", spy):
        rank = _gram_rank(mat.view(Recording))
    assert len(grams) == 1 and rank == integer_rank(grams[0])
    return grams[0], set(Recording.conversions)


def exact_gram(rows: list[list[int]]) -> list[list[int]]:
    cols = range(len(rows[0]))
    return [[sum(r[i] * r[j] for r in rows) for j in cols] for i in cols]


def test_gram_of_an_int8_vertex_table_is_exact_in_float64(monkeypatch):
    spec = LatticeSpec(3, 1)
    vecs = vertices(spec).vectors.astype(np.int8)
    diffs = vecs[1:] - vecs[0]  # 279 rows of 9 positions, as int8
    monkeypatch.setattr(barcomb.multiperm, "_CELLS", 8 * 9 * 50)  # 50 rows a block
    gram, paths = gram_paths(diffs)
    assert paths == {np.dtype(np.float64)}
    assert gram == exact_gram(diffs.tolist())
    assert {type(entry) for row in gram for entry in row} == {int}
    assert integer_rank(gram) == spec.positions - 2


def test_gram_bound_separates_float_and_integer_paths():
    # 94 906 265^2 < 2^53 <= 94 906 266^2: one row of the smaller entry
    # takes float64, and its odd square, past float32's and within
    # float64's exact integers, comes out exact; one row of the larger
    # entry takes Python integers
    below, above = 94_906_265, 94_906_266
    assert gram_paths(np.array([[below, 0]])) == (exact_gram([[below, 0]]), {np.dtype(np.float64)})
    assert gram_paths(np.array([[above, 0]])) == (exact_gram([[above, 0]]), {np.dtype(object)})
    # two rows of 2^26 make rows * largest^2 = 2^53, just past the bound;
    # their first row alone is below it, and both paths agree with Bareiss
    rows = [[2**26, 1, 1], [1, 2**26, -1]]
    assert gram_paths(np.array(rows)) == (exact_gram(rows), {np.dtype(object)})
    assert gram_paths(np.array(rows[:1])) == (exact_gram(rows[:1]), {np.dtype(np.float64)})
    assert _gram_rank(np.array(rows)) == integer_rank(rows) == 2
    assert _gram_rank(np.array(rows[:1])) == integer_rank(rows[:1]) == 1

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shiftkrylov import (
    CsrMatrix,
    IndexOutOfRange,
    ParseError,
    UnsupportedFormat,
    load_matrix_market,
    save_matrix_market,
)


def write(tmp_path, text, name="m.mtx"):
    p = tmp_path / name
    p.write_text(text)
    return p


GENERAL = """%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.5
2 2 -1.0
3 1 4.0
3 3 0.5
"""


def test_load_general(tmp_path):
    A = load_matrix_market(write(tmp_path, GENERAL))
    assert isinstance(A, CsrMatrix)
    assert A.shape == (3, 3)
    assert A.nnz == 4
    assert_allclose(
        A.toarray(),
        [[2.5, 0, 0], [0, -1.0, 0], [4.0, 0, 0.5]],
    )


def test_load_symmetric_expands(tmp_path):
    text = """%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 3.0
2 1 -1.0
2 2 3.0
"""
    A = load_matrix_market(write(tmp_path, text))
    assert A.nnz == 4
    assert_allclose(A.toarray(), [[3.0, -1.0], [-1.0, 3.0]])


def test_load_pattern_and_integer(tmp_path):
    pat = """%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
"""
    A = load_matrix_market(write(tmp_path, pat))
    assert_allclose(A.toarray(), [[0.0, 1.0], [1.0, 0.0]])
    integer = """%%MatrixMarket matrix coordinate integer general
2 2 1
2 2 7
"""
    B = load_matrix_market(write(tmp_path, integer, "i.mtx"))
    assert B.toarray()[1, 1] == 7.0


def test_load_complex(tmp_path):
    text = """%%MatrixMarket matrix coordinate complex general
2 2 1
1 2 1.5 -2.0
"""
    A = load_matrix_market(write(tmp_path, text))
    assert np.iscomplexobj(A.values)
    assert A.toarray()[0, 1] == 1.5 - 2.0j


def test_rejects_array_and_odd_symmetries(tmp_path):
    arr = """%%MatrixMarket matrix array real general
2 2
1.0
2.0
3.0
4.0
"""
    with pytest.raises(UnsupportedFormat):
        load_matrix_market(write(tmp_path, arr))
    herm = """%%MatrixMarket matrix coordinate complex hermitian
2 2 1
1 1 1.0 0.0
"""
    with pytest.raises(UnsupportedFormat):
        load_matrix_market(write(tmp_path, herm, "h.mtx"))


def test_parse_errors_carry_line_numbers(tmp_path):
    bad_header = "%%NotMatrixMarket nonsense\n1 1 1\n1 1 1.0\n"
    with pytest.raises(ParseError) as exc:
        load_matrix_market(write(tmp_path, bad_header))
    assert "line 1" in str(exc.value)

    bad_entry = """%%MatrixMarket matrix coordinate real general
2 2 1
1 x 1.0
"""
    with pytest.raises(ParseError) as exc:
        load_matrix_market(write(tmp_path, bad_entry, "e.mtx"))
    assert "line 3" in str(exc.value)

    short = """%%MatrixMarket matrix coordinate real general
2 2 3
1 1 1.0
"""
    with pytest.raises(ParseError):
        load_matrix_market(write(tmp_path, short, "s.mtx"))


BANNER = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("text, error, message", [
    ("%%MatrixMarket vector coordinate real general\n2 1\n",
     UnsupportedFormat, "object 'vector'"),
    ("%%MatrixMarket matrix sparse real general\n", ParseError, "line 1: unknown format"),
    ("%%MatrixMarket matrix coordinate float general\n", ParseError, "line 1: unknown field"),
    ("%%MatrixMarket matrix coordinate real diagonal\n", ParseError,
     "line 1: unknown symmetry"),
    ("", ParseError, "line 1: empty file"),
    (BANNER + "2 2 2\n1 1 1.0\n% late\n2 2 1.0\n", ParseError,
     "line 4: comment line after data began"),
    (BANNER + "2 2\n", ParseError, "line 2: size line must have 3 integers, got 2"),
    (BANNER + "2 2 1 1\n", ParseError, "line 2: size line must have 3 integers, got 4"),
    (BANNER + "0 2 1\n", ParseError, "line 2: invalid size line"),
    (BANNER + "2 -2 1\n", ParseError, "line 2: invalid size line"),
    (BANNER + "2 2 -1\n", ParseError, "line 2: invalid size line"),
    (BANNER + "2 2 1\n1 1\n", ParseError, "line 3: real entry needs 3 tokens, got 2"),
    (BANNER + "2 2 1\n1 1 1.0 0.0\n", ParseError, "line 3: real entry needs 3 tokens, got 4"),
    (BANNER + "2 2 1\n1 1 1.0\n2 2 1.0\n", ParseError,
     "line 4: more entries than the declared 1"),
    (BANNER + "% only comments\n", ParseError, "line 2: missing size line"),
])
def test_rejects_malformed_files(tmp_path, text, error, message):
    with pytest.raises(error, match=message):
        load_matrix_market(write(tmp_path, text))


def test_out_of_range_indices(tmp_path):
    text = """%%MatrixMarket matrix coordinate real general
2 2 1
3 1 1.0
"""
    with pytest.raises(IndexOutOfRange):
        load_matrix_market(write(tmp_path, text))


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    n, nnz = 17, 61
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz) * np.exp(rng.uniform(-20, 20, nnz))
    A = CsrMatrix.from_triplets(rows, cols, vals, (n, n))
    p = tmp_path / "rt.mtx"
    save_matrix_market(A, p, comments=["round trip check"])
    B = load_matrix_market(p)
    assert B.shape == A.shape
    assert B.nnz == A.nnz
    # exact equality, not approximate: the writer must not lose bits
    assert np.array_equal(A.toarray(), B.toarray())


def test_round_trip_complex(tmp_path):
    A = CsrMatrix.from_triplets(
        [0, 1], [1, 0], [1.0 / 3.0 + 2.0j / 7.0, -5e300 + 1e-300j], (2, 2)
    )
    p = tmp_path / "c.mtx"
    save_matrix_market(A, p)
    B = load_matrix_market(p)
    assert np.array_equal(A.toarray(), B.toarray())


def test_written_text_is_pinned(tmp_path):
    # a row without entries, a comment, shortest round-trip floats, and
    # one-based indices in row-major order
    real = CsrMatrix.from_triplets(
        [2, 0, 0, 2], [1, 2, 0, 0], [1.0 / 3.0, -1e-300, 2.5, 4.0], (3, 3)
    )
    p = tmp_path / "r.mtx"
    save_matrix_market(real, p, comments=["golden"])
    assert p.read_text() == (
        "%%MatrixMarket matrix coordinate real general\n"
        "% golden\n"
        "3 3 4\n"
        "1 1 2.5\n"
        "1 3 -1e-300\n"
        "3 1 4.0\n"
        "3 2 0.3333333333333333\n"
    )
    cplx = CsrMatrix.from_triplets([1, 0], [0, 1], [-0.5 + 2.0j / 7.0, 3.0 - 1.0j], (2, 2))
    save_matrix_market(cplx, p)
    assert p.read_text() == (
        "%%MatrixMarket matrix coordinate complex general\n"
        "2 2 2\n"
        "1 2 3.0 -1.0\n"
        "2 1 -0.5 0.2857142857142857\n"
    )

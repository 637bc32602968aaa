"""Matrix Market coordinate file reader and writer.

Reads the coordinate (sparse) variant with ``real``, ``integer``,
``complex`` or ``pattern`` fields and ``general`` or ``symmetric``
symmetry.  The dense ``array`` variant and the ``hermitian`` and
``skew-symmetric`` symmetries are rejected as unsupported rather than
silently misread.  The writer emits ``general`` files whose values
round-trip bit-exactly through the reader.
"""

import numpy as np

from .errors import IndexOutOfRange, ParseError, UnsupportedFormat
from .sparse import CsrMatrix

__all__ = ["load_matrix_market", "save_matrix_market"]

_FIELDS = ("real", "integer", "complex", "pattern")
_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")


def _parse_banner(line):
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise ParseError(
            "header must read '%%MatrixMarket matrix coordinate <field> <symmetry>'",
            lineno=1,
        )
    obj, fmt, field, symmetry = (p.lower() for p in parts[1:])
    if obj != "matrix":
        raise UnsupportedFormat(f"object {obj!r} is not supported, only 'matrix'")
    if fmt == "array":
        raise UnsupportedFormat("dense 'array' files are not supported, only 'coordinate'")
    if fmt != "coordinate":
        raise ParseError(f"unknown format {fmt!r}", lineno=1)
    if field not in _FIELDS:
        raise ParseError(f"unknown field {field!r}", lineno=1)
    if symmetry not in _SYMMETRIES:
        raise ParseError(f"unknown symmetry {symmetry!r}", lineno=1)
    if symmetry in ("hermitian", "skew-symmetric"):
        raise UnsupportedFormat(f"symmetry {symmetry!r} is not supported")
    return field, symmetry


def _parse_float(tok, lineno):
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"bad numeric value {tok!r}", lineno=lineno) from None


def _parse_int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", lineno=lineno) from None


def load_matrix_market(path):
    """Read a Matrix Market coordinate file into a :class:`CsrMatrix`.

    Parameters
    ----------
    path : str or Path
        File to read.

    Returns
    -------
    CsrMatrix
        Duplicate entries are summed.  ``symmetric`` storage is expanded
        to its full general form.  ``pattern`` entries get value 1.0 and
        ``integer`` values are converted to floating point.

    Raises
    ------
    ParseError
        Malformed header, size line, entry line, or entry count.
    UnsupportedFormat
        ``array`` files, ``hermitian`` or ``skew-symmetric`` symmetry.
    IndexOutOfRange
        An entry index outside the declared dimensions.
    """
    with open(path, "rt", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", lineno=1)
    field, symmetry = _parse_banner(lines[0])

    ntok = {"pattern": 2, "real": 3, "integer": 3, "complex": 4}[field]
    size = None
    rows, cols, vals = [], [], []
    seen = 0
    declared = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            if size is None:
                continue
            raise ParseError("comment line after data began", lineno=lineno)
        toks = line.split()
        if size is None:
            if len(toks) != 3:
                raise ParseError(
                    f"size line must have 3 integers, got {len(toks)} tokens",
                    lineno=lineno,
                )
            nrows = _parse_int(toks[0], lineno, "row count")
            ncols = _parse_int(toks[1], lineno, "column count")
            declared = _parse_int(toks[2], lineno, "entry count")
            if nrows <= 0 or ncols <= 0 or declared < 0:
                raise ParseError(
                    f"invalid size line {nrows} {ncols} {declared}", lineno=lineno
                )
            size = (nrows, ncols)
            continue
        if len(toks) != ntok:
            raise ParseError(
                f"{field} entry needs {ntok} tokens, got {len(toks)}", lineno=lineno
            )
        i = _parse_int(toks[0], lineno, "row index")
        j = _parse_int(toks[1], lineno, "column index")
        if not (1 <= i <= size[0] and 1 <= j <= size[1]):
            raise IndexOutOfRange(
                f"line {lineno}: entry ({i}, {j}) outside declared "
                f"{size[0]}x{size[1]} matrix"
            )
        if field == "pattern":
            v = 1.0
        elif field == "complex":
            v = complex(_parse_float(toks[2], lineno), _parse_float(toks[3], lineno))
        else:
            v = _parse_float(toks[2], lineno)
        seen += 1
        if seen > declared:
            raise ParseError(
                f"more entries than the declared {declared}", lineno=lineno
            )
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            vals.append(v)

    if size is None:
        raise ParseError("missing size line", lineno=len(lines))
    if seen != declared:
        raise ParseError(
            f"declared {declared} entries but found {seen}", lineno=len(lines)
        )
    dtype = np.complex128 if field == "complex" else np.float64
    return CsrMatrix.from_triplets(
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=dtype),
        size,
    )


def _fmt_real(x):
    # repr() of a Python float is the shortest string that reads back to
    # the same bits, which is what makes round-trips exact.
    return repr(float(x))


def save_matrix_market(A, path, comments=()):
    """Write a :class:`CsrMatrix` as a ``coordinate ... general`` file.

    Real matrices are written with field ``real``, complex ones with
    ``complex``.  Values are formatted so that reading the file back
    reproduces them bit-exactly.
    """
    iscomplex = np.issubdtype(A.dtype, np.complexfloating)
    field = "complex" if iscomplex else "real"
    nrows, ncols = A.shape
    with open(path, "wt", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        for c in comments:
            fh.write(f"% {c}\n")
        fh.write(f"{nrows} {ncols} {A.nnz}\n")
        rows = np.repeat(np.arange(1, nrows + 1), np.diff(A.row_ptr))
        for i, j, v in zip(rows.tolist(), (A.col_idx + 1).tolist(), A.values.tolist()):
            value = f"{_fmt_real(v.real)} {_fmt_real(v.imag)}" if iscomplex else _fmt_real(v)
            fh.write(f"{i} {j} {value}\n")

"""Sparse matrices in compressed sparse row form with counted products.

The solvers in this package charge their work in matrix-vector products
(MVPs).  :class:`CsrMatrix` therefore owns an :class:`MvpCounter` that is
incremented by every product, so a caller can meter the cost of any
sequence of operations:

>>> A = CsrMatrix.from_triplets([0, 1], [0, 1], [2.0, 3.0], (2, 2))
>>> _ = A @ [1.0, 1.0]
>>> A.counter.count
1

Storage is delegated to ``scipy.sparse``; this module fixes the
interface (explicit CSR views, strict shape checks, duplicate summing)
and the accounting.  A product calls the compiled kernel that
``scipy.sparse``'s ``@`` ends in (``dia_matvec`` or ``csr_matvec`` of
its private ``_sparsetools``) straight into a zeroed result, so it is
bitwise the same product without the Python dispatch around it.

CSR is the storage of record, but a matrix picks its product kernel from
its pattern, once, when it is built.  A pattern on few diagonals, such as
a stencil's, is also stored by diagonals (``scipy.sparse.dia_matrix``,
offsets ascending) and multiplied there; any other pattern is multiplied
in CSR.  Both kernels add each row's terms in increasing column order,
starting from zero, so for finite ``x`` they give bitwise the same
product: a padded slot of a diagonal adds ``0 * x[j]``, which changes no
sum.  For an infinite ``x[j]`` it adds NaN, so the diagonal kernel makes
non-finite every row that CSR does, and possibly more.
"""

from functools import partial

import numpy as np
import scipy.sparse as _sp
from scipy.sparse._sparsetools import csr_matvec, dia_matvec

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDimensions,
    _count,
)

__all__ = ["MvpCounter", "CsrMatrix", "identity"]

# A matrix is multiplied on its diagonals when they hold, padding
# included, at most this many times its stored entries.  On banded
# patterns with random holes (scipy 1.17, 2-vCPU Xeon guest), the diagonal
# kernel was 1.5-2.7x faster than CSR at every padding ratio from 1.02 to
# 4 at n = 27 000, but at n = 1 600 the two were level near a ratio of 2
# and CSR was faster beyond.
_MAX_DIAGONAL_PADDING = 2


class MvpCounter:
    """Counts matrix-vector products.

    >>> c = MvpCounter()
    >>> c.count += 1
    >>> c.count
    1
    >>> c.reset()
    >>> c.count
    0
    """

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0

    def __repr__(self):
        return f"MvpCounter(count={self.count})"


def _diagonal_kernel(csr):
    """``csr`` stored by diagonals, offsets ascending, or None when the
    diagonals its pattern meets would hold more than
    ``_MAX_DIAGONAL_PADDING`` times its stored entries.

    Counts the diagonals in O(nnz + nrows + ncols), without sorting.
    """
    nrows, ncols = csr.shape
    rows = np.repeat(np.arange(nrows), np.diff(csr.indptr))
    # diagonal j - i, shifted to index 0 .. nrows + ncols - 2
    slots = csr.indices - rows + (nrows - 1)
    met = np.zeros(nrows + ncols - 1, dtype=bool)
    met[slots] = True
    d = int(np.count_nonzero(met))
    if d * ncols > _MAX_DIAGONAL_PADDING * csr.nnz:
        return None
    # scipy's layout: the entry (i, j) of diagonal j - i sits in column j
    data = np.zeros((d, ncols), dtype=csr.dtype)
    data[np.cumsum(met)[slots] - 1, csr.indices] = csr.data
    return _sp.dia_matrix((data, np.flatnonzero(met) - (nrows - 1)), shape=csr.shape)


class CsrMatrix:
    """Square or rectangular sparse matrix in CSR form.

    The product kernel is chosen once, at construction: a matrix whose
    diagonals, padding included, hold at most ``_MAX_DIAGONAL_PADDING``
    times its stored entries is multiplied on a copy stored by diagonals,
    any other in CSR (see the module docstring), each by its compiled
    ``scipy.sparse`` kernel called directly.  The repr names the kernel.
    The diagonal copy and :meth:`norm_inf` derive from the CSR arrays, so
    the views of those arrays are read-only.

    Parameters
    ----------
    csr : scipy.sparse.csr_matrix
        Canonical CSR storage (sorted column indices, duplicates summed).
        Use :meth:`from_triplets` or :func:`shiftkrylov.mmio.load_matrix_market`
        rather than building the scipy object by hand.  The new matrix
        owns a ``csr_matrix`` given here: it sums duplicates and sorts
        indices in place, and a later change to it would leave the
        diagonal copy and the cached norm stale.

    Attributes
    ----------
    counter : MvpCounter
        Incremented once per matrix-vector product applied through this
        object.  Shared by all products of this matrix.
    """

    def __init__(self, csr):
        if not _sp.isspmatrix_csr(csr):
            csr = _sp.csr_matrix(csr)
        csr.sum_duplicates()
        csr.sort_indices()
        self._csr = csr
        dia = _diagonal_kernel(csr)
        kern = self._kernel = csr if dia is None else dia
        # the compiled call that scipy.sparse's @ ends in, all but x and y bound
        self._matvec = (partial(csr_matvec, *kern.shape, kern.indptr, kern.indices, kern.data)
                        if dia is None else
                        partial(dia_matvec, *kern.shape, *kern.data.shape, kern.offsets,
                                kern.data))
        self._norm_inf = None
        self.counter = MvpCounter()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape):
        """Build a matrix from coordinate triplets, summing duplicates.

        Parameters
        ----------
        rows, cols : array_like of int
            0-based coordinates, equal length.
        vals : array_like
            Entry values, real or complex.
        shape : tuple of int
            ``(nrows, ncols)``, both positive.

        Raises
        ------
        InvalidDimensions
            If a dimension is not a positive integer.
        IndexOutOfRange
            If any coordinate falls outside ``shape``.
        DimensionMismatch
            If the triplet arrays differ in length.
        """
        message = f"shape must be positive integers, got {shape!r}"
        nrows, ncols = (_count(d, 1, InvalidDimensions, message) for d in shape)
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals).ravel()
        if not np.issubdtype(vals.dtype, np.complexfloating):
            vals = vals.astype(np.float64)
        if rows.size != cols.size or rows.size != vals.size:
            raise DimensionMismatch(
                f"triplet arrays have lengths {rows.size}, {cols.size}, {vals.size}"
            )
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                bad = rows[(rows < 0) | (rows >= nrows)][0]
                raise IndexOutOfRange(f"row index {bad} outside [0, {nrows})")
            if cols.min() < 0 or cols.max() >= ncols:
                bad = cols[(cols < 0) | (cols >= ncols)][0]
                raise IndexOutOfRange(f"column index {bad} outside [0, {ncols})")
        coo = _sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
        return cls(coo.tocsr())

    # -- CSR views --------------------------------------------------------

    @property
    def row_ptr(self):
        """Row pointer array, length ``nrows + 1``; a read-only view."""
        return _read_only(self._csr.indptr)

    @property
    def col_idx(self):
        """Column indices, length ``nnz``, sorted within each row; a
        read-only view."""
        return _read_only(self._csr.indices)

    @property
    def values(self):
        """Stored entry values, aligned with :attr:`col_idx`; a read-only
        view."""
        return _read_only(self._csr.data)

    @property
    def shape(self):
        return self._csr.shape

    @property
    def nnz(self):
        return self._csr.nnz

    @property
    def dtype(self):
        return self._csr.dtype

    # -- products ---------------------------------------------------------

    def _apply(self, x):
        """``A @ x`` without a count, to check a result; the solvers use ``@``."""
        x = np.asarray(x)
        nrows, ncols = self.shape
        if x.shape != (ncols,):
            raise DimensionMismatch(
                f"matrix of shape {self.shape} cannot multiply vector of shape {x.shape}"
            )
        y = np.zeros(nrows, np.result_type(self.dtype, x.dtype))
        self._matvec(x, y)
        return y

    def __matmul__(self, x):
        y = self._apply(x)
        self.counter.count += 1
        return y

    # -- derived matrices and scalars -------------------------------------

    def shifted(self, sigma):
        """Return ``A - sigma*I`` as a new matrix with a fresh counter."""
        n, m = self.shape
        if n != m:
            raise DimensionMismatch("only square matrices can be shifted")
        eye = _sp.identity(n, dtype=self.dtype, format="csr")
        return CsrMatrix((self._csr - sigma * eye).tocsr())

    def toarray(self):
        """Dense copy, for small reference computations only."""
        return self._csr.toarray()

    def norm_inf(self):
        """Maximum absolute row sum, computed on first use; inf, without a
        warning, when a row sum overflows."""
        if self._norm_inf is None:
            with np.errstate(over="ignore"):
                self._norm_inf = float(abs(self._csr).sum(axis=1).max()) if self.nnz else 0.0
        return self._norm_inf

    def __repr__(self):
        if self._kernel is self._csr:
            kernel = "CSR"
        else:
            d = self._kernel.offsets.size
            kernel = f"{d} diagonal" + "s" * (d != 1)
        return (
            f"<CsrMatrix {self.shape[0]}x{self.shape[1]}, nnz={self.nnz}, "
            f"dtype={self.dtype}, {kernel}>"
        )


def _read_only(a):
    view = a.view()
    view.flags.writeable = False
    return view


def identity(n, dtype=np.float64):
    """Identity matrix of order ``n`` in CSR form."""
    n = _count(n, 1, InvalidDimensions, f"order must be a positive integer, got {n!r}")
    idx = np.arange(n)
    return CsrMatrix.from_triplets(idx, idx, np.ones(n, dtype=dtype), (n, n))

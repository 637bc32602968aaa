"""Arithmetic cost model for the basis processes.

Flop counts for m steps on an n x n matrix with nnz stored entries,
counting one multiply-add as two flops.  All three processes pay
``2*m*nnz`` for products; they differ in the vector work:

==================  =============================================
process             flops
==================  =============================================
hessenberg          2*m*nnz + m*(m+1)*n - (m-1)*m*(m+1)/3
arnoldi             2*m*nnz + 2*m*(m+1)*n
weighted_arnoldi    2*m*nnz + (5/2)*m*(m+1)*n
==================  =============================================

The pivoted Hessenberg process can change only the trailing n - i rows
when it eliminates with basis vector i (the leading rows are structurally
zero), so the cubic correction term counts only the rows that can
change.  The code does more: its one ``gemv`` per step also multiplies
the structural zeros, and its triangular solve for the coefficients
costs as much again, (m-1)*m*(m+1)/3 flops a cycle each (8990 at m = 30).
All divisions here are exact in integers, so there is no rounding.
"""

from .errors import InvalidDimensions, _count

__all__ = ["PROCESS_NAMES", "predicted_flops", "attach_costs"]

PROCESS_NAMES = ("hessenberg", "arnoldi", "weighted_arnoldi")


def predicted_flops(process, m, n, nnz):
    """Predicted flops of ``m`` process steps.

    Parameters
    ----------
    process : str
        One of ``hessenberg``, ``arnoldi``, ``weighted_arnoldi``.
    m : int
        Number of steps, ``m >= 1``.
    n : int
        Matrix order, ``n >= m``.
    nnz : int
        Stored nonzeros, ``nnz >= 0``.

    Returns
    -------
    int
        Exact integer flop count.
    """
    m = _count(m, 1, InvalidDimensions, f"m={m!r} out of range (min 1)")
    n = _count(n, m, InvalidDimensions, f"n={n!r} out of range (min {m})")
    nnz = _count(nnz, 0, InvalidDimensions, f"nnz={nnz!r} out of range (min 0)")
    mvp = 2 * m * nnz
    if process == "hessenberg":
        # (m-1)*m*(m+1) is a product of three consecutive integers and
        # m*(m+1) is even, so both divisions below are exact.
        return mvp + m * (m + 1) * n - (m - 1) * m * (m + 1) // 3
    if process == "arnoldi":
        return mvp + 2 * m * (m + 1) * n
    if process == "weighted_arnoldi":
        return mvp + 5 * m * (m + 1) * n // 2
    raise ValueError(f"unknown process {process!r}; expected one of {PROCESS_NAMES}")


def attach_costs(report):
    """Fill ``report.predicted_flops`` from its cycle counts.

    An ``sfom`` report ran Arnoldi, the others the pivoted Hessenberg
    process; the model charges every cycle of either for the steps it
    ran.  A cycle that continued from a thick restart keeping
    ``k = report.kept[i]`` columns ran steps ``k + 1 .. m`` and formed
    the kept block ``V Q_k`` with ``2 n m k`` flops; a fresh cycle has
    ``k = 0``.  Each reduced solve adds one ``m^2`` unit, so

        sum_i (P(m) - P(k_i) + 2 n m k_i) + cycles * nu * m**2

    with ``P(j) = predicted_flops(process, j, n, nnz)`` and ``P(0) = 0``:
    ``cycles * P(m)`` for a solve that never kept a column.  The Schur
    form and the LU factorization of the kept block, O(m^3 + n k^2), are
    left out.

    The ``m^2`` unit is the order of what the code does per shift: the
    family shares one Schur form ``H = Q T Q^H`` per cycle (the one the
    thick restart reorders), and each shift adds a product with ``Q^H``,
    a (quasi-)triangular solve with ``T - sigma I`` and a product with
    ``Q``, about 5 m^2 real flops for a real system and twice that for a
    complex one on a real ``H``.

    Parameters
    ----------
    report : SolveReport
        Updated in place and returned.
    """
    process = "arnoldi" if report.solver == "sfom" else "hessenberg"
    nu, m, n = len(report.shifts), report.m, report.n
    per_cycle = predicted_flops(process, m, n, report.nnz)
    # a cycle after a thick restart skips the first k steps but forms V Q_k
    saved = sum(predicted_flops(process, k, n, report.nnz) - 2 * n * m * k
                for k in report.kept if k)
    report.predicted_flops = report.cycles * (per_cycle + nu * m**2) - saved
    return report

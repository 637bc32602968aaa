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

from .errors import InvalidDimensions

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
    for name, value, low in (("m", m, 1), ("n", n, max(m, 1)), ("nnz", nnz, 0)):
        if int(value) != value or value < low:
            raise InvalidDimensions(f"{name}={value!r} out of range (min {low})")
    m, n, nnz = int(m), int(n), int(nnz)
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


def attach_costs(report, process=None):
    """Fill ``report.predicted_flops`` from its cycle counts.

    The model charges one full set of process steps per cycle plus one
    ``m^2`` unit per reduced solve, i.e.

        cycles * predicted_flops(process, m, n, nnz) + cycles * nu * m**2

    The ``m^2`` unit is what a Givens QR of a Hessenberg system costs.
    The code instead does a dense Householder QR of each augmented
    system, about (4/3) m^3 real flops (36 000 at m = 30), which the
    model leaves out: for 16 shifts on ``gen_laplace2d(40)`` it would add
    about 30% to the flops of a cycle.

    Parameters
    ----------
    report : SolveReport
        Updated in place and returned.
    process : str, optional
        Override the process name; by default inferred from
        ``report.solver`` (``sfom`` ran Arnoldi, the others the pivoted
        Hessenberg process).
    """
    if process is None:
        process = "arnoldi" if report.solver == "sfom" else "hessenberg"
    nu = len(report.shifts)
    per_cycle = predicted_flops(process, report.m, report.n, report.nnz)
    report.predicted_flops = report.cycles * per_cycle + report.cycles * nu * report.m**2
    return report

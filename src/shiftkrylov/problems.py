"""Model problem generators.

Finite-difference discretizations used throughout the tests, demos and
the command line:

- a 3-D convection-diffusion-reaction operator on the unit cube,
- a scaled 2-D Laplacian on the unit square,

both on uniform interior grids with homogeneous Dirichlet boundary,
together with a parser for shift families.
"""

import numpy as np

from .errors import InvalidGrid, ParseError, _count
from .sparse import CsrMatrix

__all__ = [
    "gen_convdiff3d",
    "gen_laplace2d",
    "gen_shifts",
]


def _check_grid(n):
    return _count(n, 1, InvalidGrid, f"interior grid size n={n!r} must be a positive integer")


def _stencil(n, dim, diag, fwd_coefs, bwd_coefs):
    """Nearest-neighbour stencil on the ``n**dim`` interior grid.

    Unknowns are ordered x fastest, so axis ``d`` has stride ``n**d``.
    Every row holds ``diag`` on the diagonal and, along axis ``d``,
    ``fwd_coefs[d]`` at its forward and ``bwd_coefs[d]`` at its backward
    neighbour; neighbours on the Dirichlet boundary are dropped.
    Non-finite coefficients, from non-finite parameters or an overflow,
    raise :class:`InvalidGrid`.
    """
    if not np.all(np.isfinite([diag, *fwd_coefs, *bwd_coefs])):
        raise InvalidGrid(f"the coefficients give a non-finite stencil (diagonal {float(diag)})")
    N = n**dim
    idx = np.arange(N)
    rows = [idx]
    cols = [idx]
    vals = [np.full(N, diag)]
    for axis, (fwd_coef, bwd_coef) in enumerate(zip(fwd_coefs, bwd_coefs)):
        stride = n**axis
        coord = (idx // stride) % n
        fwd = coord < n - 1
        rows.append(idx[fwd])
        cols.append(idx[fwd] + stride)
        vals.append(np.full(fwd.sum(), fwd_coef))
        bwd = coord > 0
        rows.append(idx[bwd])
        cols.append(idx[bwd] - stride)
        vals.append(np.full(bwd.sum(), bwd_coef))
    return CsrMatrix.from_triplets(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (N, N)
    )


def gen_convdiff3d(n, eps, beta, r):
    """Discretize ``-eps*lap(u) + beta.grad(u) - r*u`` on the unit cube.

    Seven-point stencil on the n x n x n interior grid with mesh width
    ``h = 1/(n+1)`` and homogeneous Dirichlet boundary: second-order
    differences for the diffusion, first-order upwind differences for
    the convection.  At the benchmark parameters the cell Peclet number
    ``|beta|*h/(2*eps)`` is well above one, where central convection
    differences produce systems on which every restarted Krylov method
    stagnates; upwinding keeps the discretization stable there.
    Unknowns are ordered with x fastest, then y, then z.

    Parameters
    ----------
    n : int
        Interior points per direction.
    eps : float
        Diffusion coefficient, positive.
    beta : sequence of 3 floats
        Convection field (constant).
    r : float
        Reaction coefficient; enters the diagonal as ``-r``.

    Returns
    -------
    CsrMatrix
        Order ``n**3`` with up to 7 entries per row.
    """
    n = _check_grid(n)
    if not eps > 0:
        raise InvalidGrid(f"diffusion coefficient eps={eps!r} must be positive")
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (3,):
        raise InvalidGrid(f"beta must have 3 components, got shape {beta.shape}")
    h = 1.0 / (n + 1)
    a = eps / h**2
    conv = np.abs(beta) / h
    # the neighbour on the inflow side carries the convection term:
    # backward for beta > 0, forward for beta < 0
    fwd = [-a - (c if b < 0 else 0.0) for b, c in zip(beta, conv)]
    bwd = [-a - (c if b > 0 else 0.0) for b, c in zip(beta, conv)]
    return _stencil(n, 3, 6.0 * a - r + conv.sum(), fwd, bwd)


def gen_laplace2d(n, scale=1.0):
    """Discretize ``-scale*lap(u)`` on the unit square.

    Five-point stencil on the n x n interior grid, ``h = 1/(n+1)``,
    homogeneous Dirichlet boundary, x-fastest ordering.

    Returns
    -------
    CsrMatrix
        Symmetric positive definite of order ``n**2``; its smallest
        eigenvalue approaches ``2 * pi**2 * scale`` as the grid refines.
    """
    n = _check_grid(n)
    if not scale > 0:
        raise InvalidGrid(f"scale={scale!r} must be positive")
    h = 1.0 / (n + 1)
    a = scale / h**2
    return _stencil(n, 2, 4.0 * a, [-a, -a], [-a, -a])


def gen_shifts(spec):
    """Parse a shift family specification string.

    Two forms are accepted:

    ``arith:S:K``
        The arithmetic family ``-S, -2S, ..., -K*S`` (K shifts moving
        away from the spectrum for positive definite operators).
    ``list:v1,v2,...``
        Explicit values, real or complex (Python literal syntax, e.g.
        ``list:-0.5,-0.1+0.2j``).

    Returns
    -------
    list of scalars
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise ParseError(f"shift spec {spec!r} must look like 'arith:S:K' or 'list:...'")
    kind, _, rest = spec.partition(":")
    if kind == "arith":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ParseError(f"arith spec needs 'arith:S:K', got {spec!r}")
        try:
            spacing = float(parts[0])
            count = int(parts[1])
        except ValueError:
            raise ParseError(f"bad arith parameters in {spec!r}") from None
        if count < 1:
            raise ParseError(f"shift count must be positive in {spec!r}")
        return [-spacing * j for j in range(1, count + 1)]
    if kind == "list":
        out = []
        for tok in rest.split(","):
            tok = tok.strip()
            if not tok:
                raise ParseError(f"empty value in shift list {spec!r}")
            try:
                z = complex(tok)
            except ValueError:
                raise ParseError(f"bad shift value {tok!r}") from None
            out.append(z.real if z.imag == 0.0 else z)
        return out
    raise ParseError(f"unknown shift spec kind {kind!r} in {spec!r}")

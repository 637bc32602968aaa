"""Matrix-function actions via rational approximation.

A quadrature rule discretizing a contour integral representation turns
``f(A) u0`` into a short sum of resolvents,

    f(A) u0  ~=  sum_j  w_j * (z_j I + A)^{-1} u0,

whose poles ``-z_j`` are exactly one family of shifted systems.  The
whole action is then computed by :func:`~shiftkrylov.solvers.solve_shifted_hessen`
at the basis cost of a single system.  For a real operator and vector
the solver folds a shift with its exact conjugate into one reduced
system and one update, and the action is returned real only when every
node and weight has its exact conjugate; a rule conjugate only to
within rounding is solved unpaired and its action is complex.  The
packaged rules are exactly closed under conjugation: the 16-node rules
solve 8 reduced systems per cycle and confirm each pair with one true
residual, which is bitwise that of both.

The action is the weighted sum ``sum_j w_j x_j``, so a pole's error
counts only in proportion to ``|w_j|``, and the weights of a rule span
many decades (``6.1e-7`` to ``4.1`` for the packaged exponential rule).
Each pole system is therefore held to its own tolerance, looser for a
light pole and never tighter than the requested one; see
:func:`eval_rational_action`.

Supported integrands are the exponential ``exp(-t A) u0`` and the
Mittag-Leffler function ``E_gamma(-t^gamma A) u0`` that propagates
fractional-in-time diffusion; a rule file makes no reference to ``t``
because time enters by scaling the operator.  Reference values for
validation come from a dense eigendecomposition oracle; the scalar
Mittag-Leffler function is a double-precision contour integral.
"""

import csv
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateNodes,
    IllConditionedEigenbasis,
    NotConverged,
    ParseError,
)
from .solvers import SolverConfig, solve_shifted_hessen

__all__ = [
    "QuadratureRule",
    "load_quadrature",
    "packaged_rule_path",
    "eval_rational_action",
    "dense_matfunc_oracle",
    "mittag_leffler",
]

_HEADER = ["re_z", "im_z", "re_w", "im_w"]

# Scalar Mittag-Leffler contour sum: log of its absolute tolerance.
_ML_LOG_TOL = np.log(1e-15)
_FLOAT_MAX = float(np.finfo(float).max)
_LOG_EPS = np.log(np.finfo(float).eps)


@dataclass
class QuadratureRule:
    """Nodes and weights of a rational approximation.

    Attributes
    ----------
    nodes : (nu,) complex ndarray
        Pole parameters ``z_j``; the shifted systems use ``sigma = -z_j``.
    weights : (nu,) complex ndarray
    kind : str
        ``"exp"`` or ``"ml"``.
    gamma : float
        Fractional order for ``kind="ml"``; 1.0 for the exponential.

    Raises
    ------
    DimensionMismatch
        When built with ``nodes`` that are not 1-d, or with ``weights`` of
        another shape: every pole needs its one weight.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = "exp"
    gamma: float = 1.0

    def __post_init__(self):
        if np.ndim(self.nodes) != 1 or np.shape(self.weights) != np.shape(self.nodes):
            raise DimensionMismatch(
                f"a rule needs 1-d nodes and weights of the same shape, "
                f"not {np.shape(self.nodes)} and {np.shape(self.weights)}"
            )

    @property
    def nu(self):
        return self.nodes.shape[0]

    def evaluate(self, a):
        """Scalar rational approximation ``sum_j w_j / (z_j + a)``.

        With ``a`` an eigenvalue of A this is the approximation's value
        for that eigenvalue; broadcastable over arrays of ``a``.
        """
        a = np.asarray(a)
        vals = self.weights / (self.nodes + a[..., None])
        out = vals.sum(axis=-1)
        if self.is_conjugate_symmetric() and np.isrealobj(a):
            out = out.real
        return out

    def is_conjugate_symmetric(self):
        """True when every (node, weight) pair has its exact conjugate
        pair, with the same multiplicity, so the rule maps real data to
        real values.

        This is the rule by which the family solve folds conjugate
        shifts, with no tolerance: a rule whose pairs agree only to
        within rounding is asymmetric, and its action is complex.
        """
        pairs = Counter(zip(self.nodes.tolist(), self.weights.tolist()))
        return all(pairs[z.conjugate(), w.conjugate()] == count
                   for (z, w), count in pairs.items())

    def __repr__(self):
        g = f", gamma={self.gamma}" if self.kind == "ml" else ""
        return f"<QuadratureRule {self.kind}{g}, nu={self.nu}>"


def load_quadrature(path, kind="exp", gamma=1.0):
    """Read a rule from CSV with header ``re_z,im_z,re_w,im_w``.

    Lines starting with ``#`` are comments.  The file stores one node
    per row as four floats.

    Raises
    ------
    ParseError
        Missing or wrong header, malformed row, non-finite value; a byte
        that is not ASCII reads as U+FFFD and fails the header or number
        check with its line number.
    DuplicateNodes
        Two rows carry the same node; the shifted systems of the family
        would coincide.
    ValueError
        An unknown ``kind``, or ``gamma`` outside (0, 1] for ``"ml"``.
    """
    if kind not in ("exp", "ml"):
        raise ValueError(f"unknown rule kind {kind!r}, expected 'exp' or 'ml'")
    nodes, weights = [], []
    with open(path, "rt", newline="", encoding="ascii", errors="replace") as fh:
        reader = csv.reader(fh)
        header_seen = False
        for lineno, row in enumerate(reader, start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            cells = [c.strip() for c in row]
            if not header_seen:
                if cells != _HEADER:
                    raise ParseError(
                        f"expected header {','.join(_HEADER)!r}, got {','.join(cells)!r}",
                        lineno=lineno,
                    )
                header_seen = True
                continue
            if len(cells) != 4:
                raise ParseError(f"expected 4 columns, got {len(cells)}", lineno=lineno)
            try:
                rz, iz, rw, iw = (float(c) for c in cells)
            except ValueError:
                raise ParseError(f"bad numeric value in {row!r}", lineno=lineno) from None
            if not all(np.isfinite(x) for x in (rz, iz, rw, iw)):
                raise ParseError("non-finite value", lineno=lineno)
            nodes.append(complex(rz, iz))
            weights.append(complex(rw, iw))
    if not header_seen:
        raise ParseError("missing header line", lineno=1)
    if not nodes:
        raise ParseError("rule has no nodes", lineno=1)
    nodes = np.asarray(nodes, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.complex128)
    scale = np.abs(nodes).max(initial=1.0)
    for j in range(len(nodes)):
        close = np.abs(nodes[j + 1 :] - nodes[j]) <= 1e-12 * scale
        if np.any(close):
            k = j + 1 + int(np.flatnonzero(close)[0])
            raise DuplicateNodes(f"nodes {j} and {k} coincide at {nodes[j]}")
    if kind == "exp":
        gamma = 1.0
    elif not 0.0 < gamma <= 1.0:
        raise ValueError(f"fractional order gamma={gamma!r} outside (0, 1]")
    return QuadratureRule(nodes=nodes, weights=weights, kind=kind, gamma=float(gamma))


def packaged_rule_path(kind, gamma=None):
    """Path of a rule file shipped with the package.

    ``kind="exp"`` has one 16-node rule; ``kind="ml"`` ships 16-node
    rules for ``gamma`` in {0.6, 0.8, 0.9}.
    """
    base = Path(__file__).parent / "data" / "quadrature"
    if kind == "exp":
        return base / "exp16.csv"
    if kind == "ml":
        table = {0.6: "ml16_g060.csv", 0.8: "ml16_g080.csv", 0.9: "ml16_g090.csv"}
        for g, name in table.items():
            if gamma is not None and abs(gamma - g) < 1e-12:
                return base / name
        raise ValueError(
            f"no packaged ml rule for gamma={gamma!r}; available: {sorted(table)}"
        )
    raise ValueError(f"unknown rule kind {kind!r}")


def _pole_tolerances(weights, tol):
    """Per-pole tolerances for the weighted sum of a rule's pole solutions.

    ``tol_j = tol * max(1, ||w||_1 / (nu |w_j|))``, capped at 1 (the
    relative residual of the zero vector) unless ``tol`` itself is
    larger, so a pole of weight zero gets a finite tolerance.  A rule
    whose weights are all zero keeps the scalar ``tol``.
    """
    aw = np.abs(weights)
    total = aw.sum()
    if total == 0:
        return tol
    with np.errstate(divide="ignore"):
        share = tol * total / (aw.size * aw)
    return np.maximum(tol, np.minimum(share, 1.0))


def eval_rational_action(A, u0, rule, cfg=None, return_report=False):
    """Apply the rational approximation of ``f(A)`` to a vector.

    Solves the family ``(A - (-z_j) I) x_j = u0`` with the restarted
    pivoted Hessenberg solver and combines ``sum_j w_j x_j``.  When every
    node and weight of the rule has its exact conjugate
    (:meth:`QuadratureRule.is_conjugate_symmetric`) and the data are
    real, the solver folds each conjugate pair, the exact imaginary part
    is zero and a real vector is returned.  A rule conjugate only to
    within rounding gets the unpaired solve and a complex vector.

    A scalar tolerance ``tol`` is shared out over the poles by weight:
    pole ``j`` must reach the relative residual

        tol_j = tol * max(1, ||w||_1 / (nu |w_j|)),

    capped at 1, the relative residual of the zero vector, when ``tol``
    is below 1.  A pole lighter than the mean weight may spend its equal
    share ``tol ||w||_1 / nu`` of the weighted residual.  No pole is
    asked for less than ``tol``, and the restart vector does not depend
    on which poles are still active, so a solve takes no more cycles than
    under a uniform ``tol``.  The price is the a-priori bound on the
    weighted residual sum,

        sum_j |w_j| tol_j <= tol * sum_j max(|w_j|, ||w||_1 / nu)
                          <= 2 tol ||w||_1,

    with equality on the left unless the cap applies, against
    ``tol ||w||_1`` for a uniform ``tol``: 1.6 times that on the packaged
    exponential rule.  A per-pole array ``cfg.tol`` is used as given, and
    a rule whose weights are all zero keeps the scalar ``tol``.

    The family is solved by :func:`~shiftkrylov.solvers.solve_shifted_hessen`,
    whose thick restart keeps ``m // 3`` Ritz values: on 2-D Laplacians
    with the packaged rules it needs 60-90% fewer products than the plain
    restart.

    Parameters
    ----------
    A : operator
    u0 : (n,) array_like
    rule : QuadratureRule
    cfg : SolverConfig, optional
        Defaults to a tight tolerance (1e-10) so the solver error stays
        below the quadrature error.
    return_report : bool
        Also return the family :class:`~shiftkrylov.solvers.SolveReport`.

    Raises
    ------
    NotConverged
        If any pole system missed its own tolerance ``tol_j``;
        ``.shifts`` lists the failing shifts, and the message says when
        the family stalled on singular reduced systems.
    """
    if cfg is None:
        cfg = SolverConfig(tol=1e-10)
    if np.ndim(cfg.tol) == 0:
        cfg = replace(cfg, tol=_pole_tolerances(rule.weights, cfg.tol))
    shifts = [-z for z in rule.nodes]
    xs, report = solve_shifted_hessen(A, u0, shifts, cfg)
    bad = [i for i, h in enumerate(report.shifts) if not h.converged]
    if bad:
        missed = np.broadcast_to(cfg.tol, rule.nu)[bad]
        why = "; the family stalled on singular reduced systems" if report.stalled else ""
        raise NotConverged(
            f"{len(bad)} of {rule.nu} pole systems missed their own tolerance "
            f"(tol_j from {missed.min():.3g} to {missed.max():.3g}){why}",
            shifts=[report.shifts[i].shift for i in bad],
        )
    acc = np.zeros(xs[0].shape[0], dtype=np.complex128)
    for w, x in zip(rule.weights, xs):
        acc += w * x
    if (
        rule.is_conjugate_symmetric()
        and not np.iscomplexobj(np.asarray(u0))
        and not np.issubdtype(getattr(A, "dtype", np.dtype(np.float64)), np.complexfloating)
    ):
        acc = acc.real
    if return_report:
        return acc, report
    return acc


def dense_matfunc_oracle(A, u0, func):
    """Reference value of ``f(A) u0`` through a dense eigendecomposition.

    For ``A`` Hermitian to 1e-12 of its largest entry an orthogonal
    eigenbasis is used; otherwise a general eigendecomposition, rejected
    when its basis has condition number above 1e8.  For real ``A`` and
    ``u0`` the result is real when its imaginary part is at most 1e-12 of
    its largest entry in modulus.  Intended for small matrices in tests
    and validation, not for production runs.

    Parameters
    ----------
    A : dense or sparse square matrix
    u0 : (n,) array_like
    func : callable
        Scalar function applied to each eigenvalue.

    Raises
    ------
    IllConditionedEigenbasis
    """
    toarray = getattr(A, "toarray", None)
    Ad = np.asarray(toarray() if callable(toarray) else A)
    if Ad.ndim != 2 or Ad.shape[0] != Ad.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {Ad.shape}")
    u0 = np.asarray(u0)
    if u0.shape != (Ad.shape[0],):
        raise DimensionMismatch(
            f"vector of shape {u0.shape} does not match order {Ad.shape[0]}"
        )
    atol = 1e-12 * np.abs(Ad).max(initial=0.0)
    hermitian = np.allclose(Ad, Ad.conj().T, rtol=1e-12, atol=atol)
    if hermitian:
        lam, V = np.linalg.eigh(Ad)
        coeffs = V.conj().T @ u0
    else:
        lam, V = np.linalg.eig(Ad)
        cond = np.linalg.cond(V)
        if cond > 1e8:
            raise IllConditionedEigenbasis(
                f"eigenvector basis has condition number {cond:.3e} > 1e8"
            )
        coeffs = np.linalg.solve(V, u0)
    flam = np.array([func(l) for l in lam])
    out = V @ (flam * coeffs)
    if np.isrealobj(Ad) and np.isrealobj(u0) and np.iscomplexobj(out):
        if np.abs(out.imag).max(initial=0.0) <= 1e-12 * np.abs(out).max(initial=0.0):
            out = out.real
    return out


def _ml_bounded(phi, log_tol):
    """Garrappa's ``(N, mu, h)`` for a parabola passing between the origin
    (strength 0) and a pole of strength 1 with ``phi = (Re s + |s|) / 2``,
    the ``mu`` of the parabola ``mu (1 + iu)^2`` through the pole."""
    f_max = np.exp(log_tol - _LOG_EPS)  # >= 4.5, so f_min = 1.01 is admissible
    f_bar = 1.01 + 1.01 / f_max * (f_max - 1.01)
    sq_right = min(np.sqrt(phi), 2.0 * np.sqrt(log_tol - _LOG_EPS))
    sq_right = 2.0 * sq_right / (2.0 + 1.0 / f_bar)
    log_tol -= np.log(f_bar)
    w = -sq_right**2 / log_tol
    mu = (sq_right / (2.0 + w)) ** 2
    h = -2.0 * np.pi / log_tol
    return np.ceil(np.sqrt(1.0 - log_tol / mu) / h), mu, h


def _ml_unbounded(phi, p, log_tol):
    """Garrappa's ``(N, mu, h)`` for a parabola right of the singularity
    with value ``phi`` and strength ``p`` (0 or 1); ``N`` is inf when
    roundoff rules the region out."""
    sq_phi = np.sqrt(phi)
    phibar = 1.01 * phi if phi > 0 else 0.01
    sq_bar = np.sqrt(phibar)
    while True:
        le = log_tol / phibar
        n = np.ceil(phibar / np.pi * (1.0 - 1.5 * le + np.sqrt(1.0 - 2.0 * le)))
        a = np.pi * n / phibar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - np.sqrt(1.0 + 12.0 * a))
        if p == 0 or 1.0 < sq_mu / (sq_bar - sq_phi) < 10.0:
            break
        sq_bar = sq_mu / 5.0 + sq_phi
        phibar = sq_bar**2
    mu = sq_mu**2
    h = (-3.0 * a - 2.0 + 2.0 * np.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        # e^s on the contour would exceed the tolerance over roundoff
        phibar = (p * np.sqrt(mu) / 5.0 + sq_phi) ** 2
        if phibar >= threshold:
            return np.inf, 0.0, 0.0
        w = np.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = np.sqrt(-phibar / _LOG_EPS)
        mu = threshold
        n = np.ceil(w * log_tol / (2.0 * np.pi) / (u * w - 1.0))
        h = w / n
    return n, mu, h


def mittag_leffler(z, gamma):
    """Scalar one-parameter Mittag-Leffler function ``E_gamma(z)``.

    Inverts its Laplace transform ``s^(gamma-1) / (s^gamma - z)`` at
    ``t = 1`` by the trapezoidal rule on the parabola
    ``s = mu (1 + iu)^2``, with ``(mu, h, N)`` chosen as in Garrappa
    (SIAM J. Numer. Anal. 53, 2015), after Weideman and Trefethen
    (Math. Comp. 76, 2007), for an absolute error of 1e-15; no contour
    needs more than ``2N + 1 = 361`` nodes.  The residue ``e^s / gamma``
    of the pole ``s^gamma = z`` is added when the contour passes left of
    it.  Double precision throughout.

    Accepts real or complex scalars anywhere in the plane; real input
    gives real output, and values beyond the float range (large
    arguments near the positive real axis) overflow to inf.  On the
    negative real axis the relative error against 30-digit references is
    below 1e-14 for ``gamma <= 0.95`` and grows towards ``gamma = 1``:
    about 5e-14 at 0.99 and 5e-13 at 0.999.  ``E_1`` is the exponential.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma={gamma!r} outside (0, 1]")
    z = complex(z)
    if gamma == 1.0:
        out = np.exp(z)
    elif z == 0:
        out = 1.0
    else:
        # Of the roots |z|^(1/gamma) e^(i(arg z + 2 pi k)/gamma) of
        # s^gamma = z only k = 0 can lie off the branch cut when gamma < 1.
        theta = np.angle(z)
        has_pole = abs(theta) < gamma * np.pi
        if has_pole:
            # |z|^(1/gamma) may overflow; a pole that far out has a residue
            # of 0 to the left and inf to the right and no longer moves the
            # contour, so its modulus is capped at the largest float
            with np.errstate(over="ignore"):
                radius = min(np.float64(abs(z)) ** (1.0 / gamma), _FLOAT_MAX)
                pole = radius * np.exp(1j * theta / gamma)
                phi = (pole.real + abs(pole)) / 2.0
            # a pole with phi ~ 0 sits at the origin and every contour encloses it
            has_pole = phi > 1e-15
        # (N, mu, h, pole right of the contour) per admissible region
        if not has_pole:
            regions = [_ml_unbounded(0.0, 0, _ML_LOG_TOL) + (False,)]
        else:
            regions = [_ml_bounded(phi, _ML_LOG_TOL) + (True,)]
            if phi < _ML_LOG_TOL - _LOG_EPS:
                regions.append(_ml_unbounded(phi, 1, _ML_LOG_TOL) + (False,))
        n, mu, h, residue = min(regions, key=lambda r: r[0])
        u = h * np.arange(-n, n + 1)
        s = mu * (1.0 + 1j * u) ** 2
        ds = 2j * mu * (1.0 + 1j * u)
        f = np.exp(s) * s ** (gamma - 1.0) / (s**gamma - z) * ds
        out = h / (2j * np.pi) * f.sum()
        if residue:
            # 1/gamma enters the exponent, so an overflow stays inf, not nan
            out += np.exp(pole - np.log(gamma))
    if z.imag == 0.0:
        return out.real
    return out

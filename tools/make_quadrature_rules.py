#!/usr/bin/env python3
"""Generate the packaged quadrature rule files.

Each rule discretizes an inverse-Laplace contour representation

    f(-a) = (1/2 pi i) * integral  e^s g(s) / (s^gamma + a) ds

over a left-opening hyperbola s(theta) = mu (1 - sin(alpha + i theta))
by the midpoint rule with 16 symmetric nodes; g(s) = s^(gamma-1) gives
the Mittag-Leffler function E_gamma(-a) and gamma = 1 the exponential.
Substituting Z = s^gamma, W = c * s^(gamma-1) puts every rule in the
common rational form  f(-a) ~= sum_j W_j / (Z_j + a).

The contour parameters (mu, alpha, d) are tuned per rule by a coarse
scan plus Nelder-Mead polish of the floored relative error

    max_a  |R(a) - f(-a)| / max(|f(-a)|, 0.01)

over a ∈ {0} ∪ [1e-4, 1e5], then validated on a finer independent grid.
The search has no random element, but the objective is flat near its
optimum, so the tuned parameters move with the numpy/scipy build and the
last bits of the reference values.  Rerunning reproduces the validated
error of each rule to the four digits printed and written in the file
header; the nodes and weights can differ from the shipped files (by up
to about 1e-4 relative for ml16_g080).

Usage:  python3 tools/make_quadrature_rules.py [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from shiftkrylov import load_quadrature, mittag_leffler

N_NODES = 16
ERR_FLOOR = 0.01

RULES = [
    ("exp16.csv", "exp", 1.0),
    ("ml16_g060.csv", "ml", 0.6),
    ("ml16_g080.csv", "ml", 0.8),
    ("ml16_g090.csv", "ml", 0.9),
]


def hyperbola_rule(n, mu, alpha, d, gamma):
    """Nodes and weights of the transformed midpoint rule."""
    k = np.arange(n)
    theta = (k + 0.5 - n / 2.0) * d
    w = alpha + 1j * theta
    s = mu * (1.0 - np.sin(w))
    # ds carries the +i factor that orients the contour upward.
    ds = mu * 1j * np.cos(w)
    c = (d / (2j * np.pi)) * np.exp(s) * ds
    return s**gamma, c * s ** (gamma - 1.0)


def rational_eval(nodes, weights, a):
    return (weights / (nodes + np.asarray(a, dtype=float)[..., None])).sum(axis=-1).real


def reference(kind, gamma, a):
    if kind == "exp":
        return np.exp(-a)
    return np.array([mittag_leffler(-x, gamma) for x in np.atleast_1d(a)])


def nodes_admissible(nodes):
    """Poles -Z must avoid the nonnegative real axis."""
    return np.all((nodes.real > 0) | (np.abs(nodes.imag) > 1e-8))


def tune(kind, gamma):
    agrid = np.unique(
        np.concatenate(
            [[0.0], np.logspace(-4, 5, 109), np.logspace(-3.0, 0.8, 40)]
        )
    )
    ref = reference(kind, gamma, agrid)

    def objective(p):
        mu, alpha, d = p
        if mu <= 0.5 or not 0.05 < alpha < 1.5 or d <= 0.02:
            return 1e6
        z, w = hyperbola_rule(N_NODES, mu, alpha, d, gamma)
        if not nodes_admissible(z):
            return 1e6
        err = np.abs(rational_eval(z, w, agrid) - ref)
        return (err / np.maximum(np.abs(ref), ERR_FLOOR)).max()

    best_p, best_v = None, np.inf
    for mu in np.linspace(6, 34, 15):
        for alpha in np.linspace(0.3, 1.35, 15):
            for d in np.linspace(0.10, 0.5, 17):
                v = objective((mu, alpha, d))
                if v < best_v:
                    best_p, best_v = (mu, alpha, d), v
    res = minimize(
        objective,
        best_p,
        method="Nelder-Mead",
        options=dict(maxiter=4000, maxfev=4000, xatol=1e-12, fatol=1e-16),
    )
    return res.x, res.fun


def validate(kind, gamma, z, w):
    """Floored relative error on a finer grid not used for tuning."""
    fine = np.unique(np.concatenate([[0.0], np.logspace(-4.2, 5.2, 487)]))
    ref = reference(kind, gamma, fine)
    err = np.abs(rational_eval(z, w, fine) - ref)
    return float((err / np.maximum(np.abs(ref), ERR_FLOOR)).max())


def write_rule(path, kind, gamma, params, z, w, err):
    mu, alpha, d = params
    fname = {"exp": "exp(-x)", "ml": f"E_{gamma}(-x)"}[kind]
    with open(path, "wt", encoding="ascii") as fh:
        fh.write(f"# {N_NODES}-node rational approximation of {fname} on x >= 0\n")
        fh.write(
            "# hyperbolic contour s = mu*(1 - sin(alpha + i*theta)), midpoint rule\n"
        )
        fh.write(
            f"# mu={float(mu)!r} alpha={float(alpha)!r} step={float(d)!r}\n"
        )
        fh.write(f"# floored relative error (floor {ERR_FLOOR}): {err:.3e}\n")
        fh.write("# regenerate with tools/make_quadrature_rules.py\n")
        fh.write("re_z,im_z,re_w,im_w\n")
        for zj, wj in zip(z, w):
            cells = (zj.real, zj.imag, wj.real, wj.imag)
            fh.write(",".join(repr(float(c)) for c in cells) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_out = Path(__file__).resolve().parents[1] / (
        "src/shiftkrylov/data/quadrature"
    )
    ap.add_argument("--out", type=Path, default=default_out)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    for fname, kind, gamma in RULES:
        params, tuned_err = tune(kind, gamma)
        z, w = hyperbola_rule(N_NODES, *params, gamma)
        err = validate(kind, gamma, z, w)
        path = args.out / fname
        write_rule(path, kind, gamma, params, z, w, err)
        rule = load_quadrature(path, kind=kind, gamma=gamma)
        assert rule.is_conjugate_symmetric(), fname
        assert np.allclose(rule.nodes, z, rtol=0, atol=0), "round trip differs"
        reread = validate(kind, gamma, rule.nodes, rule.weights)
        print(
            f"{fname}: tuned {tuned_err:.3e}, validated {err:.3e}, "
            f"after round trip {reread:.3e}"
        )


if __name__ == "__main__":
    main()

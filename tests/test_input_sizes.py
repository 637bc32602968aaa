"""Sizes and counts are checked by one rule at every entry point: a value
that is not an integer, NaN, infinities, None and strings included,
raises the entry point's package error, never a bare built-in one."""

import numpy as np
import pytest

from shiftkrylov import (
    CsrMatrix,
    InvalidDimensions,
    InvalidGrid,
    SolverConfig,
    gen_convdiff3d,
    gen_laplace2d,
    identity,
    predicted_flops,
    run_hessenberg,
)

ENTRY_POINTS = {
    "SolverConfig.m": (InvalidDimensions, lambda x: SolverConfig(m=x).validate()),
    "SolverConfig.max_mvps": (InvalidDimensions,
                              lambda x: SolverConfig(max_mvps=x).validate()),
    "run_hessenberg.m": (InvalidDimensions,
                         lambda x: run_hessenberg(identity(4), np.ones(4), x)),
    "predicted_flops.m": (InvalidDimensions, lambda x: predicted_flops("hessenberg", x, 10, 5)),
    "predicted_flops.n": (InvalidDimensions, lambda x: predicted_flops("hessenberg", 2, x, 5)),
    "predicted_flops.nnz": (InvalidDimensions,
                            lambda x: predicted_flops("hessenberg", 2, 10, x)),
    "gen_convdiff3d.n": (InvalidGrid, lambda x: gen_convdiff3d(x, 1.0, (0, 0, 0), 0.0)),
    "gen_laplace2d.n": (InvalidGrid, lambda x: gen_laplace2d(x)),
    "from_triplets.nrows": (InvalidDimensions,
                            lambda x: CsrMatrix.from_triplets([], [], [], (x, 2))),
    "from_triplets.ncols": (InvalidDimensions,
                            lambda x: CsrMatrix.from_triplets([], [], [], (2, x))),
    "identity.n": (InvalidDimensions, lambda x: identity(x)),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None, "abc"],
                         ids=["nan", "inf", "None", "str"])
@pytest.mark.parametrize("site", sorted(ENTRY_POINTS))
def test_bad_size_raises_the_package_error(site, bad):
    error, call = ENTRY_POINTS[site]
    with pytest.raises(error):
        call(bad)

import importlib

import shiftkrylov

MODULES = ("errors", "sparse", "mmio", "reduced", "processes", "solvers", "costs",
           "problems", "matfunc")

# the names the package exported when it still listed them by hand, less
# u0_bump3d, u0_sine2d and PROCESS_NAMES, which nothing outside the tests used
EXPORTED = {
    "CsrMatrix", "CycleInfo", "DimensionMismatch", "DuplicateNodes",
    "HessenbergDecomposition", "IllConditionedEigenbasis", "IndexOutOfRange",
    "InvalidDimensions", "InvalidGrid", "MvpCounter", "NonFiniteInput", "NotConverged",
    "ParseError", "QuadratureRule", "ShiftHistory", "ShiftKrylovError",
    "SingularReducedSystem", "SolveReport", "SolverConfig", "UnsupportedFormat",
    "ZeroStartVector", "__version__", "attach_costs", "collinearity_scalar",
    "dense_matfunc_oracle", "eval_rational_action", "gen_convdiff3d", "gen_laplace2d",
    "gen_shifts", "identity", "load_matrix_market", "load_quadrature", "mittag_leffler",
    "packaged_rule_path", "predicted_flops", "run_arnoldi", "run_hessenberg",
    "save_matrix_market", "solve_hessen", "solve_hessenberg", "solve_shifted_fom",
    "solve_shifted_hessen", "solve_shifted_hessenberg", "thick_restart",
    "true_relative_residual", "verify_decomposition",
}


def test_the_package_all_is_the_module_alls_and_the_version():
    modules = [importlib.import_module(f"shiftkrylov.{name}") for name in MODULES]
    names = shiftkrylov.__all__
    assert names == [name for module in modules for name in module.__all__] + ["__version__"]
    assert len(set(names)) == len(names)


def test_every_exported_name_is_its_module_object():
    for name in MODULES:
        module = importlib.import_module(f"shiftkrylov.{name}")
        for attr in module.__all__:
            assert getattr(shiftkrylov, attr) is getattr(module, attr), attr


def test_the_exported_names_are_unchanged():
    assert len(EXPORTED) == 46
    assert set(shiftkrylov.__all__) == EXPORTED

"""The library has no switches beyond its documented ones: it reads no
environment variable except the CLI's BLAS-thread defaults, the solver
keeps its four options, and the package keeps its numeric constants.  A
change that adds any of them fails here, by name."""

import ast
import dataclasses
import importlib
import numbers
from pathlib import Path

from equiterm import __main__ as entry
from equiterm.equilibrium import SolveOptions

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "equiterm"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environment_uses(path):
    """(line, name) of every reference to the process environment in a module."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in ENVIRONMENT:
            uses.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT]
    return uses


def test_only_the_entry_point_reads_the_environment():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = {path.name: _environment_uses(path) for path in modules}
    assert {name: uses for name, uses in found.items() if uses and name != "__main__.py"} == {}
    # the entry point only defaults BLAS to one thread, once per variable
    assert [name for _, name in found["__main__.py"]] == ["environ"]
    assert entry.BLAS_THREAD_VARS == ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_solve_options_keep_their_four_fields():
    fields = [(f.name, f.default) for f in dataclasses.fields(SolveOptions)]
    assert fields == [("tol", 1e-8), ("kkt_tol", 1e-8), ("max_iter", 200),
                      ("initial_prices", None)]


# every module-level int or float of the package, by module: the solver's
# tolerances and step rules, and the CLI's exit codes.  A batch size or a
# laziness threshold added as a constant shows here.
NUMERIC_CONSTANTS = {
    "cli": {"EXIT_OK", "EXIT_USAGE", "EXIT_VALIDATION", "EXIT_NO_CONVERGENCE"},
    "covariance": {"RIDGE_FLOOR", "SINGULAR_REL"},
    "equilibrium": {"PHI_ROUNDOFF", "ARMIJO", "RADIUS_SCALE"},
    "players": {"FD_STEP", "PIVOT_TOL"},
    "qp": {"MARGIN_CAP", "FEAS_MARGIN", "FEAS_TOL", "STRICT_DUAL_TOL", "DUAL_TOL"},
}


def _numeric_constants(path):
    """The names a module assigns at its top level whose value is a number."""
    module = importlib.import_module("equiterm" if path.stem == "__init__"
                                     else f"equiterm.{path.stem}")
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        names.update(n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name))
    return {name for name in names if isinstance(getattr(module, name, None), numbers.Real)
            and not isinstance(getattr(module, name), bool)}


def test_the_package_keeps_its_sixteen_numeric_constants():
    found = {path.stem: _numeric_constants(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == NUMERIC_CONSTANTS
    assert sum(map(len, NUMERIC_CONSTANTS.values())) == 16

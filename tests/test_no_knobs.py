"""The library has no switches beyond its documented ones: it reads no
environment variable except the CLI's BLAS-thread defaults, and the solver
keeps its four options.  A change that adds either fails here, by name."""

import ast
import dataclasses
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

"""Static guard against dead code in the package (stdlib ``ast`` only).

Seven things fail the guard: an import a module never uses (package
``__init__.py`` files are exempt, their imports are re-exports), a
``_private`` top-level function that no module of the package references,
a module-level UPPER_CASE constant that no module of the package loads,
an eigenvector solve whose eigenvalues are all that is read, a
nonsymmetric LAPACK eigensolve outside ``core/eig.py``, denominator
clearing (``math.lcm``) outside ``core/poly.py``, and sampled reality
(``sweep``, ``reality_flags``, ``REALITY_RTOL``) anywhere the exact shift
scan reaches.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "epspect"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree) -> set[str]:
    """Every identifier a module loads, reads as an attribute or imports by name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _imported_bindings(tree):
    """(bound name, line) for each module-level or nested import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _loaded_names(tree) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def test_package_modules_were_found():
    assert any(path.name == "epfinder.py" for path in MODULES)


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        loaded = _loaded_names(tree)
        for name, line in _imported_bindings(tree):
            if name not in loaded:
                unused.append(f"{path.relative_to(PACKAGE)}:{line}: {name}")
    assert unused == []


def test_no_unreferenced_private_functions():
    trees = {path: _parse(path) for path in MODULES}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    dead = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}: {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert dead == []


def test_no_unloaded_constants():
    """cli.py's ``EXIT_*`` codes are exempt: they spell out the exit-code
    contract, and argparse itself exits with ``EXIT_USAGE``."""
    trees = {path: _parse(path) for path in MODULES}
    loaded = set()
    for tree in trees.values():
        loaded |= _loaded_names(tree)
        loaded |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    dead = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}: {target.id}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and target.id.isupper()
        and target.id not in loaded
        and not (path.name == "cli.py" and target.id.startswith("EXIT_"))
    ]
    assert dead == []


def test_no_eigenvector_solve_for_values_only():
    """``eig_dense(...).values`` computes left and right eigenvectors,
    residuals and clusters only to drop them: the eigenvalue-only
    primitives are ``eigvals_double`` and, in extended precision,
    ``eigvals_mp``."""
    solves = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute)
        and node.attr == "values"
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "eig_dense"
    ]
    assert solves == []


LAPACK_EIG = {"numpy.linalg.eig", "numpy.linalg.eigvals", "scipy.linalg.eig", "scipy.linalg.eigvals"}


def _dotted(node, aliases):
    """The module path an attribute chain names, with import aliases resolved."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _uses(tree, targets):
    """Lines that name one of the dotted ``targets``, by attribute or import."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if full in targets or (
                    alias.name == "*" and any(t.rpartition(".")[0] == node.module for t in targets)
                ):
                    yield node.lineno
                aliases[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node, aliases) in targets:
            yield node.lineno


def test_lapack_eigensolves_only_in_core_eig():
    """``core/eig.py`` sends a real matrix to the real driver and a complex
    one to the complex driver; a solve elsewhere would bypass that choice.
    ``eigvalsh`` (the Hermitian Theta of the metric) is not nonsymmetric
    and stays allowed."""
    solves = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in MODULES
        if path != PACKAGE / "core" / "eig.py"
        for line in _uses(_parse(path), LAPACK_EIG)
    ]
    assert solves == []


def test_lapack_eigensolve_guard_sees_every_spelling():
    source = (
        "import numpy as np\nimport scipy.linalg as sla\nimport scipy\n"
        "from numpy import linalg\nfrom scipy.linalg import eigvals as ev\n"
        "np.linalg.eig(a); sla.eig(a); scipy.linalg.eigvals(a); linalg.eigvals(a)\n"
        "np.linalg.eigvalsh(a); sla.eigh(a)\n"
    )
    assert sorted(_uses(ast.parse(source), LAPACK_EIG)) == [5, 6, 6, 6, 6]


DENOMINATOR_CLEARING = {"math.lcm"}


def test_denominator_clearing_only_in_core_poly():
    """``core/poly.py``'s ``_cleared`` is the one place that scales exact
    coefficients to integers; the exact kernel and the integer evaluation
    of r^2(E) both take their integers from it."""
    uses = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in MODULES
        if path != PACKAGE / "core" / "poly.py"
        for line in _uses(_parse(path), DENOMINATOR_CLEARING)
    ]
    assert uses == []


def test_denominator_clearing_guard_sees_every_spelling():
    source = (
        "import math\nimport math as m\nfrom math import lcm\n"
        "from math import lcm as l\nfrom math import *\nfrom math import gcd\n"
        "math.lcm(a, b); m.lcm(a); math.gcd(a, b)\n"
    )
    assert sorted(_uses(ast.parse(source), DENOMINATOR_CLEARING)) == [3, 4, 5, 7, 7]


SAMPLED_REALITY = {"sweep", "reality_flags", "REALITY_RTOL"}
EXACT_SCAN = re.compile(r"bc_reality_signature|ep_locate_2d_bc|_polish_\w+_event")


def _sampling_in_exact_scan(tree):
    """(function, line) where a scan function, or a module function it
    reaches, loads a sampled-reality name."""
    functions = {
        node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    reached = [name for name in functions if EXACT_SCAN.fullmatch(name)]
    for name in reached:
        for node in ast.walk(functions[name]):
            ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ident in SAMPLED_REALITY:
                yield name, node.lineno
            elif ident in functions and ident not in reached:
                reached.append(ident)


def test_exact_scan_never_samples_reality():
    """The shift scan's labels come from exact real-root counts; a sweep or
    a reality tolerance anywhere it reaches would bring back sampling."""
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in MODULES
        for name, line in _sampling_in_exact_scan(_parse(path))
    ]
    assert found == []


def test_exact_scan_guard_sees_every_spelling():
    source = (
        "from .core import REALITY_RTOL\n"
        "def helper():\n    return sweep(1)\n"
        "def ep_locate_2d_bc():\n    return helper()\n"
        "def _polish_pole_event():\n    return core.reality_flags(x)\n"
        "def bc_reality_signature(n, y, rtol=REALITY_RTOL):\n    pass\n"
        "def unrelated():\n    return sweep(2)\n"
    )
    assert sorted(_sampling_in_exact_scan(ast.parse(source))) == [
        ("_polish_pole_event", 7),
        ("bc_reality_signature", 8),
        ("helper", 3),
    ]

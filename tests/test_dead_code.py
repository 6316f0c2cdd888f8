"""Static guard against dead code in the package (stdlib ``ast`` only).

Twenty-seven things fail the guard: an import a module never uses (package
``__init__.py`` files are exempt, their imports are re-exports), a
``_private`` top-level function that no module of the package references,
a module-level UPPER_CASE constant that no module of the package loads,
an eigenvector solve whose eigenvalues are all that is read, a
nonsymmetric LAPACK eigensolve outside ``core/eig.py``, a floating
determinant or characteristic polynomial (``numpy.linalg.det``,
``numpy.poly``) anywhere, double root seeds (``numpy.roots``) anywhere,
a name of the deleted floating tier of ``Polynomial`` (``to_double``,
``is_exact_zero``, ``_check_mode``, ``EXACT``, or a ``.mode`` attribute)
anywhere, a name of the deleted real-root polisher (``_newton_polish_real``,
``_certified``, ``NEWTON_STEPS``) anywhere, the Aberth kernel
(``_aberth_fixed``, ``_dyadic_roots``) anywhere ``real_root_intervals``
reaches,
denominator clearing (``math.lcm``) outside ``core/poly.py``, an inline
square-free gcd ``p.gcd(p.derivative())`` outside ``core/poly.py``,
sampled reality
(``sweep``, ``reality_flags``, ``REALITY_RTOL``) anywhere the exact shift
scan reaches, a double root read (``poly_roots``, a root cluster, the
cluster tolerance, a Newton polish or ``_levels_above``) anywhere the exact
locators reach, a ``Fraction``, ``sturmian_r2`` or ``R2Value`` anywhere
``branch_trace`` reaches, ``numpy.linalg`` or a ``core.eig`` solver
anywhere ``EpnModel.eigvals`` reaches (the double EPN spectrum is the
family's closed form), a name of the bc family's deleted second route to
its characteristic polynomial (``_sqrt_rounded``, ``_gaussian_eigvals``)
anywhere, Berkowitz or its Gaussian clearing (``_berkowitz``,
``_gaussian_cleared``) anywhere ``BcModel.eigvals_mp`` reaches, a
definition of ``bc_secular_parts``, ``secular_in_y`` or ``bc_secular_at``
outside ``models.py``, a call of ``bc_secular_parts`` outside it, a
``scipy`` import anywhere, an ``mpmath`` import anywhere
(numpy is the one runtime dependency), an import of ``threading`` or
``concurrent.futures`` anywhere but in ``epfinder._sweep_stacks``, a
whole ``sweep`` or ``SweepResult`` anywhere the CSV branches of the
``sweep`` and ``figure`` commands reach (they stream ``_sweep_stacks``),
a name of a deleted container (``Tridiagonal``, ``BivariateSecular``,
``discriminant_in_E``) or of a deleted ``EigResult`` field
(``residual_right``, ``residual_left``, ``low_confidence``) anywhere,
and a name of the shift scan's deleted polynomials in y for poles and
folds, their chain and their gcd split (``_pole_collision_poly``,
``_fold_coeffs_in_E``, ``_fold_chain``, ``_fold_event_poly``,
``_event_pieces``), of the ratio rounding's old name ``_rounded_energy``
or of the pole residual's old name ``resultant_residual`` anywhere, and a
name of the deleted subresultant chain over Z[y] (``disc_chain``,
``DiscriminantChain``, ``repeated_root``, ``res_E``, ``_subresultant`` and
the rest of its kernel), of the locators and secular coefficient lists
that read it (``_ep_locate_exact``, ``_secular_chain``,
``_disc_in_y_at_p``, ``epn_secular``, ``coefficients``, ``poly_at``) or of
the merge residual's old name ``disc_residual`` anywhere.  Two narrower
mpmath guards stay beside the import guard and name the culprit when it
fails: mpmath in the integer kernels of the extended tier (the Berkowitz
characteristic polynomial and the fixed-point Aberth iteration), and a
call of mpmath's QR eigensolver ``mp.eig``.
Fresh-interpreter tests check the import guards end to end: importing the
command line, running its commands (the default ``metric`` included) and
classifying a degeneracy never load scipy; the extended commands and the
perturbation exponent never load mpmath; and importing the command line,
sweeping one stack or sweeping the EPN closed form in many stacks never
loads ``concurrent.futures``.
"""

import ast
import json
import os
import re
import subprocess
import sys
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


FLOAT_ALGEBRA = {"numpy.linalg.det", "numpy.poly", "numpy.roots"}


def test_no_floating_determinant_or_characteristic_polynomial():
    """Resultants and discriminants are exact subresultant sequences
    (``core/poly.py``), characteristic polynomials are exact recurrences
    (``charpoly_from_parts``, Berkowitz in ``core/eig.py``), and real roots
    are isolated by Sturm bisection (``real_root_intervals``); an LU
    determinant, ``numpy.poly`` or ``numpy.roots`` seeds would be a second,
    floating path beside them."""
    uses = [
        f"{path.relative_to(PACKAGE)}:{line}" for path in MODULES for line in _uses(_parse(path), FLOAT_ALGEBRA)
    ]
    assert uses == []


def test_floating_algebra_guard_sees_every_spelling():
    source = (
        "import numpy as np\nimport numpy\nfrom numpy.linalg import det\n"
        "from numpy import poly as charpoly\nfrom numpy import linalg\n"
        "np.linalg.det(a); numpy.poly(a); linalg.det(a)\n"
        "np.linalg.slogdet(a); np.roots(c); np.polynomial.Polynomial(c); np.polyval(c, x)\n"
        "from numpy import roots as seeds\nnumpy.roots(c); np.polynomial.polynomial.polyroots(c)\n"
    )
    assert sorted(_uses(ast.parse(source), FLOAT_ALGEBRA)) == [3, 4, 6, 6, 6, 7, 8, 9]


FLOATING_TIER = {"to_double", "is_exact_zero", "_check_mode", "EXACT"}


def _spellings(tree, names, attributes=()):
    """Lines that name one of ``names`` in any spelling (a name, an
    attribute, an import, a definition), or read one of ``attributes``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found = node.attr in names or node.attr in attributes
        elif isinstance(node, ast.Name):
            found = node.id in names
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = node.name in names
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found = any(name in names for alias in node.names for name in (alias.name.rpartition(".")[2], alias.asname))
        else:
            found = False
        if found:
            yield node.lineno


def _floating_tier_uses(tree):
    """Lines that name a ``FLOATING_TIER`` name in any spelling, or read a ``.mode`` attribute."""
    return _spellings(tree, FLOATING_TIER, ("mode",))


def test_polynomial_has_one_exact_tier():
    """A ``Polynomial`` holds ``int`` and ``Fraction`` coefficients only and
    refuses any other where it is built; a conversion to double, a tier
    test or an exact member of ``Precision`` would bring the deleted
    floating tier, and its guards against mixing tiers, back."""
    uses = [f"{path.relative_to(PACKAGE)}:{line}" for path in MODULES for line in _floating_tier_uses(_parse(path))]
    assert uses == []


def test_floating_tier_guard_sees_every_spelling():
    source = (
        "from .scalars import to_double as d\n"
        "import epspect.core.scalars.is_exact_zero\n"
        "scalars.to_double(x); p.to_double()\n"
        "Precision.EXACT; core.Precision.EXACT\n"
        "if p.mode is Precision.DOUBLE:\n    pass\n"
        "def _check_mode(a, b):\n    pass\n"
        "class Precision(enum.Enum):\n    EXACT = 'exact'\n    DOUBLE = 'double'\n"
        "mode = 'w'; open(f, mode=mode); Precision.DOUBLE; is_exact_zero(c); modes.x\n"
    )
    assert sorted(_floating_tier_uses(ast.parse(source))) == [1, 2, 3, 3, 4, 4, 5, 7, 10, 12]


RETIRED_POLISH = {"_newton_polish_real", "_certified", "NEWTON_STEPS"}
REAL_ROOTS = re.compile(r"real_root_intervals")
ABERTH = {"_aberth_fixed", "_dyadic_roots"}


def test_real_roots_have_one_refinement():
    """A real root is refined by ``_bracket`` alone, whose bracket is its
    certificate; the one-seed Aberth polisher, its sign certificate and the
    exact Newton steps after it must not come back, and nothing
    ``real_root_intervals`` reaches may run the Aberth kernel."""
    found = [f"{path.relative_to(PACKAGE)}:{line}" for path in MODULES for line in _spellings(_parse(path), RETIRED_POLISH)]
    found += [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in MODULES
        for name, line in _names_reached(_parse(path), REAL_ROOTS, ABERTH)
    ]
    assert found == []


def test_real_root_refinement_guard_sees_every_spelling():
    source = (
        "from .poly import _certified as c\n"
        "NEWTON_STEPS = 2\n"
        "def _newton_polish_real(f):\n    return poly._certified(f)\n"
        "x = core.poly.NEWTON_STEPS; certified = _newton_polish_real\n"
        "import epspect.core.poly._certified\n"
        "steps = NEWTON; polish = _newton_polish; _certified_energy = 1\n"
    )
    assert sorted(_spellings(ast.parse(source), RETIRED_POLISH)) == [1, 2, 3, 4, 5, 5, 6]
    source = (
        "def helper(c):\n    return _dyadic_roots(c, [], 136)\n"
        "def _refined_root(f, a, b):\n    return helper(f)\n"
        "def real_root_intervals(p):\n    return _refined_root(p, 0, 1), core.poly._aberth_fixed\n"
        "def eigvals_mp(m):\n    return _aberth_fixed(m), _dyadic_roots(m)\n"
    )
    assert sorted(_names_reached(ast.parse(source), REAL_ROOTS, ABERTH)) == [("helper", 2), ("real_root_intervals", 6)]


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


def _square_free_gcds(tree):
    """Lines that call a ``gcd`` with a ``.derivative()`` call anywhere in its arguments."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        args = [*node.args, *(k.value for k in node.keywords)]
        if name == "gcd" and any(
            isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and sub.func.attr == "derivative"
            for arg in args
            for sub in ast.walk(arg)
        ):
            yield node.lineno


def test_square_free_parts_only_in_core_poly():
    """``real_roots`` divides gcd(p, p') out of its Sturm sequence and
    ``square_free_factors`` runs Yun's algorithm, both in ``core/poly.py``;
    a gcd of a polynomial and its derivative anywhere else would be a
    second square-free path beside them."""
    uses = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in MODULES
        if path != PACKAGE / "core" / "poly.py"
        for line in _square_free_gcds(_parse(path))
    ]
    assert uses == []


def test_square_free_guard_sees_every_spelling():
    source = (
        "p.gcd(p.derivative())\n"
        "Polynomial.gcd(p, p.derivative())\n"
        "(a * b).gcd((a * b).derivative().monic())\n"
        "p.gcd(other=q.derivative())\n"
        "gcd(p, p.exact_div(q).derivative())\n"
        "p.gcd(q); p.derivative(); math.gcd(a, b); p.gcd(q).derivative()\n"
    )
    assert sorted(_square_free_gcds(ast.parse(source))) == [1, 2, 3, 4, 5]


SAMPLED_REALITY = {"sweep", "reality_flags", "REALITY_RTOL"}
EXACT_SCAN = re.compile(r"bc_reality_signature|ep_locate_2d_bc|_polish_\w+_event")
DOUBLE_ROOTS = {"poly_roots", "cluster_points", "CLUSTER_RTOL", "_newton_polish_real", "_levels_above"}
EXACT_LOCATORS = re.compile(r"ep_locate_1d|_bc_locate|_epn_locate|ep_locate_2d_bc|_polish_\w+_event")


def _names_reached(tree, roots, names):
    """(function, line) where a function named by ``roots``, or a module
    function it reaches, loads one of ``names``."""
    functions = {
        node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    reached = [name for name in functions if roots.fullmatch(name)]
    for name in reached:
        for node in ast.walk(functions[name]):
            ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ident in names:
                yield name, node.lineno
            elif ident in functions and ident not in reached:
                reached.append(ident)


PER_SAMPLE_FRACTIONS = {"Fraction", "sturmian_r2", "R2Value"}
BRANCH_TRACE = re.compile(r"branch_trace")


def _sampling_in_exact_scan(tree):
    """(function, line) where a scan function, or a module function it
    reaches, loads a sampled-reality name."""
    return _names_reached(tree, EXACT_SCAN, SAMPLED_REALITY)


def test_exact_scan_never_samples_reality():
    """The shift scan's labels come from exact real-root counts; a sweep or
    a reality tolerance anywhere it reaches would bring back sampling."""
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in MODULES
        for name, line in _sampling_in_exact_scan(_parse(path))
    ]
    assert found == []


def test_exact_locators_never_read_double_roots():
    """The order, energy and labels of a located event come from the
    subresultant chain and Sturm counts; a double root finder, a root
    cluster or its tolerance anywhere the locators reach would bring back
    rounded roots."""
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in MODULES
        for name, line in _names_reached(_parse(path), EXACT_LOCATORS, DOUBLE_ROOTS)
    ]
    assert found == []


def test_branch_trace_samples_on_integers():
    """``branch_trace`` evaluates r^2 at thousands of energies through the
    integer kernel ``_r2_ratio``; a ``Fraction``, or an ``R2Value`` from
    ``sturmian_r2``, anywhere it reaches would be built per sample again."""
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in MODULES
        for name, line in _names_reached(_parse(path), BRANCH_TRACE, PER_SAMPLE_FRACTIONS)
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
    source = (
        "from .core import CLUSTER_RTOL\n"
        "def helper():\n    return poly_roots(p)\n"
        "def ep_locate_1d():\n    return helper()\n"
        "def _polish_fold_event():\n    return core.poly._newton_polish_real(p, 1.0)\n"
        "def _bc_locate(rtol=CLUSTER_RTOL):\n    return cluster_points(v)\n"
        "def unrelated():\n    return _levels_above(1)\n"
    )
    assert sorted(_names_reached(ast.parse(source), EXACT_LOCATORS, DOUBLE_ROOTS)) == [
        ("_bc_locate", 8),
        ("_bc_locate", 9),
        ("_polish_fold_event", 7),
        ("helper", 3),
    ]
    source = (
        "from fractions import Fraction\n"
        "def helper(s, e):\n    return sturmian_r2(s, e)\n"
        "def _kernel(u, v):\n    return fractions.Fraction(u, v)\n"
        "def branch_trace(s):\n    return helper(s, 1), _kernel(1, 2), R2Value('pole', None)\n"
        "def unrelated():\n    return Fraction(1), sturmian_r2(s, 2)\n"
    )
    assert sorted(_names_reached(ast.parse(source), BRANCH_TRACE, PER_SAMPLE_FRACTIONS)) == [
        ("_kernel", 5),
        ("branch_trace", 7),
        ("helper", 3),
    ]


LAPACK_ROUTES = {"linalg", "eigvals_double", "eig_dense", "eigvals_mp", "_extended_roots"}


def _method_reaches(tree, cls, method, names):
    """(function, line) where ``cls.method``, a method of ``cls`` that it
    calls on ``self``, or a module function it reaches, loads one of ``names``."""
    functions = {
        node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    (klass,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls]
    methods = {node.name: node for node in klass.body if isinstance(node, ast.FunctionDef)}
    todo, reached = [(method, methods[method])], {method}
    while todo:
        name, function = todo.pop()
        for node in ast.walk(function):
            ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            on_self = isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"
            callee = methods.get(ident) if on_self else functions.get(ident) if isinstance(node, ast.Name) else None
            if ident in names:
                yield name, node.lineno
            elif callee is not None and ident not in reached:
                reached.add(ident)
                todo.append((ident, callee))


def test_epn_double_spectrum_never_reaches_lapack():
    """``EpnModel.eigvals`` is the family's closed form; ``numpy.linalg`` or a
    ``core.eig`` solver anywhere it reaches would send the sweep back to the
    eigenvalues of the rounded matrix."""
    found = [
        f"models.py:{line}: {name}"
        for name, line in _method_reaches(_parse(PACKAGE / "models.py"), "EpnModel", "eigvals", LAPACK_ROUTES)
    ]
    assert found == []


def test_epn_lapack_guard_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "def helper(a):\n    return eigvals_double(a)\n"
        "class EpnModel:\n"
        "    def matrices(self, grid):\n        return np.linalg.eigvals(grid)\n"
        "    def eigvals(self, grid):\n        return self.matrices(grid) + helper(grid) + self.eigvals_mp(0)\n"
        "    def eigvals_mp(self, t):\n        return eig_dense(t)\n"
        "class BcModel:\n"
        "    def eigvals(self, grid):\n        return eigvals_double(self.matrices(grid))\n"
        "def unrelated():\n    return np.linalg.eig(1)\n"
    )
    assert sorted(_method_reaches(ast.parse(source), "EpnModel", "eigvals", LAPACK_ROUTES)) == [
        ("eigvals", 8),
        ("helper", 3),
        ("matrices", 6),
    ]


RETIRED_BC_ROUTE = {"_sqrt_rounded", "_gaussian_eigvals"}
BERKOWITZ_ROUTE = {"_berkowitz", "_gaussian_cleared"}
BC_PARTS = {"bc_secular_parts", "secular_in_y", "bc_secular_at"}


def _is_alias(node):
    """``name = models.name``: the same object bound under its own name, not a second definition."""
    target, value = (node.targets[0] if len(node.targets) == 1 else None), node.value
    return (
        isinstance(target, ast.Name)
        and isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and (value.value.id, value.attr) == ("models", target.id)
    )


def _definitions(tree, names):
    """(name, line) of each function, class or assignment, at any depth, that defines one of ``names``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in names:
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if isinstance(node, ast.Assign) and _is_alias(node):
                continue
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id in names:
                        yield sub.id, node.lineno


def _calls(tree, names):
    """(name, line) of each call of one of ``names``, as a bare name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in names:
                yield name, node.lineno


def _second_bc_polynomials(modules):
    """Where the bc family gets a second characteristic polynomial: a
    ``RETIRED_BC_ROUTE`` name in any spelling, a ``BERKOWITZ_ROUTE`` name
    anywhere ``BcModel.eigvals_mp`` reaches, ``BC_PARTS`` defined outside
    ``models.py`` (an alias ``name = models.name`` is not a definition),
    or ``bc_secular_parts`` called outside it: only ``secular_in_y`` and
    ``bc_secular_at`` assemble the corner decomposition."""
    found = [f"{path}:{line}" for path, tree in modules.items() for line in _spellings(tree, RETIRED_BC_ROUTE)]
    found += [
        f"models.py:{line}: {name}"
        for name, line in _method_reaches(modules["models.py"], "BcModel", "eigvals_mp", BERKOWITZ_ROUTE)
    ]
    found += [
        f"{path}:{line}: def {name}"
        for path, tree in modules.items()
        if path != "models.py"
        for name, line in _definitions(tree, BC_PARTS)
    ]
    found += [
        f"{path}:{line}: {name}()"
        for path, tree in modules.items()
        if path != "models.py"
        for name, line in _calls(tree, {"bc_secular_parts"})
    ]
    return found


def test_bc_family_has_one_characteristic_polynomial():
    """``bc_secular_parts``, assembled by ``secular_in_y`` and
    ``bc_secular_at`` in ``models.py``, is the bc family's one
    characteristic polynomial; its extended spectrum, the Sturmian function
    and the scans read it there, and Berkowitz serves bare matrices only.
    The Gaussian-integer matrix with sqrt(1 - r^2) rounded to 2^-103 must
    not come back."""
    modules = {str(path.relative_to(PACKAGE)): _parse(path) for path in MODULES}
    assert {name for name, _ in _definitions(modules["models.py"], BC_PARTS)} == BC_PARTS
    assert _second_bc_polynomials(modules) == []


def test_bc_polynomial_guard_sees_every_spelling():
    modules = {
        "models.py": ast.parse(
            "from .core.eig import _gaussian_eigvals as solve\n"
            "def helper(rows):\n    return _berkowitz(rows)\n"
            "class BcModel:\n"
            "    def _rows(self):\n        return core.poly._gaussian_cleared([1])\n"
            "    def eigvals_mp(self, r):\n        return helper(self._rows()) + solve(_sqrt_rounded(r, 103))\n"
            "    def eigvals(self, grid):\n        return _berkowitz(grid)\n"
            "def secular_in_y(n):\n    return bc_secular_parts(n)\n"
        ),
        "sturmian.py": ast.parse(
            "from .models import bc_secular_parts, secular_in_y\n"
            "async def bc_secular_parts(n):\n    return n\n"
            "secular_in_y: object = lambda n: n\n"
            "class S:\n    def secular_in_y(self):\n        return secular_in_y(1)\n"
            "a, (b, bc_secular_parts) = 1, (2, 3)\n"
            "bc_secular_at = models.bc_secular_at\n"
            "secular_in_y = other.secular_in_y\n"
            "b = -models.bc_secular_parts(n)[3]\n"
        ),
        "epfinder.py": ast.parse("bc_secular_at = models.bc_secular_parts\nc3 = bc_secular_parts(4)[3]\n"),
    }
    assert sorted(_second_bc_polynomials(modules)) == [
        "epfinder.py:1: def bc_secular_at",
        "epfinder.py:2: bc_secular_parts()",
        "models.py:1",
        "models.py:3: helper",
        "models.py:6: _rows",
        "models.py:8",
        "sturmian.py:10: def secular_in_y",
        "sturmian.py:11: bc_secular_parts()",
        "sturmian.py:2: def bc_secular_parts",
        "sturmian.py:4: def secular_in_y",
        "sturmian.py:6: def secular_in_y",
        "sturmian.py:8: def bc_secular_parts",
    ]


INTEGER_KERNELS = {"core/eig.py": ("_berkowitz",), "core/poly.py": ("_aberth_fixed", "_fixed_sum")}


def _mpmath_in_kernels(tree, kernels):
    """(function, line) where a kernel, or a module function it reaches,
    names mpmath: a module alias (``mp.``) or a name imported from it."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name.split(".")[0] == "mpmath"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "mpmath":
            aliases |= {a.asname or a.name for a in node.names}
    functions = {
        node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    reached = [name for name in kernels if name in functions]
    for name in reached:
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name) and node.id in aliases:
                yield name, node.lineno
            elif isinstance(node, ast.Name) and node.id in functions and node.id not in reached:
                reached.append(node.id)


def test_integer_kernels_use_no_mpmath():
    """The extended tier's characteristic polynomial and root iteration run
    on Python ints.  The package-wide import guard below already refuses
    mpmath; this narrower guard also names the kernel that would reach it."""
    for module, kernels in INTEGER_KERNELS.items():
        defined = {node.name for node in _parse(PACKAGE / module).body if isinstance(node, ast.FunctionDef)}
        assert set(kernels) <= defined, module
    found = [
        f"{module}:{line}: {name}"
        for module, kernels in INTEGER_KERNELS.items()
        for name, line in _mpmath_in_kernels(_parse(PACKAGE / module), kernels)
    ]
    assert found == []


def test_integer_kernel_guard_sees_every_spelling():
    source = (
        "import mpmath as mp\nimport mpmath\nfrom mpmath import mpf, fdot as fd\n"
        "def helper():\n    return mp.mpf(1)\n"
        "def _berkowitz(m):\n    return helper() + mpmath.fsum(m)\n"
        "def _aberth_fixed(c):\n    return fd(c, c) + mpf(2)\n"
        "def unrelated():\n    return mp.mpc(1)\n"
    )
    assert sorted(_mpmath_in_kernels(ast.parse(source), ("_berkowitz", "_aberth_fixed"))) == [
        ("_aberth_fixed", 9),
        ("_aberth_fixed", 9),
        ("_berkowitz", 7),
        ("helper", 5),
    ]


def _package_imports(tree, package="scipy"):
    """Lines of every import of ``package``, function bodies included, and of
    every ``importlib.import_module`` or ``__import__`` call that names it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == package for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == package:
                yield node.lineno
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            target = node.args[0].value
            if name in ("__import__", "import_module") and isinstance(target, str) and target.split(".")[0] == package:
                yield node.lineno


def test_no_module_imports_scipy():
    """numpy is the eigensolver of every tier: the double eigenbasis is
    ``numpy.linalg.eig`` with Y = X^-H, and scipy stays a test oracle."""
    found = [
        f"{path.relative_to(PACKAGE)}:{line}" for path in MODULES for line in _package_imports(_parse(path))
    ]
    assert found == []


def test_scipy_import_guard_sees_every_spelling():
    source = (
        "import scipy\n"
        "import scipy.linalg as sla\n"
        "from scipy import linalg\n"
        "from scipy.optimize import minimize_scalar\n"
        "import numpy, scipy.sparse\n"
        "if True:\n    import scipy.special\n"
        "class C:\n    from scipy import stats\n"
        "def lazy():\n    import scipy.linalg as sla\n    from scipy.optimize import x\n"
        "import scipyx\nfrom .scipy import y\nfrom numpy import scipy\n"
    )
    assert sorted(_package_imports(ast.parse(source))) == [1, 2, 3, 4, 5, 7, 9, 11, 12]


def test_no_module_imports_mpmath():
    """The extended tier is fixed-point integer arithmetic: the Berkowitz
    characteristic polynomial, the Aberth iteration and the real-root
    polisher run on Python ints, and results leave it as ``complex`` or
    ``Fraction``.  mpmath, its QR eigensolver ``mp.eig`` included, stays a
    test oracle."""
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in MODULES
        for line in _package_imports(_parse(path), "mpmath")
    ]
    assert found == []


def test_mpmath_import_guard_sees_every_spelling():
    source = (
        "import mpmath as mp\n"
        "import mpmath\n"
        "from mpmath import mpf, fdot as fd\n"
        "from mpmath import eig\n"
        "from mpmath import eig as qr\n"
        "from mpmath import *\n"
        "import numpy, mpmath.libmp\n"
        "def _berkowitz(m):\n    import mpmath as mp\n    return mp.eig(m)\n"
        "class C:\n    from mpmath.libmp import mpf_add\n"
        "import importlib\nimportlib.import_module('mpmath')\n__import__('mpmath.libmp')\n"
        "import mpmathx\nfrom .mpmath import y\nfrom numpy import mpmath\nimportlib.import_module('numpy')\n"
    )
    assert sorted(_package_imports(ast.parse(source), "mpmath")) == [1, 2, 3, 4, 5, 6, 7, 9, 12, 14, 15]


MP_QR = {"mpmath.eig"}


def test_no_module_calls_mpmath_qr():
    """Eigenvalues in extended precision are the roots of the exact
    characteristic polynomial; mpmath's QR eigensolver stays a test oracle."""
    found = [f"{path.relative_to(PACKAGE)}:{line}" for path in MODULES for line in _uses(_parse(path), MP_QR)]
    assert found == []


def test_mpmath_qr_guard_sees_every_spelling():
    source = (
        "import mpmath as mp\nimport mpmath\nfrom mpmath import eig\n"
        "from mpmath import eig as qr\nfrom mpmath import *\n"
        "def f(a):\n    return mp.eig(a), mpmath.eig(a, left=True), mp.eigsy(a), mp.polyroots(a)\n"
    )
    assert sorted(_uses(ast.parse(source), MP_QR)) == [3, 4, 5, 7, 7]


COLD_COMMANDS = [
    ["sweep", "--model", "epn", "--n", "4", "--range", "0:1", "--samples", "11", "--output", "s.csv"],
    ["find-ep", "--model", "bc", "--n", "4", "--scan-y", "--range", "-1:0", "--output", "scan.json"],
    ["figure", "4", "--out-dir", "."],
    ["metric", "--model", "epn", "--n", "4", "--t", "0.5", "--precision", "extended", "--output", "m.json"],
    ["metric", "--model", "bc", "--n", "6", "--r", "0.5", "--output", "m.json"],
]


def _fresh_interpreter(script, cwd):
    """The last line a fresh interpreter running ``script`` prints, with the package on its path."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cold_commands_never_load_scipy(tmp_path):
    script = (
        "import json, sys\n"
        "import epspect.cli\n"
        "loaded = ['import epspect.cli'] if 'scipy' in sys.modules else []\n"
        f"for argv in {COLD_COMMANDS!r}:\n"
        "    assert epspect.cli.main(argv) == 0, argv\n"
        "    loaded += [argv[0]] if 'scipy' in sys.modules else []\n"
        "from epspect import BcModel, HermitianDemoModel, bc_matrix, classify_degeneracy, ep_locate_1d\n"
        "for model in (BcModel(6, -0.8), HermitianDemoModel(4, 1)):\n"
        "    ep_locate_1d(model, (-1, 1))\n"
        "    loaded += [repr(model)] if 'scipy' in sys.modules else []\n"
        "classify_degeneracy(bc_matrix(6, 1j), 2.0)\n"
        "loaded += ['classify_degeneracy'] if 'scipy' in sys.modules else []\n"
        "print(json.dumps(loaded))\n"
    )
    assert json.loads(_fresh_interpreter(script, tmp_path)) == []


EXTENDED_COMMANDS = [
    "find-ep --model epn --n 4 --param t --range -0.5:0.5 --output ep.json".split(),
    "find-ep --model bc --n 4 --scan-y --range -1:0 --output scan.json".split(),
    "metric --model epn --n 4 --t 0.5 --precision extended --output m.json".split(),
    "sweep --model epn --n 4 --range=-0.5:1 --samples 5 --precision extended --output e.csv".split(),
    "sweep --model bc --n 4 --range=-1.5:1.5 --samples 5 --precision extended --output b.csv".split(),
    "sweep --model hermitian-demo --n 3 --range 0:1 --samples 3 --precision extended --output d.csv".split(),
]


def test_extended_commands_never_load_mpmath(tmp_path):
    script = (
        "import json, sys\n"
        "import epspect.cli\n"
        "loaded = ['import epspect.cli'] if 'mpmath' in sys.modules else []\n"
        f"for argv in {EXTENDED_COMMANDS!r}:\n"
        "    assert epspect.cli.main(argv) == 0, argv\n"
        "    loaded += [argv[0]] if 'mpmath' in sys.modules else []\n"
        "from epspect import epn_matrix, perturbation_exponent\n"
        "perturbation_exponent(epn_matrix(4, 0.0), 4, [1e-12, 1e-10, 1e-8], seed=1, draws=1)\n"
        "loaded += ['perturbation_exponent'] if 'mpmath' in sys.modules else []\n"
        "print(json.dumps(loaded))\n"
    )
    assert json.loads(_fresh_interpreter(script, tmp_path)) == []


THREAD_MODULES = {"threading", "concurrent"}


def _thread_imports(tree):
    """(line, top-level function or None) of each import of ``threading`` or ``concurrent``."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in THREAD_MODULES for name in names):
                yield node.lineno, owner


def test_only_sweep_imports_threads():
    """The stack pool of the double sweep is the package's one source of
    threads: no other function or module imports ``threading`` or
    ``concurrent.futures``."""
    found = {
        (str(path.relative_to(PACKAGE)), owner) for path in MODULES for _, owner in _thread_imports(_parse(path))
    }
    assert found == {("epfinder.py", "_sweep_stacks")}


def test_thread_import_guard_sees_every_spelling():
    source = (
        "import threading\n"
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from concurrent import futures\n"
        "import os, threading as th\n"
        "def sweep():\n    from concurrent.futures import ThreadPoolExecutor\n"
        "class C:\n    def sweep(self):\n        import threading\n"
        "import threadingx\nfrom .threading import y\nfrom os import threading\n"
    )
    want = [(1, None), (2, None), (3, None), (4, None), (5, None), (7, "sweep"), (10, None)]
    assert list(_thread_imports(ast.parse(source))) == want


def test_import_and_one_chunk_sweep_never_load_a_thread_pool(tmp_path):
    """Importing the command line, a sweep of one stack and an EPN sweep of
    32 stacks (n = 32 over 2001 samples; its closed form is solved inline)
    load no thread pool."""
    one = ["sweep", "--model", "epn", "--n", "4", "--range", "0:1", "--samples", "256", "--output", "s.csv"]
    many = ["sweep", "--model", "epn", "--n", "32", "--range", "0:1", "--samples", "2001", "--output", "m.csv"]
    script = (
        "import sys\n"
        "import epspect.cli\n"
        "from epspect.epfinder import _stack_length\n"
        "assert -(-2001 // _stack_length(32)) == 32\n"
        "loaded = ['import epspect.cli'] if 'concurrent.futures' in sys.modules else []\n"
        f"for argv in ({one!r}, {many!r}):\n"
        "    assert epspect.cli.main(argv) == 0, argv\n"
        "    loaded += [' '.join(argv[:5])] if 'concurrent.futures' in sys.modules else []\n"
        "print(loaded)\n"
    )
    assert _fresh_interpreter(script, tmp_path) == "[]"


CSV_BRANCHES = {"_cmd_sweep": "csv", "_cmd_figure": "sweep"}  # command: the constant its CSV branch tests
COLLECTED_SWEEP = {"sweep", "SweepResult"}


def _csv_branch_names(tree):
    """(command, name, line) for each name that a CSV branch of ``CSV_BRANCHES``,
    or a module function it reaches, loads.  A CSV branch is the body of an
    ``if`` in the command whose test holds the command's constant."""
    functions = {
        node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for command, constant in CSV_BRANCHES.items():
        todo = [
            stmt
            for node in ast.walk(functions[command])
            if isinstance(node, ast.If)
            and any(isinstance(c, ast.Constant) and c.value == constant for c in ast.walk(node.test))
            for stmt in node.body
        ]
        reached = set()
        while todo:
            for node in ast.walk(todo.pop()):
                ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if ident is None:
                    continue
                yield command, ident, node.lineno
                if ident in functions and ident not in reached:
                    reached.add(ident)
                    todo.append(functions[ident])


def test_sweep_csv_branches_stream_stacks():
    """``sweep --format csv`` and figures 1-3 write each stack as it is
    solved; a ``sweep`` or ``SweepResult`` anywhere they reach would hold
    the whole sweep and its text again."""
    names = list(_csv_branch_names(_parse(PACKAGE / "cli.py")))
    for command in CSV_BRANCHES:
        assert "_sweep_stacks" in {name for cmd, name, _ in names if cmd == command}, command
    assert [(cmd, name, line) for cmd, name, line in names if name in COLLECTED_SWEEP] == []


def test_csv_branch_guard_sees_every_spelling():
    source = (
        "def helper(m):\n    return epfinder.sweep(m, (0, 1), 5)\n"
        "def _write(out, stacks):\n    return SweepResult(*stacks)\n"
        "def _cmd_sweep(args):\n"
        "    if args.format == 'csv':\n        return _write(out, _sweep_stacks(m))\n"
        "    return sweep(m)\n"
        "def _cmd_figure(command):\n"
        "    if command == 'sweep':\n        helper(_sweep_stacks)\n"
        "    else:\n        sweep(m)\n"
    )
    names = list(_csv_branch_names(ast.parse(source)))
    assert sorted((cmd, name, line) for cmd, name, line in names if name in COLLECTED_SWEEP) == [
        ("_cmd_figure", "sweep", 2),
        ("_cmd_sweep", "SweepResult", 4),
    ]
    assert {cmd for cmd, name, _ in names if name == "_sweep_stacks"} == set(CSV_BRANCHES)


DELETED_CONTAINERS = {
    "Tridiagonal",
    "BivariateSecular",
    "discriminant_in_E",
    "residual_right",
    "residual_left",
    "low_confidence",
}


def _deleted_name_uses(tree, names):
    """Lines that name one of ``names`` in any spelling, pass or take it as a
    keyword, or hold it as a string (an ``__all__`` entry or a dict key)."""
    yield from _spellings(tree, names)
    for node in ast.walk(tree):
        if isinstance(node, (ast.keyword, ast.arg)):
            found = node.arg in names
        elif isinstance(node, ast.Constant):
            found = isinstance(node.value, str) and node.value in names
        else:
            found = False
        if found:
            yield node.lineno


def test_one_container_per_core_object():
    """A matrix is a ``DenseMatrix`` (or an array), the bc secular
    polynomial in p = r^2 is ``SturmianFunction.coefficients``, and an
    eigentriple holds values, vectors and clusters: no banded copy of a
    matrix, no second secular container with its own discriminant, and no
    per-column residuals or confidence flags that no caller reads."""
    uses = [f"{path.relative_to(PACKAGE)}:{line}" for path in MODULES for line in _deleted_name_uses(_parse(path), DELETED_CONTAINERS)]
    assert uses == []


def test_deleted_container_guard_sees_every_spelling():
    source = (
        "from .tridiag import Tridiagonal as T\n"
        "import epspect.core.poly.discriminant_in_E\n"
        "core.BivariateSecular(a, b); res.low_confidence.any()\n"
        "class Tridiagonal:\n    pass\n"
        "def discriminant_in_E(s):\n    pass\n"
        "EigResult(values, right, left, residual_right=r)\n"
        "__all__ = ['residual_left']\n"
        "def f(low_confidence=None):\n    pass\n"
        "residual_right: object = None\n"
        "tridiagonal = Tridiag(); residuals = x.residual; 'low confidence'; discriminant_in_e(s)\n"
    )
    assert sorted(set(_deleted_name_uses(ast.parse(source), DELETED_CONTAINERS))) == [1, 2, 3, 4, 6, 8, 9, 10, 12]


DELETED_SCAN_POLYNOMIALS = {
    "_pole_collision_poly",
    "_fold_coeffs_in_E",
    "_fold_chain",
    "_fold_event_poly",
    "_event_pieces",
    "_rounded_energy",
    "resultant_residual",
}


def test_shift_scan_reads_poles_and_folds_in_E():
    """The shift scan reads its pole and fold candidates from polynomials in
    E (the roots of B and of the Wronskian V), so the pole resultant
    Res_E(A_y, B), the fold chain of W over Z[y], its discriminant and their
    gcd split into coprime pieces are neither defined nor read, and the
    ratio rounding and the pole residual keep their new names.  The
    deleted polynomials live on as test oracles (``oracles.py``)."""
    uses = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in MODULES
        for line in _deleted_name_uses(_parse(path), DELETED_SCAN_POLYNOMIALS)
    ]
    assert uses == []


def test_deleted_scan_polynomial_guard_sees_every_spelling():
    source = (
        "from .epfinder import _event_pieces as pieces\n"
        "@lru_cache(maxsize=None)\ndef _fold_chain(n):\n    pass\n"
        "poly = epfinder._pole_collision_poly(n)\n"
        "resid['resultant_residual'] = 0.0\n"
        "j, e = _rounded_energy(s, g, x, a, b)\n"
        "fold_event_poly(n); _fold_coeffs_in_e(n); resultant(p, q)\n"
    )
    assert sorted(set(_deleted_name_uses(ast.parse(source), DELETED_SCAN_POLYNOMIALS))) == [1, 3, 5, 6, 7]


DELETED_CHAIN = {
    "disc_chain",
    "DiscriminantChain",
    "repeated_root",
    "disc_E",
    "res_E",
    "resultant",
    "discriminant",
    "_subresultant",
    "_prem",
    "_resultant_int",
    "_chain_resultant",
    "_rescaled",
    "_int_pow",
    "_ep_locate_exact",
    "_secular_chain",
    "_disc_in_y_at_p",
    "epn_secular",
    "coefficients",
    "poly_at",
    "disc_residual",
}
LIVE_KEYS = {"discriminant"}  # ``classify_degeneracy``'s residual key, not the deleted function


def _chain_uses(tree):
    """Lines that name a ``DELETED_CHAIN`` name as ``_deleted_name_uses`` does, a live residual key only as an identifier."""
    yield from _deleted_name_uses(tree, DELETED_CHAIN - LIVE_KEYS)
    yield from _spellings(tree, LIVE_KEYS)


def test_exact_points_are_roots_of_polynomials_in_E():
    """Every exact EP is a root of a univariate polynomial in E: the 1-D
    bc locator reads the branch merges of r^2 and the crossings on
    persistent lines, the EPN locator its closed form, and the shift scan
    N, V and B.  So no discriminant over Z[y], no subresultant chain and
    none of its kernel is defined or read, nor the secular coefficient
    lists in p or q that fed it, and the merge residual keeps its new name.
    The chain lives on as a test oracle (``oracles.py``)."""
    uses = [f"{path.relative_to(PACKAGE)}:{line}" for path in MODULES for line in _chain_uses(_parse(path))]
    assert uses == []


def test_deleted_chain_guard_sees_every_spelling():
    source = (
        "from .core import disc_chain as chain, DiscriminantChain\n"
        "j, e = _secular_chain(n).repeated_root(g, y, a, b)\n"
        "def _subresultant(f, g):\n    pass\n"
        "resid['disc_residual'] = 0.0\n"
        "residuals = {'discriminant': 0.0}; coeffs = s.coefficients\n"
        "d = discriminant(p); epn_secular(n); core.poly._int_pow(a, 2)\n"
        "def f(poly_at=None):\n    pass\n"
        "fold_residual = 0.0; disc_e(f); 'resultant of two'; _prem_steps = 0\n"
    )
    assert sorted(set(_chain_uses(ast.parse(source)))) == [1, 2, 3, 5, 6, 7, 8]

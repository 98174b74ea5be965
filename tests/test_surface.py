"""Guard the package surface: every public top-level name has a caller outside tests.

A name counts as used when ``src/`` or ``perfbench/`` refers to it anywhere
but its own definition: a bare name, a module-qualified attribute, or a
string naming it (the benchmark tracer patches functions by name).
Docstrings and comments do not count.  Oracles that only the tests call
are kept on purpose and listed below, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tamedspde"

KEPT_ORACLES = {
    "l2_norm": "criterion 8 measures nonexpansiveness in the mass norm with it",
    "lipschitz_sqrt_g": "the sqrt(1 + x^2) diffusion of criteria 3 and 9; not a preset",
    "eval_f_tau": "the checked public drift taming that criterion 9 bounds",
    "eval_g_tau": "the checked public diffusion taming that criterion 9 bounds",
    "eigen_smallest": "inverse iteration, the independent check of the P1 dispersion",
    "dispersion_eigenvalue": "closed-form P1 eigenvalue behind the spectral oracles",
    "sine_transform": "mass-weighted sine coefficients behind Parseval and mode-1 oracles",
}


def _docstring_nodes(tree):
    """The string constants that are docstrings of the module, classes or functions."""
    nodes = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                nodes.add(id(body[0].value))
    return nodes


def _public_definitions(tree):
    """(name, defining node) for each public top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _references(tree):
    """Every identifier the tree refers to, once per reference."""
    docstrings = _docstring_nodes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            yield node.value


def unreferenced_public_names():
    files = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    uses = Counter(name for tree in trees.values() for name in _references(tree))
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in _public_definitions(trees[path]):
            own = sum(1 for n in _references(definition) if n == name)
            if uses[name] == own:
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_public_name_has_a_caller_outside_tests():
    missing = [m for m in unreferenced_public_names()
               if m.split(".", 1)[1] not in KEPT_ORACLES]
    assert not missing, f"public names only tests call: {missing}"


def test_every_kept_oracle_is_still_defined_and_test_only():
    test_only = {m.split(".", 1)[1] for m in unreferenced_public_names()}
    assert test_only == set(KEPT_ORACLES)

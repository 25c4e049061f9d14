"""The package's public names: each is bound for the public and each has a caller.

A deletion that drops a name from one of the two lists and not the other
(a stale import, or a stale ``__all__`` entry) fails here, and so does a
public function, class or method that nothing but its unit tests calls,
or a private module-level helper that nothing in the package calls.
"""
import ast
import re
import types
from pathlib import Path

import monogamy

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monogamy"
README = ROOT / "README.md"


def test_all_names_every_public_binding_of_the_package():
    public = {name for name, value in vars(monogamy).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(monogamy.__all__) == len(set(monogamy.__all__))
    assert set(monogamy.__all__) == public


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions(tree: ast.Module) -> list[str]:
    """Module-level public functions and classes, and the public methods of every class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, defs)]
    return [name for name in names if not name.startswith("_")]


def _references(node: ast.AST, enclosing: frozenset = frozenset()) -> set[str]:
    """Every name, attribute and dotted-identifier string constant under ``node``.

    A string such as ``"Ket.to_density_matrix"`` counts each of its parts,
    since operator.attrgetter and the benchmark's tracer name their targets
    that way; prose (a docstring) is no identifier and counts nothing.  A
    function's reference to its own name, a recursive call, is no caller.
    """
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        if all(part.isidentifier() for part in parts):
            found.update(parts)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = enclosing | {node.name}
    for child in ast.iter_child_nodes(node):
        found |= _references(child, enclosing)
    return found - enclosing


def test_every_public_name_has_a_caller():
    # callers: the program itself, the benchmark, and the acceptance criteria; unit tests are not callers
    modules = sorted(PACKAGE.glob("*.py"))
    callers = [path for path in modules if path.name != "__init__.py"]
    callers += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    referenced = set().union(*(_references(_tree(path)) for path in callers))
    defined = [name for path in modules for name in _public_definitions(_tree(path))]
    assert sorted(set(defined) - referenced) == []


def _private_names(node: ast.stmt) -> list[str]:
    """The private names a module-level statement defines: a function, a class or assigned names."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [target.id for target in targets if isinstance(target, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_helper_has_a_caller():
    # aim 2's rule for private code: each module-level private name of the package is referenced by
    # another statement of the package than the one that defines it; an import is no reference
    nodes = [node for path in sorted(PACKAGE.glob("*.py")) for node in _tree(path).body]
    references = [_references(node) for node in nodes]
    unused = [name for i, node in enumerate(nodes) for name in _private_names(node)
              if not any(name in found for j, found in enumerate(references) if j != i)]
    assert unused == []


def test_readme_library_example_runs(capsys):
    # the example cites public names; a deletion that leaves it stale fails here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()

"""Every name a module imports is used in it, or re-exported through __all__;
every private function or class of the package, and every private name
bound at its modules' top level, is used in the package; every public
function, class or method of the package is used in it, exported, or
patched by the benchmark tracer; and every module-level constant of the
package is read in the package."""

import ast
import pathlib
import re

import pytest

import tqograph
from test_tracer_targets import TARGETS

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """(name bound by an import, line) for every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names loaded anywhere, in string annotations, or listed in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import comb, pi\nprint(pi)\n"
    assert unused_imports(source) == [("os", 1), ("system", 2), ("comb", 3)]


def test_accepts_all_and_string_annotations():
    source = ("from .a import B, C\nfrom typing import List\n"
              "__all__ = ['B']\ndef f(x: 'List[C]') -> None: pass\n")
    assert unused_imports(source) == []


def private_definitions(tree):
    """(name, defining node) of each function or class named with a leading
    underscore, and of each such name a module-level assignment binds;
    dunders aside."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node


def loads(trees):
    """(name, node id) of each name or attribute read anywhere in the trees
    (file: tree), but no attribute read through a module outside the files
    that an absolute import binds (np.zeros, os.environ.get): that names the
    outside module's API.  import tqograph or import a, for a file a.py,
    binds one of the files' own modules."""
    own = {part for file in trees for part in pathlib.PurePath(file).with_suffix("").parts}
    out = []
    for tree in trees.values():
        outside = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name.split(".")[0] not in own}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Name, ast.Attribute)) or not isinstance(node.ctx, ast.Load):
                continue
            if isinstance(node, ast.Name):
                out.append((node.id, id(node)))
                continue
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in outside):
                out.append((node.attr, id(node)))
    return out


def referenced_outside(name, node, refs):
    """Whether one of refs (loads) reads name outside the definition node."""
    inside = {id(n) for n in ast.walk(node)}
    return any(ref_name == name and ref not in inside for ref_name, ref in refs)


def unreferenced_private(sources):
    """(file, name, line) of each private definition (private_definitions)
    that no name or attribute in the sources refers to outside its own
    definition: a dead helper or setting, or one only the tests use."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = loads(trees)
    out = []
    for file, tree in trees.items():
        for name, node in private_definitions(tree):
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                if not referenced_outside(name, node, refs):
                    out.append((file, name, node.lineno))
    return out


def test_private_helpers_are_used_in_the_package():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert unreferenced_private(sources) == []


def test_detects_an_unreferenced_private_helper():
    sources = {
        "a.py": ("def _used(): pass\ndef _dead(): pass\n"
                 "def _recursive(n): return _recursive(n - 1)\n"
                 "class _Kept:\n    def _method(self): pass\n    def __init__(self): pass\n"),
        "b.py": "from a import _used, _Kept\n_used()\n_Kept()\n",
    }
    assert unreferenced_private(sources) == [
        ("a.py", "_dead", 2), ("a.py", "_recursive", 3), ("a.py", "_method", 5)]


def test_detects_an_unreferenced_private_module_name():
    # a module-level private name counts as used when read anywhere else in
    # the sources, also as an attribute; a local, a dunder or a public name
    # is not checked, and a store (a._stored) is not a read
    sources = {
        "a.py": ("_CACHE = {}\n_dead = 1\n_also_dead: int = 2\n_x, (_y, _z) = 1, (2, 3)\n"
                 "__version__ = '1'\nPUBLIC = 3\n"
                 "def f():\n    _local = 4\n    return _CACHE\n"),
        "b.py": "import a\nprint(a._y)\na._stored = 5\n",
    }
    assert unreferenced_private(sources) == [
        ("a.py", "_dead", 2), ("a.py", "_also_dead", 3), ("a.py", "_x", 4), ("a.py", "_z", 4)]


def public_definitions(tree):
    """(qualified name, node) of each module-level function or class, and
    of each method of a module-level class, not named with a leading
    underscore; nested functions aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def unreferenced_public(sources, exempt=frozenset()):
    """(file, qualified name, line) of each public definition
    (public_definitions) that no name or attribute in the sources refers to
    outside its own definition, matched by its last name, unless (module,
    qualified name) is in exempt: dead code, or API only the tests use."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = loads(trees)
    out = []
    for file, tree in trees.items():
        module = pathlib.PurePath(file).stem
        for qualname, node in public_definitions(tree):
            if ((module, qualname) not in exempt
                    and not referenced_outside(qualname.rsplit(".", 1)[-1], node, refs)):
                out.append((file, qualname, node.lineno))
    return out


def test_public_names_are_used_exported_or_traced():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    exported = {(getattr(tqograph, name).__module__.rsplit(".", 1)[-1], name)
                for name in tqograph.__all__}
    assert unreferenced_public(sources, exported | set(TARGETS)) == []


def test_detects_an_unreferenced_public_name():
    # a call inside its own definition is no use; an exempt name, a private
    # or dunder method and a nested function are not checked
    sources = {
        "a.py": ("def used(): pass\ndef dead(): pass\ndef exported(): pass\n"
                 "def recursive(n): return recursive(n - 1)\n"
                 "class Kept:\n    def method(self): pass\n    def dead_method(self): pass\n"
                 "    def traced(self): pass\n    def _private(self): pass\n"
                 "    def __init__(self): pass\n"
                 "class Dead:\n    pass\n"
                 "def outer():\n    def inner(): pass\n"),
        "b.py": "from a import used, Kept, outer\nused()\nKept().method()\nouter()\n",
    }
    exempt = {("a", "exported"), ("a", "Kept.traced")}
    assert unreferenced_public(sources, exempt) == [
        ("a.py", "dead", 2), ("a.py", "recursive", 4), ("a.py", "Kept.dead_method", 7),
        ("a.py", "Dead", 11)]


def test_a_read_through_an_outside_module_is_no_use():
    # np.zeros and os.environ.get read numpy's and os's API, so they do not
    # keep Bits.zeros or Bits.get; a read through the package's own module
    # a, or on a value that a call returned, still counts
    sources = {
        "a.py": ("class Bits:\n    def zeros(self): pass\n    def get(self): pass\n"
                 "    def ones(self): pass\n    def copy(self): pass\n"),
        "b.py": ("import os\nimport numpy as np\nfrom . import a\n"
                 "np.zeros(3)\nos.environ.get('X')\na.Bits().ones()\nnp.array(1).copy()\n"),
    }
    assert unreferenced_public(sources) == [("a.py", "Bits.zeros", 2), ("a.py", "Bits.get", 3)]


def unread_constants(sources):
    """(file, name, line) of each module-level UPPER_CASE constant that no
    module reads, as a name or as an attribute: a dead setting, or one only
    the tests use."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    out = []
    for file, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            out.extend((file, t.id, node.lineno) for t in targets
                       if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)
                       and t.id not in reads)
    return out


def test_constants_are_read_in_the_package():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert unread_constants(sources) == []


def test_detects_an_unread_constant():
    sources = {
        "a.py": ("LIMIT = 3\nDEAD = 4\nSHADOWED: int = 5\n_private = 6\n"
                 "def f():\n    INNER = 7\n    return LIMIT\n"),
        "b.py": "import a\nprint(a.SHADOWED)\nDEAD_TOO = 8\nDEAD_TOO = 9\n",
    }
    assert unread_constants(sources) == [("a.py", "DEAD", 2), ("b.py", "DEAD_TOO", 3),
                                         ("b.py", "DEAD_TOO", 4)]


def global_statements(source):
    """Line of each global statement.  The package keeps what it derived from
    the last graph in functools.lru_cache(maxsize=1) memos, not in module
    variables rebound by hand."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_global_statements(path):
    assert global_statements(path.read_text()) == []


def test_detects_a_global_statement():
    source = ("_memo = None\ndef f():\n    global _memo\n    _memo = 1\n"
              "def g():\n    n = 0\n    def h():\n        nonlocal n\n")
    assert global_statements(source) == [3]


LOWER_LAYERS = ("gf2", "graphs", "oracle", "stabilizer")


def upper_layer_imports(source):
    """(module, line) of each import of the package's analysis or cli
    module: `from .analysis import X`, `from . import cli`, `import
    tqograph.analysis` and the like."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if {"analysis", "cli"} & set(name.split(".")):
                yield name, node.lineno
                break


@pytest.mark.parametrize("module", LOWER_LAYERS)
def test_lower_layers_import_no_upper_layer(module):
    source = (ROOT / "src" / "tqograph" / f"{module}.py").read_text()
    assert list(upper_layer_imports(source)) == []


def test_detects_an_upper_layer_import():
    source = ("from .analysis import BudgetExceededError\nfrom . import gf2, cli\n"
              "import tqograph.analysis as a\nfrom .gf2 import Deadline\n"
              "from tqograph.cli import main\n")
    assert list(upper_layer_imports(source)) == [
        (".analysis", 1), (".cli", 2), ("tqograph.analysis", 3), ("tqograph.cli", 5)]

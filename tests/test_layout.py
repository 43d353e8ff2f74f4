"""Source-layout guards: the library defines nothing that only tests use,
and keeps no cache the benchmark cannot empty."""
import ast
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).resolve().parent.parent / "src" / "hypertree_lab"

COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda) + COMPREHENSIONS
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of scope outside every function, comprehension or class
    nested in it; a nested def or class itself is included."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))


def _locals(scope: ast.AST) -> set[str]:
    """The names a function or comprehension binds itself: its arguments,
    targets, defs, classes, imports and exception names, less those it
    declares global or nonlocal."""
    names, declared = set(), set()
    if not isinstance(scope, COMPREHENSIONS):
        names.update(a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg))
    for node in _own_nodes(scope):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, DEFS):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names - declared


def _loads_and_imports(tree: ast.Module):
    """Each name load as (scope, name), scope the id of the innermost
    enclosing function or comprehension that binds the name, else of the
    module; and each relative import as (scope, module, name, alias)."""
    loads, imports = set(), []

    def visit(node, chain):
        if isinstance(node, SCOPES):
            chain = chain + [(node, _locals(node))]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            owner = next((s for s, names in reversed(chain) if node.id in names), tree)
            loads.add((id(owner), node.id))
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            scope = id(chain[-1][0] if chain else tree)
            imports.extend((scope, node.module, a.name, a.asname or a.name)
                           for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, chain)

    visit(tree, [])
    return loads, imports


# the attributes of builtin types: a method of one of these names, such as
# add, extend, get, update or split, is not used by str.split or set.add
BUILTIN_ATTRS = {name for t in (bool, int, float, complex, str, bytes, bytearray,
                                list, tuple, dict, set, frozenset) for name in dir(t)}


def _instance_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, attribute) for each attribute read on self inside the body
    of class, on a call of class, as in Span(2).extend, or on a name that
    the same function, comprehension or module binds to such a call.  A
    class is named as it is called: by its name or the last attribute."""
    out = set()

    def visit(node, cls, bound):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, SCOPES):
            bound = _bound_calls(node)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if isinstance(owner, ast.Call):
                out.add((_name(owner.func), node.attr))
            elif isinstance(owner, ast.Name) and owner.id == "self" and cls:
                out.add((cls, node.attr))
            elif isinstance(owner, ast.Name) and owner.id in bound:
                out.add((bound[owner.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, bound)

    visit(tree, None, _bound_calls(tree))
    return out


def _bound_calls(scope: ast.AST) -> dict[str, str]:
    """name -> the callee's name, for each name that scope itself binds
    to the result of a call."""
    return {t.id: _name(node.value.func) for node in _own_nodes(scope)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            for t in node.targets if isinstance(t, ast.Name)}


def _unreferenced(src: Path) -> list[str]:
    """Module-level functions and classes, and the non-dunder methods and
    properties of module-level classes, that no module of src but
    __init__.py uses.

    A function or class is used where its module loads its name at module
    scope, or where a module imports it and loads the imported name in the
    scope of the import: a load of a name that the enclosing function or
    comprehension binds itself reads that local.  A method or property is
    used where any module reads an attribute of its name, but one that
    shares its name with an attribute of a builtin type only where
    _instance_reads finds a read of it on its own class.  __init__.py only
    re-exports, which uses nothing.
    """
    defined: dict[tuple[str, str], str] = {}
    methods: dict[str, list[tuple[str, str]]] = {}
    used: set[tuple[str, str]] = set()
    attrs: set[str] = set()
    reads: set[tuple[str, str]] = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, DEFS):
                defined[path.stem, node.name] = f"{path.name}:{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not (item.name.startswith("__") and item.name.endswith("__")):
                        methods.setdefault(item.name, []).append(
                            (node.name, f"{path.name}:{node.name}.{item.name}"))
        loads, imports = _loads_and_imports(tree)
        used.update((path.stem, name) for scope, name in loads if scope == id(tree))
        used.update((module, name) for scope, module, name, alias in imports
                    if (scope, alias) in loads)
        attrs.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        reads |= _instance_reads(tree)
    out = [label for key, label in defined.items() if key not in used]
    out += [label for name, owners in methods.items() for cls, label in owners
            if ((cls, name) not in reads if name in BUILTIN_ATTRS else name not in attrs)]
    return sorted(out)


# what the library keeps that no command reaches, and why
PUBLIC = {
    "linalg.py:rank_by_columns":
        "the independent rank oracle: the tests and perfbench/ call it, the library must not",
    "randomness.py:SplitMix64.uniform":
        "the per-candidate draw that the README documents random(...) by",
    "bounds.py:bound_F":
        "the theorem's constant F, exported beside bound_B; the checks read B and F "
        "from one cleared triple, and the trichotomy from the bound certificate",
    "simplexes.py:full_skeleton": "perfbench/ builds its complete skeleta with it",
    "simplexes.py:link": "perfbench/ builds the links its Garland check reads",
    "garland.py:weighted_laplacian": "perfbench/ builds the Laplacians its Garland check reads",
}


def test_every_library_definition_is_used_by_the_library():
    # a helper only the tests call belongs under tests/, like _jacobi.py
    assert _unreferenced(SRC) == sorted(PUBLIC)


UNUSED = {
    "__init__.py": "from .core import exported\n",
    "core.py": '''\
from .helpers import Check, Span, reached, unread

def exported(): return 1

def is_tree(): return 2

def link(): return 3

def entry(chk: Check, link):
    if chk.is_tree:
        return link, reached()
    set().add(1)
    span = Span()
    span.extend(())
    return [link for link in ()], Span().get(0)
''',
    "helpers.py": '''\
class Check:
    @property
    def is_tree(self): return True

    def spare(self): return 0

    def __repr__(self): return "Check()"

    def add(self, x): return x

class Span:
    def get(self, i): return i

    def extend(self, vecs): return self.update(vecs)

    def update(self, vecs): return 0

    def split(self): return 1

def reached(): return 4

def other():
    return "a b".split(), {}.update({})

def unread(): return 5
''',
}


def test_unreferenced_sees_through_reexports_locals_and_attributes(tmp_path):
    # every loophole of a name-only scan: a re-export in __init__.py, an
    # import never read, an unused method, a local variable or argument
    # (link) or an attribute (chk.is_tree) that shares a function's name,
    # and a method named like a builtin type's attribute that only the
    # builtin's attribute reads (set().add, str.split); a Span method is
    # read on a call of Span, on a name bound to one, or on self in Span
    for name, text in UNUSED.items():
        (tmp_path / name).write_text(text)
    assert _unreferenced(tmp_path) == [
        "core.py:entry", "core.py:exported", "core.py:is_tree", "core.py:link",
        "helpers.py:Check.add", "helpers.py:Check.spare", "helpers.py:Span.split",
        "helpers.py:other", "helpers.py:unread"]


MEMOS = {"cache", "lru_cache"}


def _misplaced_memos(text: str) -> list[int]:
    """Lines naming a functools memo anywhere but on a module-level function.

    The memo may be named through `from functools import ...` (with or
    without an alias) or as an attribute of the functools module.
    """
    tree = ast.parse(text)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(a.asname or a.name for a in node.names if a.name in MEMOS)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "functools")
    allowed = {id(sub) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               for dec in node.decorator_list for sub in ast.walk(dec)}
    return sorted(
        node.lineno for node in ast.walk(tree) if id(node) not in allowed and (
            isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in MEMOS
            and isinstance(node.value, ast.Name) and node.value.id in modules))


MISPLACED = '''\
import functools
from functools import cache, lru_cache as memo

@cache
def fine(x): return x

@functools.lru_cache(maxsize=2)
def also_fine(x): return x

class Holder:
    @memo(maxsize=None)
    def method(self): return 1

def outer():
    @functools.cache
    def inner(): return 2
    return memo()(inner)
'''


def test_functools_memos_sit_on_module_level_functions_only():
    # the benchmark empties every functools memo bound at module level
    # before each pass; one on a method, a nested function or a call would
    # survive that, and a later pass could hit it for free
    assert _misplaced_memos(MISPLACED) == [11, 15, 17]
    found = {path.name: _misplaced_memos(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


MUTATORS = {"setdefault", "update", "append", "add"}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}


def _is_container(value: ast.expr) -> bool:
    """A dict, list or set display, comprehension or constructor call."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                          ast.SetComp)):
        return True
    return isinstance(value, ast.Call) and (
        isinstance(value.func, ast.Name) and value.func.id in CONTAINER_CALLS
        or isinstance(value.func, ast.Attribute) and value.func.attr in CONTAINER_CALLS)


def _root(node: ast.expr) -> ast.expr:
    """node with every subscript stripped: SEEN[a][b] -> SEEN."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _written_globals(text: str) -> list[int]:
    """Lines where a function writes to a module-level dict, list or set.

    A write is an assignment to a subscript of the container or a call of
    setdefault, update, append or add on it or on a subscript of it.  A
    function that binds the same name itself writes to its own local.
    """
    tree = ast.parse(text)
    containers = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            containers.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and _is_container(node.value) and isinstance(node.target, ast.Name):
            containers.add(node.target.id)
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        declared = {name for node in ast.walk(fn) if isinstance(node, ast.Global)
                    for name in node.names}
        local = {node.id for node in ast.walk(fn)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        local.update(a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg))
        shared = containers - (local - declared)
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                hit = any(isinstance(t, ast.Subscript) and isinstance(_root(t), ast.Name)
                          and _root(t).id in shared for t in targets)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = _root(node.func.value)
                hit = node.func.attr in MUTATORS and isinstance(owner, ast.Name) \
                    and owner.id in shared
            else:
                hit = False
            if hit:
                lines.add(node.lineno)
    return sorted(lines)


CACHES = '''\
from collections import defaultdict
SEEN = {}
ORDER: list = []
TAGS = set()
BY_KEY = defaultdict(list)
FIXED = {"a": 1}

def remember(k, v):
    SEEN[k] = v

def grow(x):
    ORDER.append(x)
    TAGS.add(x)
    BY_KEY[x].append(x)

def fill(d):
    SEEN.update(d)
    return SEEN.setdefault("k", 1)

def read(k):
    return FIXED[k], FIXED.get(k), [v for v in ORDER]

def shadow(SEEN):
    ORDER = []
    ORDER.append(1)
    SEEN["x"] = 1
    return ORDER
'''


def test_no_function_writes_to_a_module_level_container():
    # the benchmark empties only functools memos before each group of
    # items; a module-level dict, list or set that a function fills would
    # carry its contents into later passes, which would then hit it free
    assert _written_globals(CACHES) == [9, 12, 13, 14, 17, 18]
    found = {path.name: _written_globals(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


SORTS = {"sorted", "sort", "lexsort", "argsort"}
TOP_READERS = {"iter_faces", "faces", "_top_array"}


def _name(func: ast.expr) -> str:
    return func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else ""


def _resorted_tops(text: str) -> list[int]:
    """Lines that sort a complex's top faces again: a call of sorted or of
    a numpy sort whose arguments read .top_faces or call iter_faces, faces
    or _top_array."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Call) or _name(node.func) not in SORTS:
            continue
        args = node.args + [kw.value for kw in node.keywords]
        if any(isinstance(sub, ast.Attribute) and sub.attr == "top_faces"
               or isinstance(sub, ast.Call) and _name(sub.func) in TOP_READERS
               for arg in args for sub in ast.walk(arg)):
            lines.add(node.lineno)
    return sorted(lines)


RESORTED = '''\
import numpy as np

def a(X):
    return sorted(X.top_faces)

def b(X):
    return sorted(iter_faces(X, X.k), reverse=True)

def c(X):
    tops = _top_array(X)
    return tops[np.lexsort(_top_array(X).T[::-1])]

def fine(X, tops):
    return sorted(tops), np.sort(tops, axis=1), list(iter_faces(X, X.k))
'''


def test_no_top_faces_are_sorted_outside_the_constructor():
    # a SkeletonComplex stores its top faces sorted once, in its
    # constructor; every reader takes that order as stored
    assert _resorted_tops(RESORTED) == [4, 7, 11]
    found = {path.name: _resorted_tops(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _top_face_readers(text: str) -> list[str]:
    """Each read of .top_faces as `function:line`, the function named with
    its class, as in SkeletonComplex.__repr__, and `<module>` outside any."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope != "<module>" else node.name
        if isinstance(node, ast.Attribute) and node.attr == "top_faces" \
                and isinstance(node.ctx, ast.Load):
            out.append(f"{scope}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), "<module>")
    return sorted(out)


READERS = '''\
class Complex:
    @property
    def top_faces(self):
        return self._tops

    def __repr__(self):
        return repr(self.top_faces)

def contains(X, s):
    return s in X.top_faces

def count(X):
    def inner():
        return len(X.top_faces)
    return inner()

SIZE = len(Complex().top_faces)

def fine(X, top_faces):
    X.top_faces = top_faces
    return top_faces, X._tops
'''


def test_only_contains_and_repr_read_the_top_face_set():
    # the stored array is the one store the library reads; the frozenset
    # view .top_faces is built for membership in contains, for repr and
    # for callers outside the library
    assert _top_face_readers(READERS) == [
        "<module>:17", "Complex.__repr__:7", "contains:10", "count.inner:14"]
    found = {f"{path.stem}.{reader.split(':')[0]}"
             for path in sorted(SRC.glob("*.py"))
             for reader in _top_face_readers(path.read_text())}
    assert found == {"simplexes.contains", "simplexes.SkeletonComplex.__repr__"}

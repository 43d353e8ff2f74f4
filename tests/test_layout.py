"""Source-layout guards: the library defines nothing that only tests use."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hypertree_lab"


def _unreferenced(src: Path) -> list[str]:
    """Module-level functions and classes named nowhere else in src.

    A name counts as used when any module under src loads it, reads it
    as an attribute or imports it; its own def does none of these.
    """
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{defined[name]}:{name}" for name in defined.keys() - used)


# the column route is the independent rank oracle: the tests and the
# benchmark's output checks call it, and the library must not
ORACLES = ["linalg.py:rank_by_columns"]


def test_every_library_definition_is_used_by_the_library():
    # a helper only the tests call belongs under tests/, like _jacobi.py
    assert _unreferenced(SRC) == ORACLES


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

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

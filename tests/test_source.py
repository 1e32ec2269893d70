import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lhc"


def test_the_package_raises_errors_instead_of_asserting():
    # python -O strips assert statements, so an invariant must be a raised error
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no Python files under {SRC}"
    asserts = [f"{path.name}:{node.lineno}" for path in sources
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []

"""Every name the package exports has a caller besides its own definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphpoly"
DEFINITION = re.compile(r"\s*(?:def|class)\s+(\w+)")


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def test_every_export_is_used_by_the_package_or_the_benchmark():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").rglob("*.py"))
    lines = [line for path in sources for line in path.read_text().splitlines()]
    names = exported_names()
    assert len(names) > 50

    def used(name: str) -> bool:
        word = re.compile(rf"\b{re.escape(name)}\b")
        for line in lines:
            own = DEFINITION.match(line)
            if word.search(line) and not (own and own.group(1) == name):
                return True
        return False

    assert [name for name in names if not used(name)] == []

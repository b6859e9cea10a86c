"""Every third-party package ``src/repro`` imports is a declared runtime
dependency in ``pyproject.toml``."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _top_level_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def _declared_dependencies() -> set[str]:
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # "numpy>=1.24; python_version >= '3.10'" -> "numpy"
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].lower()
            for spec in project["dependencies"]}


def test_third_party_imports_are_declared():
    declared = _declared_dependencies()
    undeclared: dict[str, str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in _top_level_imports(path):
            if name == "repro" or name in sys.stdlib_module_names:
                continue
            if name.lower() not in declared:
                undeclared.setdefault(name, str(path.relative_to(ROOT)))
    assert not undeclared, (
        f"third-party imports missing from [project] dependencies: "
        f"{undeclared}")

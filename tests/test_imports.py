import ast
import sys
from pathlib import Path

import plaplab

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_the_standard_library_and_numpy():
    foreign = []
    for path in sorted(Path(plaplab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert not foreign

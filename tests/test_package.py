"""The package's public namespace serves the README's code as written."""

import ast
import re
from pathlib import Path

import degenhess

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names = []
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "degenhess":
                names.extend(alias.name for alias in node.names)
    return blocks, names


def test_readme_imports_resolve():
    blocks, names = readme_imports()
    assert len(blocks) == 2
    assert {"make_base", "run_construction", "ck", "polar_decompose"} <= set(names)
    for name in names:
        assert hasattr(degenhess, name), name
        assert name in degenhess.__all__, name
    exec("from degenhess import " + ", ".join(names), {})

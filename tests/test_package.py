"""The package's public namespace serves the README's code as written."""

import ast
import importlib
import re
from pathlib import Path

import degenhess
from degenhess.config import _ALL_KEYS

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


def test_readme_key_table_matches_grammar():
    # the first column of the README's top-level key table, against the
    # keys parse_config accepts
    text = README.read_text()
    table = text[text.index("| key "):]
    rows = re.findall(r"^\|([^|]*)\|", table.split("\n\n")[0], re.M)
    keys = {k for row in rows[2:] for k in re.findall(r"`(\w+)`", row)}
    assert keys == set(_ALL_KEYS)


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names by string; a refactor that
    # drops or moves one must fail here, not in a traced benchmark run
    # (compiled from its source, so no bytecode cache is written there)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), tracer)
    assert tracer["TARGETS"]
    for module_name, attr, _, _ in tracer["TARGETS"]:
        module = importlib.import_module("degenhess." + module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), attr

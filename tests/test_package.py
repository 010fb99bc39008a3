"""The package's public namespace serves the README's code as written."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

import degenhess
from degenhess.config import _ALL_KEYS
from degenhess.atom import (
    CERTIFICATE_COLUMNS,
    PerturbationAtom,
    VectorAtom,
    build_atom,
    build_vector_atom,
    zero_atom,
)
from degenhess.fields import Box, CubePartition, QuadraticBase, ScalarFieldC2
from degenhess.staircase import (
    LinearMapBase,
    StagePerturbation,
    StairConfig,
    VectorFieldC1,
    VectorStagePerturbation,
    run_construction,
    run_first_order,
)

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


def test_demo_imports_resolve():
    # a removal from the package must fail here, not when a demo runs
    demos = sorted((README.parent / "demos").glob("*.py"))
    assert demos
    resolved = 0
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "degenhess"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module}.{alias.name}"
                )
                resolved += 1
    assert resolved >= 10


def test_no_module_imports_private_staircase_names():
    # the other modules reach the stage driver through its public seam
    # (partition_integrals, field_invariant_integrals); a private name
    # imported from it would couple them to how it integrates a field
    src = Path(degenhess.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.module == "degenhess.staircase"
                or (node.level == 1 and node.module == "staircase")
            ):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert not found, found


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # __init__.py is left out: its imports are the package's re-exports
    src = Path(degenhess.__file__).resolve().parent
    tests = Path(__file__).resolve().parent
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(tests.glob("*.py"))
    found = [hit for path in paths for hit in _unused_imports(path)]
    assert not found, found


def test_readme_key_table_matches_grammar():
    # the first column of the README's top-level key table, against the
    # keys parse_config accepts
    text = README.read_text()
    table = text[text.index("| key "):]
    rows = re.findall(r"^\|([^|]*)\|", table.split("\n\n")[0], re.M)
    keys = {k for row in rows[2:] for k in re.findall(r"`(\w+)`", row)}
    assert keys == set(_ALL_KEYS)


def test_readme_csv_columns_match_the_certificate():
    # the README's column block, against the order stage CSVs and
    # certify-atom print: a reordered or renamed certificate field fails
    text = README.read_text()
    block = re.search(r"## CSV columns\n.*?```\n(.*?)```", text, re.S)
    assert tuple(block.group(1).replace("\n", "").split(",")) == (
        CERTIFICATE_COLUMNS
    )


def load_tracer():
    # compiled from its source, so no bytecode cache is written there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), tracer)
    return tracer


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names by string; a refactor that
    # drops or moves one must fail here, not in a traced benchmark run
    tracer = load_tracer()
    assert tracer["TARGETS"]
    for module_name, attr, _, _ in tracer["TARGETS"]:
        module = importlib.import_module("degenhess." + module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), attr


TRACED_EVALUATORS = (
    ("fields", "ScalarFieldC2", "evaluate_many"),
    ("atom", "PerturbationAtom", "value_grad_hess"),
    ("atom", "VectorAtom", "displacement_jacobian"),
)


def test_traced_evaluators_are_the_ones_called():
    # the tracer counts points by wrapping these methods on their
    # classes; a field or layer that stops calling them would leave the
    # benchmark's per-layer counts silently at zero
    methods = [
        (getattr(importlib.import_module("degenhess." + mod), cls), meth)
        for mod, cls, meth in TRACED_EVALUATORS
    ]
    originals = [vars(cls)[meth] for cls, meth in methods]
    box = Box.unit(2)
    D = np.diag([0.7, 1.8])
    cfg = StairConfig(seed=11, tau=0.9, quad_points=2, node_budget=200_000)
    X = np.random.default_rng(5).uniform(0.01, 0.99, (500, 2))
    field_points = "fields.ScalarFieldC2.evaluate_many.points"
    tracer = load_tracer()["Tracer"]()
    with tracer.installed():
        scalar = run_construction(
            ScalarFieldC2(QuadraticBase(D), box), 2, 1.5, 0.3, 0.3, 1, config=cfg
        )
        vector = run_first_order(
            VectorFieldC1(LinearMapBase(D), box), 2, 1.1, 0.3, 0.3, 1, config=cfg
        )
        for mod, cls, meth in TRACED_EVALUATORS:
            assert tracer.counts[f"{mod}.{cls}.{meth}.points"] > 0, meth
        # each stage layer reaches its atoms through the traced method, one
        # point for every point in a cell with a live atom
        for result, name in (
            (scalar, "atom.PerturbationAtom.value_grad_hess.points"),
            (vector, "atom.VectorAtom.displacement_jacobian.points"),
        ):
            layer, = result.field.layers
            live = sum(not layer.atoms[ci].is_zero for ci in layer._flat(X))
            assert live > 0
            before = dict(tracer.counts)
            result.field.evaluate_many(X)
            assert tracer.counts[name] - before[name] == live, name
            evaluated = tracer.counts[field_points] - before[field_points]
            assert evaluated == (len(X) if result is scalar else 0)
    assert [vars(cls)[meth] for cls, meth in methods] == originals


def test_layers_call_nothing_on_an_atom_but_its_evaluator(monkeypatch):
    # the tracer counts atom points in the two traced evaluators only; a
    # layer that reached an atom through any other method (matrix_on,
    # _jet, ...) would evaluate points the counts never see. Every method
    # of both atom classes logs its outermost calls, so the calls an
    # evaluator makes inside the atom are not logged.
    cube = Box.unit(2)
    partition = CubePartition(cube, 2)
    scalar = [build_atom(np.diag([0.7, 1.8]), c.box, 0.1, 2, 1.5)
              for c in partition.cells()]
    scalar[1] = build_atom(np.array([[1.2, -0.4], [-0.4, 0.8]]),
                           partition.cell((0, 1)).box, 0.1, 2, 1.0)
    scalar[2] = zero_atom(partition.cell((1, 0)).box)
    th = 0.7
    O = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    vector = [build_vector_atom(O @ np.diag([1.0, 2.0]), c.box, 0.1, 2, 1.5)
              for c in partition.cells()]
    layers = ((StagePerturbation(partition, scalar), "value_grad_hess"),
              (VectorStagePerturbation(partition, vector),
               "displacement_jacobian"))
    log = []
    depth = [0]

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            if not depth[0]:
                log.append(name)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for cls in (PerturbationAtom, VectorAtom):
        for name, attr in list(vars(cls).items()):
            if callable(attr) and not name.startswith("__"):
                monkeypatch.setattr(cls, name, logged(name, attr))
    X = np.random.default_rng(6).uniform(0.0, 1.0, (400, 2))
    for layer, evaluator in layers:
        log.clear()
        layer.jet_many(X)
        assert set(log) == {evaluator}

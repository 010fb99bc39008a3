"""Print one `name sha256` line per certified output of the package.

    python3 tools/output_digests.py > digests.txt

Run it in two checkouts at the same time, on the same machine, and diff
the two files: a refactor that must not move a certified digit shows an
empty diff. Compare side by side only. The same code has given different
trailing digits hours apart on one machine, so a stored digest file is
no reference. BLAS and OpenMP are pinned to one thread, as in perfbench.

The outputs:

- a11: the A11 report render (the seed-11 quadratic J=4 run at node
  budget 2e6: summary, stage CSVs and measure CSVs);
- cli/<file>: the run directory of `degenhess run` on the README config,
  all files but timings.txt; cli-stdout/<command>: what `run`,
  `certify-atom` and `dump` print;
- quadratic/stage<j>/<field> and first-order/stage<j>/<field>: every
  StageCertificate field of the tests' quadratic J=4 and first-order J=3
  fixtures;
- measures-readback/<op>: the outputs of the measures-readback benchmark
  ops, called through perfbench.workloads; measures-readback/ck_mass-cubes
  and measures-readback/sobolev_seminorm/<norm>: on the same run, every
  cube's mass and error bar at the default level, and both seminorms.

Floats are hashed by float.hex, arrays by dtype, shape and bytes.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
# no bytecode caches next to the sources, perfbench's included
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

from degenhess import cli, measures, report  # noqa: E402
from degenhess.fields import Box, ScalarFieldC2, make_base  # noqa: E402
from degenhess.staircase import (  # noqa: E402
    LinearMapBase,
    StairConfig,
    VectorFieldC1,
    run_construction,
    run_first_order,
)
from perfbench import workloads as wl  # noqa: E402

README_CONFIG = """\
n = 2
k = 2
p = 1.5
alpha = 0.3
eps = 0.1
J = 3
tau = 0.9
seed = 42
node_budget = 2000000
out_dir = runs/quad

[base]
family = quadratic
matrix = 0.5 0; 0 0.5
"""
ATOM_MATRIX = "1.0 0.3\n0.3 0.5\n"


def _feed(h, v):
    if isinstance(v, np.ndarray):
        h.update(f"{v.dtype}{v.shape}".encode())
        h.update(np.ascontiguousarray(v).tobytes())
    elif isinstance(v, (bool, np.bool_)):
        h.update(b"T" if v else b"F")
    elif isinstance(v, (int, np.integer)):
        h.update(str(int(v)).encode())
    elif isinstance(v, (float, np.floating)):
        h.update(float(v).hex().encode())
    elif isinstance(v, str):
        h.update(v.encode())
    elif v is None:
        h.update(b"None")
    elif isinstance(v, dict):
        _feed(h, sorted(v.items()))
    elif isinstance(v, (list, tuple)):
        h.update(b"(")
        for x in v:
            _feed(h, x)
            h.update(b",")
        h.update(b")")
    elif dataclasses.is_dataclass(v):
        _feed(h, [(f.name, getattr(v, f.name)) for f in dataclasses.fields(v)])
    else:
        raise TypeError(f"cannot hash a {type(v).__name__}")


def emit(name, value):
    h = hashlib.sha256()
    _feed(h, value)
    print(name, h.hexdigest(), flush=True)


def unit_quadratic():
    return ScalarFieldC2(
        make_base("quadratic", {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, 2),
        Box.unit(2),
    )


def a11_render():
    result = run_construction(
        unit_quadratic(), 2, 1.5, 0.3, 0.1, 4,
        config=StairConfig(seed=11, tau=0.9, node_budget=2_000_000),
    )
    parts = [report.run_report_text(result)]
    for rec in result.stages:
        buf = io.StringIO()
        report.write_stage_csv(rec, buf)
        parts.append(buf.getvalue())
    for measure in measures.stage_measures(result):
        buf = io.StringIO()
        report.write_measures_csv(measure, buf)
        parts.append(buf.getvalue())
    emit("a11", "\x00".join(parts))


def cli_outputs():
    # in a scratch working directory, so the README's relative out_dir
    # keeps config.txt free of a temporary path
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _cli_in_cwd()
        finally:
            os.chdir(here)


def _cli_in_cwd():
    with open("quad.txt", "w") as fh:
        fh.write(README_CONFIG)
    with open("matrix.txt", "w") as fh:
        fh.write(ATOM_MATRIX)
    for command, argv in (
        ("run", ["run", "quad.txt"]),
        ("certify-atom", ["certify-atom", "matrix.txt", "--k", "2",
                          "--p", "1.5", "--eps0", "0.1"]),
        ("dump", ["dump", "runs/quad", "--res", "8", "--stage", "1"]),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        emit(f"cli-stdout/{command}", (code, out.getvalue()))
    for name in sorted(os.listdir("runs/quad")):
        if name != "timings.txt":
            with open(os.path.join("runs/quad", name)) as fh:
                emit(f"cli/{name}", fh.read())


def certificate_fields(label, result):
    for rec in result.stages:
        cert = rec.certificate
        for f in dataclasses.fields(cert):
            emit(f"{label}/stage{cert.j}/{f.name}", getattr(cert, f.name))


def fixtures():
    certificate_fields("quadratic", run_construction(
        unit_quadratic(), 2, 1.5, 0.3, 0.1, 4,
        config=StairConfig(seed=11, tau=0.9),
    ))
    certificate_fields("first-order", run_first_order(
        VectorFieldC1(LinearMapBase(np.eye(2)), Box.unit(2)),
        2, 1.1, 0.3, 0.1, 3, config=StairConfig(seed=3, tau=0.9),
    ))


def measures_readback():
    run = wl.build_scalar_run(wl.pools()["stair"][wl.MeasuresReadback.ENTRY])
    emit("measures-readback/ck_mass", wl.ck_mass_op(run))
    for probe in wl.PROBES:
        emit(f"measures-readback/weakstar_gap/{probe}", wl.gap_op(run, probe))
    every = range(wl.DENSITY_GRID**2)
    emit("measures-readback/density_trace", wl.density_op(run, every))
    emit("measures-readback/holder_distance", wl.holder_op(run))
    config = StairConfig(quad_points=wl.STAIR["quad_points"])
    emit("measures-readback/ck_mass-cubes",
         measures.ck_mass(run.field, run.k, None, config=config))
    for norm in ("frobenius", "operator"):
        emit(f"measures-readback/sobolev_seminorm/{norm}",
             measures.sobolev_seminorm(run.field, run.p, norm=norm,
                                       config=config))


if __name__ == "__main__":
    a11_render()
    cli_outputs()
    fixtures()
    measures_readback()

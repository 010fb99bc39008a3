"""Config grammar, run artifacts, grid dumps and exit codes.

Each config in here runs in about a second; the module keeps one run
directory per config and reuses it across assertions.
"""

import os
from dataclasses import fields

import numpy as np
import pytest

from degenhess import config
from degenhess.cli import main, read_matrix
from degenhess.config import (
    BaseSpec,
    ConfigError,
    RunConfig,
    parse_config,
    serialize_config,
)
from degenhess.fields import load_grid
from degenhess.report import STAGE_COLUMNS
from degenhess.staircase import StairConfig

MINIMAL = """\
n = 2
k = 2
p = 1.5
alpha = 0.3
eps = 0.1
J = 3

[base]
family = quadratic
matrix = 1 0; 0 1
"""

TINY_AFFINE = """\
n = 2
k = 2
p = 1.5
alpha = 0.3
eps = 0.1
J = 1
seed = 9
node_budget = 600000
out_dir = {out}

[base]
family = affine
linear = 0.3 0
"""

QUAD_SEED42 = """\
n = 2
k = 2
p = 1.5
alpha = 0.3
eps = 0.1
J = 3
tau = 0.9
seed = 42
node_budget = 2000000
out_dir = {out}

[base]
family = quadratic
matrix = 0.5 0; 0 0.5
"""


def _swap(text, old, new):
    assert old in text
    return text.replace(old, new)


def _add(extra):
    # insert top-level keys above the [base] section
    return MINIMAL.replace("[base]", extra.rstrip() + "\n\n[base]")


class TestConfigGrammar:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.n == 2 and cfg.k == 2 and cfg.J == 3
        assert cfg.tau is None and cfg.q is None
        assert cfg.seed == 0
        assert cfg.box_lo == (0.0, 0.0) and cfg.box_hi == (1.0, 1.0)
        assert cfg.quad_points == 4 and cfg.cube_cap == 512
        assert cfg.schedule_mode == "holder"
        assert cfg.strict_partition is False
        assert cfg.dump_res == 0 and cfg.dump_stages == ()
        assert cfg.out_dir == "runs/out"
        assert cfg.base == BaseSpec("quadratic",
                                    {"matrix": [[1.0, 0.0], [0.0, 1.0]]})

    def test_p_at_k_rejected(self):
        with pytest.raises(ConfigError, match="requires p < k") as ei:
            parse_config(_swap(MINIMAL, "p = 1.5", "p = 2"))
        assert "line 3" in str(ei.value)

    def test_tau_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match=r"tau must lie in \(0,1\)"):
            parse_config(_add("tau = 1.2"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'wibble'"):
            parse_config(_swap(MINIMAL, "J = 3", "J = 3\nwibble = 1"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section '\[extra\]'"):
            parse_config(MINIMAL + "[extra]\nx = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'k'"):
            parse_config(_swap(MINIMAL, "J = 3", "J = 3\nk = 2"))

    def test_duplicate_base_key_rejected(self):
        text = MINIMAL + "matrix = 2 0; 0 2\n"
        with pytest.raises(ConfigError, match="duplicate key 'matrix'") as ei:
            parse_config(text)
        assert "line 11" in str(ei.value)

    def test_duplicate_base_section_rejected(self):
        text = MINIMAL + "\n[base]\nconstant = 1\n"
        with pytest.raises(ConfigError, match=r"duplicate section '\[base\]'") as ei:
            parse_config(text)
        assert "line 12" in str(ei.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'eps'"):
            parse_config(_swap(MINIMAL, "eps = 0.1\n", ""))

    def test_missing_base_section(self):
        text = MINIMAL.split("[base]")[0]
        with pytest.raises(ConfigError, match=r"missing \[base\] section"):
            parse_config(text)

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError, match="expected integer for 'J'"):
            parse_config(_swap(MINIMAL, "J = 3", "J = 3.5"))

    def test_alpha_range(self):
        with pytest.raises(ConfigError, match=r"alpha must lie in \(0,1\)"):
            parse_config(_swap(MINIMAL, "alpha = 0.3", "alpha = 1"))

    def test_q_between_p_and_k(self):
        cfg = parse_config(_add("q = 1.8"))
        assert cfg.q == 1.8
        with pytest.raises(ConfigError, match="requires p <= q < k"):
            parse_config(_add("q = 2"))

    def test_k_above_n_rejected(self):
        with pytest.raises(ConfigError, match="requires 2 <= k <= n <= 3"):
            parse_config(_swap(MINIMAL, "k = 2", "k = 3"))

    def test_box_length_and_order(self):
        with pytest.raises(ConfigError, match="box_lo needs 2 entries"):
            parse_config(_add("box_lo = 0"))
        with pytest.raises(ConfigError, match="box_hi must exceed box_lo"):
            parse_config(_add("box_lo = 0 0\nbox_hi = 1 0"))

    def test_dump_stage_range(self):
        with pytest.raises(ConfigError, match="dump_stages entries"):
            parse_config(_add("dump_res = 4\ndump_stages = 5"))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ConfigError, match="equal length"):
            parse_config(_swap(MINIMAL, "matrix = 1 0; 0 1",
                               "matrix = 1 0; 0"))

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="unknown base family"):
            parse_config(_swap(MINIMAL, "family = quadratic",
                               "family = wavelet"))

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL.replace(
            "k = 2", "k = 2   # trailing comment"
        )
        assert parse_config(text) == parse_config(MINIMAL)

    def test_round_trip_idempotent(self):
        cfg = parse_config(MINIMAL)
        text1 = serialize_config(cfg)
        cfg2 = parse_config(text1)
        assert cfg2 == cfg
        assert serialize_config(cfg2) == text1

    def test_round_trip_with_options(self):
        text = _add("tau = 0.85\nq = 1.6\nseed = 3\n"
                    "dump_res = 4\ndump_stages = 0 2\nbox_lo = -1 -1\n"
                    "box_hi = 1 1\nstrict_partition = true")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_python_built_config_gets_the_unit_box(self):
        cfg = RunConfig(n=2, k=2, p=1.5, alpha=0.3, eps=0.1, J=1,
                        base=BaseSpec("quadratic", {"matrix": [[1.0, 0.0],
                                                               [0.0, 1.0]]}))
        assert cfg.box_lo == (0.0, 0.0) and cfg.box_hi == (1.0, 1.0)
        field = cfg.build_field()
        assert field.box.lo == (0.0, 0.0) and field.box.hi == (1.0, 1.0)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_stair_config_adapter(self):
        cfg = parse_config(_add("tau = 0.8\nseed = 12\n"
                                "node_budget = 5000\nquad_points = 3"))
        sc = cfg.stair_config()
        assert sc.tau == 0.8 and sc.seed == 12
        assert sc.node_budget == 5000 and sc.quad_points == 3

    def test_stage_defaults_match_stair_config(self):
        assert parse_config(MINIMAL).stair_config() == StairConfig()

    def test_every_stage_key_passes_through(self):
        values = {
            "tau": 0.85, "q": 1.75, "cube_cap": 64, "mass_floor": 1e-9,
            "schedule_mode": "contraction", "strict_partition": True,
            "seed": 17, "quad_points": 3, "node_budget": 12345,
        }
        assert set(values) == {f.name for f in fields(StairConfig)}
        text = _add("\n".join(
            f"{key} = {str(v).lower() if isinstance(v, bool) else v}"
            for key, v in values.items()
        ))
        assert parse_config(text).stair_config() == StairConfig(**values)

    def test_grammar_keys_are_run_config_fields(self):
        names = {f.name for f in fields(RunConfig)} - {"base"}
        assert set(config._ALL_KEYS) == names

    def test_build_field_shape(self):
        f = parse_config(MINIMAL).build_field()
        assert f.n == 2
        assert f.box.lo == (0.0, 0.0) and f.box.hi == (1.0, 1.0)

    def test_polynomial_family_flat_rows(self):
        text = _swap(
            MINIMAL,
            "family = quadratic\nmatrix = 1 0; 0 1",
            "family = polynomial\nterms = 2 0 0.5; 0 2 0.5",
        )
        f = parse_config(text).build_field()
        v, g, h = f.evaluate_many(np.array([[0.5, 0.5]]))
        assert v[0] == 0.25
        assert np.allclose(h[0], np.eye(2))

    def test_polynomial_bad_row_length(self):
        text = _swap(
            MINIMAL,
            "family = quadratic\nmatrix = 1 0; 0 1",
            "family = polynomial\nterms = 2 0; 0 2",
        )
        with pytest.raises(ConfigError, match="exponents plus a coefficient"):
            parse_config(text)


class TestReadMatrix:
    def test_square_with_comments(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("# symmetric\n1 0.5\n0.5 2  # row two\n")
        A = read_matrix(str(p))
        assert A.shape == (2, 2) and A[0, 1] == 0.5

    def test_non_square_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(ValueError, match="square"):
            read_matrix(str(p))

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 x\n0 1\n")
        with pytest.raises(ValueError, match="m.txt"):
            read_matrix(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            read_matrix(str(tmp_path / "nope.txt"))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One affine J=1 run through the CLI; returns (exit, run_dir, cfg)."""
    root = tmp_path_factory.mktemp("tiny")
    out = str(root / "run")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_AFFINE.format(out=out))
    code = main(["run", str(cfg_path)])
    return code, out, parse_config(cfg_path.read_text())


@pytest.fixture(scope="module")
def quad_run(tmp_path_factory):
    """The quadratic seed-42 run, executed twice into the same directory.

    Returns (exit codes, run_dir, artifact bytes captured between runs).
    """
    root = tmp_path_factory.mktemp("quad")
    out = str(root / "run")
    cfg_path = root / "quad.cfg"
    cfg_path.write_text(QUAD_SEED42.format(out=out))
    code1 = main(["run", str(cfg_path)])
    first = {}
    for name in sorted(os.listdir(out)):
        if name != "timings.txt":
            with open(os.path.join(out, name), "rb") as fh:
                first[name] = fh.read()
    code2 = main(["run", str(cfg_path)])
    return (code1, code2), out, first


class TestRunDirectory:
    def test_exit_code_clean(self, tiny_run):
        code, _, _ = tiny_run
        assert code == 0

    def test_artifacts_present(self, tiny_run):
        _, out, cfg = tiny_run
        names = set(os.listdir(out))
        assert {"config.txt", "summary.txt", "timings.txt"} <= names
        assert "stage_01.csv" in names
        assert {"measures_stage_00.csv", "measures_stage_01.csv"} <= names

    def test_config_echo_parses_back(self, tiny_run):
        _, out, cfg = tiny_run
        with open(os.path.join(out, "config.txt")) as fh:
            assert parse_config(fh.read()) == cfg

    def test_stage_csv_header_and_rows(self, tiny_run):
        _, out, _ = tiny_run
        with open(os.path.join(out, "stage_01.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join(STAGE_COLUMNS)
        with open(os.path.join(out, "measures_stage_01.csv")) as fh:
            mlines = fh.read().splitlines()
        assert mlines[0] == "cube,mass"
        # same partition, one row per cube in both tables
        assert len(lines) - 1 == len(mlines) - 1
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == len(STAGE_COLUMNS)

    def test_affine_traces_vanish(self, tiny_run):
        _, out, _ = tiny_run
        with open(os.path.join(out, "summary.txt")) as fh:
            text = fh.read()
        assert "I_trace = 0 0" in text
        assert "overall = PASS" in text
        masses = np.loadtxt(os.path.join(out, "measures_stage_01.csv"),
                            delimiter=",", skiprows=1)
        assert np.all(masses[:, 1] == 0.0)

    def test_summary_reports_parameters(self, tiny_run):
        _, out, _ = tiny_run
        with open(os.path.join(out, "summary.txt")) as fh:
            text = fh.read()
        for line in ("[config]", "[parameters]", "[stage 1]", "[traces]",
                     "[budgets]", "[closeness]", "[density]", "[verdict]"):
            assert line in text


class TestDeterminism:
    def test_repeat_run_byte_identical(self, quad_run):
        (code1, code2), out, first = quad_run
        assert code1 == 0 and code2 == 0
        assert first, "no artifacts captured"
        for name, before in first.items():
            with open(os.path.join(out, name), "rb") as fh:
                assert fh.read() == before, f"{name} changed between runs"

    def test_quadratic_contracts_then_stalls(self, quad_run):
        _, out, _ = quad_run
        with open(os.path.join(out, "summary.txt")) as fh:
            text = fh.read()
        assert "overall = PASS" in text
        ratios = [
            float(t) for t in next(
                l for l in text.splitlines() if l.startswith("ratio_trace")
            ).split("=")[1].split()
        ]
        assert ratios[0] < 0.9
        # later stages may stall; a stall repeats the mass exactly
        assert all(r <= 1.0 for r in ratios)

    def test_stalled_stage_csv_has_note(self, quad_run):
        _, out, _ = quad_run
        with open(os.path.join(out, "summary.txt")) as fh:
            stalled = "stalled" in fh.read()
        if not stalled:
            pytest.skip("run did not stall at this budget")
        with open(os.path.join(out, "stage_03.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join(STAGE_COLUMNS)
        assert any(l.startswith("# stalled") for l in lines[1:])


class TestDump:
    def test_affine_grid_hessian_vanishes(self, tiny_run, tmp_path):
        _, out, _ = tiny_run
        target = tmp_path / "grid.txt"
        code = main(["dump", out, "--stage", "0", "--res", "3",
                     "--out", str(target)])
        assert code == 0
        with open(target) as fh:
            g = load_grid(fh)
        assert g.m == 3 and g.points.shape == (9, 2)
        assert np.all(g.hessians == 0.0)
        assert np.all(g.gradients[:, 0] == 0.3)
        assert np.all(g.gradients[:, 1] == 0.0)

    def test_default_stage_matches_base_for_zero_layers(self, tiny_run,
                                                        tmp_path):
        # the affine run tunes no live atoms, so the final field is the
        # base and the dumps agree byte for byte
        _, out, _ = tiny_run
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["dump", out, "--res", "2", "--out", str(a)]) == 0
        assert main(["dump", out, "--stage", "0", "--res", "2",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_quadratic_base_grid_values(self, quad_run, tmp_path):
        _, out, _ = quad_run
        target = tmp_path / "grid.txt"
        code = main(["dump", out, "--stage", "0", "--res", "2",
                     "--out", str(target)])
        assert code == 0
        with open(target) as fh:
            g = load_grid(fh)
        expect = 0.25 * (g.points ** 2).sum(axis=1)
        np.testing.assert_allclose(g.values, expect, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            g.hessians, np.broadcast_to(np.diag([0.5, 0.5]), (4, 2, 2)),
            rtol=0, atol=0,
        )

    def test_resolution_floor(self, tiny_run, capsys):
        _, out, _ = tiny_run
        assert main(["dump", out, "--res", "1"]) == 1
        assert "resolution must be at least 2" in capsys.readouterr().err

    def test_missing_run_dir(self, tmp_path, capsys):
        assert main(["dump", str(tmp_path / "nope"), "--res", "3"]) == 1
        assert "cannot read run config" in capsys.readouterr().err


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(_swap(MINIMAL, "p = 1.5", "p = 2"))
        assert main(["run", str(p)]) == 1
        assert "requires p < k" in capsys.readouterr().err

    def test_missing_config_is_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.cfg")]) == 1
        capsys.readouterr()

    def test_usage_error_is_one(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_abort_is_two_with_partial_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        cfg = (QUAD_SEED42.format(out=out)
               .replace("node_budget = 2000000",
                        "node_budget = 1000000\ncube_cap = 4\n"
                        "strict_partition = true"))
        p = tmp_path / "abort.cfg"
        p.write_text(cfg)
        assert main(["run", str(p)]) == 2
        stdout = capsys.readouterr().out
        assert "aborted" in stdout and "overall = FAIL" in stdout
        assert os.path.exists(os.path.join(out, "summary.txt"))
        with open(os.path.join(out, "summary.txt")) as fh:
            text = fh.read()
        assert "aborted = stage" in text
        assert "overall = FAIL" in text

    def test_certify_atom_pass(self, tmp_path, capsys):
        p = tmp_path / "a.mat"
        p.write_text("1 0.2\n0.2 1\n")
        code = main(["certify-atom", str(p), "--k", "2", "--p", "1.5",
                     "--eps0", "0.1"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "atom = PASS" in stdout
        assert "tau_meas = " in stdout

    def test_certify_atom_rejects_asymmetric(self, tmp_path, capsys):
        p = tmp_path / "a.mat"
        p.write_text("1 0.2\n0 1\n")
        assert main(["certify-atom", str(p), "--k", "2", "--p", "1.5",
                     "--eps0", "0.1"]) == 1
        assert "symmetric" in capsys.readouterr().err

    def test_certify_atom_rejects_bad_exponent(self, tmp_path, capsys):
        p = tmp_path / "a.mat"
        p.write_text("1 0\n0 1\n")
        assert main(["certify-atom", str(p), "--k", "2", "--p", "2",
                     "--eps0", "0.1"]) == 1
        assert "requires p < k" in capsys.readouterr().err

    def test_certify_atom_rejects_seed(self, tmp_path, capsys):
        # the certificate's sample seed is fixed; the flag is not accepted
        p = tmp_path / "a.mat"
        p.write_text("1 0.2\n0.2 1\n")
        assert main(["certify-atom", str(p), "--k", "2", "--p", "1.5",
                     "--eps0", "0.1", "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_invariants_rank_deficient(self, tmp_path, capsys):
        p = tmp_path / "n.mat"
        p.write_text("0 1\n0 0\n")
        assert main(["invariants", str(p)]) == 0
        stdout = capsys.readouterr().out
        assert "C_2 = 0\n" in stdout
        assert "symmetric = false" in stdout
        assert "op_norm = 1\n" in stdout

    def test_invariants_symmetric_signed(self, tmp_path, capsys):
        p = tmp_path / "s.mat"
        p.write_text("1 0\n0 -1\n")
        assert main(["invariants", str(p)]) == 0
        stdout = capsys.readouterr().out
        # eigenvalues 1, -1: signed invariant is -1, unsigned is 1
        assert "C_2 = 1\n" in stdout
        assert "L_2 = -1\n" in stdout

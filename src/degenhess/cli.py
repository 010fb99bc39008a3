"""Command line front end.

Subcommands: run (execute a staircase run from a config file and write
its run directory), certify-atom (tune and certify a single oscillatory
atom against a frozen matrix on the unit cube), invariants (print the
singular-value invariants of a matrix), dump (re-run a finished run
deterministically from its config echo and print a stage field on a
grid).

Exit codes: 0 when every measured certificate passed, 2 when the work
finished but some certificate or guarantee failed, 1 on errors such as
unreadable files or invalid configs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from degenhess.atom import CERTIFICATE_COLUMNS, tune_atom
from degenhess.config import ConfigError, parse_config
from degenhess.fields import Box, dump_grid
from degenhess.invariants import ck, fro_norm, lk, op_norm, singular_values
from degenhess.report import soft_failures, write_run_dir
from degenhess.staircase import default_tau, run_construction


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on bad usage; raise instead so main can
    # keep the documented exit codes (usage problems are errors, code 1)
    def error(self, message):
        raise UsageError(message)


def _g(v):
    return "%.17g" % float(v)


def read_matrix(path):
    """Parse a whitespace-separated square matrix; '#' starts a comment."""
    rows = []
    try:
        with open(path) as fh:
            for src in fh:
                cut = src.find("#")
                if cut >= 0:
                    src = src[:cut]
                toks = src.split()
                if not toks:
                    continue
                try:
                    rows.append([float(t) for t in toks])
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"cannot read matrix file: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"{path}: need a square matrix, got {n} rows "
                         f"with lengths {[len(r) for r in rows]}")
    return np.array(rows, dtype=float)


def _build_parser():
    top = _Parser(prog="degenhess", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run from a config file")
    p_run.add_argument("config", help="path to a run config")

    p_cert = sub.add_parser(
        "certify-atom",
        help="tune one atom against a matrix frozen on the unit cube",
    )
    p_cert.add_argument("matrix", help="path to a square matrix file")
    p_cert.add_argument("--k", type=int, required=True,
                        help="invariant order, 2 <= k <= n")
    p_cert.add_argument("--p", type=float, required=True,
                        help="integrability exponent, 1 <= p < k")
    p_cert.add_argument("--eps0", type=float, required=True,
                        help="amplitude allowance for the atom")

    p_inv = sub.add_parser(
        "invariants", help="print singular-value invariants of a matrix"
    )
    p_inv.add_argument("matrix", help="path to a square matrix file")

    p_dump = sub.add_parser(
        "dump", help="re-run from a run directory and print a stage grid"
    )
    p_dump.add_argument("run_dir", help="run directory holding config.txt")
    p_dump.add_argument("--stage", type=int, default=None,
                        help="stage index, 0 is the base (default: last)")
    p_dump.add_argument("--res", type=int, required=True,
                        help="grid resolution per axis, at least 2")
    p_dump.add_argument("--out", default=None,
                        help="output file (default: stdout)")
    return top


def _run_config(cfg):
    return run_construction(
        cfg.build_field(), cfg.k, cfg.p, cfg.alpha, cfg.eps, cfg.J,
        config=cfg.stair_config(),
    )


def _cmd_run(args, out):
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    result = _run_config(cfg)
    paths = write_run_dir(result, cfg, cfg.out_dir)
    fails = soft_failures(result)
    out.write(f"run directory: {cfg.out_dir}\n")
    out.write(f"summary: {paths['summary']}\n")
    for msg in fails:
        out.write(f"issue: {msg}\n")
    out.write(f"overall = {'PASS' if not fails else 'FAIL'}\n")
    return 0 if not fails else 2


def _cmd_certify_atom(args, out):
    A = read_matrix(args.matrix)
    n = A.shape[0]
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    if not 2 <= args.k <= n:
        raise ValueError("requires 2 <= k <= n")
    if args.p < 1.0:
        raise ValueError("requires 1 <= p")
    if args.p >= args.k:
        raise ValueError("requires p < k")
    if args.eps0 <= 0.0:
        raise ValueError("eps0 must be positive")

    target = default_tau(args.k, args.p)
    outcome = tune_atom(A, Box.unit(n), args.eps0, args.k, args.p, target)
    cert = outcome.certificate
    out.write(f"tau_target = {_g(target)}\n")
    out.write(f"tuning_steps = {len(outcome.history)}\n")
    out.write(f"tau_monotone = {outcome.tau_monotone}\n")
    for name, val in zip(CERTIFICATE_COLUMNS, cert.csv_row()):
        out.write(f"{name} = {val}\n")
    out.write(f"atom = {'PASS' if cert.passed else 'FAIL'}\n")
    return 0 if cert.passed else 2


def _cmd_invariants(args, out):
    M = read_matrix(args.matrix)
    n = M.shape[0]
    symmetric = bool(np.allclose(M, M.T, rtol=0.0, atol=1e-12))
    sv = singular_values(M)
    out.write(f"n = {n}\n")
    out.write(f"symmetric = {'true' if symmetric else 'false'}\n")
    out.write("singular_values = " + " ".join(_g(v) for v in sv) + "\n")
    out.write(f"op_norm = {_g(op_norm(M))}\n")
    out.write(f"fro_norm = {_g(fro_norm(M))}\n")
    for k in range(2, n + 1):
        out.write(f"C_{k} = {_g(ck(M, k))}\n")
        if symmetric:
            # signed eigenvalue invariant, defined for symmetric input only
            out.write(f"L_{k} = {_g(lk(M, k))}\n")
    return 0


def _cmd_dump(args, out):
    if args.res < 2:
        raise ValueError("resolution must be at least 2")
    cfg_path = os.path.join(args.run_dir, "config.txt")
    try:
        with open(cfg_path) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read run config: {exc}") from None
    # the config echo plus the seed pins the whole run, so re-running is
    # the deterministic way to recover any stage field
    result = _run_config(cfg)
    stage = len(result.stages) if args.stage is None else args.stage
    if not 0 <= stage <= len(result.stages):
        raise ValueError(
            f"stage must lie in 0..{len(result.stages)} for this run"
        )
    f_s = result.base if stage == 0 else result.stages[stage - 1].field
    if args.out is None:
        dump_grid(f_s, args.res, out)
    else:
        with open(args.out, "w") as fh:
            dump_grid(f_s, args.res, fh)
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args, sys.stdout)
        if args.command == "certify-atom":
            return _cmd_certify_atom(args, sys.stdout)
        if args.command == "invariants":
            return _cmd_invariants(args, sys.stdout)
        return _cmd_dump(args, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

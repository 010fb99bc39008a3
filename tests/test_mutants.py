"""Planted defects on small fixtures: each must turn a named check to FAIL.

A mutant is made with monkeypatch, never by editing the package, and its
test names the checks that catch it and the ones that do not.
"""

from dataclasses import replace

from degenhess import staircase
from degenhess.fields import Box, ScalarFieldC2, make_base
from degenhess.report import soft_failures
from degenhess.staircase import StairConfig, run_construction


def unit_quadratic_run():
    field = ScalarFieldC2(
        make_base("quadratic", {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, 2),
        Box.unit(2),
    )
    return run_construction(field, 2, 1.5, 0.3, 0.1, 1,
                            config=StairConfig(seed=11, tau=0.9))


def test_amplitude_times_ten(monkeypatch):
    # every tuned atom's amplitude scaled x10 after its certificate was
    # measured: the stage checks see the committed atoms, the atom
    # certificates do not
    tune = staircase._tune_for_cube

    def loud(*args, **kwargs):
        atom, cert, failed = tune(*args, **kwargs)
        return replace(atom, amplitude=10.0 * atom.amplitude), cert, failed

    monkeypatch.setattr(staircase, "_tune_for_cube", loud)
    result = unit_quadratic_run()
    cert = result.stages[0].certificate
    assert cert.checks == {"c0": False, "c2": False, "c3": False,
                           "c4": False, "atoms": True}
    assert soft_failures(result) == [
        "stage 1: certificate failed (c0 c2 c3 c4)",
        "second-derivative budget exceeded",
        "stage 1: interpolation bound failed",
    ]
    # A6's distance part misses it: the C^{1,alpha} distance stays under eps
    assert result.c1a_pass and result.c1a_distance < result.eps

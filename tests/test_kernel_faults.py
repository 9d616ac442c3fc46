"""Kernel faults that the verifier must catch, each in its own process.

Each mutant patches one kernel of the installed package and then runs
the CLI, with and without ``python -O``, under a stated time bound.  A
mutant is caught when the run ends in exit 2 or reports
``failures_total > 0``; a run that passes or does not end in its bound
is a blind spot.
"""

import json
import os
import subprocess
import sys
from importlib import resources

import pytest

import altkit
from altkit.errors import VerificationFailed
from altkit.ring_core import QQ, divide_terms

# a healthy run of each command below takes well under a second
TIME_BOUND_S = 60

# the first (key, weight) pair of m_lam * A(d) one too heavy: the
# division step no longer cancels its leading key
_PRODUCT_ORBITS_MUTANT = """
from altkit import alternator

real = alternator._product_orbits


def mutant(lam, d, n, width):
    pairs = real(lam, d, n, width)
    if not pairs:
        return pairs
    (kappa, w), *rest = pairs
    return ((kappa, w + 1), *rest)


alternator._product_orbits = mutant
"""

# every determinant doubled: the discriminant comes out four times d
_DET_GENERIC_MUTANT = """
from altkit import norm_universal, ring_core

real = ring_core.det_generic


def mutant(m):
    v = real(m)
    return v + v


ring_core.det_generic = mutant
norm_universal.det_generic = mutant
"""

_RUN_CLI = """
import sys
from altkit.cli import main

sys.exit(main(sys.argv[1:]))
"""


def fixture_path(name):
    return str(resources.files("altkit").joinpath("fixtures", name))


def run_mutant(mutant, flags, args):
    src = os.path.dirname(os.path.dirname(altkit.__file__))
    return subprocess.run(
        [sys.executable, *flags, "-c", mutant + _RUN_CLI, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=TIME_BOUND_S,
    )


def caught(done):
    if done.returncode == 2:
        return True
    return json.loads(done.stdout)["failures_total"] > 0


FLAGS = pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])


@FLAGS
def test_product_orbits_mutant_ends_and_is_caught(flags):
    # the division loop used to subtract a leading term that never
    # cancelled and run for ever; the step now raises once its leading
    # key outlives it, and the basis rows fail
    done = run_mutant(
        _PRODUCT_ORBITS_MUTANT, flags, ["verify", "--identity", "basis", "--n", "2", "--cases", "2"]
    )
    assert caught(done), done.stdout + done.stderr
    assert "the product rule is broken" in done.stdout + done.stderr


@FLAGS
@pytest.mark.parametrize(
    "fixture, true_d, reported_d",
    [("sqrt2.json", "8", "64"), ("t2_minus_s.json", "4*s", "32*s")],
)
def test_det_generic_mutant_fails_the_discriminant_witness(flags, fixture, true_d, reported_d):
    # a determinant routine that doubles used to pass gen_etale with a
    # wrong discriminant; the norm of the alternator square, which no
    # determinant enters, now disagrees with it
    args = ["instance", "--file", fixture_path(fixture), "--mode", "gen_etale"]
    done = run_mutant(_DET_GENERIC_MUTANT, flags, args)
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stdout == ""
    assert done.stderr == (
        f"altkit: VerificationFailed: discriminant {reported_d} is not the norm "
        "of the alternator square\n"
    )
    sound = run_mutant("", flags, args)
    assert sound.returncode == 0, sound.stderr
    assert json.loads(sound.stdout)["discriminant"] == true_d


def test_division_step_that_keeps_its_leading_key_raises():
    # a product rule whose leading weight is 2 leaves half the leading
    # coefficient behind; the loop raises instead of spinning
    def heavy(q, d):
        return ((tuple(a + b for a, b in zip(q, d)), 2),)

    with pytest.raises(VerificationFailed, match="product rule is broken"):
        divide_terms({(2,): 1, (1,): 1}, [((1,), 1)], QQ, heavy)

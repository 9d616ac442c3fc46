"""Acceptance gate: one test and one printed verdict line per criterion.

Everything here is exact arithmetic; there are no tolerances to state.
The seeded-suite criteria run through the same driver the CLI uses, so
a pass here is a pass for the shipped commands.
"""

import time
from importlib import resources
from random import Random

import pytest

from altkit.alternator import IDENTITY_NAMES, AlternatorInstance
from altkit.cli import build_instance, main, make_suite_config, run_suite
from altkit.gen_etale import (
    NormMapPlus,
    diagonal_support_probe,
    is_generically_etale,
    verify_pullback_plus,
)
from altkit.norm_universal import free_case_check, verify_pullback
from altkit.ring_core import GF, QQ, FiniteFreeAlgebra, PolyRing, det_generic
from altkit.span_solver import coordinates_of_invariant, r_algebra
from altkit.alternator import random_invariant
from altkit.tensor_algebra import TensorSpace, polarized_power_sum

ACCEPTANCE_LINES = []

# ring text, scalars, arity list; n = 4 stays rational-only by design
CONFIGS = (
    ("q", QQ, (2, 3, 4)),
    ("fp:2", GF(2), (2, 3)),
    ("fp:5", GF(5), (2, 3)),
)


def _record(number, name, ok):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _anchor(scalars, n):
    space = TensorSpace(n, PolyRing(scalars, ("t",)))
    t = space.ring.variable("t")
    return space, AlternatorInstance(space, [t**i for i in range(n)])


def fixture_data(name):
    import json

    text = resources.files("altkit").joinpath("fixtures", name).read_text(
        encoding="utf-8"
    )
    return json.loads(text)


def test_acceptance_1_identity_suite():
    started = time.monotonic()
    failures = 0
    for ring_text, _, ns in CONFIGS:
        config = make_suite_config(
            ring=ring_text,
            n=ns,
            cases=200,
            seed=2024,
            identities=",".join(IDENTITY_NAMES),
        )
        report = run_suite(config)
        failures += report["failures_total"]
        assert len(report["suites"]) == len(IDENTITY_NAMES) * len(ns)
    elapsed = time.monotonic() - started
    _record(1, "identity_suite", failures == 0 and elapsed < 60.0)


def test_acceptance_2_basis_reconstruction():
    ok = True
    for ring_text, scalars, ns in CONFIGS:
        for n in ns:
            space, ctx = _anchor(scalars, n)
            rng = Random(20_000 + n * 7 + len(ring_text))
            for _ in range(50):
                y = random_invariant(rng, space, 3 if n < 4 else 2, full=False)
                entries = coordinates_of_invariant(ctx, y)
                ok = ok and len(entries) == n
    for scalars in (QQ, GF(5)):
        for n in (2, 3):
            space, ctx = _anchor(scalars, n)
            alg = r_algebra(ctx)  # construction runs the full validator
            ok = ok and alg.rank == n
    _record(2, "basis_reconstruction", ok)


def test_acceptance_3_trace_formulas():
    config = make_suite_config(
        ring="q", n=(2, 3), cases=100, seed=31, identities="traceexp,trace_formula"
    )
    report = run_suite(config)
    golden = "1*[1|t^2] - 2*[t|t] + 1*[t^2|1]"
    space, ctx = _anchor(QQ, 2)
    t = space.ring.variable("t")
    pps = [polarized_power_sum(space, z) for z in (space.ring.one(), t, t * t)]
    via_det = det_generic([[pps[0], pps[1]], [pps[1], pps[2]]])
    _record(
        3,
        "trace_formulas",
        report["failures_total"] == 0
        and ctx.alpha_sq.to_text() == golden
        and via_det.to_text() == golden,
    )


def test_acceptance_4_etale_fixture():
    inst, meta = build_instance(fixture_data("sqrt2.json"))
    witnesses = verify_pullback(inst)
    c22 = next(w for w in witnesses if w.name == "pullback[2,2]")
    _record(
        4,
        "etale_fixture",
        meta["mode"] == "etale"
        and inst.E.base.to_text(inst.d) == "8"
        and inst.is_etale
        and all(w.ok for w in witnesses)
        and c22.lhs_text == "(2, 0)",
    )


def test_acceptance_5_gen_etale_fixture():
    inst, meta = build_instance(fixture_data("t2_minus_s.json"))
    base = inst.E.base
    nm = NormMapPlus(inst)
    t = inst.space.ring.variable("t")
    pair = nm.pair_image((t, t * t), inst.ctx.x)
    witnesses = verify_pullback_plus(inst)
    c22 = next(w for w in witnesses if w.name == "pullback_plus[2,2]")
    _record(
        5,
        "gen_etale_fixture",
        meta["mode"] == "gen_etale"
        and is_generically_etale(inst)
        and not inst.is_etale
        and base.to_text(pair) == "-s"
        and c22.lhs_text == "(s, 0)"
        and all(w.ok for w in witnesses),
    )


def test_acceptance_6_free_case():
    split = FiniteFreeAlgebra(
        QQ, 2, (((1, 0), (0, 0)), ((0, 0), (0, 1))), (1, 1)
    )
    split_ok = all(free_case_check(split, (split.one(), split.basis_elem(1))))
    inst, _ = build_instance(fixture_data("sqrt2.json"))
    sqrt2_ok = all(free_case_check(inst.E, inst.fx))
    _record(6, "free_case", split_ok and sqrt2_ok)


def test_acceptance_7_diagonal_probe():
    misclassified = 0
    for scalars, tag in ((QQ, 0), (GF(11), 1)):
        rng = Random(7_000 + tag)
        for i in range(50):
            n = 2 + i % 3
            k = 1 + i % 2
            points, seen = [], set()
            while len(points) < n:
                if scalars.kind == "Fp":
                    p = tuple(rng.randrange(scalars.p) for _ in range(k))
                else:
                    p = tuple(rng.randint(-9, 9) for _ in range(k))
                if p not in seen:
                    seen.add(p)
                    points.append(p)
            if diagonal_support_probe(scalars, points):
                misclassified += 1
            repeated = list(points)
            repeated[-1] = repeated[0]
            if not diagonal_support_probe(scalars, repeated):
                misclassified += 1
            constant = [points[0]] * n
            if not diagonal_support_probe(scalars, constant):
                misclassified += 1
    _record(7, "diagonal_probe", misclassified == 0)


def test_acceptance_8_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["verify", "--cases", "25", "--seed", "123", "--out"]
    code1 = main(argv + [str(first)])
    code2 = main(argv + [str(second)])
    _record(
        8,
        "determinism",
        code1 == 0 and code2 == 0 and first.read_bytes() == second.read_bytes(),
    )

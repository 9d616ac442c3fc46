"""Report content pinned across refactors.

The determinism tests compare two runs of one tree, and a passing
``verify`` report holds no tensor text.  These digests were recorded once
and compare every witness text of the identity, ``traceexp`` and
``trace_formula`` suites, the structure constants of ``r_algebra``, and
the full rendered ``instance``, probe and default ``verify`` reports,
against that recording.  A change that alters any of them is a change in
behaviour.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path
from random import Random

import pytest

from altkit import cli
from altkit.cli import (
    make_suite_config,
    parse_ring,
    render_report,
    run_instance,
    run_probe,
    run_suite,
)
from altkit.alternator import AlternatorInstance, random_element, random_invariant
from altkit.errors import AltkitError
from altkit.ring_core import GF, QQ, PolyRing
from altkit.span_solver import coordinates, coordinates_of_invariant, r_algebra
from altkit.tensor_algebra import TensorSpace

SUITES = cli.IDENTITY_NAMES + ("traceexp", "trace_formula")

# sha256 of one line "<suite> <ring> <n> <case> <ok> <lhs> <rhs>" per case
# over SUITES, n = 2..4, cases 0..2, seed 1
CASE_DIGESTS = {
    "q": "ed67a6a7f119caaae8b1119ec56f74fc83233d0f1edc4359723a19ac9c91df4c",
    "fp:5": "7f46f1af2683ab9bd8e7d2899f7808822ea656a18f7963e4a981af5299f0f1ae",
}

# the same lines at n = 5 alone, the arity where the signed sums are dearest
CASE_DIGESTS_N5 = {
    "q": "05439c821d5b865b0a28dd7f9814790543d834132575ad8261b7adade8a813c2",
    "fp:5": "99476047ed464e9668ecc2c9e066243660e5285c988dce0837c45613b9bedc60",
}

# sha256 of one line "<ring> <n> <case> <entry texts>" per seeded ``basis``
# draw, n = 2..5, cases 0..2, seed 1: the coordinates that the ``basis``
# suite computes and then reports only as passed
COORDINATE_DIGESTS = {
    "q": "ee6ea93ab36709c5020a2508055fd3909fc6d21dfcf6eb658a9d47c149e8a53c",
    "fp:5": "09742c516b0f40e0b9dda46d18380506e3b39fbe6ccf4358474b7e32a9d1f9d9",
}

# sha256 of one line "<i> <j> <k> <text>" per structure constant and one
# "unit <k> <text>" per unit coordinate of r_algebra: fraction products
# normalised by exact division on orbits.  "vandermonde" runs the anchors
# (1, t, ..., t^(n-1)) at n = 2..5; "spread" is (1, t^2 + t, t^4 + t) at
# n = 3, whose quotients reach high degree; "fallback" is (t, t^2 + 1) at
# n = 2, where alpha(x) divides no entry
def vandermonde(t, n):
    return [t**k for k in range(n)]


R_ALGEBRA_ANCHORS = {
    ("vandermonde", "q"): (QQ, (2, 3, 4, 5), vandermonde),
    ("vandermonde", "fp:5"): (GF(5), (2, 3, 4, 5), vandermonde),
    ("spread", "q"): (QQ, (3,), lambda t, n: [t**0, t**2 + t, t**4 + t]),
    ("fallback", "q"): (QQ, (2,), lambda t, n: [t, t**2 + t**0]),
}

R_ALGEBRA_DIGESTS = {
    ("vandermonde", "q"): (
        "544a04b2355ae4c14039646adca1651173b17bdbbcee6f2423a650716c5fe6c4"
    ),
    ("vandermonde", "fp:5"): (
        "3c82c5494780a3f7565ebd464edd22f84b8b1e7945a764fd32e4dad71990d80c"
    ),
    ("spread", "q"): (
        "ed91f3af409a07907ff41aaad72fe23f8e200532c51b1dfa5d846373e9bd3ff5"
    ),
    ("fallback", "q"): (
        "c0c5df9fca607a76913fcc6d5fb161c366c1fdafcf9cdd7df3897aefcb23df4d"
    ),
}

# sha256 of render_report(run_instance(fixture, mode))
INSTANCE_DIGESTS = {
    ("sqrt2.json", "etale"): (
        "a2a63ff820f387335d77aeaadd81a7d5ddec3434bea5088699e5385e647936f8"
    ),
    ("sqrt2.json", "gen_etale"): (
        "8405b00e24da26335f0a60ce87c791f3499f3797efa508c2c4615af79ddaea15"
    ),
    ("t2_minus_s.json", "etale"): (
        "a6442053b6515ce703fdd243044b30b959aa530c5b22cf715d1494c68c2dd28f"
    ),
    ("t2_minus_s.json", "gen_etale"): (
        "ee90c4ef878bde68e2ac032f245267faba507d7c19c31f40771cd2cbd0257bc1"
    ),
}

# the bundled fixtures with their base ring moved to GF(5), written to a
# temporary directory under the file name given here: sqrt2 over GF(5)
# (u^2 = 2) and t2_minus_s over GF(5)[s]
FP_BASES = {
    "sqrt2_fp5.json": ("sqrt2.json", {"kind": "Fp", "p": 5}),
    "t2_minus_s_fp5.json": (
        "t2_minus_s.json",
        {"kind": "poly", "vars": ["s"], "scalars": {"kind": "Fp", "p": 5}},
    ),
}

FP_INSTANCE_DIGESTS = {
    ("sqrt2_fp5.json", "etale"): (
        "2c3b50af376ba40436dbdfd87fa5f9e860e713767b1eeb514871322f00ed50fe"
    ),
    ("sqrt2_fp5.json", "gen_etale"): (
        "ec5638db419b1df69cfa5c94148549a7b2bfa2b6eb5cf0bf950b20cbc3494e30"
    ),
    ("t2_minus_s_fp5.json", "gen_etale"): (
        "62d6cc845dda56042dc9f03c54acac4c8b2bebe2a3d58cb42fb7a8448cc9e9a7"
    ),
}

# sqrt2.json on the anchor (t, t^2 + 1): alpha(x) divides no coordinate
# entry, so every entry is kept over the square at exponent 1
FALLBACK_DIGESTS = {
    "etale": "11814086270e6f14109f52fb8a0c2f9aa386d797b1280e5e90502f124f66df2e",
    "gen_etale": "75ab830a7397fd4beda5c7050b4091476ae0be3a35a04ec1931c3eb1c01a4f04",
}


# tests/data/cbrt2_fallback.json: Q[u]/(u^3 - 2), t -> u, on the anchor
# (1, t^2 + t, t^4 + t), where alpha(x) divides only some entries, so the
# entries it does not divide are kept over the square; recorded before
# that fallback ran on orbits
CBRT2_FALLBACK = Path(__file__).parent / "data" / "cbrt2_fallback.json"
CBRT2_FALLBACK_DIGESTS = {
    "etale": "510aff9e82a052de86daef389971d4e02c220e521d2c4329044420fefcf29c95",
    "gen_etale": "1d6bb45e37896a89b14844ae75dd796599e2824eb57f07ff909fd3ce0f2db578",
}


# sha256 of render_report(run_probe(payload)) for the PROBE_PAYLOADS below
PROBE_DIGESTS = {
    "q-tuples": "762249c9427ec3ae3ff2d32b19f74126760e85d8c586d52c6da5184a25218823",
    "fp5-tuples": "1232a0e4ce455a061d3fe7ae64e772dce90f5cce6d862eca3dee8c50c0f90286",
    "q-grid": "82ec2ba491df7a0690c7eb31209a4dcb980d9fa530dde377ff6293cc9867abed",
}

# sha256 of render_report(run_suite(make_suite_config(seed=1))): every
# suite at its defaults, q, n = 2, 3, 100 cases
VERIFY_DIGEST = "9030c83a402497a8bccffed9fc9215eb7f2e287d935ccc1502874f0f7c24d9c5"


def probe_payload(ring, n, coords, repeat, groups):
    # n distinct points of dimension 2 (the last one then replaced by a
    # copy of the first when repeat is set) and `groups` explicit minors
    # over the degree-below-n grid, drawn from a fixed seed
    rng = Random(f"{ring}:{n}:{repeat}")
    points = rng.sample([[a, b] for a in coords for b in coords], n)
    if repeat:
        points[-1] = list(points[0])
    grid = [[a, b] for a in range(n) for b in range(n)]
    tuples = [rng.sample(grid, n) for _ in range(groups)]
    return json.dumps({"ring": ring, "points": points, "tuples": tuples})


PROBE_PAYLOADS = {
    # rational coordinates, a repeated point: every minor is evaluated
    "q-tuples": probe_payload("q", 4, [-9, 0, 3, "1/2", "-2/3"], True, 60),
    # distinct points over GF(5): a nonzero minor ends the probe
    "fp5-tuples": probe_payload("fp:5", 5, list(range(5)), False, 60),
    # no tuples: the default grid, and "tuples": null in the report
    "q-grid": json.dumps({"points": [[0, 1, "1/3"], [2, -1, 0], [0, 1, "1/3"]]}),
}


def case_texts(ring, ns="2,3,4"):
    scalars, ring_text = parse_ring(ring)
    config = make_suite_config(ring=ring, n=ns, cases=3, seed=1)
    lines = []
    for name in SUITES:
        for n in config.ns:
            degree, terms = cli._bounds(config, n)
            env = cli._RowEnv(scalars, n, degree, terms)
            for index in range(config.cases):
                seed = cli._case_seed(config.seed, name, ring_text, n, index)
                w = cli._CASES[name](env, Random(seed))
                ok, lhs, rhs = w.ok, w.lhs_text, w.rhs_text
                lines.append(f"{name} {ring_text} {n} {index} {ok} {lhs} {rhs}\n")
    return "".join(lines)


def entry_text(entry):
    return f"{entry.num.to_text()} @{entry.exp}"


def coordinate_texts(ring, ns="2,3,4,5"):
    # the draws of cli._basis_case, with each entry's numerator and
    # exponent written out
    scalars, ring_text = parse_ring(ring)
    config = make_suite_config(ring=ring, n=ns, cases=3, seed=1)
    lines = []
    for n in config.ns:
        degree, terms = cli._bounds(config, n)
        env = cli._RowEnv(scalars, n, degree, terms)
        for index in range(config.cases):
            rng = Random(cli._case_seed(config.seed, "basis", ring_text, n, index))
            y = random_invariant(rng, env.space, env.max_degree, full=False)
            of_y = coordinates_of_invariant(env.ctx, y)
            z = random_element(rng, env.space, env.max_terms, env.max_degree)
            of_z = coordinates(env.ctx, z)
            texts = " ; ".join(entry_text(e) for e in (*of_y, *of_z))
            lines.append(f"{ring_text} {n} {index} {texts}\n")
    return "".join(lines)


def r_algebra_text(scalars, ns, anchor):
    ring = PolyRing(scalars, ("t",))
    t = ring.variable("t")
    lines = []
    for n in ns:
        alg = r_algebra(AlternatorInstance(TensorSpace(n, ring), anchor(t, n)))
        for i, row in enumerate(alg.structure):
            for j, vec in enumerate(row):
                lines += [f"{i} {j} {k} {c.to_text()}\n" for k, c in enumerate(vec)]
        lines += [f"unit {k} {c.to_text()}\n" for k, c in enumerate(alg.unit)]
    return "".join(lines)


def instance_text(filename, mode, path=None):
    if path is None:
        path = str(resources.files("altkit").joinpath("fixtures", filename))
    try:
        return render_report(run_instance(path, mode))
    except AltkitError as e:  # t2_minus_s is not etale
        return f"{type(e).__name__}: {e}\n"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("ring", sorted(CASE_DIGESTS))
def test_case_texts_match_recording(ring):
    assert sha256(case_texts(ring)) == CASE_DIGESTS[ring]


@pytest.mark.parametrize("ring", sorted(CASE_DIGESTS_N5))
def test_case_texts_match_recording_at_arity_5(ring):
    assert sha256(case_texts(ring, "5")) == CASE_DIGESTS_N5[ring]


@pytest.mark.parametrize("ring", sorted(COORDINATE_DIGESTS))
def test_coordinates_match_recording(ring):
    assert sha256(coordinate_texts(ring)) == COORDINATE_DIGESTS[ring]


def test_coordinate_digests_pin_quotients():
    # on the anchor (1, t, ..., t^(n-1)) alpha(x) divides every numerator,
    # so each entry is an exact quotient at exponent 0 with real tensor text
    text = coordinate_texts("fp:5", "3")
    assert text.count("\n") == 3
    assert " @0" in text and "[" in text


@pytest.mark.parametrize("anchor", sorted(R_ALGEBRA_DIGESTS))
def test_r_algebra_constants_match_recording(anchor):
    text = r_algebra_text(*R_ALGEBRA_ANCHORS[anchor])
    assert sha256(text) == R_ALGEBRA_DIGESTS[anchor]


def test_r_algebra_digests_reach_both_entry_forms():
    # the Vandermonde entries are exact quotients at exponent 0; on the
    # fallback anchor every entry stays over the square at exponent 1
    text = r_algebra_text(*R_ALGEBRA_ANCHORS["vandermonde", "q"])
    assert "asq" not in text and "[" in text
    text = r_algebra_text(*R_ALGEBRA_ANCHORS["fallback", "q"])
    assert text.count("\n") == 10 and text.count(") / asq^1\n") == 10


@pytest.mark.parametrize("filename, mode", sorted(INSTANCE_DIGESTS))
def test_instance_reports_match_recording(filename, mode):
    assert sha256(instance_text(filename, mode)) == INSTANCE_DIGESTS[filename, mode]


@pytest.mark.parametrize("name", sorted(PROBE_DIGESTS))
def test_probe_reports_match_recording(name):
    assert sha256(render_report(run_probe(PROBE_PAYLOADS[name]))) == PROBE_DIGESTS[name]


def test_probe_payloads_reach_both_outcomes():
    # the digests pin the probe only if its answer varies among them
    outcomes = {k: run_probe(v)["on_diagonal"] for k, v in PROBE_PAYLOADS.items()}
    assert outcomes == {"q-tuples": True, "fp5-tuples": False, "q-grid": True}


def test_default_verify_report_matches_recording():
    text = render_report(run_suite(make_suite_config(seed=1)))
    assert sha256(text) == VERIFY_DIGEST


@pytest.mark.parametrize("filename, mode", sorted(FP_INSTANCE_DIGESTS))
def test_fp_instance_reports_match_recording(filename, mode, tmp_path):
    fixture, base = FP_BASES[filename]
    data = json.loads(resources.files("altkit").joinpath("fixtures", fixture).read_text())
    data["algebra"]["base"] = base
    path = tmp_path / filename
    path.write_text(json.dumps(data), encoding="utf-8")
    text = instance_text(filename, mode, str(path))
    assert f'"file": "{filename}"' in text
    assert sha256(text) == FP_INSTANCE_DIGESTS[filename, mode]


@pytest.mark.parametrize("mode", sorted(FALLBACK_DIGESTS))
def test_fallback_instance_reports_match_recording(mode, tmp_path):
    fixture = resources.files("altkit").joinpath("fixtures", "sqrt2.json")
    data = json.loads(fixture.read_text())
    data["tuple_x"] = ["t", "t^2 + 1"]
    path = tmp_path / "sqrt2_fallback.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    inst, _ = cli.build_instance(data)
    entries = coordinates(inst.ctx, inst.ctx.x[1] * inst.ctx.x[1])
    assert [e.exp for e in entries] == [1, 1]
    text = instance_text("sqrt2_fallback.json", mode, str(path))
    assert sha256(text) == FALLBACK_DIGESTS[mode]


def test_passing_cases_carry_tensor_text():
    # the digests pin something only if the texts are real tensors
    text = case_texts("q")
    assert text.count("\n") == len(SUITES) * 3 * 3
    assert "[" in text and " True " in text and " False " not in text


@pytest.mark.parametrize("mode", sorted(CBRT2_FALLBACK_DIGESTS))
def test_cbrt2_fallback_report_matches_recording(mode):
    inst, _ = cli.build_instance(json.loads(CBRT2_FALLBACK.read_text()))
    ctx = inst.ctx
    exps = [
        e.exp for i in range(3) for j in range(i, 3)
        for e in coordinates(ctx, ctx.x[i] * ctx.x[j])
    ]
    # the digest pins the fallback only if both entry forms occur
    assert exps.count(1) == 9 and exps.count(0) == 9
    report = run_instance(str(CBRT2_FALLBACK), mode)
    assert report["failures_total"] == 0
    assert sha256(render_report(report)) == CBRT2_FALLBACK_DIGESTS[mode]

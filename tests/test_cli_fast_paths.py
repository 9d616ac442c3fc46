"""The CLI's bulk paths against the per-item code they replaced.

``render_report`` once was ``json.dumps(report, indent=2, sort_keys=True)``
plus a newline, ``_parse_tuples`` checked a probe payload one exponent at
a time, ``run_probe`` echoed the payload's raw tuple lists and handed them
to ``diagonal_support_probe``, and ``_probe_points`` sampled n points from
the whole list ``itertools.product(range(p), repeat=k)``.  Each is kept
here, as it was, as the oracle: the new path must give the same bytes,
the same groups, the same answer, the same error text and the same
points.
"""

import itertools
import json
import os
import subprocess
import sys
from importlib import resources
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import altkit
from altkit import cli
from altkit.cli import render_report
from altkit.errors import AltkitError, SchemaError
from altkit.gen_etale import _ExponentBlock, diagonal_support_probe
from altkit.ring_core import GF, MAX_POWER_EXPONENT, QQ, _is_prime


# -- the replaced code, kept as the oracle


def oracle_render(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def oracle_parse_tuples(tuples, dim):
    def expect(cond, path, msg):
        if not cond:
            raise SchemaError(f"{path}: {msg}")

    expect(isinstance(tuples, list), "$.tuples", "expected a list")
    groups = []
    for g, group in enumerate(tuples):
        expect(isinstance(group, list), f"$.tuples[{g}]", "expected a list")
        for m, mono in enumerate(group):
            path = f"$.tuples[{g}][{m}]"
            expect(isinstance(mono, list), path, "expected a list")
            expect(dim is None or len(mono) == dim, path, f"expected {dim} exponents")
            for e in mono:
                expect(
                    type(e) is int and 0 <= e <= MAX_POWER_EXPONENT,
                    path,
                    f"exponents are integers in 0..{MAX_POWER_EXPONENT}",
                )
        groups.append(tuple(tuple(mono) for mono in group))
    return groups


def oracle_probe_points(p, n, rng):
    k = 1
    while p**k < n:
        k += 1
    pool = list(itertools.product(range(p), repeat=k))
    return [tuple(x) for x in rng.sample(pool, n)]


# -- render_report

_ints = st.integers(-3, 3) | st.integers(-(10**30), 10**30)
_text = st.text(max_size=5) | st.sampled_from(["é", "\x00\x1f\x7f", " ", "😀", '"\\'])


def _int_lists(leaves, min_size):
    # nested lists with every leaf at one depth; min_size 0 lets an
    # empty list appear at any depth
    return st.integers(1, 4).flatmap(
        lambda depth: _nest(leaves, depth, min_size)
    )


def _nest(leaves, depth, min_size):
    for _ in range(depth):
        leaves = st.lists(leaves, min_size=min_size, max_size=3)
    return leaves


def _repeated_rows(leaves):
    # a few distinct rows, each used many times: what the renderer keys
    rows = st.lists(leaves, min_size=1, max_size=3)
    pools = st.lists(rows, min_size=1, max_size=3)
    return st.tuples(pools, st.integers(0, 3)).flatmap(
        lambda pool_depth: _nest(st.sampled_from(pool_depth[0]), pool_depth[1], 1)
    )


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | _ints
    | st.floats()
    | _text
    # uniform blocks of ints: the path that renders each distinct row once
    | _int_lists(_ints, 1)
    | _repeated_rows(_ints)
    # rows equal as tuples but not as JSON: 1, True and 1.0
    | _repeated_rows(st.sampled_from([0, 1, True, False, 1.0]))
    # empty lists at some depth, or bools among the ints: recursed
    | _int_lists(_ints, 0)
    | _int_lists(_ints | st.booleans(), 1)
    # ragged: leaves at several depths
    | st.recursive(_ints, lambda inner: st.lists(inner, min_size=1, max_size=3), max_leaves=10),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({})
@example([[[]]])
@example([[1, [2]], [3]])
@example([[1, 2], [True, 0]])
@example([[1, 0], [True, 0], [1, 0]])
@example([[[1, 0], [1.0, 0]], [[1, 0], [1, 0]]])
@example([[[0, 1]] * 5] * 300)
@example({"a": [[[1, -2], [3, 10**30]], [[0, 0], [5, 6]]], "é\x01": {}})
# uniform int lists, a bool among ints, and empty or mixed levels
@example([1, 2])
@example([[[1, 2]], [[3, 4]]])
@example([1, True])
@example([[1], []])
@example([[1], 2])
@example([[1], [[2]]])
def test_render_matches_json_dumps(value):
    assert render_report(value) == oracle_render(value)


def test_render_matches_json_dumps_on_every_report_kind():
    payload = json.dumps(
        {
            "points": [[0, "1/2"], [1, 2], [0, "1/2"]],
            "tuples": [[[0, 0], [1, 0], [0, 1]]] * 3,
        }
    )
    reports = [
        cli.run_probe(payload),
        cli.run_suite(cli.make_suite_config(n="2", cases=2, seed=3)),
        cli.run_instance(str(resources.files("altkit").joinpath("fixtures", "sqrt2.json"))),
    ]
    for report in reports:
        assert render_report(report) == oracle_render(report)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_checked_blocks_render_as_their_lists(data):
    # a block from _parse_tuples, echoed in a report, against the lists
    # it was built from
    dim = data.draw(st.integers(1, 3))
    size = data.draw(st.integers(1, 4))
    exps = st.integers(0, MAX_POWER_EXPONENT)
    pool = data.draw(
        st.lists(st.lists(exps, min_size=dim, max_size=dim), min_size=1, max_size=4)
    )
    group = st.lists(st.sampled_from(pool), min_size=size, max_size=size)
    tuples = data.draw(st.lists(group, min_size=1, max_size=20))
    block = cli._parse_tuples(json.loads(json.dumps(tuples)), dim)
    assert type(block) is _ExponentBlock
    assert render_report({"tuples": block}) == oracle_render({"tuples": tuples})


def test_render_refuses_non_string_keys():
    # no report has one, and raising beats rendering other bytes
    for key in (1, None, (1, 2)):
        with pytest.raises(TypeError):
            render_report({"a": {key: 0}})


_CIRCULAR_SCRIPT = """
import json

from altkit.cli import render_report

a = []
a.append(a)
d = {}
d["d"] = d
b = [[1], [2]]
b[1].append(b)
for value in ({"x": a}, d, [d], b, [[[a]]]):
    for render in (render_report, lambda v: json.dumps(v, indent=2, sort_keys=True)):
        try:
            render(value)
        except ValueError as e:
            print(type(e).__name__, e)
print(render_report({"x": [b[0], b[0]]}), end="")
"""


def test_render_refuses_a_value_that_holds_itself():
    # json.dumps raises ValueError on a list or dict inside itself; a
    # hang would outlive the timeout, which fails the test
    src = os.path.dirname(os.path.dirname(altkit.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _CIRCULAR_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    shared = {"x": [[1], [1]]}
    refused = ["ValueError Circular reference detected"] * 10
    assert done.stdout.splitlines() == refused + oracle_render(shared).splitlines()


def test_deep_but_acyclic_values_still_overflow():
    # as with json.dumps: too deep is a RecursionError, not a cycle
    deep = 0
    for _ in range(sys.getrecursionlimit() + 10):
        deep = {"x": deep}
    with pytest.raises(RecursionError):
        render_report(deep)


# -- _parse_tuples


@st.composite
def _tuples_payloads(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    exps = st.integers(0, 3) | st.sampled_from([0, MAX_POWER_EXPONENT])
    mono = st.lists(exps, min_size=dim, max_size=dim)
    tuples = draw(st.lists(st.lists(mono, min_size=n, max_size=n), max_size=4))
    mutation = draw(
        st.sampled_from(
            [None, "bool", "negative", "huge", "short", "long", "mono", "group", "text"]
        )
    )
    monos = [(g, m) for g, group in enumerate(tuples) for m in range(len(group))]
    if mutation == "text":
        tuples = "tuples"
    elif mutation == "group" and tuples:
        g = draw(st.integers(0, len(tuples) - 1))
        tuples[g] = draw(st.sampled_from([3, "g", {"a": 1}, None]))
    elif mutation == "mono" and monos:
        g, m = draw(st.sampled_from(monos))
        tuples[g][m] = draw(st.sampled_from([0, "m", True, {}, None]))
    elif mutation in ("short", "long") and monos:
        g, m = draw(st.sampled_from(monos))
        tuples[g][m] = tuples[g][m][1:] if mutation == "short" else tuples[g][m] + [0]
    elif mutation in ("bool", "negative", "huge") and monos:
        g, m = draw(st.sampled_from(monos))
        i = draw(st.integers(0, dim - 1))
        bad = {"bool": True, "negative": -1, "huge": MAX_POWER_EXPONENT + 1}
        tuples[g][m][i] = bad[mutation]
    # points of the payload's dimension, or no points at all
    return tuples, draw(st.sampled_from([dim, None]))


def _outcome(parse, tuples, dim):
    try:
        return [tuple(map(tuple, g)) for g in parse(tuples, dim)]
    except SchemaError as e:
        return f"SchemaError: {e}"


@settings(max_examples=250, deadline=None)
@given(_tuples_payloads())
def test_bulk_tuple_check_matches_the_per_item_loop(case):
    tuples, dim = case
    assert _outcome(cli._parse_tuples, tuples, dim) == _outcome(
        oracle_parse_tuples, tuples, dim
    )


@pytest.mark.parametrize(
    "tuples, error",
    [
        ([[[0, 1], [1, 0]], [[0, 0], [True, 1]]], "$.tuples[1][1]: exponents"),
        ([[[0, 1], [1, -1]]], "$.tuples[0][1]: exponents"),
        ([[[0, 1001], [1, 0]]], "$.tuples[0][0]: exponents"),
        ([[[0, 1], [1]]], "$.tuples[0][1]: expected 2 exponents"),
        ([[[0, 1], 5]], "$.tuples[0][1]: expected a list"),
        ([[[0, 1]], "g"], "$.tuples[1]: expected a list"),
        ("tuples", "$.tuples: expected a list"),
    ],
)
def test_each_bad_payload_names_its_first_bad_entry(tuples, error):
    with pytest.raises(SchemaError) as bulk:
        cli._parse_tuples(tuples, 2)
    with pytest.raises(SchemaError) as loop:
        oracle_parse_tuples(tuples, 2)
    assert str(bulk.value) == str(loop.value)
    assert str(bulk.value).startswith(error)


# -- run_probe and the probe on a checked block


@st.composite
def _probe_cases(draw):
    # well-formed payloads of every shape: groups as long as the point
    # count (a checked block) or not, ragged or empty groups, no tuples;
    # vectors come from a small pool, so they repeat
    dim = draw(st.integers(1, 3))
    coords = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3"])
    point = st.lists(coords, min_size=dim, max_size=dim)
    points = draw(st.lists(point, min_size=1, max_size=4))
    if draw(st.booleans()):
        points.append(points[0])
    vector = st.lists(st.integers(0, 4), min_size=dim, max_size=dim)
    pool = st.sampled_from(draw(st.lists(vector, min_size=1, max_size=6)))

    def groups(size):
        return st.lists(pool, min_size=size, max_size=size)

    n = len(points)
    uniform = st.sampled_from([n, n, n + 1, 0]).flatmap(
        lambda size: st.lists(groups(size), max_size=6)
    )
    ragged = st.lists(st.integers(0, n + 1).flatmap(groups), max_size=6)
    data = {"ring": draw(st.sampled_from(["q", "fp:5"])), "points": points}
    tuples = draw(st.none() | uniform | ragged)
    if tuples is not None:
        data["tuples"] = tuples
    return json.dumps(data)


def _scalars_and_points(data):
    scalars = QQ if data["ring"] == "q" else GF(5)
    points = [
        [cli._parse_coeff(scalars, c, "$") if type(c) is str else c for c in p]
        for p in data["points"]
    ]
    return scalars, points


def _probe_outcome(scalars, points, tuples):
    try:
        return diagonal_support_probe(scalars, points, tuples)
    except AltkitError as e:
        return f"{type(e).__name__}: {e}"


@settings(max_examples=200, deadline=None)
@given(_probe_cases())
def test_probe_report_echoes_the_raw_lists(payload):
    data = json.loads(payload)
    try:
        report = cli.run_probe(payload)
    except AltkitError as e:
        # the payload is well formed, so only the probe may refuse it
        scalars, points = _scalars_and_points(data)
        raw = _probe_outcome(scalars, points, data.get("tuples"))
        assert f"{type(e).__name__}: {e}" == raw
        return
    raw_echo = dict(report, tuples=data.get("tuples"))
    assert render_report(report) == oracle_render(raw_echo)


@settings(max_examples=200, deadline=None)
@given(_probe_cases())
@example('{"ring": "q", "points": [[2], [5]], "tuples": [[[0], [1]], [[1], [0]]]}')
@example('{"ring": "q", "points": [[2], [5]], "tuples": [[[0], [0]], [[1], [1]]]}')
@example('{"ring": "fp:5", "points": [[1, 2], [3, 4]], "tuples": [[[0, 1], [1, 0]]]}')
def test_probe_answers_alike_on_block_and_lists(payload):
    data = json.loads(payload)
    tuples = data.get("tuples")
    if tuples is None:
        return
    scalars, points = _scalars_and_points(data)
    checked = cli._parse_tuples(json.loads(json.dumps(tuples)), len(points[0]))
    assert _probe_outcome(scalars, points, checked) == _probe_outcome(
        scalars, points, tuples
    )


# -- probe-diagonal under python -O


@pytest.mark.parametrize(
    "tuples, error",
    [
        ([[[0, 0], [1, 0], [0, 1]], [[1, 1], [2, 0], [0, 2]]] * 4, None),
        ([[[0, 0], [1, 0]]], "altkit: ArityMismatch: "),
        (
            [[[0, 0], [1, 0], [0, 1]], [[1, 1], [True, 0], [0, 2]]],
            "altkit: SchemaError: $.tuples[1][1]: exponents",
        ),
    ],
    ids=["block", "arity", "bool"],
)
def test_probe_cli_bytes_alike_under_optimize(tuples, error):
    # python -O strips assert statements; no check of the payload rests
    # on one, so stdout, stderr and the exit code do not change
    payload = json.dumps({"points": [[0, 1], [2, 3], [0, 1]], "tuples": tuples})
    src = os.path.dirname(os.path.dirname(altkit.__file__))
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-m", "altkit.cli", "probe-diagonal"]
            + ["--points", payload],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            timeout=120,
        )
        for flags in ([], ["-O"])
    )
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
        plain.returncode,
        plain.stdout,
        plain.stderr,
    )
    if error is None:
        assert plain.returncode == 0
        report = json.loads(plain.stdout)
        assert report["tuples"] == tuples and report["on_diagonal"] is True
    else:
        assert (plain.returncode, plain.stdout) == (2, b"")
        lines = plain.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith(error)


# -- _probe_points


def _env(p, n):
    return SimpleNamespace(scalars=GF(p), space=SimpleNamespace(n=n))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_probe_points_keep_the_product_list_draw(p, n):
    for seed in range(20):
        got = cli._probe_points(_env(p, n), Random(seed))
        assert got == oracle_probe_points(p, n, Random(seed))


# 2^61 - 1 and the largest prime below MAX_MODULUS = 2^64, where len() of
# range(p) no longer fits a machine word
LARGE_PRIMES = [2**61 - 1, 2**64 - 59]


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_probe_points_over_a_large_prime(p):
    # the oracle would build a list of p points; the draw is n indices
    assert _is_prime(p)
    for n in (2, 5):
        points = cli._probe_points(_env(p, n), Random(n))
        assert len(points) == len(set(points)) == n
        assert all(len(pt) == 1 and 0 <= pt[0] < p for pt in points)
        assert points == cli._probe_points(_env(p, n), Random(n))

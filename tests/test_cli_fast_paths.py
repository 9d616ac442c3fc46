"""The CLI's bulk paths against the per-item code they replaced.

``render_report`` once was ``json.dumps(report, indent=2, sort_keys=True)``
plus a newline, ``_parse_tuples`` checked a probe payload one exponent at
a time, and ``_probe_points`` sampled n points from the whole list
``itertools.product(range(p), repeat=k)``.  Each is kept here, as it was,
as the oracle: the new path must give the same bytes, the same groups,
the same error text and the same points.
"""

import itertools
import json
from importlib import resources
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altkit import cli
from altkit.cli import render_report
from altkit.errors import SchemaError
from altkit.ring_core import GF, MAX_POWER_EXPONENT, _is_prime


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


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | _ints
    | st.floats()
    | _text
    # uniform blocks of ints: the C-encoded and re-indented path
    | _int_lists(_ints, 1)
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
@example({"a": [[[1, -2], [3, 10**30]], [[0, 0], [5, 6]]], "é\x01": {}})
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


def test_int_blocks_are_found_by_type_not_value():
    assert cli._int_block_depth([1, 2]) == 1
    assert cli._int_block_depth([[[1, 2]], [[3, 4]]]) == 3
    # a bool is no int, an empty or mixed level is no block
    assert cli._int_block_depth([1, True]) == 0
    assert cli._int_block_depth([[1], []]) == 0
    assert cli._int_block_depth([[1], 2]) == 0
    assert cli._int_block_depth([[1], [[2]]]) == 0


def test_render_refuses_non_string_keys():
    # no report has one, and raising beats rendering other bytes
    for key in (1, None, (1, 2)):
        with pytest.raises(TypeError):
            render_report({"a": {key: 0}})


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

"""Driver behavior: config validation, reports, fixtures, exit codes."""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import time
from importlib import resources
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altkit import cli, gen_etale, norm_universal, span_solver
from altkit.alternator import IDENTITY_NAMES, AlternatorInstance, Witness
from altkit.cli import (
    SUITE_NAMES,
    build_instance,
    main,
    make_suite_config,
    parse_ring,
    render_report,
    run_instance,
    run_probe,
    run_suite,
)
from altkit.errors import ConfigInvalid, ParseError, SchemaError
from altkit.gen_etale import NormMapPlus
from altkit.norm_universal import NormMap
from altkit.ring_core import GF, QQ, CoeffRing, PolyRing, parse_expression
from altkit.span_solver import LocalizedElem
from altkit.tensor_algebra import Tensor


def fixture_path(name):
    return str(resources.files("altkit").joinpath("fixtures", name))


# -- configuration


def test_ring_spec_parsing():
    assert parse_ring("q") == (QQ, "q")
    assert parse_ring("Q") == (QQ, "q")
    assert parse_ring("FP:5") == (GF(5), "fp:5")
    with pytest.raises(ConfigInvalid):
        parse_ring("z")
    with pytest.raises(ConfigInvalid):
        parse_ring("fp:4")
    with pytest.raises(ConfigInvalid):
        parse_ring("fp:x")


def test_large_prime_ring_parses_fast():
    started = time.monotonic()
    assert parse_ring("fp:1000000000000000003")[1] == "fp:1000000000000000003"
    assert time.monotonic() - started < 1.0


def test_modulus_above_bound_exits_2(tmp_path, capsys):
    p = 2**64 + 13
    assert main(["verify", "--ring", f"fp:{p}", "--cases", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("altkit: ConfigInvalid: ")
    data = json.loads(open(fixture_path("sqrt2.json"), encoding="utf-8").read())
    data["algebra"]["base"] = {"kind": "Fp", "p": p}
    path = tmp_path / "huge_modulus.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["instance", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("altkit: SchemaError: $.algebra.base.p: ")


def test_config_validation():
    cfg = make_suite_config()
    assert cfg.ring_text == "q"
    assert cfg.ns == (2, 3)
    assert cfg.cases == 100
    assert cfg.identities == SUITE_NAMES
    with pytest.raises(ConfigInvalid):
        make_suite_config(cases=0)
    with pytest.raises(ConfigInvalid):
        make_suite_config(n="1,2")
    with pytest.raises(ConfigInvalid):
        make_suite_config(n="6")
    with pytest.raises(ConfigInvalid):
        make_suite_config(n="")
    with pytest.raises(ConfigInvalid):
        make_suite_config(seed=-1)
    with pytest.raises(ConfigInvalid):
        make_suite_config(seed=2**64)
    with pytest.raises(ConfigInvalid):
        make_suite_config(identities="no_such_identity")
    with pytest.raises(ConfigInvalid):
        make_suite_config(max_degree=0)
    # a bool is an int to isinstance, but no count, seed or bound
    for field in ("cases", "seed", "max_degree", "max_terms"):
        for flag in (True, False):
            with pytest.raises(ConfigInvalid, match=field):
                make_suite_config(**{field: flag})
    with pytest.raises(ConfigInvalid):
        make_suite_config(n="2", cases=True, seed=True, identities="coefficient")


def test_identity_list_canonical_order():
    cfg = make_suite_config(identities="r_span, ts_linearity, r_span")
    assert cfg.identities == ("ts_linearity", "r_span")


# -- suites


def test_small_suite_passes_everywhere():
    cfg = make_suite_config(cases=2, seed=5)
    report = run_suite(cfg)
    assert report["failures_total"] == 0
    rows = {(s["identity"], s["n"]): s for s in report["suites"]}
    assert ("r_span", 3) in rows
    assert rows[("pullback_etale", 2)]["cases_run"] == 4
    assert rows[("pullback_gen_etale", 2)]["cases_run"] == 7
    # fixture rows appear once even though two arities were configured
    assert sum(s["identity"] == "pullback_etale" for s in report["suites"]) == 1


def test_suite_over_small_prime_field():
    cfg = make_suite_config(ring="fp:2", n="2,3", cases=3, seed=9)
    report = run_suite(cfg)
    assert report["failures_total"] == 0


def test_probe_suite_over_fp2_at_arity_5(capsys):
    # five points over GF(2) need dimension 3: a grid of 125 monomials,
    # C(125, 5) minors, decided by one elimination per probe
    argv = ["verify", "--ring", "fp:2", "--n", "5", "--identity", "probe_diagonal"]
    assert main(argv + ["--cases", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failures_total"] == 0
    assert report["suites"][0]["cases_run"] == 2


def test_report_bytes_deterministic():
    cfg = make_suite_config(cases=4, seed=123)
    first = render_report(run_suite(cfg))
    second = render_report(run_suite(cfg))
    assert first == second


def test_anchor_is_built_once_per_ring_and_arity(monkeypatch):
    # run_suite calls at one (ring, n) share one anchor, and their
    # reports stay byte-identical; the anchor table that builds it is
    # the instances' table, cli._anchor
    built = []

    def counted(space, xs):
        built.append(space.n)
        return AlternatorInstance(space, xs)

    assert cli._anchor is norm_universal._anchor
    monkeypatch.setattr(norm_universal, "AlternatorInstance", counted)
    cli._anchor.cache_clear()
    cfg = make_suite_config(n="4", cases=3, seed=5, identities="trace_formula,basis")
    first = render_report(run_suite(cfg))
    second = render_report(run_suite(cfg))
    assert built == [4]
    assert first == second


def test_passing_cases_render_no_side(monkeypatch):
    # a passing case's sides are never rendered: every text routine raises
    def refuse(self):
        raise RuntimeError("a passing side was rendered")

    monkeypatch.setattr(Tensor, "to_text", refuse)
    monkeypatch.setattr(LocalizedElem, "to_text", refuse)
    suites = [name for name in SUITE_NAMES if name not in cli._FIXTURE_FILES]
    for ring in ("q", "fp:5"):
        config = make_suite_config(
            ring=ring, n="2,3,4", cases=3, seed=7, identities=",".join(suites)
        )
        report = run_suite(config)
        assert len(report["suites"]) == len(suites) * 3
        assert report["failures_total"] == 0


def test_failures_flow_into_report_and_exit_code(monkeypatch, capsys):
    import altkit.cli as cli

    def broken(env, rng):
        return Witness("ts_linearity", False, "left text", "right text")

    monkeypatch.setitem(cli._CASES, "ts_linearity", broken)
    code = main(["verify", "--identity", "ts_linearity", "--n", "2", "--cases", "3"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures_total"] == 3
    row = report["suites"][0]
    assert row["failures"][0] == {"case": 0, "lhs": "left text", "rhs": "right text"}


# -- instance loading


def test_sqrt2_instance_report():
    report = run_instance(fixture_path("sqrt2.json"))
    assert report["discriminant"] == "8"
    assert report["etale"] is True
    assert report["generically_etale"] is True
    assert report["saturation"] is None
    by_pair = {(c["i"], c["j"]): c["mapped"] for c in report["constants"]}
    assert by_pair[(2, 2)] == "(2, 0)"
    assert all(w["ok"] for w in report["witnesses"])
    assert report["failures_total"] == 0


def test_t2_minus_s_instance_report():
    report = run_instance(fixture_path("t2_minus_s.json"))
    assert report["instance"]["mode"] == "gen_etale"
    assert report["discriminant"] == "4*s"
    assert report["etale"] is False
    assert report["generically_etale"] is True
    assert report["saturation"] == {"rank": 1, "zero_ring": False}
    by_pair = {(c["i"], c["j"]): c["mapped"] for c in report["constants"]}
    assert by_pair[(2, 2)] == "(s, 0)"
    assert all(w["ok"] for w in report["witnesses"])
    assert len(report["witnesses"]) == 7


def _second_algebra(tmp_path, fixture):
    # the fixture over the same anchor with another constant in u^2:
    # u^2 = 3 for u^2 = 2, and u^2 = s + 1 for u^2 = s
    data = json.loads(open(fixture_path(fixture), encoding="utf-8").read())
    data["algebra"]["structure"][1][1][0] += "+1"
    path = tmp_path / fixture
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "fixture, built", [("sqrt2.json", "NormMap"), ("t2_minus_s.json", "NormMapPlus")]
)
def test_instance_computes_each_constant_once(monkeypatch, tmp_path, fixture, built):
    # rank 2: the unit plus three pairs i <= j, one coordinate call each,
    # on the first instance over the anchor; a second algebra over the
    # same anchor reads them from the anchor table and makes none, and
    # its report is the one it gets on a cleared table
    second = _second_algebra(tmp_path, fixture)
    cli._anchor.cache_clear()
    cold = run_instance(second)
    assert cold["failures_total"] == 0
    original = span_solver.coordinates
    calls = []

    def counted(ctx, z):
        calls.append(z)
        return original(ctx, z)

    for module in (span_solver, norm_universal, gen_etale, cli):
        if getattr(module, "coordinates", None) is original:
            monkeypatch.setattr(module, "coordinates", counted)
    maps = []
    for cls in (NormMap, NormMapPlus):
        init = cls.__init__

        # NormMap's __init__ runs NormMapPlus's too; count the built class once
        def counted_init(self, inst, init=init, cls=cls):
            if type(self) is cls:
                maps.append(cls.__name__)
            init(self, inst)

        monkeypatch.setattr(cls, "__init__", counted_init)
    cli._anchor.cache_clear()
    report = run_instance(fixture_path(fixture))
    assert report["failures_total"] == 0
    assert len(calls) == 4
    assert maps == [built]
    calls.clear()
    assert run_instance(second) == cold
    assert calls == []
    assert maps == [built, built]


@pytest.mark.parametrize(
    "fixture, mode",
    [("sqrt2.json", "etale"), ("sqrt2.json", "gen_etale"), ("t2_minus_s.json", "gen_etale")],
)
def test_instance_meets_parents_by_identity(monkeypatch, fixture, mode):
    # every polynomial points at its PolyRing, and polynomials of one
    # parent meet on `is` alone; comparing two (ring, vars) pairs per
    # operation once took 198-1067 scalar-ring comparisons per run.
    # The count repeats exactly, so this pins a count, not a timing.
    # The second call finds its anchor in the table, and the map starts
    # from the table's ring, so it meets the anchor on `is` too.
    original = CoeffRing.__eq__
    calls = []

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(CoeffRing, "__eq__", counted)
    cli._anchor.cache_clear()
    for _ in range(2):
        report = run_instance(fixture_path(fixture), mode)
        assert report["failures_total"] == 0
        assert len(calls) <= 8
        calls.clear()


def test_mode_flag_overrides_file():
    # the etale fixture still verifies through the solving route
    report = run_instance(fixture_path("sqrt2.json"), mode="gen_etale")
    assert report["instance"]["mode"] == "gen_etale"
    assert report["saturation"] == {"rank": 1, "zero_ring": False}
    assert report["failures_total"] == 0


def test_etale_mode_on_non_unit_discriminant_fails(capsys):
    code = main(
        ["instance", "--file", fixture_path("t2_minus_s.json"), "--mode", "etale"]
    )
    assert code == 2
    assert "NotEtale" in capsys.readouterr().err


def test_malformed_json_is_a_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="invalid JSON"):
        run_instance(str(bad))


def test_schema_errors_carry_paths():
    data = json.loads(open(fixture_path("sqrt2.json"), encoding="utf-8").read())
    del data["algebra"]["rank"]
    with pytest.raises(SchemaError, match=r"\$\.algebra: missing key 'rank'"):
        build_instance(data)
    data = json.loads(open(fixture_path("sqrt2.json"), encoding="utf-8").read())
    data["algebra"]["structure"][1][1][0] = "2**"
    with pytest.raises(ParseError, match=r"\$\.algebra\.structure\[1\]\[1\]"):
        build_instance(data)
    data = json.loads(open(fixture_path("sqrt2.json"), encoding="utf-8").read())
    data["tuple_x"] = ["1"]
    with pytest.raises(SchemaError, match=r"\$\.tuple_x"):
        build_instance(data)
    data = json.loads(open(fixture_path("sqrt2.json"), encoding="utf-8").read())
    data["mode"] = "banana"
    with pytest.raises(SchemaError, match=r"\$\.mode"):
        build_instance(data)


def test_unbounded_power_in_instance_fails_fast(tmp_path, capsys):
    data = json.loads(open(fixture_path("sqrt2.json"), encoding="utf-8").read())
    data["tuple_x"] = ["1", "(t+1)^100000"]
    path = tmp_path / "huge_power.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    started = time.monotonic()
    code = main(["instance", "--file", str(path)])
    assert time.monotonic() - started < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("altkit: ParseError: $.tuple_x[1]: exponent 100000")


def _power_instance(n, tuple_x):
    # Q[u]/(u^n - 2) on 1, u, ..., u^(n-1), with t -> u
    def power(k):
        vec = ["0"] * n
        vec[k % n] = str(2 ** (k // n))
        return vec

    return {
        "algebra": {
            "base": {"kind": "Q"},
            "rank": n,
            "unit": power(0),
            "structure": [[power(i + j) for j in range(n)] for i in range(n)],
        },
        "map": {"vars": ["t"], "images": [power(1)]},
        "tuple_x": tuple_x,
    }


def test_anchor_past_its_bound_exits_2(tmp_path, capsys, monkeypatch):
    # (1, t, ..., t^4) at rank 5 sits exactly on MAX_ANCHOR_ORBITS; one
    # more degree in the last entry, or a bound one below, refuses it
    # before any coordinate work (with t^4 + t^5 the norm takes 15 s)
    path = tmp_path / "anchor.json"
    powers = ["1", "t", "t^2", "t^3", "t^4"]
    for tuple_x, bound, code in (
        (powers, cli.MAX_ANCHOR_ORBITS, 0),
        (powers, cli.MAX_ANCHOR_ORBITS - 1, 2),
        (powers[:4] + ["t^4+t^5"], cli.MAX_ANCHOR_ORBITS, 2),
    ):
        monkeypatch.setattr(cli, "MAX_ANCHOR_ORBITS", bound)
        path.write_text(json.dumps(_power_instance(5, tuple_x)), encoding="utf-8")
        started = time.monotonic()
        assert main(["instance", "--file", str(path)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert time.monotonic() - started < 1.0
            assert err.startswith("altkit: SchemaError: $.tuple_x: entry degrees allow ")
            assert err.endswith(f"above MAX_ANCHOR_ORBITS = {bound}\n")
            assert len(err.splitlines()) == 1
    # M = 3*4 + 1 = 13 and C(17, 5) = 6188 orbits; the fixtures are rank
    # 2 at degree 1, M = 4 and C(5, 2) = 10
    for document, orbits in (
        (_power_instance(5, powers), 6188),
        (_fixture_document("sqrt2.json"), 10),
        (_fixture_document("t2_minus_s.json"), 10),
    ):
        inst, _ = build_instance(document)
        assert cli._anchor_orbits(inst.space.ring, inst.ctx.x) == orbits


def test_poly_base_variable_collision_rejected():
    data = json.loads(
        open(fixture_path("t2_minus_s.json"), encoding="utf-8").read()
    )
    data["map"]["vars"] = ["s"]
    with pytest.raises(SchemaError, match="collides"):
        build_instance(data)


# -- probe command


def test_probe_payloads():
    on = run_probe('{"ring": "fp:11", "points": [[0], [3], [0]]}')
    assert on["on_diagonal"] is True
    off = run_probe('{"points": [[0, 1], [3, 4]]}')
    assert off["on_diagonal"] is False
    fractional = run_probe('{"points": [["1/2"], ["1/3"]]}')
    assert fractional["on_diagonal"] is False
    custom = run_probe(
        '{"points": [[0], [1]], "tuples": [[[0], [0]]]}'
    )
    # the constant-column matrix is singular everywhere, so the probe
    # cannot separate these distinct points with only that tuple
    assert custom["on_diagonal"] is True
    with pytest.raises(SchemaError, match=r"\$\.ring"):
        run_probe('{"ring": "octonions", "points": [[0]]}')
    with pytest.raises(SchemaError, match=r"\$\.points"):
        run_probe('{"points": [[true]]}')
    with pytest.raises(ParseError):
        run_probe("[1, 2")
    # an int literal past Python's str-to-int limit is still bad JSON
    with pytest.raises(ParseError, match="invalid JSON"):
        run_probe('{"points": [[' + "1" * 5000 + "]]}")


@pytest.mark.parametrize(
    "points, tuples",
    [
        ([[0], [1]], [[["x"], [1]]]),
        ([[0], [1]], [3]),
        ([[0, 1], [1, 2]], [[[0], [1]]]),
        ([[0], [1]], [[[0, 1], [1, 0]]]),
        ([[0], [1]], [[[-1], [1]]]),
        ([[0], [1]], [[[True], [0]]]),
        ([[0], [1]], [[[10**6], [0]]]),
    ],
    ids=["text", "bare-int", "short", "long", "negative", "bool", "huge"],
)
def test_probe_bad_tuples_exit_2(capsys, points, tuples):
    payload = json.dumps({"points": points, "tuples": tuples})
    assert main(["probe-diagonal", "--points", payload]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("altkit: SchemaError: $.tuples[0]")


@pytest.mark.parametrize(
    "payload, error",
    [
        # a short group after a full one: checked before any minor, so
        # distinct and repeated points fail alike
        ({"points": [[2], [5]], "tuples": [[[0], [1]], [[0]]]}, "ArityMismatch"),
        ({"points": [[2], [2]], "tuples": [[[0], [1]], [[0]]]}, "ArityMismatch"),
        # 65 points of dimension 1: 65^3 elimination steps, just past the bound
        ({"points": [[i] for i in range(65)]}, "PreconditionViolated"),
        ({"points": [[0] * 17, [1] * 17]}, "PreconditionViolated"),
    ],
    ids=["short-group-distinct", "short-group-repeated", "grid-n65", "grid-k17"],
)
def test_probe_rejected_before_evaluation_exit_2(capsys, payload, error):
    assert main(["probe-diagonal", "--points", json.dumps(payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"altkit: {error}: ")


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _probe_payloads(draw):
    # a valid payload, or one with near-valid tuples, then at most one
    # field replaced by arbitrary JSON
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    coord = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "t", "1/0"])
    data = {
        "ring": draw(st.sampled_from(["q", "fp:2", "fp:5"])),
        "points": draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
                | st.lists(coord, min_size=dim, max_size=dim),
                min_size=n,
                max_size=n,
            )
        ),
    }
    exps = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    tuples = draw(
        st.none()
        | st.lists(st.lists(exps, min_size=n, max_size=n), max_size=3)
        | st.lists(st.lists(exps | _json_values, max_size=n + 1), max_size=3)
    )
    if tuples is not None:
        data["tuples"] = tuples
    field = draw(st.sampled_from([None, "ring", "points", "tuples"]))
    if field is not None:
        data[field] = draw(_json_values)
    return json.dumps(data)


@settings(max_examples=80, deadline=None)
@given(_probe_payloads())
def test_probe_main_never_raises(payload):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["probe-diagonal", "--points", payload])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("altkit: ")
        assert len(err.getvalue().splitlines()) == 1


# -- schema fuzzing

_PROBE_PAYLOAD = {
    "ring": "fp:5",
    "points": [[1, 2], [3, 4], [1, 2]],
    "tuples": [[[0, 0], [1, 0], [0, 1]]],
}


def _nodes(value, path=()):
    """Every (path, node) of a JSON value, the root first."""
    yield path, value
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def _mutated(draw, document):
    """One mutation of a JSON document and the key it inserts, if any.

    The mutation is an inserted key, a value of another type, or a
    dropped field.  Inserted keys start with "x_", so none is a key the
    schema names.
    """
    data = copy.deepcopy(document)
    nodes = list(_nodes(data))
    kind = draw(st.sampled_from(["insert", "swap", "drop"]))
    inserted = None
    if kind == "insert":
        objects = [node for _, node in nodes if isinstance(node, dict)]
        node = draw(st.sampled_from(objects))
        inserted = "x_" + draw(st.text(max_size=4))
        node[inserted] = draw(_json_values)
    elif kind == "swap":
        path, old = draw(st.sampled_from(nodes[1:]))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        other_type = _json_values.filter(lambda v: type(v) is not type(old))
        parent[path[-1]] = draw(other_type)
    else:
        containers = [
            node for _, node in nodes if isinstance(node, (dict, list)) and node
        ]
        node = draw(st.sampled_from(containers))
        keys = list(node) if isinstance(node, dict) else range(len(node))
        del node[draw(st.sampled_from(keys))]
    return inserted, json.dumps(data)


def _fixture_document(name):
    return json.loads(open(fixture_path(name), encoding="utf-8").read())


def _check_exit(argv, inserted):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"altkit: [A-Za-z]+: .+", lines[0])
    if inserted is not None:
        assert code == 2
        assert err.getvalue().startswith("altkit: SchemaError: ")
        assert err.getvalue().endswith(f": unknown key {inserted!r}\n")


@pytest.mark.parametrize("name", ["sqrt2.json", "t2_minus_s.json"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_instance_exits_cleanly(name, data, tmp_path_factory):
    inserted, text = data.draw(_mutated(_fixture_document(name)), label="mutation")
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_text(text, encoding="utf-8")
    _check_exit(["instance", "--file", str(path)], inserted)


@settings(max_examples=60, deadline=None)
@given(_mutated(_PROBE_PAYLOAD))
def test_mutated_probe_payload_exits_cleanly(mutation):
    inserted, text = mutation
    _check_exit(["probe-diagonal", "--points", text], inserted)


def test_unknown_keys_are_schema_errors(tmp_path, capsys):
    # a misspelt optional key used to fall back to its default: Q[s] in
    # place of GF(5)[s], and the default grid in place of the tuples
    data = _fixture_document("t2_minus_s.json")
    data["algebra"]["base"]["coeff"] = {"kind": "Fp", "p": 5}
    path = tmp_path / "coeff.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["instance", "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        "altkit: SchemaError: $.algebra.base: unknown key 'coeff'\n"
    )
    payload = {"points": [[1], [2]], "tupels": [[[0], [0]]]}
    assert main(["probe-diagonal", "--points", json.dumps(payload)]) == 2
    assert capsys.readouterr().err == (
        "altkit: SchemaError: $: unknown key 'tupels'\n"
    )
    for base, key in [
        ({"kind": "Q", "p": 5}, "p"),
        ({"kind": "Fp", "p": 5, "vars": ["s"]}, "vars"),
        ({"kind": "poly", "vars": ["s"], "scalars": {"kind": "Z", "x": 1}}, "x"),
    ]:
        data = _fixture_document("sqrt2.json")
        data["algebra"]["base"] = base
        with pytest.raises(SchemaError, match=f"unknown key '{key}'"):
            build_instance(data)
    for where, at in [
        ((), r"\$"),
        (("algebra",), r"\$\.algebra"),
        (("map",), r"\$\.map"),
    ]:
        data = _fixture_document("sqrt2.json")
        node = data
        for key in where:
            node = node[key]
        node["extra"] = 1
        with pytest.raises(SchemaError, match=at + ": unknown key 'extra'"):
            build_instance(data)


def test_probe_at_file_payload(tmp_path, capsys):
    payload = tmp_path / "pts.json"
    payload.write_text('{"points": [[2], [2]]}', encoding="utf-8")
    code = main(["probe-diagonal", "--points", f"@{payload}"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["on_diagonal"] is True


# -- entry point


def test_main_verify_roundtrip(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["verify", "--cases", "2", "--seed", "42", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text(encoding="utf-8"))
    assert report["schema_version"] == 1
    assert report["timing"] == {"wall_s": None}


def test_main_rejects_bad_config(capsys):
    code = main(["verify", "--cases", "0"])
    assert code == 2
    assert "ConfigInvalid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, bound", [("--max-degree", cli.MAX_DEGREE), ("--max-terms", cli.MAX_TERMS)]
)
def test_suite_draw_past_its_bound_exits_2(flag, bound, capsys):
    # refused before any case is drawn: at n = 5 these sizes once took
    # seconds to minutes per case
    for value in (bound + 1, 10, 10**6):
        argv = ["verify", "--n", "5", "--cases", "1", "--identity", "r_span"]
        assert main(argv + [flag, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("altkit: ConfigInvalid: ")


def test_cases_past_their_bound_exit_2(capsys):
    # refused before any case runs: a billion traceexp cases at n = 5
    # once ran until killed
    for value in (cli.MAX_CASES + 1, 10**9):
        argv = ["verify", "--n", "5", "--identity", "traceexp"]
        assert main(argv + ["--cases", str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("altkit: ConfigInvalid: cases must be ")


def test_case_bound_accepts_default_gate_and_readme_counts():
    for cases in (1, 100, 200, 500, cli.MAX_CASES):
        assert make_suite_config(cases=cases).cases == cases


def test_suite_draw_bounds_accept_defaults_and_benchmark_sizes():
    assert make_suite_config().max_degree is None
    small = make_suite_config(max_degree=1, max_terms=1)
    assert (small.max_degree, small.max_terms) == (1, 1)
    top = make_suite_config(max_degree=cli.MAX_DEGREE, max_terms=cli.MAX_TERMS)
    assert (top.max_degree, top.max_terms) == (cli.MAX_DEGREE, cli.MAX_TERMS)
    # the defaults stay inside the bounds at every arity
    for n in range(2, 6):
        degree, terms = cli._bounds(make_suite_config(n=str(n)), n)
        assert 1 <= degree <= cli.MAX_DEGREE and 1 <= terms <= cli.MAX_TERMS


def test_emit_timing_goes_to_stderr_only(capsys):
    code = main(
        [
            "verify",
            "--cases",
            "1",
            "--identity",
            "coefficient",
            "--n",
            "2",
            "--emit-timing",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "wall_s=" in captured.err
    assert "wall_s\": null" in captured.out


@pytest.mark.parametrize("ring", ["q", "fp:5"])
@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("name", [*IDENTITY_NAMES, "traceexp"])
def test_identity_suites_reach_nonzero_sides_at_high_arity(name, n, ring):
    # the default draws at n >= 4 have degree <= 2 in one variable, so
    # their slots take at most 3 values and every alternating side is 0;
    # with --max-degree 4 the rows see passing cases with nonzero sides
    config = make_suite_config(ring=ring, n=str(n), max_degree=4, identities=name)
    scalars, ring_text = parse_ring(ring)
    degree, terms = cli._bounds(config, n)
    env = cli._RowEnv(scalars, n, degree, terms)
    nonzero = 0
    for index in range(200):
        rng = Random(cli._case_seed(config.seed, name, ring_text, n, index))
        w = cli._CASES[name](env, rng)
        assert w.ok
        if w.lhs or w.rhs:
            nonzero += 1
            if nonzero == 3:
                break
    assert nonzero == 3


def _sqrt2_with_entry(text):
    data = json.loads(open(fixture_path("sqrt2.json"), encoding="utf-8").read())
    data["tuple_x"] = ["1", text]
    return json.dumps(data)


_DEEP_TERM = "(" * 1000 + "t" + ")" * 1000
_DEEP_COEFF = "(" * 1000 + "1" + ")" * 1000


@pytest.mark.parametrize(
    "command, text, error",
    [
        ("probe-diagonal", "[" * 10000, "altkit: ParseError: --points: invalid JSON: "),
        ("instance", "[" * 10000, "altkit: ParseError: deep.json: invalid JSON: "),
        (
            "instance",
            _sqrt2_with_entry(_DEEP_TERM),
            "altkit: ParseError: $.tuple_x[1]: expression nested too deeply\n",
        ),
        (
            "instance",
            _sqrt2_with_entry("-" * 1000 + "t"),
            "altkit: ParseError: $.tuple_x[1]: expression nested too deeply\n",
        ),
        (
            "probe-diagonal",
            json.dumps({"points": [[_DEEP_COEFF], ["2"]]}),
            "altkit: ParseError: $.points[0][0]: expression nested too deeply\n",
        ),
    ],
    ids=["json-points", "json-file", "parens", "signs", "point-string"],
)
def test_deep_input_is_a_parse_error(tmp_path, command, text, error):
    # nesting past the recursion limit, in JSON or in an expression, ends
    # in one ParseError line and exit 2 with and without python -O
    if command == "instance":
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        args = ["instance", "--file", str(path)]
    else:
        args = ["probe-diagonal", "--points", text]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "altkit.cli", *args],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr.startswith(error) and done.stderr.count("\n") == 1


def _bad_input_args(kind, tmp_path):
    # the argv of one bad input, and the start of its one error line
    sqrt2 = json.loads(open(fixture_path("sqrt2.json"), encoding="utf-8").read())
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "\xff"}')
    missing = str(tmp_path / "missing" / "report.json")
    if kind == "instance-bytes":
        return ["instance", "--file", str(latin1)], f"ParseError: {latin1}: "
    if kind == "probe-bytes":
        args = ["probe-diagonal", "--points", f"@{latin1}"]
        return args, f"ParseError: {latin1}: "
    if kind == "map-vars":
        sqrt2["map"]["vars"] = ["t", "t"]
        sqrt2["map"]["images"] *= 2
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(sqrt2), encoding="utf-8")
        error = "SchemaError: $.map.vars: duplicate variable\n"
        return ["instance", "--file", str(path)], error
    out = missing if kind.endswith("missing") else str(tmp_path)
    args = {
        "verify": ["verify", "--n", "2", "--cases", "1"],
        "instance": ["instance", "--file", fixture_path("sqrt2.json")],
        "probe": ["probe-diagonal", "--points", '{"points": [[1], [2]]}'],
    }[kind.split("-")[0]]
    return [*args, "--out", out], f"ConfigInvalid: --out {out}: "


@pytest.mark.parametrize(
    "kind",
    [
        "instance-bytes",
        "probe-bytes",
        "map-vars",
        "verify-out-missing",
        "verify-out-dir",
        "instance-out-missing",
        "instance-out-dir",
        "probe-out-missing",
        "probe-out-dir",
    ],
)
def test_bad_files_and_names_exit_2(tmp_path, kind):
    # a file that is not UTF-8, an --out path that cannot be written and a
    # repeated map variable each end in one altkit: line and exit 2, with
    # and without python -O
    args, error = _bad_input_args(kind, tmp_path)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "altkit.cli", *args],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr.startswith(f"altkit: {error}"), done.stderr
        assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--cases", "abc"],
        ["instance"],
        ["bogus"],
        [],
        ["verify", "--nope"],
        ["instance", "--file", "x", "--mode", "bad"],
    ],
    ids=["bad-int", "no-file", "bad-command", "no-command", "bad-flag", "bad-mode"],
)
def test_usage_errors_are_one_line(args):
    # argparse would print its usage and an "altkit ...: error:" line; a
    # usage error ends like any bad input instead, in one ConfigInvalid
    # line and exit 2, with and without python -O
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "altkit.cli", *args],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr.startswith("altkit: ConfigInvalid: "), done.stderr
        assert done.stderr.count("\n") == 1


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: altkit ")


def test_row_draws_share_the_anchor_ring(monkeypatch):
    # a row's draws live in its anchor's own ring, so each meets the
    # anchor by identity rather than through PolyRing.__eq__
    seen = []
    real = cli.trace_formula_check

    def recorded(ctx, z):
        seen.append(z.parent is ctx.space.ring is ctx.x[0].parent)
        return real(ctx, z)

    monkeypatch.setattr(cli, "trace_formula_check", recorded)
    cfg = make_suite_config(n="2,3", cases=3, identities="trace_formula")
    assert run_suite(cfg)["failures_total"] == 0
    assert seen == [True] * 6


def test_moderate_nesting_still_parses():
    ring = PolyRing(QQ, ("t",))
    t = ring.variable("t")
    assert parse_expression("(" * 100 + "t" + ")" * 100, ring) == t
    assert parse_expression("-" * 100 + "t", ring) == t

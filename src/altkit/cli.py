"""Verification driver: seeded suites, instance checks, JSON reports.

The report writer is deliberately boring.  Every value is text, an int
or a bool, keys are sorted, and nothing wall-clock-dependent goes into
the JSON; timing is written to stderr on request instead.  Identical
configuration must give identical report bytes.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources
from random import Random

from . import __version__
from .alternator import (
    IDENTITY_NAMES,
    Witness,
    check_identity,
    random_case,
    random_element,
    random_invariant,
)
from .errors import (
    AltkitError,
    ConfigInvalid,
    ParseError,
    SchemaError,
    UnsupportedBase,
)
from .gen_etale import (
    NormMapPlus,
    _ExponentBlock,
    b_plus,
    check_pullback_plus,
    diagonal_support_probe,
    is_generically_etale,
    verify_pullback_plus,
)
from .norm_universal import (
    NormMap,
    PullbackInstance,
    _anchor,
    anchor_side,
    check_pullback,
    trace_formula_check,
    traceexp_check,
    vector_text,
    verify_pullback,
)
from .ring_core import (
    GF,
    MAX_POWER_EXPONENT,
    QQ,
    ZZ,
    AlgebraMap,
    FiniteFreeAlgebra,
    PolyRing,
)
from .span_solver import coordinates, coordinates_of_invariant
from .tensor_algebra import MAX_ARITY

__all__ = [
    "SUITE_NAMES",
    "SuiteConfig",
    "make_suite_config",
    "run_suite",
    "run_instance",
    "run_probe",
    "render_report",
    "main",
]

SCHEMA_VERSION = 1

# --max-degree and --max-terms size every random draw of a suite case.
# At both bounds the dearest n = 5 case measured, traceexp over fp:5,
# takes 0.2-0.35 s (see README's input bounds)
MAX_DEGREE = 4
MAX_TERMS = 4

# --cases of one verify run: with the arity and draw bounds it caps the
# work of every suite row
MAX_CASES = 1000

# the fully invariant numerators an instance file's anchor leads to: in
# each slot, every coordinate numerator has degree at most 2*D_v in each
# source variable v, and a fraction's numerator over the alternator
# square at most 3*D_v, for D_v the anchor's largest degree in v.  With
# M = prod_v (3*D_v + 1) such a numerator has at most C(M + n - 1, n)
# orbits of keys.  The norm expands them row by row with shared
# prefixes, at most C(n, i) column sets times the distinct sub-multisets
# of i labels at row i, and an entry that alpha(x) does not divide
# takes one product of alternating orbits per pair of its orbits and
# alpha(x)'s.  The bound is the value of the rank-5 anchor
# (1, t, ..., t^4); the dearest accepted instances measured are in
# README's input bounds
MAX_ANCHOR_ORBITS = 6188

# every suite the verify command knows; the first six take random data,
# the pullback pair replays bundled fixtures, the probe draws point sets
SUITE_NAMES = IDENTITY_NAMES + (
    "traceexp",
    "trace_formula",
    "basis",
    "pullback_etale",
    "pullback_gen_etale",
    "probe_diagonal",
)

_FIXTURE_FILES = {
    "pullback_etale": "sqrt2.json",
    "pullback_gen_etale": "t2_minus_s.json",
}


def parse_ring(text):
    """Ring spec to (scalars, canonical text); "q" or "fp:<p>"."""
    spec = str(text).strip().lower()
    if spec == "q":
        return QQ, "q"
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ConfigInvalid(f"bad modulus in ring spec {text!r}") from None
        try:
            return GF(p), f"fp:{p}"
        except UnsupportedBase as e:
            raise ConfigInvalid(str(e)) from None
    raise ConfigInvalid(f"unknown ring spec {text!r}; expected q or fp:<p>")


@dataclass(frozen=True)
class SuiteConfig:
    ring_text: str
    ns: tuple
    cases: int
    seed: int
    max_degree: int | None
    max_terms: int | None
    identities: tuple


def _parse_ns(n):
    if isinstance(n, str):
        parts = [p.strip() for p in n.split(",") if p.strip()]
        try:
            ns = [int(p) for p in parts]
        except ValueError:
            raise ConfigInvalid(f"bad arity list {n!r}") from None
    else:
        ns = list(n)
    if not ns:
        raise ConfigInvalid("empty arity list")
    for k in ns:
        if not isinstance(k, int) or not 2 <= k <= MAX_ARITY:
            raise ConfigInvalid(f"arity {k!r} outside 2..{MAX_ARITY}")
    return tuple(sorted(set(ns)))


def _parse_identities(identities):
    if isinstance(identities, str):
        parts = [p.strip() for p in identities.split(",") if p.strip()]
    else:
        parts = list(identities)
    if not parts:
        raise ConfigInvalid("empty identity list")
    if "all" in parts:
        return SUITE_NAMES
    for p in parts:
        if p not in SUITE_NAMES:
            raise ConfigInvalid(
                f"unknown identity {p!r}; known: {', '.join(SUITE_NAMES)}"
            )
    return tuple(name for name in SUITE_NAMES if name in set(parts))


def make_suite_config(
    ring="q",
    n="2,3",
    cases=100,
    seed=0,
    max_degree=None,
    max_terms=None,
    identities="all",
):
    _, ring_text = parse_ring(ring)
    ns = _parse_ns(n)
    # type() and not isinstance(): a bool is no count, seed or bound
    if type(cases) is not int or not 1 <= cases <= MAX_CASES:
        raise ConfigInvalid(
            f"cases must be an integer in 1..{MAX_CASES}, got {cases!r}"
        )
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ConfigInvalid(f"seed must fit in 64 bits, got {seed!r}")
    for label, bound, top in (
        ("max_degree", max_degree, MAX_DEGREE),
        ("max_terms", max_terms, MAX_TERMS),
    ):
        if bound is not None and (type(bound) is not int or not 1 <= bound <= top):
            raise ConfigInvalid(
                f"{label} must be an integer in 1..{top}, got {bound!r}"
            )
    return SuiteConfig(
        ring_text=ring_text,
        ns=ns,
        cases=cases,
        seed=seed,
        max_degree=max_degree,
        max_terms=max_terms,
        identities=_parse_identities(identities),
    )


def _case_seed(seed, suite, ring_text, n, index):
    # a per-case generator keyed by position, so case order cannot leak
    # into the drawn data
    tag = f"{seed}:{suite}:{ring_text}:{n}:{index}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def _bounds(config, n):
    # identities are multilinear, so small sparse inputs carry the same
    # evidence; n = 4 and up shrink further to keep orbit sums quick
    degree = config.max_degree if config.max_degree else (3 if n < 4 else 2)
    terms = config.max_terms if config.max_terms else (3 if n < 4 else 2)
    return degree, terms


def _identity_case(name):
    def run(env, rng):
        data = random_case(name, rng, env.space, env.max_terms, env.max_degree)
        return check_identity(name, env.space, data)

    return run


def _traceexp_case(env, rng):
    ys = tuple(
        random_element(rng, env.space, env.max_terms, env.max_degree)
        for _ in range(env.space.n)
    )
    return traceexp_check(env.ctx, ys)


def _trace_formula_case(env, rng):
    z = random_element(rng, env.space, env.max_terms, env.max_degree)
    return trace_formula_check(env.ctx, z)


def _basis_case(env, rng):
    # the coordinate routines re-check their reconstruction identities
    # and raise VerificationFailed; reaching the return means both held
    y = random_invariant(rng, env.space, env.max_degree, full=False)
    coordinates_of_invariant(env.ctx, y)
    z = random_element(rng, env.space, env.max_terms, env.max_degree)
    coordinates(env.ctx, z)
    return Witness("basis", True)


def _probe_points(env, rng):
    scalars, n = env.scalars, env.space.n
    if scalars.kind == "Fp":
        p, k = scalars.p, 1
        while p**k < n:
            k += 1
        size = p**k
        if size <= sys.maxsize:
            # the indices sample() would pick from the product list itself
            picks = rng.sample(range(size), n)
        else:
            # len() of a range this long overflows; n is tiny beside it,
            # so a repeat is all but impossible and is redrawn
            picks = []
            while len(picks) < n:
                i = rng.randrange(size)
                if i not in picks:
                    picks.append(i)
        # index i as k base-p digits, most significant first: the i-th
        # tuple of itertools.product(range(p), repeat=k)
        return [tuple(i // p**j % p for j in reversed(range(k))) for i in picks]
    k = 1 + rng.randrange(2)
    points, seen = [], set()
    while len(points) < n:
        p = tuple(rng.randint(-9, 9) for _ in range(k))
        if p not in seen:
            seen.add(p)
            points.append(p)
    return points


def _probe_case(env, rng):
    points = _probe_points(env, rng)
    name = "probe_diagonal"
    if diagonal_support_probe(env.scalars, points):
        return Witness(
            name, False, f"distinct points {points}", "expected off-diagonal"
        )
    repeated = list(points)
    repeated[-1] = repeated[0]
    if not diagonal_support_probe(env.scalars, repeated):
        return Witness(
            name, False, f"repeated points {repeated}", "expected on-diagonal"
        )
    return Witness(name, True)


# every case returns its Witness; a passing case's sides are never rendered
_CASES = {name: _identity_case(name) for name in IDENTITY_NAMES}
_CASES["traceexp"] = _traceexp_case
_CASES["trace_formula"] = _trace_formula_case
_CASES["basis"] = _basis_case
_CASES["probe_diagonal"] = _probe_case


class _RowEnv:
    """Shared per-row state: the anchor tuple (1, t, ..., t^(n-1)) of the
    row's ring and arity, from the instances' anchor table, and its tensor
    power, which every draw of the row lives in."""

    def __init__(self, scalars, n, max_degree, max_terms):
        self.scalars = scalars
        powers = tuple((((i,), scalars.one()),) for i in range(n))
        self.ctx = _anchor(scalars, ("t",), powers).ctx
        self.space = self.ctx.space
        self.max_degree = max_degree
        self.max_terms = max_terms


def _run_row(name, scalars, config, n):
    max_degree, max_terms = _bounds(config, n)
    env = _RowEnv(scalars, n, max_degree, max_terms)
    case = _CASES[name]

    failures = []
    for index in range(config.cases):
        rng = Random(_case_seed(config.seed, name, config.ring_text, n, index))
        try:
            w = case(env, rng)
        except AltkitError as e:
            w = Witness(name, False, f"{type(e).__name__}: {e}", "")
        if not w.ok:
            failures.append({"case": index, "lhs": w.lhs_text, "rhs": w.rhs_text})
    return {
        "identity": name,
        "ring": config.ring_text,
        "n": n,
        "cases_run": config.cases,
        "failures": failures,
    }


def _bundled_fixture(filename):
    path = resources.files("altkit").joinpath("fixtures", filename)
    return _load_json(path.read_text(encoding="utf-8"), filename)


def _fixture_row(name):
    filename = _FIXTURE_FILES[name]
    inst, meta = build_instance(_bundled_fixture(filename))
    verifier = verify_pullback if meta["mode"] == "etale" else verify_pullback_plus
    witnesses = verifier(inst)
    failures = [
        {"case": i, "lhs": w.lhs_text, "rhs": w.rhs_text}
        for i, w in enumerate(witnesses)
        if not w.ok
    ]
    return {
        "identity": name,
        "ring": "q",
        "n": inst.E.rank,
        "cases_run": len(witnesses),
        "failures": failures,
    }


def run_suite(config):
    """Execute every configured suite row; see SUITE_NAMES for vocabulary.

    Fixture-backed rows ignore the ring/arity/cases settings: they replay
    the bundled instance and count its witnesses as cases.
    """
    scalars, _ = parse_ring(config.ring_text)
    suites = []
    for name in config.identities:
        if name in _FIXTURE_FILES:
            suites.append(_fixture_row(name))
            continue
        for n in config.ns:
            suites.append(_run_row(name, scalars, config, n))
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "altkit", "version": __version__},
        "config": {
            "ring": config.ring_text,
            "n": list(config.ns),
            "cases": config.cases,
            "seed": config.seed,
            "max_degree": config.max_degree,
            "max_terms": config.max_terms,
            "identities": list(config.identities),
        },
        "suites": suites,
        "failures_total": sum(len(s["failures"]) for s in suites),
        "timing": {"wall_s": None},
    }


# ---------------------------------------------------------------------------
# instance files


def _expect(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _field(obj, key, path, kind=None):
    _expect(isinstance(obj, dict), path, "expected an object")
    _expect(key in obj, path, f"missing key {key!r}")
    value = obj[key]
    if kind is not None:
        _expect(isinstance(value, kind), f"{path}.{key}", "wrong type")
    return value


def _known_keys(obj, keys, path):
    """Reject a key the schema does not name.

    An optional key that is misspelt would otherwise be ignored, and its
    default would be checked in place of the value the file states.
    """
    for key in obj:
        if key not in keys:
            raise SchemaError(f"{path}: unknown key {key!r}")


def _load_json(text, where):
    try:
        return json.loads(text)
    # JSONDecodeError, an over-long int literal, or nesting past the
    # decoder's recursion limit
    except (ValueError, RecursionError) as e:
        raise ParseError(f"{where}: invalid JSON: {e}") from None


# the keys each kind of base may carry
_BASE_KEYS = {
    "Q": ("kind",),
    "Z": ("kind",),
    "Fp": ("kind", "p"),
    "poly": ("kind", "vars", "scalars"),
}


def _var_names(obj, path):
    """The variable names at obj["vars"]: a nonempty list of distinct
    identifiers."""
    names = _field(obj, "vars", path, list)
    _expect(bool(names), f"{path}.vars", "needs at least one variable")
    for v in names:
        _expect(
            isinstance(v, str) and v.isidentifier(),
            f"{path}.vars",
            f"bad variable name {v!r}",
        )
    _expect(len(set(names)) == len(names), f"{path}.vars", "duplicate variable")
    return names


def _build_base(spec, path):
    _expect(isinstance(spec, dict), path, "expected an object")
    kind = _field(spec, "kind", path, str)
    if kind in _BASE_KEYS:
        _known_keys(spec, _BASE_KEYS[kind], path)
    if kind == "Q":
        return QQ
    if kind == "Z":
        return ZZ
    if kind == "Fp":
        p = _field(spec, "p", path, int)
        try:
            return GF(p)
        except UnsupportedBase as e:
            raise SchemaError(f"{path}.p: {e}") from None
    if kind == "poly":
        names = _var_names(spec, path)
        scalars = _build_base(
            spec.get("scalars", {"kind": "Q"}), f"{path}.scalars"
        )
        _expect(
            not isinstance(scalars, PolyRing),
            f"{path}.scalars",
            "nested polynomial scalars unsupported",
        )
        return PolyRing(scalars, tuple(names))
    raise SchemaError(f"{path}.kind: unknown base kind {kind!r}")


def _parse_coeff(base, text, path):
    _expect(isinstance(text, str), path, "coefficients are strings")
    try:
        return base.parse(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def _parse_vector(base, vec, rank, path):
    _expect(isinstance(vec, list), path, "expected a list")
    _expect(len(vec) == rank, path, f"expected {rank} entries")
    return tuple(
        _parse_coeff(base, entry, f"{path}[{i}]") for i, entry in enumerate(vec)
    )


def _anchor_orbits(source, xs):
    box = 1
    for v in range(len(source.vars)):
        box *= 3 * max((key[v] for x in xs for key in x.terms), default=0) + 1
    return math.comb(box + len(xs) - 1, len(xs))


def build_instance(data):
    """Instance JSON to a PullbackInstance plus its metadata.

    A polynomial base slots its variables in front of the map variables,
    so the anchor ring sees them as ordinary generators mapping to scalar
    multiples of the unit.
    """
    _expect(isinstance(data, dict), "$", "expected a top-level object")
    _known_keys(data, ("name", "mode", "algebra", "map", "tuple_x"), "$")
    mode = data.get("mode", "etale")
    _expect(mode in ("etale", "gen_etale"), "$.mode", f"unknown mode {mode!r}")
    name = data.get("name", "")
    _expect(isinstance(name, str), "$.name", "expected a string")

    alg = _field(data, "algebra", "$", dict)
    _known_keys(alg, ("base", "rank", "unit", "structure"), "$.algebra")
    base = _build_base(_field(alg, "base", "$.algebra"), "$.algebra.base")
    rank = _field(alg, "rank", "$.algebra", int)
    _expect(2 <= rank <= MAX_ARITY, "$.algebra.rank", f"outside 2..{MAX_ARITY}")
    unit = _parse_vector(
        base, _field(alg, "unit", "$.algebra"), rank, "$.algebra.unit"
    )
    rows = _field(alg, "structure", "$.algebra", list)
    _expect(len(rows) == rank, "$.algebra.structure", f"expected {rank} rows")
    structure = []
    for i, row in enumerate(rows):
        _expect(
            isinstance(row, list) and len(row) == rank,
            f"$.algebra.structure[{i}]",
            f"expected {rank} entries",
        )
        structure.append(
            tuple(
                _parse_vector(base, vec, rank, f"$.algebra.structure[{i}][{j}]")
                for j, vec in enumerate(row)
            )
        )
    E = FiniteFreeAlgebra(base, rank, tuple(structure), unit)

    map_spec = _field(data, "map", "$", dict)
    _known_keys(map_spec, ("vars", "images"), "$.map")
    map_vars = _var_names(map_spec, "$.map")
    images_spec = _field(map_spec, "images", "$.map", list)
    _expect(
        len(images_spec) == len(map_vars),
        "$.map.images",
        "one image per map variable",
    )
    if isinstance(base, PolyRing):
        _expect(
            not set(base.vars) & set(map_vars),
            "$.map.vars",
            "collides with a base variable",
        )
        source = PolyRing(base.coeff, tuple(base.vars) + tuple(map_vars))
        images = [
            E.element([base.variable(v) * c for c in unit]) for v in base.vars
        ]
    else:
        source = PolyRing(base, tuple(map_vars))
        images = []
    images.extend(
        E.element(_parse_vector(base, vec, rank, f"$.map.images[{i}]"))
        for i, vec in enumerate(images_spec)
    )

    tuple_x = _field(data, "tuple_x", "$", list)
    _expect(len(tuple_x) == rank, "$.tuple_x", f"expected {rank} entries")
    xs = []
    for i, text in enumerate(tuple_x):
        _expect(isinstance(text, str), f"$.tuple_x[{i}]", "entries are strings")
        try:
            xs.append(source.parse(text))
        except ParseError as e:
            raise ParseError(f"$.tuple_x[{i}]: {e}") from None
    orbits = _anchor_orbits(source, xs)
    _expect(
        orbits <= MAX_ANCHOR_ORBITS,
        "$.tuple_x",
        f"entry degrees allow {orbits} numerator orbits, above "
        f"MAX_ANCHOR_ORBITS = {MAX_ANCHOR_ORBITS}",
    )
    # a map from the anchor table's ring meets the anchor by identity
    ctx = anchor_side(source, xs).ctx
    f = AlgebraMap(ctx.space.ring, E, images)
    return PullbackInstance(f, ctx.x), {"mode": mode, "name": name}


def run_instance(path, mode=None):
    """Load an instance file, verify it, report the mapped constants."""
    text = _read_text(path)
    inst, meta = build_instance(_load_json(text, os.path.basename(path)))
    mode = mode or meta["mode"]
    base = inst.E.base
    if mode == "etale":
        witnesses, rows = check_pullback(inst, NormMap(inst))
        saturation = None
    else:
        witnesses, rows = check_pullback_plus(inst, NormMapPlus(inst))
        quotient = b_plus(inst)
        saturation = {
            "rank": quotient.rank,
            "zero_ring": quotient.is_zero_ring,
        }
    failures = sum(1 for w in witnesses if not w.ok)
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "altkit", "version": __version__},
        "instance": {
            "file": os.path.basename(str(path)),
            "name": meta["name"],
            "mode": mode,
        },
        "discriminant": base.to_text(inst.d),
        "etale": inst.is_etale,
        "generically_etale": is_generically_etale(inst),
        "saturation": saturation,
        "constants": [
            {
                "i": i + 1,
                "j": j + 1,
                "mapped": vector_text(base, mapped),
                "expected": vector_text(base, direct),
            }
            for i, j, _, mapped, direct in rows
        ],
        "witnesses": [
            {"name": w.name, "ok": w.ok, "lhs": w.lhs_text, "rhs": w.rhs_text}
            for w in witnesses
        ],
        "failures_total": failures,
    }


# ---------------------------------------------------------------------------
# point probes


def _parse_tuples(tuples, dim):
    """The explicit minors of a probe payload, checked.

    Exponent vectors match the point dimension (when there is a point)
    and share the expression parser's exponent bound.  The whole payload
    is checked in bulk, every exponent once; only when a check fails does
    the per-item loop run, to name the first bad entry.  When every
    group has one nonzero length and every vector is nonempty, the
    groups come back as one immutable block of row tuples, which the
    probe keys and the report renders as they are; ragged or empty
    groups come back as given.
    """
    if type(tuples) is not list or not set(map(type, tuples)) <= {list}:
        return _parse_tuples_each(tuples, dim)
    monos = list(itertools.chain.from_iterable(tuples))
    if not set(map(type, monos)) <= {list}:
        return _parse_tuples_each(tuples, dim)
    lengths = set(map(len, monos))
    if dim is not None and not lengths <= {dim}:
        return _parse_tuples_each(tuples, dim)
    exps = list(itertools.chain.from_iterable(monos))
    # type() and not isinstance(): a bool is no exponent
    if not set(map(type, exps)) <= {int}:
        return _parse_tuples_each(tuples, dim)
    values = set(exps)
    if values and not (0 <= min(values) and max(values) <= MAX_POWER_EXPONENT):
        return _parse_tuples_each(tuples, dim)
    sizes = set(map(len, tuples))
    if len(sizes) != 1 or 0 in sizes | lengths:
        return tuples
    # zip regroups the rows in C, size at a time; the distinct rows are
    # keyed here once, for the probe's columns and the renderer's memo
    rows = list(map(tuple, monos))
    block = _ExponentBlock(zip(*[iter(rows)] * sizes.pop()))
    block.columns = list(dict.fromkeys(rows))
    return block


def _parse_tuples_each(tuples, dim):
    _expect(isinstance(tuples, list), "$.tuples", "expected a list")
    groups = []
    for g, group in enumerate(tuples):
        _expect(isinstance(group, list), f"$.tuples[{g}]", "expected a list")
        for m, mono in enumerate(group):
            path = f"$.tuples[{g}][{m}]"
            _expect(isinstance(mono, list), path, "expected a list")
            _expect(
                dim is None or len(mono) == dim, path, f"expected {dim} exponents"
            )
            for e in mono:
                _expect(
                    type(e) is int and 0 <= e <= MAX_POWER_EXPONENT,
                    path,
                    f"exponents are integers in 0..{MAX_POWER_EXPONENT}",
                )
        groups.append(tuple(tuple(mono) for mono in group))
    return groups


def run_probe(payload):
    """Probe a JSON point set: {"ring", "points", optional "tuples"}.

    The tuples are checked once, and the checked block is what the probe
    reads and what the report echoes.
    """
    data = _load_json(payload, "--points")
    _expect(isinstance(data, dict), "$", "expected a top-level object")
    _known_keys(data, ("ring", "points", "tuples"), "$")
    try:
        scalars, ring_text = parse_ring(data.get("ring", "q"))
    except ConfigInvalid as e:
        raise SchemaError(f"$.ring: {e}") from None
    raw_points = _field(data, "points", "$", list)
    points = []
    for i, point in enumerate(raw_points):
        _expect(isinstance(point, list), f"$.points[{i}]", "expected a list")
        coords = []
        for j, c in enumerate(point):
            if isinstance(c, bool) or not isinstance(c, (int, str)):
                raise SchemaError(
                    f"$.points[{i}][{j}]: coordinates are ints or strings"
                )
            coords.append(
                _parse_coeff(scalars, c, f"$.points[{i}][{j}]")
                if isinstance(c, str)
                else c
            )
        points.append(tuple(coords))
    tuples = data.get("tuples")
    if tuples is not None:
        tuples = _parse_tuples(tuples, len(points[0]) if points else None)
    on_diagonal = diagonal_support_probe(scalars, points, tuples)
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "altkit", "version": __version__},
        "ring": ring_text,
        "points": raw_points,
        "tuples": tuples,
        "on_diagonal": on_diagonal,
        "failures_total": 0,
    }


# ---------------------------------------------------------------------------
# entry point


_escape = json.encoder.encode_basestring_ascii


def render_report(report):
    """The report as JSON text: 2-space indent, sorted keys, ASCII escapes.

    Byte for byte ``json.dumps(report, indent=2, sort_keys=True)`` plus a
    newline, in one pass that appends to a single list.  A probe's checked
    exponent block has a three-level writer, which builds the text of each
    distinct row once; every other value, plain lists too, is walked item
    by item.  Every key is a string: any other key raises TypeError.  A
    list or dict that holds itself raises ValueError, as json.dumps does.
    """
    out = []
    try:
        _render(report, 0, out)
    except RecursionError:
        # only a deep report gets here, so the common path checks nothing
        if _is_circular(report):
            raise ValueError("Circular reference detected") from None
        raise
    out.append("\n")
    return "".join(out)


def _is_circular(value):
    """Does some list, tuple or dict in value hold itself?"""
    on_path, done = set(), set()
    stack = [(value, False)]
    while stack:
        node, leaving = stack.pop()
        if leaving:
            on_path.discard(id(node))
            done.add(id(node))
        elif isinstance(node, (list, tuple, dict)):
            if id(node) in on_path:
                return True
            if id(node) not in done:
                on_path.add(id(node))
                stack.append((node, True))
                children = node.values() if isinstance(node, dict) else node
                stack.extend((child, False) for child in children)
    return False


def _render_int_block(block, indent, out):
    # a checked block is groups of rows of exact ints (_parse_tuples), and
    # lists its distinct rows itself; the text of each is built once, keyed
    # by the row, which is sound only because every leaf is an exact int:
    # (True, 0) == (1, 0)
    pads = ["\n" + "  " * (indent + lv) for lv in range(4)]
    sep = "," + pads[3]
    head, tail = "[" + pads[3], pads[2] + "]"
    text = {
        row: head + sep.join(map(int.__repr__, row)) + tail for row in block.columns
    }.__getitem__
    sep = "," + pads[2]
    head, tail = "[" + pads[2], pads[1] + "]"
    groups = [head + sep.join(map(text, group)) + tail for group in block]
    out.append("[" + pads[1] + ("," + pads[1]).join(groups) + pads[0] + "]")


def _render(value, indent, out):
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "\n" + "  " * (indent + 1)
        out.append("{")
        for key in sorted(value):
            out.append(sep)
            out.append(_escape(key))
            out.append(": ")
            _render(value[key], indent + 1, out)
            sep = ",\n" + "  " * (indent + 1)
        out.append("\n" + "  " * indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        if kind is _ExponentBlock:
            _render_int_block(value, indent, out)
            return
        sep = "\n" + "  " * (indent + 1)
        out.append("[")
        for item in value:
            out.append(sep)
            _render(item, indent + 1, out)
            sep = ",\n" + "  " * (indent + 1)
        out.append("\n" + "  " * indent + "]")
    else:  # a float, or a str or int subclass
        out.append(json.dumps(value))


def _read_text(path):
    # an input file as UTF-8 text; a file that cannot be read, or is not
    # UTF-8, is a ParseError
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}") from None


def _emit(report, out):
    text = render_report(report)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigInvalid(f"--out {out}: {e}") from None
    else:
        sys.stdout.write(text)
    return 0 if report.get("failures_total", 0) == 0 else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigInvalid, so they
    end in one ``altkit:`` line like every other bad input; its
    subcommands are built from the same class."""

    def error(self, message):
        raise ConfigInvalid(message)


def _build_parser():
    parser = _Parser(
        prog="altkit",
        description="Exact verification of alternator identities and norm maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run seeded identity suites")
    verify.add_argument("--ring", default="q", help="q or fp:<p> (default q)")
    verify.add_argument("--n", default="2,3", help="comma list of arities")
    verify.add_argument("--cases", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--identity",
        default="all",
        help="comma list from: " + ", ".join(SUITE_NAMES) + ", or all",
    )
    verify.add_argument("--max-degree", type=int, default=None)
    verify.add_argument("--max-terms", type=int, default=None)
    verify.add_argument("--out", default=None, help="write report to a file")
    verify.add_argument(
        "--emit-timing",
        action="store_true",
        help="print wall time to stderr; the report itself stays untimed",
    )

    instance = sub.add_parser("instance", help="verify one instance file")
    instance.add_argument("--file", required=True)
    instance.add_argument(
        "--mode",
        choices=("etale", "gen_etale"),
        default=None,
        help="override the file's own mode",
    )
    instance.add_argument("--out", default=None)

    probe = sub.add_parser(
        "probe-diagonal", help="repeated-point test for a point set"
    )
    probe.add_argument(
        "--points",
        required=True,
        help='JSON text {"ring", "points", "tuples"?}, or @file to read it',
    )
    probe.add_argument("--out", default=None)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "verify":
            config = make_suite_config(
                ring=args.ring,
                n=args.n,
                cases=args.cases,
                seed=args.seed,
                max_degree=args.max_degree,
                max_terms=args.max_terms,
                identities=args.identity,
            )
            started = time.monotonic()
            report = run_suite(config)
            if args.emit_timing:
                print(
                    f"wall_s={time.monotonic() - started:.3f}",
                    file=sys.stderr,
                )
        elif args.command == "instance":
            report = run_instance(args.file, args.mode)
        else:
            payload = args.points
            if payload.startswith("@"):
                payload = _read_text(payload[1:])
            report = run_probe(payload)
        return _emit(report, args.out)
    except AltkitError as e:
        print(f"altkit: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

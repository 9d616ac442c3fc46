"""Saturation quotients, the solving norm map on pair fractions, the probe."""

import itertools
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import altkit
from altkit.alternator import alpha
from altkit.errors import (
    ArityMismatch,
    DivisionFails,
    NotGenericallyEtale,
    PreconditionViolated,
    UnsupportedBase,
)
from altkit.gen_etale import (
    MAX_PROBE_WORK,
    BPlus,
    NormMapPlus,
    b_plus,
    diagonal_support_probe,
    is_generically_etale,
    is_nonzerodivisor,
    verify_pullback_plus,
)
from altkit.norm_universal import PullbackInstance, trace_pairing_det
from altkit.ring_core import (
    GF,
    QQ,
    ZZ,
    AlgebraMap,
    FiniteFreeAlgebra,
    PolyRing,
    _scalar_embedding,
    det_generic,
)
from altkit.span_solver import LocalizedElem, coordinates
from altkit.tensor_algebra import TensorSpace
from norm_helpers import (
    alternator_pair_presentation,
    monogenic,
    monogenic_source,
    power_anchor,
)


def sqrt2_algebra(scalars=QQ):
    structure = (((1, 0), (0, 1)), ((0, 1), (2, 0)))
    return FiniteFreeAlgebra(scalars, 2, structure, (1, 0))


def dual_numbers():
    structure = (((1, 0), (0, 1)), ((0, 1), (0, 0)))
    return FiniteFreeAlgebra(QQ, 2, structure, (1, 0))


def split_algebra():
    structure = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
    return FiniteFreeAlgebra(QQ, 2, structure, (1, 1))


def theta_instance():
    # rank 2 over Q[s], second generator squares to s
    B = PolyRing(QQ, ("s",))
    s = B.variable("s")
    one, zero = B.one(), B.zero()
    structure = (((one, zero), (zero, one)), ((zero, one), (s, zero)))
    E = FiniteFreeAlgebra(B, 2, structure, (one, zero))
    source = PolyRing(QQ, ("s", "t"))
    f = AlgebraMap(source, E, [E.element((s, zero)), E.basis_elem(1)])
    return PullbackInstance(f, [source.one(), source.variable("t")]), B, s


def simple_instance(alg, scalars=QQ):
    source = PolyRing(scalars, ("t",))
    f = AlgebraMap(source, alg, [alg.basis_elem(1)])
    return PullbackInstance(f, [source.one(), source.variable("t")])


# -- nonzerodivisor tests and saturation


def test_nonzerodivisor_basic():
    assert is_nonzerodivisor(QQ, 3)
    assert not is_nonzerodivisor(QQ, 0)
    B = PolyRing(QQ, ("s",))
    assert is_nonzerodivisor(B, B.variable("s"))
    assert not is_nonzerodivisor(B, B.zero())
    dual = dual_numbers()
    assert not is_nonzerodivisor(dual, dual.basis_elem(1))
    alg = sqrt2_algebra()
    assert is_nonzerodivisor(alg, alg.basis_elem(1))


def test_bplus_on_domains():
    B = PolyRing(QQ, ("s",))
    s = B.variable("s")
    bp = BPlus(B, s * 4)
    assert not bp.is_zero_ring
    assert bp.rank == 1
    assert bp.reduce(s) == s
    dead = BPlus(QQ, 0)
    assert dead.is_zero_ring
    assert dead.rank == 0
    assert dead.reduce(1) is None


def test_bplus_kills_nilpotent_discriminant():
    # base Q[s]/(s^2): multiplying by 4s eventually kills everything
    structure = (((1, 0), (0, 1)), ((0, 1), (0, 0)))
    B = FiniteFreeAlgebra(QQ, 2, structure, (1, 0))
    d = B.basis_elem(1) * 4
    bp = BPlus(B, d)
    assert bp.is_zero_ring
    assert bp.rank == 0


def test_bplus_splits_off_support():
    # base Q x Q with discriminant (1, 0): the second factor dies
    B = split_algebra()
    bp = BPlus(B, B.element((1, 0)))
    assert not bp.is_zero_ring
    assert bp.rank == 1
    assert bp.reduce(B.element((3, 5))).coords == (3,)
    assert bp.reduce(B.element((0, 7))).coords == (0,)


def test_bplus_refuses_non_field_towers():
    zalg = sqrt2_algebra(ZZ)
    with pytest.raises(UnsupportedBase):
        BPlus(zalg, zalg.one())


def test_instance_flags_and_bplus():
    inst, B, s = theta_instance()
    assert not inst.is_etale
    assert is_generically_etale(inst)
    bp = b_plus(inst)
    assert not bp.is_zero_ring and bp.rank == 1

    dead = simple_instance(dual_numbers())
    assert dead.d == 0
    assert not is_generically_etale(dead)
    assert b_plus(dead).is_zero_ring
    with pytest.raises(NotGenericallyEtale):
        NormMapPlus(dead)


# -- the solving norm map


def test_plus_map_pair_goldens():
    inst, B, s = theta_instance()
    nm = NormMapPlus(inst)
    source = inst.space.ring
    t = source.variable("t")
    assert nm.pair_image((t, t * t), inst.ctx.x) == -s
    assert nm.pair_image(inst.ctx.x, (source.one(), t * t)) == B.zero()
    x = inst.ctx.x
    assert nm.fraction_image([(1, ((x, x),))], 1) == B.one()


def test_pair_of_the_wrong_length_raises():
    # a determinant of a non-square pairing, or of one on too many
    # entries, is no image of any pair fraction
    inst = theta_instance()[0]
    nm = NormMapPlus(inst)
    x, t = inst.ctx.x, inst.space.ring.variable("t")
    for ys, zs in [((t,), x), ((t,), (t,)), (x + (t,), x + (t,))]:
        with pytest.raises(ArityMismatch):
            nm.pair_image(ys, zs)
        with pytest.raises(ArityMismatch):
            nm.fraction_image([(1, ((x, x), (ys, zs)))], 2)


def test_plus_map_structure_constant_goldens():
    inst, B, s = theta_instance()
    nm = NormMapPlus(inst)
    t = inst.space.ring.variable("t")
    c = coordinates(inst.ctx, t * t)
    assert nm.localized_image(c[0]) == s
    assert nm.localized_image(c[1]) == B.zero()


def test_plus_map_division_guard():
    inst, B, s = theta_instance()
    nm = NormMapPlus(inst)
    with pytest.raises(DivisionFails):
        nm._divide(B.one(), 1)


def test_verify_pullback_plus_theta():
    inst, B, s = theta_instance()
    witnesses = verify_pullback_plus(inst)
    assert len(witnesses) == 7
    assert all(w.ok for w in witnesses)


def test_verify_pullback_plus_integer_base():
    # over the integers the discriminant 8 is a nonzerodivisor, not a unit
    inst = simple_instance(sqrt2_algebra(ZZ), scalars=ZZ)
    assert not inst.is_etale
    assert is_generically_etale(inst)
    witnesses = verify_pullback_plus(inst)
    assert all(w.ok for w in witnesses)
    nm = NormMapPlus(inst)
    t = inst.space.ring.variable("t")
    c = coordinates(inst.ctx, t * t)
    assert nm.localized_image(c[0]) == 2
    assert nm.localized_image(c[1]) == 0


def pairing_sum(inst, num):
    # num * alpha_sq as a sum of pairs alpha(x) * alpha(w) over num's
    # presentation, each pair taken to its trace-pairing determinant
    emb = _scalar_embedding(inst.space.scalars, inst.E.base)
    total = inst.E.base.zero()
    for c, w in alternator_pair_presentation(inst.ctx, num):
        total = total + emb(c) * trace_pairing_det(inst, inst.ctx.x, w)
    return total


def unit_inverse_image(inst, le):
    # the etale route before one map: times d^-1, once per square and once
    # for the presentation
    base = inst.E.base
    d_inv = base.divide_exact(base.one(), inst.d)
    total = pairing_sum(inst, le.num)
    for _ in range(le.exp + 1):
        total = total * d_inv
    return base.normalize(total)


def normalized_image(inst, le):
    # normalize first, then divide the pairing sum once by d^(exp + 1)
    base = inst.E.base
    le = le.normalize()
    quot = base.divide_exact(
        pairing_sum(inst, le.num), base.normalize(inst.d ** (le.exp + 1))
    )
    if quot is None:
        raise DivisionFails("no quotient")
    return base.normalize(quot)


def _image_or_missing(route, *args):
    try:
        return route(*args)
    except DivisionFails:
        return DivisionFails


_QS = PolyRing(QQ, ("s",))
_GF5S = PolyRing(GF(5), ("s",))

# monogenic instances of ranks 3-5: the base, the tail of u^r with "s"
# for the base variable, and how many extra squares a fraction may take
_MONOGENIC = {
    "u^3=s*u+1/Q[s]": (_QS, (1, "s", 0), 2),
    "u^4=s/GF(5)[s]": (_GF5S, ("s", 0, 0, 0), 0),
    "u^5=2/Q": (QQ, (2, 0, 0, 0, 0), 0),
}


def _oracle_instance(name):
    if name == "sqrt2/Q":
        return simple_instance(sqrt2_algebra())
    if name == "sqrt2/Z":
        return simple_instance(sqrt2_algebra(ZZ), scalars=ZZ)
    if name == "theta":
        return theta_instance()[0]
    base, tail, _ = _MONOGENIC[name]
    tail = [base.variable(c) if c == "s" else base.from_int(c) for c in tail]
    source, f = monogenic_source(monogenic(base, tail))
    return PullbackInstance(f, power_anchor(source, len(tail)))


def _draw_poly(data, ring, bound):
    # degree and coefficients up to bound, in t and, when the ring has
    # it, s
    t = ring.variable("t")
    z = ring.zero()
    for e in range(data.draw(st.integers(0, bound), label="degree") + 1):
        c = data.draw(st.integers(-bound, bound), label="coefficient")
        if "s" in ring.vars and data.draw(st.booleans(), label="times s"):
            z = z + ring.variable("s") * t**e * c
        else:
            z = z + t**e * c
    return z


@pytest.mark.parametrize("name", ["sqrt2/Q", "sqrt2/Z", "theta"])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_norm_map_is_a_ring_map_on_pair_fractions(name, data):
    # a pair fraction alpha(y)*alpha(z)/alpha_sq as a localized element;
    # its image, and the images of sums and products, against the pair
    # images computed on their own
    inst = _oracle_instance(name)
    nm = NormMapPlus(inst)
    space, base = inst.space, inst.E.base

    def draw_pair():
        return tuple(
            tuple(_draw_poly(data, space.ring, 2) for _ in range(space.n))
            for _ in range(2)
        )

    def fraction(pair):
        num = alpha(space, pair[0]) * alpha(space, pair[1])
        return LocalizedElem(inst.ctx, num, 1)

    p, q = draw_pair(), draw_pair()
    a, b = fraction(p), fraction(q)
    image_a, image_b = nm.pair_image(*p), nm.pair_image(*q)
    assert nm.localized_image(a) == image_a
    assert nm.localized_image(a * b) == base.normalize(image_a * image_b)
    assert nm.localized_image(a + b) == base.normalize(image_a + image_b)
    c = data.draw(st.integers(-3, 3), label="scale")
    assert nm.fraction_image([(c, (p, q))], 2) == base.normalize(
        image_a * image_b * c
    )


@pytest.mark.parametrize(
    "name", ["sqrt2/Q", "sqrt2/Z", "theta"] + sorted(_MONOGENIC)
)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_localized_image_matches_both_old_routes(name, data):
    inst = _oracle_instance(name)
    ctx, ring = inst.ctx, inst.space.ring
    z = _draw_poly(data, ring, 3)
    squares = 2
    if name in _MONOGENIC:
        # past degree rank - 1, so that the coordinates are fractions;
        # the square has thousands of terms at rank 4 and 5, so fewer
        # extra squares there
        r = inst.E.rank
        z = z * ring.variable("t") ** data.draw(st.integers(r - 3, r - 1))
        squares = _MONOGENIC[name][2]
    i = data.draw(st.integers(0, inst.E.rank - 1), label="entry")
    entry = coordinates(ctx, z)[i]
    # the same fraction, not normalized: num * asq^k over asq^(exp + k);
    # one more square below may leave it without an image over Z or Q[s]
    k = data.draw(st.integers(0, squares), label="extra squares")
    over = data.draw(st.integers(0, 1), label="extra denominator")
    num = entry.num
    for _ in range(k):
        num = num * ctx.alpha_sq
    padded = LocalizedElem(ctx, num, entry.exp + k + over)
    image = _image_or_missing(NormMapPlus(inst).localized_image, padded)
    assert image == _image_or_missing(normalized_image, inst, padded)
    if inst.is_etale:
        assert image == unit_inverse_image(inst, padded)
    if not over:
        # both land on the coordinate computed in the algebra itself
        assert image == inst.E.base.normalize(inst.basis_coords(inst.f(z))[i])


_CORRUPTED_NORM_SCRIPT = """
import sys
from altkit.gen_etale import NormMapPlus, check_pullback_plus
from altkit.norm_universal import NormMap, PullbackInstance, check_pullback
from altkit.ring_core import QQ, AlgebraMap, FiniteFreeAlgebra, PolyRing

stripped = True
try:
    assert False
except AssertionError:
    stripped = False
print("optimize", sys.flags.optimize, stripped)
alg = FiniteFreeAlgebra(QQ, 2, (((1, 0), (0, 1)), ((0, 1), (2, 0))), (1, 0))
source = PolyRing(QQ, ("t",))
t = source.variable("t")
f = AlgebraMap(source, alg, [alg.basis_elem(1)])
for check, norm_map in ((check_pullback, NormMap), (check_pullback_plus, NormMapPlus)):
    inst = PullbackInstance(f, [source.one(), t])
    # the memoised matrix of f(t), doubled: only the norm reads it
    inst._mult[(1,)] = [[2 * a for a in row] for row in alg.mult_matrix(inst.fx[1])]
    witnesses, _ = check(inst, norm_map(inst))
    print(" ".join(w.name for w in witnesses if not w.ok))
    print(" ".join(w.name for w in witnesses if w.name.startswith("pair_route") and w.ok))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_corrupted_norm_fails_the_pullback_witness(flags):
    # python -O strips assert statements; a wrong norm must still fail
    # the pullback witness through both norm maps, and the pair route,
    # which never reads the norm, must stay ok
    src = os.path.dirname(os.path.dirname(altkit.__file__))
    done = subprocess.run(
        [sys.executable, *flags, "-c", _CORRUPTED_NORM_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    optimized = 1 if flags else 0
    assert done.stdout.splitlines() == [
        f"optimize {optimized} {bool(flags)}",
        "pullback[2,2]",
        "",
        "pullback_plus[2,2]",
        "pair_route[1,1] pair_route[1,2] pair_route[2,2]",
    ]


_CORRUPTED_ORBIT_NORM_SCRIPT = """
import sys
from altkit import norm_universal
from altkit.gen_etale import NormMapPlus, check_pullback_plus
from altkit.norm_universal import NormMap, PullbackInstance, check_pullback
from altkit.ring_core import QQ, AlgebraMap, FiniteFreeAlgebra, PolyRing

stripped = True
try:
    assert False
except AssertionError:
    stripped = False
print("optimize", sys.flags.optimize, stripped)
# the orbit norm, off by one on every numerator
real = norm_universal.norm_orbits
norm_universal.norm_orbits = lambda inst, orbits: inst.E.base.normalize(
    real(inst, orbits) + 1
)
alg = FiniteFreeAlgebra(QQ, 2, (((1, 0), (0, 1)), ((0, 1), (2, 0))), (1, 0))
source = PolyRing(QQ, ("t",))
t = source.variable("t")
f = AlgebraMap(source, alg, [alg.basis_elem(1)])
for check, norm_map in ((check_pullback, NormMap), (check_pullback_plus, NormMapPlus)):
    inst = PullbackInstance(f, [source.one(), t])
    witnesses, _ = check(inst, norm_map(inst))
    print(" ".join(w.name for w in witnesses if not w.ok))
    print(" ".join(w.name for w in witnesses if w.name.startswith("pair_route") and w.ok))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_corrupted_orbit_norm_fails_the_pullback_witnesses(flags):
    # every coordinate fraction reaches the norm through norm_orbits, so
    # an orbit norm that is off fails every pullback witness under both
    # maps, with or without -O, and the pair route, which never reads
    # the norm, stays ok
    src = os.path.dirname(os.path.dirname(altkit.__file__))
    done = subprocess.run(
        [sys.executable, *flags, "-c", _CORRUPTED_ORBIT_NORM_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    optimized = 1 if flags else 0
    assert done.stdout.splitlines() == [
        f"optimize {optimized} {bool(flags)}",
        "pullback[unit] pullback[1,1] pullback[1,2] pullback[2,2]",
        "",
        "pullback_plus[unit] pullback_plus[1,1] pullback_plus[1,2] "
        "pullback_plus[2,2]",
        "pair_route[1,1] pair_route[1,2] pair_route[2,2]",
    ]


_FAILING_ANCHOR_SCRIPT = """
import sys
from altkit import span_solver
from altkit.errors import AltkitError
from altkit.norm_universal import NormMap, PullbackInstance, _anchor, check_pullback
from altkit.ring_core import QQ, AlgebraMap, FiniteFreeAlgebra, PolyRing

stripped = True
try:
    assert False
except AssertionError:
    stripped = False
print("optimize", sys.flags.optimize, stripped)
alg = FiniteFreeAlgebra(QQ, 2, (((1, 0), (0, 1)), ((0, 1), (2, 0))), (1, 0))
source = PolyRing(QQ, ("t",))
t = source.variable("t")
f = AlgebraMap(source, alg, [alg.basis_elem(1)])
_anchor.cache_clear()


def attempt(read):
    try:
        return read()
    except AltkitError as e:
        return f"{type(e).__name__}: {e}"


# a repeated entry: alpha(x) = 0 raises on every call and stores nothing
for _ in range(2):
    print(attempt(lambda: PullbackInstance(f, [t, t])), _anchor.cache_info().currsize)
# a reconstruction that fails: the anchor is stored, its constants never
inst = PullbackInstance(f, [source.one(), t])
real = span_solver.wedge_orbits
span_solver.wedge_orbits = lambda space, w, terms: {
    k: 2 * c for k, c in real(space, w, terms).items()
}
for _ in range(2):
    print(attempt(lambda: inst.anchor.constants), "constants" in vars(inst.anchor))
span_solver.wedge_orbits = real
again = PullbackInstance(f, [source.one(), t])
witnesses, _ = check_pullback(again, NormMap(again))
print(again.anchor is inst.anchor, sum(not w.ok for w in witnesses))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_failing_anchor_raises_on_every_call(flags):
    # the anchor table keeps no failure as a success: a dependent anchor
    # raises each time and is not stored, and constants whose
    # reconstruction check fails raise on every read and are not kept,
    # with or without -O; once the check holds again they pass
    src = os.path.dirname(os.path.dirname(altkit.__file__))
    done = subprocess.run(
        [sys.executable, *flags, "-c", _FAILING_ANCHOR_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    optimized = 1 if flags else 0
    dependent = "NotABasis: alpha(x) = 0: the anchor entries are linearly dependent 0"
    broken = (
        "VerificationFailed: coordinate expansion failed to reconstruct "
        "the input False"
    )
    assert done.stdout.splitlines() == [
        f"optimize {optimized} {bool(flags)}",
        dependent,
        dependent,
        broken,
        broken,
        "True 0",
    ]


# -- repeated-point probe


def test_probe_one_variable():
    assert not diagonal_support_probe(QQ, [(0,), (1,), (2,)])
    assert diagonal_support_probe(QQ, [(1,), (1,), (2,)])
    assert diagonal_support_probe(QQ, [(3,), (3,)])
    assert not diagonal_support_probe(QQ, [(Fraction(1, 2),), (2,)])


def test_probe_two_variables():
    assert not diagonal_support_probe(QQ, [(0, 0), (0, 1), (1, 0)])
    assert diagonal_support_probe(QQ, [(0, 0), (0, 1), (0, 0)])


def test_probe_prime_field():
    F = GF(11)
    assert not diagonal_support_probe(F, [(3,), (7,)])
    assert diagonal_support_probe(F, [(5,), (5,)])
    assert not diagonal_support_probe(F, [(1, 2), (1, 3), (4, 2)])
    assert diagonal_support_probe(F, [(1, 2), (1, 3), (1, 2)])


def test_probe_custom_tuples_and_guards():
    # a single explicit determinant: the classic one-variable matrix
    assert not diagonal_support_probe(QQ, [(2,), (5,)], tuples=[((0,), (1,))])
    # constant monomials alone cannot separate anything
    assert diagonal_support_probe(QQ, [(2,), (5,)], tuples=[((0,), (0,))])
    with pytest.raises(ArityMismatch):
        diagonal_support_probe(QQ, [])
    with pytest.raises(ArityMismatch):
        diagonal_support_probe(QQ, [(1,), (1, 2)])
    with pytest.raises(ArityMismatch):
        diagonal_support_probe(QQ, [(1,), (2,)], tuples=[((0,),)])


# the determinant enumeration the rank test replaced, kept as its oracle


def _probe_by_determinants(scalars, points, tuples=None):
    n = len(points)
    k = len(points[0])
    pts = [
        tuple(
            scalars.normalize(scalars.from_int(c) if isinstance(c, int) else c)
            for c in p
        )
        for p in points
    ]
    if tuples is None:
        grid = list(itertools.product(range(n), repeat=k))
        tuples = itertools.combinations(grid, n)

    def mono(point, exps):
        acc = scalars.one()
        for c, e in zip(point, exps):
            for _ in range(e):
                acc = acc * c
        return acc

    for monos in tuples:
        if len(monos) != n:
            raise ArityMismatch(f"need {n} monomials per determinant")
        rows = [[mono(p, m) for m in monos] for p in pts]
        if not scalars.is_zero(scalars.normalize(det_generic(rows))):
            return False
    return True


_PROBE_RINGS = [QQ, ZZ, GF(2), GF(5)]


@st.composite
def _probe_points(draw):
    scalars = draw(st.sampled_from(_PROBE_RINGS))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 2))
    if scalars.kind == "Fp":
        coord = st.integers(0, scalars.p - 1)
    elif scalars.kind == "Q":
        coord = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    else:
        coord = st.integers(-3, 3)
    points = draw(st.lists(st.tuples(*[coord] * k), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        points[i] = points[j]
    return scalars, points


@settings(max_examples=150, deadline=None)
@given(_probe_points())
def test_probe_rank_matches_determinants_on_the_grid(case):
    scalars, points = case
    assert diagonal_support_probe(scalars, points) == _probe_by_determinants(
        scalars, points
    )


@st.composite
def _explicit_tuples(draw, n, k):
    mono = st.tuples(*[st.integers(0, 3)] * k)
    groups = []
    for _ in range(draw(st.integers(0, 4))):
        group = draw(st.lists(mono, min_size=n, max_size=n))
        shape = draw(st.sampled_from(["random", "duplicate", "constant"]))
        if shape == "duplicate" and n > 1:
            group[-1] = group[0]
        elif shape == "constant":
            # the constant monomial beside nonconstant ones: the minor
            # separates points that the others alone may not
            group[0] = (0,) * k
        groups.append(group)
    return groups


@settings(max_examples=300, deadline=None)
@given(_probe_points(), st.data())
def test_probe_rank_matches_determinants_on_explicit_tuples(case, data):
    scalars, points = case
    tuples = data.draw(_explicit_tuples(len(points), len(points[0])))
    fast = diagonal_support_probe(scalars, points, tuples)
    assert fast == _probe_by_determinants(scalars, points, tuples)


@settings(max_examples=100, deadline=None)
@given(_probe_points(), st.data())
def test_probe_wrong_group_length_always_raises(case, data):
    # every group's length is checked before any minor, so the error
    # does not depend on where the bad group sits
    scalars, points = case
    n, k = len(points), len(points[0])
    tuples = data.draw(_explicit_tuples(n, k))
    length = data.draw(st.sampled_from([0, n - 1, n + 1]).filter(lambda m: m != n))
    bad = [(0,) * k] * length
    tuples.insert(data.draw(st.integers(0, len(tuples))), bad)
    with pytest.raises(ArityMismatch):
        diagonal_support_probe(scalars, points, tuples)


def test_probe_high_dimension_is_fast():
    points = [(1, 2, 3, 4), (0, 5, -1, 2), (7, 7, 0, 1), (1, 2, 3, 4)]
    started = time.monotonic()
    assert diagonal_support_probe(QQ, points)
    assert not diagonal_support_probe(QQ, points[:3] + [(2, 2, 3, 4)])
    assert time.monotonic() - started < 1


def test_probe_work_is_bounded():
    # the grid bound counts n^2 per monomial: 64 points of dimension 1
    # are exactly at it, 65 are past it, and a huge dimension fails
    # before n^k is formed
    assert 64**3 == MAX_PROBE_WORK
    assert not diagonal_support_probe(GF(67), [(i,) for i in range(64)])
    with pytest.raises(PreconditionViolated, match="MAX_PROBE_WORK"):
        diagonal_support_probe(GF(67), [(i,) for i in range(65)])
    with pytest.raises(PreconditionViolated):
        diagonal_support_probe(QQ, [(0,) * 10**6, (1,) * 10**6])
    # explicit groups count n^2 per distinct monomial plus n^3 per group
    one_point = [(3,)]
    groups = [[(e,)] for e in range(MAX_PROBE_WORK // 2)]
    assert not diagonal_support_probe(QQ, one_point, groups)
    with pytest.raises(PreconditionViolated):
        diagonal_support_probe(QQ, one_point, groups + [[(0,)]] * 2)


@pytest.mark.parametrize("exponent", [-1, True, 1.0])
def test_probe_exponents_are_non_negative_ints(exponent):
    # 2**-1 is the float 0.5: the probe would leave exact arithmetic
    with pytest.raises(PreconditionViolated, match="non-negative"):
        diagonal_support_probe(ZZ, [(2,), (3,)], [[(exponent,), (0,)]])

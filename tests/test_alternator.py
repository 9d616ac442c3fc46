"""Alternating sums: values, linearity, and the six exchange identities."""

import operator
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import Phase, assume, event, find, given, settings
from hypothesis import strategies as st

import altkit
from altkit.alternator import (
    IDENTITY_NAMES,
    _arrangements,
    _orbit_pairs,
    _pattern,
    _signed_reindex,
    AlternatorInstance,
    IdentityData,
    Witness,
    alpha,
    alpha_map,
    alpha_n11,
    alpha_orbits,
    check_identity,
    det_power_sums,
    divide_orbits,
    divide_symmetric,
    expand_orbits,
    expand_symmetric,
    random_case,
    random_invariant,
    random_tensor,
    flat_orbits,
    multiply_alternating,
    multiply_symmetric,
    signed_orbits,
    symmetric_orbits,
    wedge_orbits,
)
from altkit.errors import (
    ArityMismatch,
    IndexOutOfRange,
    PreconditionViolated,
    UnsupportedAmbient,
)
from altkit.ring_core import (
    GF,
    QQ,
    ZZ,
    FiniteFreeAlgebra,
    MultiPoly,
    PolyRing,
    det_generic,
    dict_divide_exact,
    quotient_factor,
)
from altkit.span_solver import tensor_divide_exact
from altkit.tensor_algebra import (
    Permutation,
    Tensor,
    TensorSpace,
    all_signed_permutations,
    coprojection,
    is_symmetric,
    polarized_power_sum,
    pure_tensor,
    unit_tensor,
)

RT = PolyRing(QQ, ("t",))


def space(n, ring=RT):
    return TensorSpace(n, ring)


def brute_force_alpha(sp, xs):
    """Sum of signed permuted pure tensors, written out directly."""
    acc = sp.zero()
    for images in permutations(range(sp.n)):
        perm = Permutation(images)
        term = pure_tensor(sp, [xs[images[i]] for i in range(sp.n)])
        acc = acc + term.scale(sp.scalars.from_int(perm.sign()))
    return acc


def alpha_via_det(sp, xs):
    """The determinant of the co-projections of xs, an independent route
    to alpha: entry (p, q) is x_q in slot p."""
    rows = [[coprojection(sp, p, x) for x in xs] for p in range(1, sp.n + 1)]
    return det_generic(rows)


def oracle_signed_sum(t, fix_last):
    """The loop the one-key-per-orbit sum replaced: every term reindexed
    by every permutation of the alternated slots, and the results merged."""
    space = t.space
    n, width = space.n, space.width
    acc = {}
    for perm, sign in all_signed_permutations(n - 1 if fix_last else n):
        images = perm.images + (n - 1,) if fix_last else perm.images
        idx = tuple(images[i] * width + c for i in range(n) for c in range(width))
        if sign > 0:
            for key, c in t.terms.items():
                k = tuple(key[j] for j in idx)
                s = acc.get(k)
                acc[k] = c if s is None else s + c
        else:
            for key, c in t.terms.items():
                k = tuple(key[j] for j in idx)
                s = acc.get(k)
                acc[k] = -c if s is None else s - c
    return Tensor(space, acc)


SIGNED_SUM_RINGS = {"q": QQ, "z": ZZ, "fp:2": GF(2), "fp:5": GF(5)}


def exact(t):
    # equal values can differ in type (2 against Fraction(2)); that must match too
    return {k: (type(c), c) for k, c in t.terms.items()}


@st.composite
def signed_sum_cases(draw):
    ring = draw(st.sampled_from(sorted(SIGNED_SUM_RINGS)))
    scalars = SIGNED_SUM_RINGS[ring]
    n = draw(st.integers(1, 5))
    w = draw(st.integers(1, 2))
    fix_last = draw(st.booleans())
    label = st.tuples(*[st.integers(0, 5 if w == 1 else 2)] * w)
    # distinct slots give whole orbits; free draws repeat slots often
    slot_lists = st.one_of(
        st.lists(label, min_size=n, max_size=n, unique=True),
        st.lists(label, min_size=n, max_size=n),
    )
    key = slot_lists.map(lambda slots: tuple(v for s in slots for v in s))
    raw = st.tuples(st.integers(-4, 4), st.integers(1, 3))
    terms = {}
    for k, (a, b) in draw(st.lists(st.tuples(key, raw), max_size=6)):
        terms[k] = scalars.from_int(a) if ring != "q" else Fraction(a, b)
    # a permuted copy with coefficient sign * (d - c) brings its orbit's
    # sum to d: 0 cancels it, and an integer d turns fractions into one
    m = n - 1 if fix_last else n
    picks = st.lists(st.sampled_from(sorted(terms)), max_size=2) if terms else st.just([])
    for k in draw(picks):
        perm, sign = draw(st.sampled_from(all_signed_permutations(m)))
        d = scalars.from_int(draw(st.sampled_from((0, 0, 1, -2))))
        images = perm.images + tuple(range(m, n))
        moved = tuple(k[images[i] * w + c] for i in range(n) for c in range(w))
        terms[moved] = d - terms[k] if sign > 0 else terms[k] - d
    sp = TensorSpace(n, PolyRing(scalars, ("s", "t")[:w]))
    return Tensor(sp, terms), fix_last


@settings(max_examples=300, deadline=None)
@given(signed_sum_cases())
def test_signed_sum_matches_the_reindexing_loop(case):
    t, fix_last = case
    got = alpha_n11(t) if fix_last else alpha_map(t)
    assert exact(got) == exact(oracle_signed_sum(t, fix_last))


@pytest.mark.parametrize("ring", sorted(SIGNED_SUM_RINGS))
def test_signed_sum_of_zero_and_of_repeated_slots(ring):
    scalars = SIGNED_SUM_RINGS[ring]
    sp = TensorSpace(3, PolyRing(scalars, ("t",)))
    one = scalars.one()
    assert not alpha_map(sp.zero()) and not alpha_n11(sp.zero())
    # two equal alternated slots cancel, also where -1 = 1
    repeated = Tensor(sp, {(1, 1, 2): one, (0, 2, 0): one})
    assert not alpha_map(repeated)
    assert alpha_n11(repeated) == oracle_signed_sum(repeated, True)
    assert len(alpha_n11(repeated).terms) == 2
    # distinct slots fill their whole orbit, one key per permutation
    assert len(alpha_map(Tensor(sp, {(2, 0, 1): one})).terms) == 6
    # a term and its transposed copy with equal coefficients cancel
    pair = Tensor(sp, {(0, 1, 2): one, (1, 0, 2): one})
    assert not alpha_map(pair) and not alpha_n11(pair)


def test_signed_sum_normalizes_merged_orbits():
    # 1/2 at a key and -1/2 at its transposition merge to the integer 1
    sp = TensorSpace(2, PolyRing(QQ, ("t",)))
    half = Tensor(sp, {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)})
    assert exact(alpha_map(half)) == {(0, 1): (int, 1), (1, 0): (int, -1)}
    assert exact(alpha_map(half)) == exact(oracle_signed_sum(half, False))


def test_alpha_golden_n2():
    sp = space(2)
    t = RT.variable("t")
    a = alpha(sp, [RT.one(), t])
    assert a.terms == {(0, 1): 1, (1, 0): -1}
    assert a.to_text() == "1*[1|t] - 1*[t|1]"


def test_alpha_vanishes_on_repeats():
    sp = space(3)
    t = RT.variable("t")
    assert not alpha(sp, [t, t, t * t])
    assert not alpha(space(2), [t + 1, t + 1])


def test_alpha_antisymmetric_in_arguments():
    sp = space(2)
    t = RT.variable("t")
    assert alpha(sp, [t, t * t]) == -alpha(sp, [t * t, t])


def test_alpha_matches_brute_force_and_det():
    rng = random.Random(11)
    for n in (1, 2, 3):
        sp = space(n)
        for _ in range(8):
            xs = [
                sum(
                    (rng.randint(-2, 2) * RT.variable("t") ** k for k in range(3)),
                    RT.zero(),
                )
                for _ in range(n)
            ]
            direct = alpha(sp, xs)
            assert direct == brute_force_alpha(sp, xs)
            assert direct == alpha_via_det(sp, xs)


def test_alpha_map_is_linear_and_alternating():
    sp = space(3)
    rng = random.Random(5)
    t1 = random_tensor(rng, sp, 3, 3)
    t2 = random_tensor(rng, sp, 3, 3)
    assert alpha_map(t1 + t2) == alpha_map(t1) + alpha_map(t2)
    assert alpha_map(t1.scale(7)) == alpha_map(t1).scale(7)
    swap = Permutation.transposition(3, 0, 2)
    assert alpha_map(t1.permute(swap)) == -alpha_map(t1)


def test_alpha_map_output_is_antisymmetric():
    sp = space(3)
    rng = random.Random(6)
    out = alpha_map(random_tensor(rng, sp, 4, 3))
    swap = Permutation.transposition(3, 1, 2)
    assert out.permute(swap) == -out


def test_alpha_n11_identity_at_n2():
    sp = space(2)
    t = RT.variable("t")
    x = pure_tensor(sp, [t, t * t])
    assert alpha_n11(x) == x


def test_alpha_n11_alternates_leading_slots():
    sp = space(3)
    t = RT.variable("t")
    x = pure_tensor(sp, [RT.one(), t, t * t])
    got = alpha_n11(x)
    # 1 (x) t - t (x) 1 in the first two slots, t^2 fixed in the last
    assert got.terms == {(0, 1, 2): 1, (1, 0, 2): -1}
    swapped = x.permute(Permutation.transposition(3, 0, 1))
    assert alpha_n11(swapped) == -got


def test_alpha_n1_degenerate():
    sp = space(1)
    t = RT.variable("t")
    x = pure_tensor(sp, [t + 2])
    assert alpha_map(x) == x
    assert alpha_n11(x) == x
    assert alpha(sp, [t]) == pure_tensor(sp, [t])


def test_instance_caches_square():
    sp = space(2)
    t = RT.variable("t")
    inst = AlternatorInstance(sp, [RT.one(), t])
    assert inst.alpha_sq.terms == {(0, 2): 1, (1, 1): -2, (2, 0): 1}
    assert inst.alpha_sq.to_text() == "1*[1|t^2] - 2*[t|t] + 1*[t^2|1]"
    assert is_symmetric(inst.alpha_sq)
    assert inst.x_dropped(1).terms == {(1, 0): 1}  # (t) (x) 1
    assert inst.x_replaced(2, t * t) == (RT.one(), t * t)


def test_instance_slots_out_of_range():
    sp = space(3)
    t = RT.variable("t")
    inst = AlternatorInstance(sp, [RT.one(), t, t * t])
    for i in (0, 4, -1):
        with pytest.raises(IndexOutOfRange):
            inst.x_replaced(i, t)
        with pytest.raises(IndexOutOfRange):
            inst.x_dropped(i)
    assert inst.x_replaced(3, t) == (RT.one(), t, t)
    # the dropped pure tensors are built once per anchor
    assert inst.x_dropped(2) is inst.x_dropped(2)
    assert inst.x_dropped(2) == pure_tensor(sp, [RT.one(), t * t, RT.one()])


def test_instance_over_algebra():
    alg = FiniteFreeAlgebra(QQ, 2, [[(1, 0), (0, 1)], [(0, 1), (2, 0)]], (1, 0))
    sp = TensorSpace(2, alg)
    inst = AlternatorInstance(sp, [alg.one(), alg.element((0, 1))])
    assert inst.alpha_x.terms == {(0, 1): 1, (1, 0): -1}
    assert inst.alpha_sq.terms == {(0, 0): 4, (1, 1): -2}
    assert is_symmetric(inst.alpha_sq)


# -- alternators as wedges


def split_algebra(scalars, rank):
    """scalars^rank with idempotent basis vectors: the unit has rank terms."""
    one = scalars.one()
    structure = [
        [[one if i == j == k else 0 for k in range(rank)] for j in range(rank)]
        for i in range(rank)
    ]
    return FiniteFreeAlgebra(scalars, rank, structure, [scalars.one()] * rank)


@st.composite
def wedge_cases(draw):
    """n + 1 ring elements over Q, Z, GF(2) or GF(5) in one or two
    variables, or over a split finite free algebra of rank 3: zero,
    constant and repeated entries included."""
    scalars = SIGNED_SUM_RINGS[draw(st.sampled_from(sorted(SIGNED_SUM_RINGS)))]
    n = draw(st.integers(1, 5))
    # nonzero in every one of these rings, so a drawn term never vanishes
    coeff = st.sampled_from((-3, -1, 1, 3)).map(scalars.from_int)
    if draw(st.integers(0, 4)) == 0:
        alg = split_algebra(scalars, 3)
        sp = TensorSpace(n, alg)
        coord = st.integers(-3, 3).map(scalars.from_int)
        entry = st.lists(coord, min_size=3, max_size=3).map(alg.element)
        zero = alg.zero()
    else:
        ring = PolyRing(scalars, draw(st.sampled_from([("t",), ("s", "t")])))
        sp = TensorSpace(n, ring)
        label = st.tuples(*[st.integers(0, 5 if sp.width == 1 else 2)] * sp.width)
        entry = st.dictionaries(label, coeff, min_size=1, max_size=3).map(
            lambda terms: MultiPoly(ring, terms)
        )
        zero = ring.zero()
    xs = [draw(entry) for _ in range(n + 1)]
    if draw(st.integers(0, 5)) == 0:
        xs[draw(st.integers(0, n))] = zero
    if n > 1 and draw(st.integers(0, 3)) == 0:
        xs[draw(st.integers(1, n))] = xs[0]
    return sp, xs


def exact_orbits(orbits):
    return {k: (type(c), c) for k, c in orbits.items()}


@settings(max_examples=150, deadline=None)
@given(wedge_cases())
def test_wedge_orbits_match_the_pure_tensor_route(case):
    # the signed sum of the pure tensor is the oracle for the wedge, for
    # the alternator and for every coordinate numerator of the last entry
    sp, elems = case
    xs, z = elems[:-1], elems[-1]
    want = signed_orbits(pure_tensor(sp, xs))
    event("nonzero" if want else "zero")
    assert exact_orbits(alpha_orbits(sp, xs)) == exact_orbits(want)
    assert exact(alpha(sp, xs)) == exact(alpha_map(pure_tensor(sp, xs)))
    inst = AlternatorInstance(sp, xs)
    for i, wedge in enumerate(inst.cofactor_wedges, start=1):
        got = flat_orbits(wedge_orbits(sp, wedge, sp.decompose(z)))
        replaced = signed_orbits(pure_tensor(sp, inst.x_replaced(i, z)))
        assert exact_orbits(got) == exact_orbits(replaced)


def test_wedge_orbits_signs_and_repeats():
    sp = space(3)
    t = RT.variable("t")
    # inserting at position p of m ascending labels carries (-1)^p
    wedge = {((0,), (2,)): 1}
    assert wedge_orbits(sp, wedge, [((1,), 1)]) == {((0,), (1,), (2,)): -1}
    assert wedge_orbits(sp, wedge, [((3,), 1)]) == {((0,), (2,), (3,)): 1}
    assert wedge_orbits(sp, wedge, [((0,), 1)]) == {}  # a repeated label
    assert alpha_orbits(sp, [t, RT.one(), t * t]) == {(2, 1, 0): 1}
    with pytest.raises(ArityMismatch, match="^2 factors for arity 3$"):
        alpha_orbits(sp, [t, t])


# -- the six identities


def fixed_cases(sp):
    t = RT.variable("t")
    one = RT.one()
    n = sp.n
    xs = tuple(t**k for k in range(n))
    rng = random.Random(17)
    return {
        "ts_linearity": IdentityData(
            t=random_tensor(rng, sp, 3, 3),
            y=random_invariant(rng, sp, 3, full=True),
        ),
        "degree_relation": IdentityData(t=random_tensor(rng, sp, 3, 3)),
        "n11_linearity": IdentityData(
            t=random_tensor(rng, sp, 3, 3),
            y=random_invariant(rng, sp, 3, full=False),
        ),
        "symmetric_span": IdentityData(
            x=xs, y=random_invariant(rng, sp, 3, full=False)
        ),
        "coefficient": IdentityData(
            x=xs,
            scalars=tuple(QQ.from_int(k - 1) for k in range(n)),
            slot=min(2, n),
        ),
        "r_span": IdentityData(x=xs, z=(t + one) ** 2),
    }


@pytest.mark.parametrize("name", IDENTITY_NAMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_identities_fixed_cases(name, n):
    sp = space(n)
    data = fixed_cases(sp)[name]
    w = check_identity(name, sp, data)
    assert w.ok, f"{name} at n={n}: {w.lhs_text} != {w.rhs_text}"


@pytest.mark.parametrize("ring", [RT, PolyRing(GF(5), ("t",)), PolyRing(GF(2), ("t",))])
@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_identities_random_cases(ring, name):
    for n in (2, 3):
        sp = TensorSpace(n, ring)
        rng = random.Random(f"{name}:{n}:{ring.coeff!r}")
        for _ in range(10):
            data = random_case(name, rng, sp, 3, 3)
            w = check_identity(name, sp, data)
            assert w.ok, f"{name} n={n}: {w.lhs_text} != {w.rhs_text}"


def test_identities_two_variable_ambient():
    ring = PolyRing(QQ, ("u", "v"))
    sp = TensorSpace(2, ring)
    rng = random.Random(23)
    for name in IDENTITY_NAMES:
        data = random_case(name, rng, sp, 3, 2)
        assert check_identity(name, sp, data).ok


def test_precondition_violations():
    sp = space(2)
    t = RT.variable("t")
    skew = pure_tensor(sp, [t, RT.one()])
    with pytest.raises(PreconditionViolated):
        check_identity("ts_linearity", sp, IdentityData(t=skew, y=skew))
    with pytest.raises(PreconditionViolated):
        check_identity("no_such_identity", sp, IdentityData())
    with pytest.raises(PreconditionViolated):
        check_identity("coefficient", sp, IdentityData(x=(t, t), scalars=(1, 1), slot=9))


def test_witness_reports_both_sides():
    sp = space(2)
    t = RT.variable("t")
    a = pure_tensor(sp, [RT.one(), t])
    b = pure_tensor(sp, [t, RT.one()])
    w = Witness(name="demo", ok=False, lhs=a, rhs=b)
    assert not w
    assert w.lhs_text == "1*[1|t]"
    assert w.rhs_text == "1*[t|1]"


def test_random_data_is_seed_deterministic():
    sp = space(3)
    a = random_case("symmetric_span", random.Random(99), sp, 4, 3)
    b = random_case("symmetric_span", random.Random(99), sp, 4, 3)
    assert a.x == b.x and a.y == b.y


# -- the orbit determinant of fully invariant tensors


def symmetrized(sp, terms):
    """The sum of a tensor over every slot permutation: fully invariant."""
    raw = Tensor(sp, terms)
    acc = sp.zero()
    for sigma, _ in all_signed_permutations(sp.n):
        acc = acc + raw.permute(sigma)
    return acc


@st.composite
def power_sum_matrices(draw):
    """Square matrices of ring elements, singular ones included: zero
    entries, constant terms (whose power sum carries the factor n, which
    is 0 in GF(p) when p divides n) and repeated rows."""
    scalars = SIGNED_SUM_RINGS[draw(st.sampled_from(sorted(SIGNED_SUM_RINGS)))]
    ring = PolyRing(scalars, draw(st.sampled_from([("t",), ("t", "u")])))
    sp = TensorSpace(draw(st.integers(1, 5)), ring)
    size = draw(st.integers(1, 5))
    label = st.tuples(*[st.integers(0, 2 if sp.width == 1 else 1)] * sp.width)
    coeff = st.integers(-3, 3).map(scalars.from_int)
    entry = st.dictionaries(label, coeff, max_size=2).map(
        lambda terms: MultiPoly(ring, terms)
    )
    rows = [[draw(entry) for _ in range(size)] for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return sp, rows


def dense_power_sum_det(sp, zs):
    # det_generic multiplies the full power-sum tensors term by term
    return det_generic([[polarized_power_sum(sp, z) for z in row] for row in zs])


@settings(max_examples=60, deadline=None)
@given(power_sum_matrices())
def test_det_power_sums_matches_dense_expansion(case):
    sp, zs = case
    want = dense_power_sum_det(sp, zs)
    event(f"size {len(zs)}, {'nonzero' if want else 'zero'}")
    assert exact(det_power_sums(sp, zs)) == exact(want)


def test_power_sum_matrices_draw_nonzero_determinants():
    # the oracle above proves little if every drawn determinant is zero;
    # the first nonzero draw will do, so there is no shrinking
    def nonzero(case):
        return bool(dense_power_sum_det(*case))

    quick = settings(
        database=None, deadline=None, derandomize=True, phases=[Phase.generate]
    )
    assert nonzero(find(power_sum_matrices(), nonzero, settings=quick))


def test_det_power_sums_factor_n():
    # P(1) = n times the unit: it vanishes over GF(p) exactly when p | n
    for scalars, n, vanishes in (
        (GF(5), 5, True),
        (GF(2), 4, True),
        (GF(3), 2, False),
        (QQ, 3, False),
    ):
        ring = PolyRing(scalars, ("t",))
        sp = TensorSpace(n, ring)
        t = ring.variable("t")
        want = polarized_power_sum(sp, t)
        if not vanishes:
            want = want + unit_tensor(sp).scale(n)
        assert det_power_sums(sp, [[ring.one() + t]]) == want
        assert det_power_sums(sp, [[ring.zero()]]) == sp.zero()
        # a nonzero 2 x 2 determinant with constant entries
        zs = [[ring.one() + t, t * t], [t, ring.one() + t * t * t]]
        det = det_power_sums(sp, zs)
        assert det and exact(det) == exact(dense_power_sum_det(sp, zs))


@st.composite
def orbit_division_cases(draw):
    """Alternating numerator and divisor, each by its sorted-key
    coefficients, and whether the numerator is a multiple of the divisor
    by construction."""
    scalars = SIGNED_SUM_RINGS[draw(st.sampled_from(sorted(SIGNED_SUM_RINGS)))]
    w = draw(st.integers(1, 2))
    ring = PolyRing(scalars, ("s", "t")[:w])
    sp = TensorSpace(draw(st.integers(1, 5)), ring)
    n = sp.n
    label = st.tuples(*[st.integers(0, n if w == 1 else 2)] * w)
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))

    def poly(size):
        terms = draw(st.dictionaries(label, coeff, min_size=1, max_size=size))
        return MultiPoly(ring, {k: scalars.from_int(c) for k, c in terms.items()})

    # a monomial anchor, or one with a two-term entry: the dense oracle
    # multiplies the expanded tensors, so that keeps n = 5 quick
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    xs = [MultiPoly(ring, {k: scalars.from_int(draw(coeff))}) for k in labels]
    if draw(st.booleans()):
        xs[draw(st.integers(0, n - 1))] = poly(2)
    den = signed_orbits(pure_tensor(sp, xs))
    kind = draw(st.sampled_from(("multiple", "alternant", "bumped")))
    if kind == "alternant":
        num = signed_orbits(pure_tensor(sp, [poly(2) for _ in range(n)]))
        return sp, num, den, False
    # a symmetric quotient: two labelled slots, the rest at the unit label;
    # it commutes with every slot permutation, so q * alpha(x) is the
    # signed sum of q times the pure tensor of x
    key = (draw(label) + draw(label) + (0,) * w * n)[: w * n]
    quot = symmetrized(sp, {key: scalars.from_int(draw(coeff))})
    num = signed_orbits(quot * pure_tensor(sp, xs))
    if kind == "bumped":
        extra = signed_orbits(pure_tensor(sp, [poly(1) for _ in range(n)]))
        num = signed_orbits(expand_orbits(sp, num) + expand_orbits(sp, extra))
    return sp, num, den, kind == "multiple"


@settings(max_examples=150, deadline=None)
@given(orbit_division_cases())
def test_orbit_division_matches_dense_division(case):
    # dict_divide_exact on the expanded tensors is the oracle, over Q, Z,
    # GF(2) and GF(5): both divide, or both return None
    sp, num, den, multiple = case
    got = divide_orbits(sp, num, den)
    if got is not None:
        got = expand_symmetric(sp, got)
    want = dict_divide_exact(
        expand_orbits(sp, num).terms, expand_orbits(sp, den).terms, sp.scalars
    )
    event(f"n = {sp.n}, {'None' if want is None else 'divides'}")
    if want is None:
        assert got is None
        assert not (multiple and den)
    else:
        assert got is not None and exact(got) == exact(Tensor(sp, want))
        assert is_symmetric(got)
        assert got * expand_orbits(sp, den) == expand_orbits(sp, num)


def oracle_divide_orbits(space, num, den):
    # divide_orbits before its product table: every step rebuilds the
    # arrangements of lam, each sorted with its sign, and rescans the
    # remainder with a Python key function; it leads by degree-lex order,
    # so it checks the lex loop against another path
    if not den:
        return None
    if not num:
        return {}
    n, width = space.n, space.width
    slots_of, maps = _signed_reindex(n, width, False)
    order = range(n)
    rem = dict(num)
    dterms = list(den.items())

    def deglex(key):
        return sum(key), key

    lead, lc = max(dterms, key=lambda kc: deglex(kc[0]))
    ring = space.scalars
    inv = quotient_factor(lc, ring)
    norm = ring.normalize
    quot = {}
    while rem:
        r = max(rem, key=deglex)
        lam = tuple(map(operator.sub, r, lead))
        if min(lam) < 0:
            return None
        blocks = slots_of(lam)
        if any(blocks[i] < blocks[i + 1] for i in range(n - 1)):
            return None
        c = rem.pop(r)
        if inv is None:
            qc, m = divmod(c, lc)
            if m:
                return None
        else:
            qc = norm(c * inv)
        quot[lam] = qc
        for get in _arrangements(_pattern(blocks), width):
            mu = get(lam)
            for d, cd in dterms:
                key = tuple(map(operator.add, mu, d))
                slots = slots_of(key)
                if len(set(slots)) < n:
                    continue
                get, sign = maps[
                    tuple(sorted(order, key=slots.__getitem__, reverse=True))
                ]
                kappa = get(key)
                if kappa == r:
                    continue
                m = qc * cd
                s = rem.get(kappa, 0)
                s = norm(s - m if sign > 0 else s + m)
                if s:
                    rem[kappa] = s
                else:
                    rem.pop(kappa, None)
    return quot


@settings(max_examples=200, deadline=None)
@given(orbit_division_cases())
def test_orbit_division_matches_the_replaced_loop(case):
    # the table-driven division gives the replaced loop's quotient, key
    # for key and type for type, or None with it, over Q, Z, GF(2) and
    # GF(5), n = 1..5, widths 1 and 2
    sp, num, den, multiple = case
    want = oracle_divide_orbits(sp, num, den)
    got = divide_orbits(sp, num, den)
    event(f"{'one' if len(den) == 1 else 'several'} divisor orbits")
    event("None" if want is None else "divides")
    if want is None:
        assert got is None
    else:
        assert exact_orbits(got) == exact_orbits(want)
        assert list(got) == sorted(got, reverse=True)


def test_orbit_division_outcomes():
    sp = space(3)
    t = RT.variable("t")
    den = signed_orbits(pure_tensor(sp, [RT.one(), t, t * t]))
    assert len(den) == 1
    # a quotient of alternants: alpha(1, t, t^3) / alpha(1, t, t^2) = e_1
    num = signed_orbits(pure_tensor(sp, [RT.one(), t, t**3]))
    assert expand_symmetric(sp, divide_orbits(sp, num, den)) == polarized_power_sum(
        sp, t
    )
    # a zero numerator divides, a zero divisor divides nothing
    assert divide_orbits(sp, {}, den) == {}
    assert divide_orbits(sp, num, {}) is None and divide_orbits(sp, {}, {}) is None
    # alpha(1, t^2, t^3) is e_2 times den; alpha(t, t^2, t^3) over
    # alpha(1, t, t^3) leaves the lead (0, 1, 1), not weakly descending
    e2 = symmetrized(sp, {(1, 1, 0): Fraction(1, 2)})
    num = signed_orbits(pure_tensor(sp, [RT.one(), t**2, t**3]))
    assert expand_symmetric(sp, divide_orbits(sp, num, den)) == e2
    other = signed_orbits(pure_tensor(sp, [RT.one(), t, t**3]))
    num = signed_orbits(pure_tensor(sp, [t, t**2, t**3]))
    assert divide_orbits(sp, num, other) is None
    # over Z a leading coefficient that does not divide gives None
    zt = PolyRing(ZZ, ("t",))
    zsp = TensorSpace(2, zt)

    def zalpha(c):
        return signed_orbits(pure_tensor(zsp, [zt.from_int(c), zt.variable("t")]))

    assert divide_orbits(zsp, zalpha(1), zalpha(2)) is None
    assert divide_orbits(zsp, zalpha(4), zalpha(2)) == {(0, 0): 2}


def test_det_power_sums_refuses_other_input():
    sp = space(3)
    t = RT.variable("t")
    with pytest.raises(ValueError):
        det_power_sums(sp, [[t, t]])
    with pytest.raises(ValueError):
        det_power_sums(sp, [])
    alg = FiniteFreeAlgebra(QQ, 2, [[(1, 0), (0, 1)], [(0, 1), (2, 0)]], (1, 0))
    with pytest.raises(UnsupportedAmbient):
        det_power_sums(TensorSpace(2, alg), [[alg.one()]])


_UNSUPPORTED_AMBIENT_SCRIPT = """
import sys
from altkit.alternator import det_power_sums
from altkit.errors import UnsupportedAmbient
from altkit.ring_core import QQ, FiniteFreeAlgebra
from altkit.tensor_algebra import TensorSpace
print("optimize", sys.flags.optimize, __debug__ is False)
alg = FiniteFreeAlgebra(QQ, 2, [[(1, 0), (0, 1)], [(0, 1), (2, 0)]], (1, 0))
try:
    det_power_sums(TensorSpace(2, alg), [[alg.one()]])
    print("no error")
except UnsupportedAmbient as e:
    print("raised", type(e).__name__)
"""


def test_det_power_sums_gate_holds_under_optimize():
    # python -O strips assert statements; the ambient gate is not one
    src = os.path.dirname(os.path.dirname(altkit.__file__))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _UNSUPPORTED_AMBIENT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "optimize 1 True",
        "raised UnsupportedAmbient",
    ]


# -- products and division of symmetric tensors on orbits


@st.composite
def symmetric_pairs(draw):
    """Two symmetric tensors by their coefficients at sorted keys, over
    Q, Z, GF(2) or GF(5), n = 1..5 and widths 1 and 2: a sorted key is
    n labels in descending order, laid end to end."""
    scalars = SIGNED_SUM_RINGS[draw(st.sampled_from(sorted(SIGNED_SUM_RINGS)))]
    w = draw(st.integers(1, 2))
    sp = TensorSpace(draw(st.integers(1, 5)), PolyRing(scalars, ("s", "t")[:w]))
    label = st.tuples(*[st.integers(0, 2 if w == 1 else 1)] * w)
    key = st.lists(label, min_size=sp.n, max_size=sp.n).map(
        lambda labels: sum(sorted(labels, reverse=True), ())
    )
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3)).map(scalars.from_int)
    orbits = st.dictionaries(key, coeff, max_size=3).map(
        lambda terms: {k: c for k, c in terms.items() if c}
    )
    return sp, draw(orbits), draw(orbits)


@settings(max_examples=200, deadline=None)
@given(symmetric_pairs())
def test_orbit_product_matches_the_full_product(case):
    # the product on orbits is symmetric_orbits of the product of the
    # expanded tensors, key for key and type for type; a weight such as
    # the 2 of m_(1,0)^2 = m_(2,0) + 2 m_(1,1) vanishes over GF(2)
    sp, a, b = case
    want = symmetric_orbits(expand_symmetric(sp, a) * expand_symmetric(sp, b))
    event(f"n = {sp.n}, {'zero' if not want else 'nonzero'}")
    assert exact_orbits(multiply_symmetric(sp, a, b)) == exact_orbits(want)
    assert multiply_symmetric(sp, b, a) == want


@settings(max_examples=200, deadline=None)
@given(symmetric_pairs(), st.sampled_from(("multiple", "bumped", "other")))
def test_symmetric_division_matches_tensor_division(case, kind):
    # tensor_divide_exact on the expanded tensors is the oracle: both
    # divide with the same quotient, or both return None
    sp, q, den = case
    assume(den)
    if kind == "other":
        num = q
    else:
        num = multiply_symmetric(sp, q, den)
        if kind == "bumped":
            num[(1,) * (sp.n * sp.width)] = sp.scalars.one()
    full = tensor_divide_exact(expand_symmetric(sp, num), expand_symmetric(sp, den))
    got = divide_symmetric(sp, num, den)
    event(f"{kind}: {'None' if full is None else 'divides'}")
    if full is None:
        assert got is None
        assert kind != "multiple"
    else:
        assert got is not None
        assert exact(expand_symmetric(sp, got)) == exact(full)


def test_symmetric_division_outcomes():
    sp = space(2)
    # m_(1,0)^2 = m_(2,0) + 2 m_(1,1): the square divides back by m_(1,0)
    m10 = {(1, 0): 1}
    square = multiply_symmetric(sp, m10, m10)
    assert square == {(2, 0): 1, (1, 1): 2}
    assert divide_symmetric(sp, square, m10) == m10
    # over GF(2) the 2 vanishes, so the step at (1, 1) sums to zero at a
    # key the remainder never held
    sp2 = space(2, PolyRing(GF(2), ("t",)))
    assert multiply_symmetric(sp2, m10, m10) == {(2, 0): 1}
    assert divide_symmetric(sp2, {(2, 0): 1}, m10) == m10
    # a zero numerator divides, a zero divisor divides nothing, and a
    # lead with a negative entry ends the division
    assert divide_symmetric(sp, {}, m10) == {}
    assert divide_symmetric(sp, m10, {}) is None
    assert divide_symmetric(sp, {(1, 1): 1}, {(2, 0): 1}) is None


# -- one product rule for orbit sums, against the three miss paths it replaced


def parent_arranged(lam, d, n, width):
    # (slots, kappa, sign) for each distinct arrangement mu of lam, kappa
    # the slots of mu + d sorted descending and sign that of the sort
    slots_of, maps = _signed_reindex(n, width, False)
    blocks = slots_of(lam)
    if min(lam) < 0 or any(map(operator.lt, blocks, blocks[1:])):
        return None
    out = []
    for get in _arrangements(_pattern(blocks), width):
        key = tuple(map(operator.add, get(lam), d))
        slots = slots_of(key)
        order = sorted(range(n), key=slots.__getitem__, reverse=True)
        reindex, sign = maps[tuple(order)]
        out.append((slots, reindex(key), sign))
    return out


def parent_product_orbits(lam, d, n, width):
    # m_lam * A(d): one (kappa, sign) pair per arrangement, unsummed
    sums = parent_arranged(lam, d, n, width)
    if sums is None:
        return None
    return tuple((k, sign) for slots, k, sign in sums if len(set(slots)) == n)


def parent_symmetric_pairs(lam, mu, n, width):
    # m_lam * m_mu: arrangements counted per kappa, times the stabilizer ratio
    sums = parent_arranged(lam, mu, n, width)
    if sums is None:
        return None
    slots_of = _signed_reindex(n, width, False)[0]
    arranged = len(_arrangements(_pattern(slots_of(mu)), width))
    return tuple(
        (k, c * arranged // len(_arrangements(_pattern(slots_of(k)), width)))
        for k, c in Counter(k for _, k, _ in sums).items()
    )


def parent_alternant_pairs(lam, mu, n, width):
    # A(lam) * A(mu): x^lam * A(mu) symmetrized, over every permutation of mu
    slots_of, maps = _signed_reindex(n, width, False)
    signs = Counter()
    for get, sign in maps.values():
        key = tuple(map(operator.add, lam, get(mu)))
        slots = slots_of(key)
        order = sorted(range(n), key=slots.__getitem__, reverse=True)
        signs[maps[tuple(order)][0](key)] += sign
    return tuple(
        (k, c * len(maps) // len(_arrangements(_pattern(slots_of(k)), width)))
        for k, c in signs.items()
        if c
    )


# kind -> (lam alternates, mu alternates, the parent's miss path)
PRODUCT_KINDS = {
    "m*A": (False, True, parent_product_orbits),
    "m*m": (False, False, parent_symmetric_pairs),
    "A*A": (True, True, parent_alternant_pairs),
}


@st.composite
def orbit_keys(draw, n, w, strict):
    """A sorted key of n labels of width w, strictly descending if strict."""
    labels = list(product(range(7 if w == 1 else 3), repeat=w))
    if strict:
        chosen = draw(st.permutations(labels))[:n]
    else:
        chosen = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    return sum(sorted(chosen, reverse=True), ())


def summed(pairs):
    acc = Counter()
    for k, w in pairs:
        acc[k] += w
    return {k: w for k, w in acc.items() if w}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(PRODUCT_KINDS)),
    st.integers(2, 5),
    st.integers(1, 2),
    st.data(),
)
def test_orbit_pairs_match_the_replaced_miss_paths(kind, n, w, data):
    # the rule's pairs, summed by kappa, are the parent's for every kind of
    # product; the rule lists each kappa once, with a nonzero weight
    lam_alt, mu_alt, parent = PRODUCT_KINDS[kind]
    lam = data.draw(orbit_keys(n, w, lam_alt))
    mu = data.draw(orbit_keys(n, w, mu_alt))
    got = _orbit_pairs(lam, mu, n, w, lam_alt, mu_alt)
    event(f"{kind}, n = {n}")
    assert len({k for k, _ in got}) == len(got)
    assert all(weight for _, weight in got)
    assert dict(got) == summed(parent(lam, mu, n, w))


@pytest.mark.parametrize("kind", sorted(PRODUCT_KINDS))
@pytest.mark.parametrize("n, w", [(2, 1), (3, 1), (3, 2), (5, 1)])
def test_orbit_pairs_refuse_keys_that_are_no_orbit(kind, n, w):
    # a negative entry, or slots that ascend somewhere, is no orbit key:
    # a division step that meets one has no quotient there
    lam_alt, mu_alt, parent = PRODUCT_KINDS[kind]
    mu = tuple(v for i in range(n, 0, -1) for v in (i,) * w)
    negative = (-1,) + mu[1:]
    ascending = mu[::-1]
    for lam in (negative, ascending):
        assert _orbit_pairs(lam, mu, n, w, lam_alt, mu_alt) is None
        if kind != "A*A":
            assert parent(lam, mu, n, w) is None


@st.composite
def alternating_pairs(draw):
    """Two alternating tensors by their coefficients at sorted keys, over
    Q, Z, GF(2) or GF(5), n = 2..5 and widths 1 and 2."""
    scalars = SIGNED_SUM_RINGS[draw(st.sampled_from(sorted(SIGNED_SUM_RINGS)))]
    w = draw(st.integers(1, 2))
    sp = TensorSpace(draw(st.integers(2, 5)), PolyRing(scalars, ("s", "t")[:w]))
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3)).map(scalars.from_int)
    key = orbit_keys(sp.n, w, True)
    orbits = st.dictionaries(key, coeff, min_size=1, max_size=3).map(
        lambda terms: {k: c for k, c in terms.items() if c}
    )
    return sp, draw(orbits), draw(orbits)


@settings(max_examples=100, deadline=None)
@given(alternating_pairs())
def test_alternating_product_matches_the_full_product(case):
    # A * A on orbits is symmetric_orbits of the product of the expanded
    # tensors, key for key and type for type
    sp, a, b = case
    want = symmetric_orbits(expand_orbits(sp, a) * expand_orbits(sp, b))
    event(f"n = {sp.n}, width {sp.width}, {'zero' if not want else 'nonzero'}")
    assert exact_orbits(multiply_alternating(sp, a, b)) == exact_orbits(want)
    assert multiply_alternating(sp, b, a) == want

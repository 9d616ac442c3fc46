"""Trace pairing, discriminant, and the norm map onto a presented algebra.

A finite free algebra pairs its elements through traces of multiplication
operators; the determinant of that pairing on a basis is the discriminant.
When the algebra E is presented as the image of a polynomial tuple, a
fully invariant tensor over the source ring has a norm in the base (Roby
1963, Ferrand 1998).  It is taken on the tensor's orbits: the norm of
one orbit is a coefficient of a mixed discriminant of multiplication
matrices (Bapat 1989), expanded row by row with shared prefixes.  The
norm is multiplicative and sends an alternator pair to its
trace-pairing determinant, so the alternator square goes to the
discriminant d.  The image-basis coordinates the pushed fractions are
compared with come from one elimination for all of them.

One norm map pushes fractions down for every generically etale instance,
whose d is a nonzerodivisor: num/alpha_sq^e goes to N(num) divided
exactly by d^e, and a missing quotient raises.  The etale map is the same
map restricted to a unit d, where every such division succeeds.

The anchor's side (its context, the unit's coordinates, R's structure
constants and the norm's prefix structures) depends on no algebra, so
bounded tables share it across the instances over one anchor.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .alternator import (
    AlternatorInstance,
    Witness,
    alpha,
    det_power_sums,
    symmetric_orbits,
)
from .errors import (
    ArityMismatch,
    ContextMismatch,
    DivisionFails,
    NotABasis,
    NotEtale,
    NotGenericallyEtale,
    NotInvariant,
    UnsupportedBase,
)
from .ring_core import (
    AlgebraElem,
    CoeffRing,
    FiniteFreeAlgebra,
    MultiPoly,
    PolyRing,
    _scalar_embedding,
    det_generic,
    echelon,
)
from .span_solver import (
    LocalizedElem,
    coordinates,
    structure_constants_R,
)
from .tensor_algebra import (
    TensorSpace,
    is_symmetric,
    polarized_power_sum,
    unit_tensor,
)

__all__ = [
    "discriminant",
    "trace_pairing_det",
    "norm",
    "norm_orbits",
    "trace_formula_check",
    "traceexp_check",
    "PullbackInstance",
    "AnchorSide",
    "anchor_side",
    "is_nonzerodivisor",
    "NormMapPlus",
    "NormMap",
    "pullback_constants",
    "constants_witness",
    "check_pullback",
    "verify_pullback",
    "free_case_check",
]


def _as_elems(alg, vec):
    return tuple(v if isinstance(v, AlgebraElem) else alg.element(v) for v in vec)


def vector_text(base, vec):
    return "(" + ", ".join(base.to_text(v) for v in vec) + ")"


def _coordinate_det(alg, elems):
    """Determinant of the coordinate matrix of rank-many algebra elements."""
    return alg.base.normalize(det_generic([e.coords for e in elems]))


def trace_pairing_det(inst, vs, ws):
    """Determinant of the trace pairing of two mapped tuples.

    With A and B the coordinate matrices of f(vs) and f(ws) over the
    algebra's basis e, the pairing matrix [Tr(f(v_i) f(w_j))] is
    A^T G_e B for the Gram matrix G_e of e, so its determinant is
    det A * disc(e) * det B over any commutative base.
    """
    E = inst.E
    if len(vs) != E.rank or len(ws) != E.rank:
        raise ArityMismatch(f"pair tuples must have length {E.rank}")
    return E.base.normalize(inst.tuple_det(vs) * E.disc * inst.tuple_det(ws))


def norm(inst, q):
    """Norm of a fully invariant tensor over the source ring, in the base.

    For q = sum_k c_k e_{k_1} x ... x e_{k_n} it is sum_k c_k det R_k,
    where row i of R_k is row i of the multiplication matrix of f(e_{k_i})
    in E (Roby, "Lois polynomes et lois formelles en theorie des modules",
    1963; Ferrand, "Un foncteur norme", 1998).  On a power a x ... x a it
    is the determinant of f(a); over a split E = B^n it is q evaluated at
    the n points of f.  It is taken on q's orbits (``norm_orbits``).
    """
    if q.space != inst.space:
        raise ContextMismatch("tensor from a different tensor power")
    if not is_symmetric(q):
        raise NotInvariant("the norm needs a fully invariant tensor")
    return norm_orbits(inst, symmetric_orbits(q))


# the norm's prefix structure for one numerator's orbit keys: each key's
# labels, grows[mu] = [(label, mu + label)] for every placed sub-multiset
# mu (labels descending), and the labels met; an anchor meets at most 80
# numerators, a rank-3 one with degree-10 entries 17, of up to 2.1 MB each
@lru_cache(maxsize=64)
def _norm_prefixes(keys, width):
    lams = {key: tuple(zip(*[iter(key)] * width)) for key in keys}
    grows, level = {}, set(lams.values())
    while level:
        below = set()
        for mu in level:
            for i, label in enumerate(mu):
                if i and mu[i - 1] == label:
                    continue  # one edge per distinct label
                less = mu[:i] + mu[i + 1 :]
                grows.setdefault(less, []).append((label, mu))
                below.add(less)
        level = below
    labels = {label for edges in grows.values() for label, _ in edges}
    return lams, grows, labels


def norm_orbits(inst, orbits):
    """The norm of a symmetric tensor given by its coefficients at sorted
    keys, sum_lam c_lam N(m_lam).

    N(m_lam) is the sum of det R_k over the distinct arrangements k of
    lam, a coefficient of the mixed discriminant det(sum_a tau_a M_a) of
    the multiplication matrices (Bapat, Linear Algebra Appl. 1989).  It is
    expanded row by row, as ``det_generic`` does: the partial sum over
    rows 0..i-1 is keyed by the columns used and the sub-multiset of
    labels placed, so arrangements that share a prefix, within one lam
    or across the lam of q, share its minors.  There is no division, so
    the norm is exact over every base.
    """
    base, n = inst.E.base, inst.space.n
    normalize = base.normalize
    lams, grows, labels = _norm_prefixes(tuple(orbits), inst.space.width)
    # each label's multiplication matrix, row by row as (column bit, entry)
    rows = {
        label: [
            [(1 << j, a) for j, a in enumerate(row) if a]
            for row in inst.mult_matrix(label)
        ]
        for label in labels
    }
    cur = {
        (bit, mu): a for label, mu in grows.get((), ()) for bit, a in rows[label][0]
    }
    for r in range(1, n):
        nxt = {}
        for (mask, mu), minor in cur.items():
            for label, grown in grows.get(mu, ()):
                for bit, a in rows[label][r]:
                    if mask & bit:
                        continue
                    term = a * minor
                    if (r + (mask & (bit - 1)).bit_count()) % 2:
                        term = -term
                    key = (mask | bit, grown)
                    acc = nxt.get(key)
                    nxt[key] = term if acc is None else acc + term
        cur = {k: v for k, v in ((k, normalize(v)) for k, v in nxt.items()) if v}
    full = (1 << n) - 1
    total = base.zero()
    for key, c in orbits.items():
        value = cur.get((full, lams[key]))
        if value is not None:
            total = total + inst.emb(c) * value
    return normalize(total)


def discriminant(alg, basis):
    """Determinant of the trace pairing on a basis of the algebra.

    The claimed basis is checked first: its coordinate matrix C against
    the built-in basis must have unit determinant.  The pairing matrix is
    C^T G_e C, so the value is det(C)^2 times the algebra's own disc(e).
    """
    return _discriminant_and_det(alg, basis)[0]


def _discriminant_and_det(alg, basis):
    # the discriminant of a claimed basis and its coordinate determinant
    basis = _as_elems(alg, basis)
    if len(basis) != alg.rank:
        raise NotABasis(f"{len(basis)} elements for rank {alg.rank}")
    det = _coordinate_det(alg, basis)
    if not alg.base.is_unit(det):
        raise NotABasis(
            f"coordinate determinant {alg.base.to_text(det)} is not a unit"
        )
    return alg.base.normalize(det * det * alg.disc), det


def trace_formula_check(ctx, z):
    """Trace of multiplication by the last co-projection of z, vs power sum.

    The diagonal coordinate entries of z times the anchor entries must add
    up to the sum of co-projections of z, as localized fractions.
    """
    space = ctx.space
    z = space.as_element(z)
    total = LocalizedElem.zero(ctx)
    for k in range(space.n):
        total = total + coordinates(ctx, z * ctx.x[k])[k]
    expected = LocalizedElem(ctx, polarized_power_sum(space, z), 0)
    return Witness("trace_formula", total == expected, total, expected)


def traceexp_check(ctx, ys):
    """Alternator pair against the determinant of pairwise power sums.

    Both sides are computed, and the right one never touches alpha.  Over
    a polynomial ambient the determinant of [P(x_i * y_j)] is taken on
    the ring elements x_i * y_j (``det_power_sums``); over a finite free
    algebra it multiplies the power-sum tensors out (``det_generic``).
    """
    space = ctx.space
    if len(ys) != space.n:
        raise ArityMismatch(f"{len(ys)} entries for arity {space.n}")
    ys = tuple(space.as_element(y) for y in ys)
    lhs = ctx.alpha_x * alpha(space, ys)
    if space.is_poly:
        rhs = det_power_sums(space, [[xi * yj for yj in ys] for xi in ctx.x])
    else:
        rhs = det_generic(
            [[polarized_power_sum(space, xi * yj) for yj in ys] for xi in ctx.x]
        )
    return Witness("traceexp", lhs == rhs, lhs, rhs)


class AnchorSide:
    """An anchor's context ``ctx`` and, from first read, ``constants``:
    the unit's coordinates and R's structure constants, kept only once
    their reconstruction checks pass (a read that raises stores nothing)."""

    def __init__(self, ctx):
        self.ctx = ctx

    @cached_property
    def constants(self):
        ctx = self.ctx
        return coordinates(ctx, ctx.space.ring.one()), structure_constants_R(ctx)


# one AnchorSide per (scalars, variable names, each entry's sorted terms),
# the suite anchors (1, t, ..., t^(n-1)) too; a call that raised is not
# stored.  With its constants read, an entry holds 32 kB for (1, ..., t^4)
# and 9.3 MB for a rank-3 anchor with three entries of degree 10
@lru_cache(maxsize=16)
def _anchor(scalars, names, entries):
    ring = PolyRing(scalars, names)
    xs = [MultiPoly(ring, dict(terms), _clean=True) for terms in entries]
    ctx = AlternatorInstance(TensorSpace(len(xs), ring), xs)
    if not ctx.alpha_x_orbits:  # its coordinates would all read 0
        raise NotABasis("alpha(x) = 0: the anchor entries are linearly dependent")
    return AnchorSide(ctx)


def anchor_side(ring, xs):
    """The shared ``AnchorSide`` of xs in the polynomial ring ``ring``;
    its context lives in the table's own copy of the ring."""
    return _anchor(
        ring.coeff, ring.vars, tuple(tuple(sorted(x.terms.items())) for x in xs)
    )


class PullbackInstance:
    """A finite free algebra presented as the image of a polynomial tuple.

    Bundles the presenting map, the anchor tuple in the source ring, the
    image basis with its coordinate determinant (``det_x``), and the
    discriminant of that basis.  The image tuple must genuinely be a
    basis; how invertible the discriminant is decides which norm map
    applies.  ``anchor`` (``anchor_side``) is shared by every instance
    over the same anchor; only E's side is computed per instance.
    """

    def __init__(self, f, xs):
        self.E = f.target
        self.f = f
        if len(xs) != self.E.rank:
            raise ArityMismatch(
                f"{len(xs)} anchor entries for rank {self.E.rank}"
            )
        space = TensorSpace(self.E.rank, f.source)
        self.anchor = anchor_side(f.source, [space.as_element(x) for x in xs])
        self.ctx = self.anchor.ctx
        self.space = self.ctx.space
        # source scalars into the base, for the coefficients of a tensor
        self.emb = _scalar_embedding(self.space.scalars, self.E.base)
        # f(v) by polynomial; kept here, since equal polynomials map
        # differently under another instance's map
        self._images = {}
        # the multiplication matrix of f(label), by slot label
        self._mult = {}
        self.fx = tuple(self.image(x) for x in self.ctx.x)
        self.d, self.det_x = _discriminant_and_det(self.E, self.fx)

    def image(self, v):
        """f(v) for a source polynomial, evaluated once per polynomial."""
        v = self.space.as_element(v)
        out = self._images.get(v)
        if out is None:
            out = self._images[v] = self.f(v)
        return out

    def mult_matrix(self, label):
        """Multiplication matrix of f(label) in E, built once per slot label."""
        out = self._mult.get(label)
        if out is None:
            elem = self.image(self.space.label_elem(label))
            out = self._mult[label] = self.E.mult_matrix(elem)
        return out

    def tuple_det(self, vs):
        """Coordinate determinant of the mapped tuple f(vs); the anchor
        tuple's is stored."""
        if vs is self.ctx.x:
            return self.det_x
        return _coordinate_det(self.E, [self.image(v) for v in vs])

    @property
    def is_etale(self):
        return self.E.base.is_unit(self.d)

    def require_etale(self):
        if not self.is_etale:
            raise NotEtale(
                f"discriminant {self.E.base.to_text(self.d)} is not a unit"
            )

    def basis_coords(self, e):
        """Coordinates of an algebra element in the image basis."""
        return self.basis_coords_of([e])[0]

    def basis_coords_of(self, elems):
        """Image-basis coordinates of several algebra elements, by one
        fraction-free elimination of [change | every element]: the
        pivots must be the r columns of the change matrix, and each
        coordinate is its reduced entry divided exactly by the final
        leading minor."""
        base, r = self.E.base, self.E.rank
        d, rows = echelon(
            [
                [b.coords[i] for b in self.fx] + [e.coords[i] for e in elems]
                for i in range(r)
            ],
            base,
        )
        if [p for p, _ in rows] == list(range(r)):
            coords = [
                [base.divide_exact(row[r + k], d) for _, row in rows]
                for k in range(len(elems))
            ]
            if all(v is not None for col in coords for v in col):
                return [tuple(map(base.normalize, col)) for col in coords]
        raise NotABasis("image basis failed to solve; should be impossible")

    def __repr__(self):
        return f"PullbackInstance(rank={self.E.rank}, d={self.E.base.to_text(self.d)})"


def is_nonzerodivisor(desc, v):
    """Multiplication by v is injective on the ring described by desc."""
    if isinstance(desc, (CoeffRing, PolyRing)):
        # scalar and polynomial rings here are all domains
        return not desc.is_zero(v)
    if isinstance(desc, FiniteFreeAlgebra):
        det = desc.base.normalize(det_generic(desc.mult_matrix(v)))
        return is_nonzerodivisor(desc.base, det)
    raise UnsupportedBase(f"no zerodivisor test for {desc!r}")


class NormMapPlus:
    """Push invariant fractions into the base ring, dividing by exact solving.

    Requires the discriminant to be a nonzerodivisor, so every division
    it performs has at most one answer; a missing answer raises instead
    of approximating.
    """

    def __init__(self, inst):
        if not is_nonzerodivisor(inst.E.base, inst.d):
            raise NotGenericallyEtale(
                f"discriminant {inst.E.base.to_text(inst.d)} is a zerodivisor"
            )
        self.inst = inst

    def _divide(self, value, m):
        base = self.inst.E.base
        if m == 0:
            return base.normalize(value)
        out = base.divide_exact(value, base.normalize(self.inst.d ** m))
        if out is None:
            raise DivisionFails(
                f"{base.to_text(value)} is not divisible by the {m}-th "
                "discriminant power"
            )
        return base.normalize(out)

    def pair_image(self, ys, zs):
        """Image of alpha(y)*alpha(z) over one square: pairing over d."""
        one = self.inst.space.scalars.one()
        return self.fraction_image([(one, ((ys, zs),))], 1)

    def fraction_image(self, terms, m):
        """Image of a sum of pair products over the m-th square power.

        Each term is a scalar c and a tuple of (ys, zs) pairs, and stands
        for c times the product of alpha(ys)*alpha(zs) over its pairs.
        Every pair goes to its trace-pairing determinant and the square to
        d, so the image is the sum of emb(c) times the determinant
        products, divided exactly by d^m once at the end.
        """
        total = self.inst.E.base.zero()
        for c, pairs in terms:
            prod = self.inst.emb(c)
            for ys, zs in pairs:
                prod = prod * trace_pairing_det(self.inst, ys, zs)
            total = total + prod
        return self._divide(total, m)

    def localized_image(self, le):
        """Image of num / alpha_sq^exp for a fully invariant numerator.

        N is multiplicative and sends alpha_sq to d, so the image is N(num)
        divided exactly by d^exp, or not divided when exp is 0.  As d is a
        nonzerodivisor, a fraction that is not normalized has the same
        image, and the same quotient is missing when none exists.
        """
        if le.ctx is not self.inst.ctx and le.ctx != self.inst.ctx:
            raise ContextMismatch("fraction over a different anchor tuple")
        return self._divide(norm_orbits(self.inst, le._orbits), le.exp)


class NormMap(NormMapPlus):
    """The norm map of an etale instance, whose discriminant is a unit.

    Every exact division then succeeds and equals multiplying by the
    inverse, so no image is ever missing.
    """

    def __init__(self, inst):
        inst.require_etale()
        super().__init__(inst)


def pullback_constants(inst, nm):
    """The unit and every basis pair i <= j, mapped and computed directly.

    Mapped coordinates are the anchor tuple's coordinate fractions, the
    unit's and R's structure constants (``structure_constants_R``), pushed
    through the norm map nm; direct ones are image-basis coordinates
    computed in the algebra.  Returns the unit's (mapped, direct) pair and
    one (i, j, product, mapped, direct) row per pair, where product is
    x_i * x_j in the source ring.
    """
    ctx = inst.ctx

    def mapped(coords):
        return [nm.localized_image(c) for c in coords]

    one, constants = inst.anchor.constants
    pairs = [(i, j) for i in range(inst.E.rank) for j in range(i, inst.E.rank)]
    fx = inst.fx
    unit_direct, *direct = inst.basis_coords_of(
        [inst.E.one()] + [fx[i] * fx[j] for i, j in pairs]
    )
    unit = (mapped(one), unit_direct)
    rows = [
        (i, j, ctx.x[i] * ctx.x[j], mapped(constants[i][j]), coords)
        for (i, j), coords in zip(pairs, direct)
    ]
    return unit, rows


def constants_witness(name, base, mapped, direct):
    """Mapped constants against direct ones, compared after normalizing."""
    return Witness(
        name,
        all(base.normalize(m) == u for m, u in zip(mapped, direct)),
        vector_text(base, mapped),
        vector_text(base, direct),
    )


def check_pullback(inst, nm):
    """Witnesses of the norm map nm and the constant rows they compare."""
    base = inst.E.base
    unit, rows = pullback_constants(inst, nm)
    witnesses = [constants_witness("pullback[unit]", base, *unit)]
    for i, j, _, mapped, direct in rows:
        witnesses.append(
            constants_witness(f"pullback[{i + 1},{j + 1}]", base, mapped, direct)
        )
    return witnesses, rows


def verify_pullback(inst):
    """Mapped structure constants against the algebra's own, witness each.

    The anchor tuple's coordinate fractions are pushed through the norm
    map and compared with the image basis coordinates computed directly
    in the algebra; the unit row rides along.
    """
    return check_pullback(inst, NormMap(inst))[0]


def free_case_check(alg, basis, extra=()):
    """A free algebra as its own coordinate ring: the two collapse laws.

    Over the algebra ambient, the power sum of z collapses to the trace
    of z once multiplied by the alternator square, and the alternator
    square itself collapses to the discriminant.  Both are exact tensor
    statements, no fractions involved.
    """
    basis = _as_elems(alg, basis)
    space = TensorSpace(alg.rank, alg)
    ctx = AlternatorInstance(space, basis)
    d = discriminant(alg, basis)
    unit = unit_tensor(space)
    witnesses = []
    for z in list(basis) + [alg.normalize(e) for e in extra]:
        lhs = (polarized_power_sum(space, z) - unit.scale(alg.trace(z))) * ctx.alpha_sq
        witnesses.append(
            Witness(
                "power_sum_collapses_to_trace",
                not lhs,
                lhs,
                space.zero(),
                detail=f"z = {alg.to_text(z)}",
            )
        )
    lhs = (ctx.alpha_sq - unit.scale(d)) * ctx.alpha_sq
    witnesses.append(
        Witness(
            "square_collapses_to_discriminant",
            not lhs,
            lhs,
            space.zero(),
            detail=f"d = {alg.base.to_text(d)}",
        )
    )
    return witnesses

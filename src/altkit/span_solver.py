"""Coordinates over the inverted alternator square.

Once the square of the alternator of a fixed tuple x is inverted, the
co-projections of the x_i into the last slot form a free basis of the
partially-invariant subring over the fully-invariant one.  This module
carries the fraction arithmetic for that localization and the coordinate
formulas: slot substitution for ring elements, signed drop-a-slot
expansion for invariant tensors, and structure constants of the basis.

Fractions are pairs (fully invariant numerator, power of the alternator
square): the localized fully-invariant ring.  An element of the
localized partially-invariant ring is its coordinate vector of such
fractions, and ``r_algebra`` multiplies those vectors.  Every numerator
is symmetric, so a fraction keeps only its numerator's coefficients at
sorted keys, and two fractions are added and compared there once the
one at the lower exponent is padded by the square.  That compare is
only sound when the ambient tensor power is a domain; construction
therefore requires a polynomial ambient over Q, Z or a prime field.
Multiplication runs on those coefficients too, and divides out common
alternator-square factors eagerly, by exact division on orbits, so
exponents stay small.

A coordinate entry is a numerator over the alternator alpha(x) itself.
Both are alternating, so both are kept by their coefficients at sorted
keys, one per orbit.  Numerator i of a ring element z is one wedge,
(-1)^(n-i) W_i ^ z, with W_i the anchor's cached wedge of the x_j with
j != i.  The entry is divided on orbits: the quotient is symmetric,
found one orbit at a time (``divide_orbits``), and expanded into a
tensor only when its numerator is read.  The defining expansion is
re-checked through the quotients, on the orbits of the first n-1 slots:
both sides are invariant there, so they agree when they agree at the
keys whose first n-1 slots descend.  An entry that alpha(x) does not
divide is kept as numerator times alpha(x) over the square, a product
of two alternating tensors taken on orbits, and its expansion is
re-checked on the numerators' orbits at the keys whose first n-1 slots
strictly descend; the square is only built when a fraction needs it.

For a fixed anchor the coordinates are linear over the scalars, and in
a domain the quotient of a sum is the sum of the quotients.  So the
quotients are divided once per anchor and monomial of z, or per
anchor and (n-1)-orbit key of y, and kept as rows in a bounded table
on the anchor's context (``_row_table``); a call sums c * row over its
terms and runs the exact re-check on that sum every time.  A row is
kept only once its own re-check passes, and a call that meets a
monomial or orbit with no quotient divides its own numerators as
above, on every call.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .alternator import (
    divide_orbits,
    divide_symmetric,
    expand_symmetric,
    flat_orbits,
    multiply_alternating,
    multiply_symmetric,
    orbit_sum_n11,
    signed_orbits,
    symmetric_orbits,
    wedge_orbits,
)
from .errors import (
    ContextMismatch,
    NotInvariant,
    RingMismatch,
    UnsupportedAmbient,
    VerificationFailed,
)
from .ring_core import (
    FiniteFreeAlgebra,
    dict_divide_exact,
    terms_add,
    terms_neg,
    terms_scale,
)
from .tensor_algebra import (
    Tensor,
    is_sym_n11,
    is_symmetric,
)

__all__ = [
    "LocalizedElem",
    "tensor_divide_exact",
    "coordinates",
    "coordinates_of_invariant",
    "structure_constants_R",
    "r_algebra",
    "LocalizedScalars",
]

def _require_poly_domain(space):
    if not space.is_poly:
        raise UnsupportedAmbient(
            "localized arithmetic needs a polynomial ambient ring"
        )
    if space.scalars.kind not in ("Q", "Z", "Fp"):
        raise UnsupportedAmbient(f"unsupported scalars {space.scalars!r}")


def tensor_divide_exact(num, den):
    """num / den in the ambient tensor power, or None; exact only.

    Fractions divide on orbits (``divide_symmetric``); this division of
    full tensors is the one they must agree with.
    """
    _require_poly_domain(num.space)
    num._compat(den)
    quot = dict_divide_exact(num.terms, den.terms, num.space.scalars)
    if quot is None:
        return None
    return Tensor(num.space, quot, _clean=True)


class LocalizedElem:
    """A fully invariant numerator over alpha_sq(x)^exp.

    The numerator is symmetric under every slot permutation, so it is
    fixed by its coefficients at sorted keys, and those coefficients
    (``_orbits``) are the one stored form: add, ``==``, ``bool`` and
    negation read them, after padding the operand at the lower exponent by
    the square.  Products, the scalar action and ``normalize`` run on them
    too (``multiply_symmetric``, ``divide_symmetric``), and the square is
    taken by its own orbits (``alpha_sq_orbits``).  The public constructor
    takes a full tensor and raises NotInvariant unless it is symmetric;
    ``_from_orbits`` is the trusted one, for orbits that are symmetric by
    construction.  ``num`` expands the numerator into a full tensor on
    each read; only rendering reads it.  A scalar on either
    side of ``+``, ``-`` and ``==`` stands for ``from_scalar`` of it.
    """

    __slots__ = ("ctx", "exp", "_orbits")

    def __init__(self, ctx, num, exp):
        _require_poly_domain(ctx.space)
        if num.space != ctx.space:
            raise ContextMismatch("numerator from a different tensor power")
        if exp < 0:
            raise UnsupportedAmbient("negative exponent")
        if not is_symmetric(num):
            raise NotInvariant("numerator is not fully invariant")
        self.ctx = ctx
        self._orbits = symmetric_orbits(num)
        self.exp = exp if self._orbits else 0

    @classmethod
    def _from_orbits(cls, ctx, orbits, exp=0):
        # a symmetric numerator by its coefficients at sorted keys
        out = cls.__new__(cls)
        out.ctx, out._orbits = ctx, orbits
        out.exp = exp if orbits else 0
        return out

    @property
    def num(self):
        """The numerator as a full tensor, expanded on each read."""
        return expand_symmetric(self.ctx.space, self._orbits)

    def _padded(self, m):
        # the numerator's orbits over the square's m-th power, m >= exp
        orbits, ctx = self._orbits, self.ctx
        for _ in range(m - self.exp):
            orbits = multiply_symmetric(ctx.space, orbits, ctx.alpha_sq_orbits)
        return orbits

    @classmethod
    def from_scalar(cls, ctx, c):
        """c times the unit, for any c the scalars' ``coerce`` accepts."""
        space = ctx.space
        _require_poly_domain(space)
        c = space.scalars.coerce(c)
        unit = (0,) * (space.n * space.width)  # the unit monomial in every slot
        return cls._from_orbits(ctx, {unit: c} if c else {})

    @classmethod
    def zero(cls, ctx):
        _require_poly_domain(ctx.space)
        return cls._from_orbits(ctx, {})

    def _coerce(self, other):
        # other as a fraction over this anchor tuple: a fraction, or a
        # scalar that stands for from_scalar of it
        if not isinstance(other, LocalizedElem):
            return LocalizedElem.from_scalar(self.ctx, other)
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch("fractions over different anchor tuples")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        m = max(self.exp, other.exp)
        norm = self.ctx.space.scalars.normalize
        orbits = terms_add(self._padded(m), other._padded(m), norm)
        return LocalizedElem._from_orbits(self.ctx, orbits, m)

    __radd__ = __add__

    def __neg__(self):
        orbits = terms_neg(self._orbits, self.ctx.space.scalars.normalize)
        return LocalizedElem._from_orbits(self.ctx, orbits, self.exp)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        space = self.ctx.space
        if not isinstance(other, LocalizedElem):
            # the scalar action
            scalars = space.scalars
            orbits = terms_scale(self._orbits, scalars.coerce(other), scalars.normalize)
            return LocalizedElem._from_orbits(self.ctx, orbits, self.exp)
        other = self._coerce(other)
        orbits = multiply_symmetric(space, self._orbits, other._orbits)
        out = LocalizedElem._from_orbits(self.ctx, orbits, self.exp + other.exp)
        return out.normalize()

    __rmul__ = __mul__

    def normalize(self):
        """Strip alternator-square factors from the numerator, exactly."""
        ctx, orbits, exp = self.ctx, self._orbits, self.exp
        while exp:
            quot = divide_symmetric(ctx.space, orbits, ctx.alpha_sq_orbits)
            if quot is None:
                break
            orbits, exp = quot, exp - 1
        return self if exp == self.exp else LocalizedElem._from_orbits(ctx, orbits, exp)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except RingMismatch:
            return False  # no value of the ring, so not this fraction
        m = max(self.exp, other.exp)
        return self._padded(m) == other._padded(m)

    def __bool__(self):
        return bool(self._orbits)

    def to_text(self):
        if self.exp == 0:
            return self.num.to_text()
        return f"({self.num.to_text()}) / asq^{self.exp}"

    def __repr__(self):
        return f"LocalizedElem({self.to_text()!r})"


def _heads_descend(space, key):
    # the first n-1 slots of a flat key are weakly descending
    w = space.width
    return all(
        key[j * w : (j + 1) * w] >= key[(j + 1) * w : (j + 2) * w]
        for j in range(space.n - 2)
    )


# the keys of m_lam * phi_n(label) whose first n-1 slots descend, one per
# distinct slot block v of lam: v goes last and takes the label.  An
# entry holds at most n = 5 keys of n * width ints, under 1 kB.
@lru_cache(maxsize=4096)
def _head_keys(lam, label, n, width):
    out = []
    for j in range(0, n * width, width):
        v = lam[j : j + width]
        if lam[j + width : j + 2 * width] == v:
            continue  # the last slot of each block stands for it
        out.append(lam[:j] + lam[j + width :] + tuple(map(add, v, label)))
    return tuple(out)


def _expansion_heads(space, quots, x_terms, signed=False):
    """sum q_i * phi_n(x_i) at the keys whose first n-1 slots descend.

    Each q_i is symmetric, by its coefficients at sorted keys lam.  The
    arrangements of lam with the first n-1 slots descending are fixed by
    the slot block v that goes last, one per distinct block, and each
    term (label, a) of x_i moves that key to v + label in the last slot
    (``_head_keys``).  With ``signed`` each q_i is alternating instead,
    by its sorted keys, whose slots strictly descend: the sum alternates
    in the first n-1 slots, so it is fixed at the keys where they
    strictly descend, and block p of n going last passes n-1-p blocks,
    so it carries the sign (-1)^(n-1-p).
    """
    n, w = space.n, space.width
    acc = {}
    for q, terms in zip(quots, x_terms):
        for lam, c in q.items():
            for label, a in terms:
                m = c * a
                keys = _head_keys(lam, label, n, w)
                if signed:
                    for k in keys[n - 2 :: -2]:  # the p with n-1-p odd
                        s = acc.get(k)
                        acc[k] = -m if s is None else s - m
                    keys = keys[n - 1 :: -2]
                for k in keys:
                    s = acc.get(k)
                    acc[k] = m if s is None else s + m
    norm = space.scalars.normalize
    return {k: c for k, c in ((k, norm(c)) for k, c in acc.items()) if c}


def _recheck(ctx, quots, heads, failure):
    # sum q_i * phi_n(x_i) against the target's heads (see ``_over_alpha``)
    if _expansion_heads(ctx.space, quots, ctx.x_terms) != heads:
        raise VerificationFailed(failure)


def _over_alpha(ctx, nums, heads, target_alpha, failure):
    """Coordinate entries nums_i / alpha(x), after a reconstruction check.

    Every numerator is alternating and given by its coefficients at
    sorted keys, and so is alpha(x); each is divided by alpha(x) on those
    coefficients (``divide_orbits``).  When every entry divides, the
    check is sum q_i * phi_n(x_i) == target on the quotients q_i: the
    ambient is a domain and alpha(x) is nonzero, so that is the same as
    sum nums_i * phi_n(x_i) == target * alpha(x), which is checked
    otherwise.  The target is invariant in the first n-1 slots (a
    last-slot co-projection, or a y that passed ``is_sym_n11``), and so
    is every q_i * phi_n(x_i), since q_i is symmetric; so the quotients
    are checked against ``heads``, the target's terms at the keys whose
    first n-1 slots descend, one per orbit of those slots, and never
    expanded.  Both sides of the other check alternate in the first n-1
    slots, so it compares them where those slots strictly descend: the
    numerators' side from their orbits, and target * alpha(x) from
    ``target_alpha()``.  Each entry is the quotient at exponent 0 when
    one exists, and nums_i * alpha(x) over the square otherwise, a
    product of alternating tensors on orbits (``multiply_alternating``):
    the square divides nums_i * alpha(x) exactly when alpha(x) divides
    nums_i, so both forms are already normalized.
    """
    space = ctx.space
    quots = [divide_orbits(space, num, ctx.alpha_x_orbits) for num in nums]
    if all(q is not None for q in quots):
        _recheck(ctx, quots, heads, failure)
        return tuple(LocalizedElem._from_orbits(ctx, q) for q in quots)
    if _expansion_heads(space, nums, ctx.x_terms, signed=True) != target_alpha():
        raise VerificationFailed(failure)
    return tuple(
        LocalizedElem._from_orbits(
            ctx, multiply_alternating(space, num, ctx.alpha_x_orbits), 1
        )
        if q is None
        else LocalizedElem._from_orbits(ctx, q)
        for num, q in zip(nums, quots)
    )


_COORDINATE_FAILURE = "coordinate expansion failed to reconstruct the input"
_INVARIANT_FAILURE = "invariant expansion failed to reconstruct"


def _coordinate_nums(ctx, terms):
    # entry i's numerator for a ring element with these terms: one wedge
    space = ctx.space
    return [flat_orbits(wedge_orbits(space, w, terms)) for w in ctx.cofactor_wedges]


def _invariant_nums(ctx, y):
    # entry i's numerator for y: (-1)^(n-i) alpha(x_dropped(i) * y)
    n, norm = ctx.space.n, ctx.space.scalars.normalize
    nums = []
    for i in range(1, n + 1):
        num = signed_orbits(ctx.x_dropped(i) * y)
        if (n - i) % 2:
            num = {k: norm(-c) for k, c in num.items()}
        nums.append(num)
    return nums


def _row_table(ctx):
    """The anchor's coordinate rows, made on first use and kept on the
    context (``AlternatorInstance.coordinate_rows``), so the rows are
    freed with the anchor they were divided for."""
    table = ctx.coordinate_rows
    if table is not None:
        return table
    space = ctx.space
    one = space.one_coeff()
    unit = (0,) * (space.width * (space.n - 1))

    # One row per monomial label of z (orbit False) or (n-1)-orbit key of
    # y (orbit True): the entries' quotients by alpha(x) of that monomial
    # or of the sum of the arrangements of the key's first n-1 slots, or
    # None when some entry has none.  A fill whose reconstruction check
    # raises stores nothing.  An entry holds n orbit dicts: 1.0 kB on
    # average and 2.4 kB at most over (1, t, ..., t^(n-1)) at n <= 5,
    # 0.5-0.7 kB on the fixtures and the rank-4 anchor of README's Input
    # bounds; on its dearest rank-3 anchor an instance stores one None.
    @lru_cache(maxsize=4096)
    def _coordinate_row(key, orbit):
        if orbit:
            y = orbit_sum_n11(space, key)
            nums, heads = _invariant_nums(ctx, y), {key: one}
            failure = _INVARIANT_FAILURE
        else:
            nums = _coordinate_nums(ctx, ((key, one),))
            heads, failure = {unit + key: one}, _COORDINATE_FAILURE
        quots = [divide_orbits(space, num, ctx.alpha_x_orbits) for num in nums]
        if any(q is None for q in quots):
            return None
        _recheck(ctx, quots, heads, failure)
        return tuple(quots)

    ctx.coordinate_rows = _coordinate_row
    return _coordinate_row


def _linear(ctx, terms, orbit, heads, fallback, failure):
    """The coordinates of sum c * (the monomial or orbit sum at key) over
    the (key, c) ``terms``: sum c * row, re-checked against ``heads``.

    Coordinates are linear over the scalars, and in a domain the quotient
    of a sum by alpha(x) is the sum of the quotients, so a call reads one
    stored row per key (``_row_table``) and divides nothing.  The sums
    keep their keys in descending order, as division leaves them.  At
    the first row with no quotient the call takes ``fallback()``, the
    route that divides the sum itself, since the sum may still have one.
    """
    table = _row_table(ctx)
    rows = []
    for key, c in terms:
        row = table(key, orbit)
        if row is None:
            return fallback()
        rows.append((row, c))
    quots = _row_sums(ctx.space, rows)
    _recheck(ctx, quots, heads, failure)
    return tuple(LocalizedElem._from_orbits(ctx, q) for q in quots)


def _row_sums(space, rows):
    # entry by entry, sum c * row over the (row, c) pairs, keys descending
    norm = space.scalars.normalize
    quots = []
    for i in range(space.n):
        acc = {}
        for row, c in rows:
            for k, v in row[i].items():
                s = acc.get(k)
                acc[k] = c * v if s is None else s + c * v
        ordered = ((k, norm(acc[k])) for k in sorted(acc, reverse=True))
        quots.append({k: c for k, c in ordered if c})
    return quots


def coordinates(ctx, z):
    """Coordinates of the last-slot co-projection of a ring element.

    Entry i is the alternator of x with slot i replaced by z, over the
    alternator of x.  That alternator is (-1)^(n-i) W_i ^ z, one wedge
    with the anchor's cached (n-1)-fold wedge W_i.  It is linear in z, so
    the entries are summed from one stored row per monomial of z
    (``_linear``); when a monomial's entry does not divide, z's own
    wedges are divided (``_over_alpha``).  The defining expansion is
    re-checked exactly before returning, on every call.  The
    co-projection phi_n(z) has the unit label in its first n-1 slots, so
    its keys there descend and its heads are z's terms behind that unit
    prefix; the fallback check reads phi_n(z) * alpha(x) from alpha(x)'s
    orbits, so the co-projection is never built.
    """
    _require_poly_domain(ctx.space)
    space = ctx.space
    z = space.as_element(z)
    terms = space.decompose(z)
    unit = (0,) * (space.width * (space.n - 1))
    heads = {unit + label: c for label, c in terms}
    return _linear(
        ctx,
        terms,
        False,
        heads,
        lambda: _over_alpha(
            ctx,
            _coordinate_nums(ctx, terms),
            heads,
            lambda: _expansion_heads(space, [ctx.alpha_x_orbits], [terms], signed=True),
            _COORDINATE_FAILURE,
        ),
        _COORDINATE_FAILURE,
    )


def coordinates_of_invariant(ctx, y):
    """Coordinates of a partially invariant tensor in the same basis.

    Entry i carries sign (-1)^(n-i) on the alternator of x with slot i
    dropped, multiplied by y, under the full alternating sum, over the
    alternator of x.  y is the sum of c times the orbit sum of its first
    n-1 slots over its heads (key, c), so the entries are summed from one
    stored row per head (``_linear``), and on an anchor whose rows all
    divide only a row's fill forms the products x_dropped(i) * y.  When
    some row has no quotient, y's own full products are formed and
    divided (``_over_alpha``), on every call.  The expansion is
    re-checked exactly on every call.
    """
    _require_poly_domain(ctx.space)
    space = ctx.space
    if not is_sym_n11(y):
        raise NotInvariant("input must be invariant in the first n-1 slots")
    heads = {k: c for k, c in y.terms.items() if _heads_descend(space, k)}
    return _linear(
        ctx,
        heads.items(),
        True,
        heads,
        lambda: _over_alpha(
            ctx,
            _invariant_nums(ctx, y),
            heads,
            # y * alpha(x) alternates in the first n-1 slots, so it has
            # no term where two of them are equal
            lambda: {
                k: c
                for k, c in (y * ctx.alpha_x).terms.items()
                if _heads_descend(space, k)
            },
            _INVARIANT_FAILURE,
        ),
        _INVARIANT_FAILURE,
    )


def structure_constants_R(ctx):
    """Structure constants of the co-projection basis, as fractions.

    constants[i][j][k] is coordinate k of x_i * x_j; the table is
    symmetric in (i, j) because the ambient ring is commutative.
    """
    _require_poly_domain(ctx.space)
    n = ctx.space.n
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            table[i][j] = coordinates(ctx, ctx.x[i] * ctx.x[j])
            table[j][i] = table[i][j]
    return tuple(tuple(row) for row in table)


class LocalizedScalars:
    """Scalar-descriptor view of the localized invariants of a context.

    Lets the finite-algebra machinery run its exhaustive validator with
    localized fractions as the base scalars.
    """

    is_field = False

    def __init__(self, ctx):
        _require_poly_domain(ctx.space)
        self.ctx = ctx

    def zero(self):
        return LocalizedElem.zero(self.ctx)

    def one(self):
        return LocalizedElem.from_scalar(self.ctx, self.ctx.space.scalars.one())

    def from_int(self, k):
        return LocalizedElem.from_scalar(self.ctx, self.ctx.space.scalars.from_int(k))

    def normalize(self, v):
        return v.normalize()

    def is_zero(self, v):
        return not v

    def is_unit(self, v):
        raise UnsupportedAmbient("no unit test for localized scalars")

    def parse(self, text):
        raise UnsupportedAmbient("localized scalars are not parsed from text")

    def to_text(self, v):
        return v.to_text()

    def __eq__(self, other):
        return isinstance(other, LocalizedScalars) and self.ctx == other.ctx

    def __hash__(self):
        return hash((id(type(self)), self.ctx.space.n))


def r_algebra(ctx):
    """The co-projection basis as a validated finite free algebra.

    Runs the same commutativity/associativity/unit validator as any other
    structure-constant algebra, with localized fractions for scalars.
    """
    constants = structure_constants_R(ctx)
    unit_coords = coordinates(ctx, ctx.space.ring.one())
    return FiniteFreeAlgebra(
        LocalizedScalars(ctx), ctx.space.n, constants, unit_coords
    )

"""Alternating sums over slot permutations and their exchange identities.

The alternating sum of a tensor over all signed slot permutations plays
the role of a determinant with respect to the tuple of slot entries: on a
pure tensor x_1 (x) ... (x) x_n it equals the determinant of the matrix
whose (p, q) entry is the co-projection of x_q into slot p.  This module
implements that map, its partially-invariant variant which alternates the
first n-1 slots only, and machine checks for the identities that tie the
two together: linearity over fully and partially invariant tensors, the
expansion of the full map through the partial one, the span identities
that rewrite products into slot-substituted alternators, and the
coefficient-extraction rule.

An alternating sum is fixed by one coefficient per orbit of keys, so the
signed maps never loop over the group for each input term.  Each orbit
has one key, its sorted key: the arrangement with the alternated slots
in descending order, strictly for an alternating tensor and weakly for a
symmetric one, and the orbit's coefficient is the tensor's own there.
Each term adds its signed coefficient at its sorted key; a term with two
equal alternated slots cancels in every ring and is dropped.  Only each
surviving sorted key is then expanded over the group, once, with no
merging: the work is one sort per input term plus one write per output
term.  The alternator of a tuple is its exterior product
x_1 ^ ... ^ x_n, and it is built that way (``wedge_orbits``), so the
pure tensor of the tuple is never formed.  The determinant of a matrix
of polarized power sums (``det_power_sums``) keeps its minors the same
way, by their coefficients at sorted keys, and multiplies a power sum
into a minor on those keys alone; so do products of symmetric or of
alternating tensors (``multiply_symmetric``, ``multiply_alternating``)
and exact division of one alternating tensor by another, or of one
symmetric tensor by another (``divide_orbits``, ``divide_symmetric``):
the quotient is symmetric, is found one orbit at a time, and is kept by
its orbits until read (``expand_symmetric``).  Each of them multiplies
orbit sums, monomial or alternant, by one rule (``_orbit_pairs``), read
through a bounded table per kind of product.
Plain tuple order on sorted keys is lex order, a monomial order, under
which the leading key of a symmetric or alternating tensor is a sorted
key; so the division and product tables read the keys as they are.

Identity checks return a :class:`Witness` carrying both sides, never a
bare bool, so failing cases can be reported verbatim.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from operator import add, eq, ge, itemgetter, lt

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    PreconditionViolated,
    UnsupportedAmbient,
)
from .ring_core import MultiPoly, divide_terms
from .tensor_algebra import (
    Permutation,
    Tensor,
    all_signed_permutations,
    coprojection,
    is_sym_n11,
    is_symmetric,
    pure_tensor,
)

__all__ = [
    "alpha",
    "alpha_map",
    "alpha_n11",
    "alpha_orbits",
    "wedge_orbits",
    "signed_orbits",
    "expand_orbits",
    "expand_symmetric",
    "symmetric_orbits",
    "divide_orbits",
    "divide_symmetric",
    "multiply_symmetric",
    "multiply_alternating",
    "det_power_sums",
    "AlternatorInstance",
    "IdentityData",
    "Witness",
    "check_identity",
    "IDENTITY_NAMES",
    "random_element",
    "random_tensor",
    "random_invariant",
    "random_case",
]


def _getter(items):
    """``itemgetter(*items)``, but returning a tuple for any number of items."""
    if len(items) > 1:
        return itemgetter(*items)
    return lambda key: tuple(key[i] for i in items)


@lru_cache(maxsize=None)
def _signed_reindex(n, width, fix_last):
    """Reindexing maps of the alternated group, keyed by permutation images.

    Alternated slots are all n slots, or the first n-1 with ``fix_last``.
    The map for images p sends a flat key to the key whose slot i is the
    old slot p[i], and carries sign(p).  Summing sign(s) * (s acting on t)
    over a symmetric group equals the same sum with each s replaced by its
    inverse, so these maps expand a key into its signed orbit.  Returns
    the getter of the alternated slots and the maps.
    """
    m = n - 1 if fix_last else n
    maps = {}
    for perm, sign in all_signed_permutations(m):
        images = perm.images + (n - 1,) if fix_last else perm.images
        idx = [images[i] * width + c for i in range(n) for c in range(width)]
        maps[perm.images] = (_getter(idx), sign)
    # a slot of width 1 is read as its one exponent, which orders alike
    bounds = range(0, m * width, width)
    slots = _getter([i if width == 1 else slice(i, i + width) for i in bounds])
    return slots, maps


@lru_cache(maxsize=None)
def _arrangements(pattern, width):
    """Getters of the distinct rearrangements of a key with sorted slots.

    pattern[i] tells whether slot i + 1 of the key equals slot i, so equal
    slots form runs.  Each getter sends the key to one arrangement of its
    slots, and no two getters give the same key.
    """
    firsts = [0]
    for i, same in enumerate(pattern, start=1):
        firsts.append(firsts[-1] if same else i)
    return tuple(
        _getter([b * width + c for b in arr for c in range(width)])
        for arr in dict.fromkeys(permutations(firsts))
    )


def _pattern(slots):
    return tuple(map(eq, slots, slots[1:]))


def signed_orbits(t, fix_last=False):
    """The signed sum of t by its coefficients at sorted keys.

    The sum is alternating, so it is fixed by one coefficient per orbit:
    the one at the key whose alternated slots are in descending order.  A
    term whose slots sort by a permutation of sign e adds e * c there.  A
    term with two equal alternated slots meets its own transposition with
    the opposite sign, so it cancels in every ring, characteristic 2
    included, and is dropped.  Returns the nonzero normalized
    coefficients, keyed by those descending keys.
    """
    space = t.space
    slots_of, maps = _signed_reindex(space.n, space.width, fix_last)
    order = range(space.n - 1 if fix_last else space.n)
    orbits = {}
    for key, c in t.terms.items():
        slots = slots_of(key)
        if len(set(slots)) < len(slots):
            continue
        get, sign = maps[tuple(sorted(order, key=slots.__getitem__, reverse=True))]
        k = get(key)
        s = orbits.get(k)
        if sign < 0:
            c = -c
        orbits[k] = c if s is None else s + c
    norm = space.scalars.normalize
    return {k: c for k, c in ((k, norm(c)) for k, c in orbits.items()) if c}


def expand_orbits(space, orbits, fix_last=False):
    """The alternating tensor with the given coefficients at sorted keys.

    Each sorted key expands once into its orbit, whose keys are distinct:
    no key is merged twice.
    """
    _, maps = _signed_reindex(space.n, space.width, fix_last)
    norm = space.scalars.normalize
    out = {}
    for k, c in orbits.items():
        neg = norm(-c)
        for get, sign in maps.values():
            out[get(k)] = c if sign > 0 else neg
    return Tensor(space, out, _clean=True)


def expand_symmetric(space, orbits):
    """The symmetric tensor with the given coefficients at sorted keys.

    Each key expands once into its distinct arrangements, which come from
    a cache keyed by its pattern of equal slots.
    """
    slots_of, _ = _signed_reindex(space.n, space.width, False)
    out = {}
    for k, c in orbits.items():
        for get in _arrangements(_pattern(slots_of(k)), space.width):
            out[get(k)] = c
    return Tensor(space, out, _clean=True)


def orbit_sum_n11(space, key):
    """The sum of the distinct arrangements of key's first n-1 slots, with
    its last slot kept: coefficient 1 at each, so invariant in those
    slots, and with key as its one head when those slots weakly descend."""
    _, maps = _signed_reindex(space.n, space.width, True)
    one = space.one_coeff()
    return Tensor(space, {get(key): one for get, _ in maps.values()}, _clean=True)


def symmetric_orbits(t):
    """The coefficients of a symmetric tensor at its sorted keys, the keys
    whose slots weakly descend: the inverse of ``expand_symmetric``."""
    slots_of, _ = _signed_reindex(t.space.n, t.space.width, False)
    out = {}
    for k, c in t.terms.items():
        slots = slots_of(k)
        if all(map(ge, slots, slots[1:])):
            out[k] = c
    return out


def _signed_sum(t, fix_last):
    return expand_orbits(t.space, signed_orbits(t, fix_last), fix_last)


def _orbit_pairs(lam, mu, n, width, lam_alt, mu_alt):
    """The (kappa, w) pairs of G(lam) * G(mu), or None when lam is no
    orbit key: a negative entry, or slots that do not weakly descend.

    G(k) is the monomial symmetric sum m_k, or the alternant A(k) when
    its factor alternates, and the product alternates when exactly one
    factor does.  The product is invariant, or alternating, so the sum
    over the arrangements beta of mu is |Stab kappa| / |Stab mu| times
    its term at beta = mu: w is that ratio times the sum of chi over the
    distinct arrangements alpha of lam with alpha + mu an arrangement of
    kappa (Macdonald, ch. I.2-I.3).  chi is sign(alpha) when lam
    alternates, times the sign of the sort of alpha + mu when the product
    alternates, and then a key with two equal slots cancels and is
    dropped.  A stabilizer has n! over its key's number of distinct
    arrangements (``_arrangements``) elements, and every weight is an
    integer, so the rule is exact in every characteristic.
    """
    slots_of, maps = _signed_reindex(n, width, False)
    blocks = slots_of(lam)
    if min(lam) < 0 or any(map(lt, blocks, blocks[1:])):
        return None
    if lam_alt:
        arranged = maps.values()
    else:
        arranged = [(get, 1) for get in _arrangements(_pattern(blocks), width)]
    join = tuple if width == 1 else lambda slots: sum(slots, ())
    sums = {}
    for get, chi in arranged:
        key = tuple(map(add, get(lam), mu))
        slots = slots_of(key)
        if lam_alt == mu_alt:
            key = join(sorted(slots, reverse=True))
        elif len(set(slots)) < n:
            continue
        else:
            order = sorted(range(n), key=slots.__getitem__, reverse=True)
            reindex, sign = maps[tuple(order)]
            key, chi = reindex(key), chi * sign
        sums[key] = sums.get(key, 0) + chi
    ratio = len(_arrangements(_pattern(slots_of(mu)), width))
    return tuple(
        (k, c * ratio // len(_arrangements(_pattern(slots_of(k)), width)))
        for k, c in sums.items()
        if c
    )


# Three tables of that rule, kept apart so that the division shapes stay
# when products thrash.  An entry holds at most n! = 120 pairs of
# (n * width)-tuples, about 18 kB at n = 5 and width 1.  m_lam * A(d), for
# divide_orbits: the shapes recur across entries, anchors and cases.
@lru_cache(maxsize=1024)
def _product_orbits(lam, d, n, width):
    return _orbit_pairs(lam, d, n, width, False, True)


# m_lam * m_mu; the entries met average 0.5 kB.  r_algebra on the anchor
# (1, t^2 + t, t^4 + t) fills 27,251 entries, 15 MB, and a table of 16384
# or fewer thrashes on it.
@lru_cache(maxsize=32768)
def _symmetric_pairs(lam, mu, n, width):
    return _orbit_pairs(lam, mu, n, width, False, False)


# A(lam) * A(mu), for the fallback entries and the square of alpha(x);
# 0.8 kB an entry at n = 3.  An instance of rank 3 with anchor entries of
# degree 10 fills about 26,500 entries, 21 MB, and a table of 4096
# thrashes on it.
@lru_cache(maxsize=32768)
def _alternant_pairs(lam, mu, n, width):
    return _orbit_pairs(lam, mu, n, width, True, True)


def _divide(space, num, den, table):
    # num / den on orbits, by the product rule of one bounded table
    n, width = space.n, space.width
    return divide_terms(
        dict(num), den.items(), space.scalars, lambda lam, d: table(lam, d, n, width)
    )


def divide_orbits(space, num, den):
    """num / den for two alternating tensors, or None; exact only.

    Both are given by their coefficients at sorted keys (``signed_orbits``),
    over a polynomial ambient whose tensor power is a domain.  The quotient
    of two alternating tensors is symmetric, so it is a sum of monomial
    symmetric tensors m_lam, one per orbit; a quotient of alternants is
    the bialternant quotient (Macdonald, Symmetric Functions and Hall
    Polynomials, 2nd ed., ch. I.3).  Division runs on orbits alone, in
    the one loop of ``ring_core.divide_terms``:

    - Under plain tuple order, which is lex order, the leading key of a
      symmetric or alternating tensor is its largest sorted key, and the
      leading key of a product is the sum of the leading keys.  So the
      largest remainder key minus den's leading key is the next lam, or
      the division fails when it has a negative entry or its slots are
      not weakly descending.  In a domain the quotient is unique, so the
      order fixes only the path of a division that fails.
    - m_lam * A(d) = sum of A(mu + d) over the distinct arrangements mu
      of lam, over Z, where A(k) is the alternant of key k: zero when k
      has two equal slots, and sign(s) * A(sort k) otherwise.  So each
      step subtracts that sum, at sorted keys, and stays exact in every
      characteristic, 2 included: an alternating tensor is fixed by its
      coefficients at sorted keys with distinct slots.  The sum for one
      (lam, d) comes from a bounded table (``_product_orbits``), since
      the same shapes recur across entries, anchors and cases.

    Returns the quotient by its coefficients at sorted keys, in
    descending key order, which ``expand_symmetric`` turns into a tensor;
    it equals ``dict_divide_exact`` on the expanded tensors.
    """
    return _divide(space, num, den, _product_orbits)


def divide_symmetric(space, num, den):
    """num / den for two symmetric tensors, or None; exact only.

    Both are given by their coefficients at sorted keys
    (``symmetric_orbits``), over a polynomial ambient whose tensor power
    is a domain.  The loop is ``divide_orbits``' with the product rule of
    monomial symmetric tensors, m_lam * m_mu from a bounded table
    (``_symmetric_pairs``), whose weights are integers, so it stays exact
    in every characteristic.
    """
    return _divide(space, num, den, _symmetric_pairs)


def _multiply(space, a, b, table):
    # a * b on orbits, by the product rule of one bounded table
    n, width = space.n, space.width
    acc = {}
    for lam, ca in a.items():
        for mu, cb in b.items():
            m = ca * cb
            for kappa, w in table(lam, mu, n, width):
                s = acc.get(kappa)
                acc[kappa] = w * m if s is None else s + w * m
    norm = space.scalars.normalize
    return {k: c for k, c in ((k, norm(c)) for k, c in acc.items()) if c}


def multiply_symmetric(space, a, b):
    """The product of two symmetric tensors, by their coefficients at
    sorted keys: m_lam * m_mu expands in the m_kappa with integer
    coefficients (Macdonald, ch. I.2), read from ``_symmetric_pairs``."""
    return _multiply(space, a, b, _symmetric_pairs)


def multiply_alternating(space, a, b):
    """The product of two alternating tensors, by their coefficients at
    sorted keys: a symmetric tensor, by its coefficients at sorted keys,
    read from ``_alternant_pairs``."""
    return _multiply(space, a, b, _alternant_pairs)


def det_power_sums(space, zs):
    """det[P(z_ij)] for a square matrix of ring elements z_ij.

    P(z) is the polarized power sum of z, the sum of its n co-projections:
    sum of c * p_label over the terms (label, c) of z, where p_label has
    the label in one slot and the unit label in every other.  The subset
    expansion of ``ring_core.det_generic``, over a polynomial ambient.
    Every minor is fully invariant, so it is kept by its coefficients at
    sorted keys rho alone, the coefficients of the monomial symmetric
    tensors m_rho, and a zero minor is dropped.  p_label is m of
    (label, 0, ..., 0), and p_0 = n * m_0, whose factor n vanishes over
    GF(p) when p divides n; so an entry times a minor never expands the
    minor, but adds the (kappa, w) pairs of m_(label, 0, ..., 0) * m_rho
    (``_symmetric_pairs``).  The result is exact in every characteristic,
    with no division.  The determinant is expanded once into a full
    tensor (``expand_symmetric``).
    """
    size = len(zs)
    if size == 0 or any(len(row) != size for row in zs):
        raise ValueError("square nonempty matrix required")
    if not space.is_poly:
        raise UnsupportedAmbient("power-sum determinant needs a polynomial ambient")
    n, width = space.n, space.width
    norm = space.scalars.normalize
    rest = (0,) * (width * (n - 1))

    def entry(z):
        # P(z) by its orbits (label, 0, ..., 0), keyed as the minors
        pairs = space.decompose(z)
        terms = [(k + rest, a if any(k) else n * a) for k, a in pairs]
        return [(k, c) for k, c in ((k, norm(c)) for k, c in terms) if c]

    rows = [[entry(z) for z in row] for row in zs]
    cur = {0: {(0,) * (n * width): space.scalars.one()}}
    for r, row in enumerate(rows):
        nxt = {}
        for mask, minor in cur.items():
            for j, terms in enumerate(row):
                bit = 1 << j
                if mask & bit or not terms:
                    continue
                acc = nxt.setdefault(mask | bit, {})
                negate = (r + (mask & (bit - 1)).bit_count()) % 2
                for rho, c in minor.items():
                    if negate:
                        c = -c
                    for lam, a in terms:
                        ac = a * c
                        for kappa, w in _symmetric_pairs(lam, rho, n, width):
                            m = w * ac
                            s = acc.get(kappa)
                            acc[kappa] = m if s is None else s + m
        cur = {}
        for mask, acc in nxt.items():
            minor = {k: c for k, c in ((k, norm(c)) for k, c in acc.items()) if c}
            if minor:
                cur[mask] = minor
    return expand_symmetric(space, cur.get((1 << size) - 1, {}))


def alpha_map(t):
    """Alternating sum of t over all signed slot permutations (A-linear)."""
    return _signed_sum(t, fix_last=False)


def alpha_n11(t):
    """Alternate the first n-1 slots only, leaving the last slot fixed."""
    return _signed_sum(t, fix_last=True)


def wedge_orbits(space, wedge, terms):
    """The wedge of an m-fold wedge with one more ring element.

    An m-fold wedge is alternating, so it is kept by its coefficients at
    its sorted keys, the arrangements of m distinct slot labels in
    descending order.  Each is stored under its labels listed ascending,
    where ``bisect`` finds a new label's place, and ``flat_orbits`` turns
    them back.  Each term (label, a) of the element
    (``TensorSpace.decompose``) is inserted into each tuple: at ascending
    position p it passes the p smaller labels on its way from the end of
    the descending arrangement, so it carries the sign (-1)^p; a label
    the tuple already holds drops the term, since it cancels in every
    ring.  Returns the (m+1)-fold wedge in the same form, without zeros.
    """
    acc = {}
    for key, c in wedge.items():
        m = len(key)
        for label, a in terms:
            p = bisect_left(key, label)
            if p < m and key[p] == label:
                continue
            k = key[:p] + (label,) + key[p:]
            v = c * a if p % 2 == 0 else -(c * a)
            s = acc.get(k)
            acc[k] = v if s is None else s + v
    norm = space.scalars.normalize
    return {k: c for k, c in ((k, norm(c)) for k, c in acc.items()) if c}


def flat_orbits(wedge):
    """An n-fold wedge by its coefficients at sorted keys: each ascending
    tuple of n slot labels, reversed and laid end to end."""
    return {sum(k[::-1], ()): c for k, c in wedge.items()}


def alpha_orbits(space, xs):
    """Alternator of an n-tuple, by its coefficients at sorted keys: the
    wedge of its entries, one factor at a time."""
    if len(xs) != space.n:
        raise ArityMismatch(f"{len(xs)} factors for arity {space.n}")
    wedge = {(): space.one_coeff()}
    for x in xs:
        wedge = wedge_orbits(space, wedge, space.decompose(x))
    return flat_orbits(wedge)


def alpha(space, xs):
    """Alternator of an n-tuple of ring elements."""
    return expand_orbits(space, alpha_orbits(space, xs))


class AlternatorInstance:
    """A fixed anchor tuple x with its alternator cached.

    The instance is the shared context for coordinate computations: the
    alternator square of x is the invariant that gets inverted, and the
    co-projections of the x_i into the last slot are the spanning set.
    What the coordinates read of x (its (n-1)-fold wedges, the terms of
    each x_i, the pure tensors with one slot dropped) is built on first
    read and kept.
    """

    def __init__(self, space, xs):
        if len(xs) != space.n:
            raise ArityMismatch(f"{len(xs)} entries for arity {space.n}")
        self.space = space
        self.x = tuple(space.as_element(x) for x in xs)
        # alpha(x) by its coefficients at sorted keys: every coordinate
        # divides by it in that form (see ``divide_orbits``)
        self.alpha_x_orbits = alpha_orbits(space, self.x)
        # span_solver's coordinate rows for this anchor, made there on
        # first use and freed with this context
        self.coordinate_rows = None

    @cached_property
    def x_terms(self):
        """The (label, coefficient) terms of each x_i."""
        return tuple(self.space.decompose(xi) for xi in self.x)

    @cached_property
    def cofactor_wedges(self):
        """(-1)^(n-i) times the wedge of the x_j with j != i, for i = 1..n.

        Moving z from slot i to the end passes n - i slots, so the
        alternator of x with slot i replaced by z is the wedge of entry
        i - 1 with z (``wedge_orbits``).
        """
        space, n = self.space, self.space.n
        one = space.one_coeff()
        signs = (one, space.scalars.normalize(-one))
        out = []
        for i in range(n):
            wedge = {(): signs[(n - 1 - i) % 2]}
            for terms in self.x_terms[:i] + self.x_terms[i + 1 :]:
                wedge = wedge_orbits(space, wedge, terms)
            out.append(wedge)
        return tuple(out)

    @cached_property
    def phi_n_x(self):
        """The co-projections of the x_i into the last slot, built on
        first read."""
        return tuple(coprojection(self.space, self.space.n, xi) for xi in self.x)

    @cached_property
    def alpha_x(self):
        """The alternator of x as a full tensor, expanded on first read."""
        return expand_orbits(self.space, self.alpha_x_orbits)

    @cached_property
    def alpha_sq(self):
        """The alternator square as a full tensor, built on first read:
        the free-case checks over an algebra ambient read it."""
        return self.alpha_x * self.alpha_x

    @cached_property
    def alpha_sq_orbits(self):
        """The square by its coefficients at sorted keys, taken on orbits
        on first read: fractions are padded and normalized by it."""
        orbits = self.alpha_x_orbits
        return multiply_alternating(self.space, orbits, orbits)

    def _check_slot(self, i):
        if not 1 <= i <= self.space.n:
            raise IndexOutOfRange(f"slot {i} outside 1..{self.space.n}")

    @cached_property
    def _dropped(self):
        one = self.space.ring.one()
        return tuple(
            pure_tensor(self.space, self.x[:i] + self.x[i + 1 :] + (one,))
            for i in range(self.space.n)
        )

    def x_dropped(self, i):
        """Pure tensor of x with slot i (1-based) removed and a 1 appended."""
        self._check_slot(i)
        return self._dropped[i - 1]

    def x_replaced(self, i, z):
        """The tuple x with slot i (1-based) replaced by z."""
        self._check_slot(i)
        z = self.space.as_element(z)
        return self.x[: i - 1] + (z,) + self.x[i:]

    def __eq__(self, other):
        return (
            isinstance(other, AlternatorInstance)
            and self.space == other.space
            and all(a == b for a, b in zip(self.x, other.x))
        )

    def __repr__(self):
        xs = ", ".join(
            self.space.ring.to_text(x) if self.space.is_poly else repr(x)
            for x in self.x
        )
        return f"AlternatorInstance(n={self.space.n}, x=({xs}))"


def _side_text(v):
    if v is None:
        return ""
    return v if isinstance(v, str) else v.to_text()


@dataclass
class Witness:
    """Outcome of one machine-checked identity, with both sides kept."""

    name: str
    ok: bool
    lhs: Tensor | None = None
    rhs: Tensor | None = None
    detail: str = ""

    @property
    def lhs_text(self):
        return _side_text(self.lhs)

    @property
    def rhs_text(self):
        return _side_text(self.rhs)

    def __bool__(self):
        return self.ok


@dataclass
class IdentityData:
    """Input bundle for check_identity; identities use what they need."""

    x: tuple = ()
    y: Tensor | None = None
    t: Tensor | None = None
    z: object = None
    scalars: tuple = ()
    slot: int = 0


def _need(cond, what):
    if not cond:
        raise PreconditionViolated(what)


def _check_ts_linearity(space, data):
    _need(data.t is not None and data.y is not None, "needs t and y")
    _need(is_symmetric(data.y), "y must be invariant under all slot permutations")
    lhs = alpha_map(data.t * data.y)
    rhs = alpha_map(data.t) * data.y
    return lhs, rhs


def _check_degree_relation(space, data):
    _need(data.t is not None, "needs t")
    n = space.n
    lhs = alpha_map(data.t)
    rhs = space.zero()
    for j in range(1, n + 1):
        tau = Permutation.transposition(n, j - 1, n - 1)
        moved = alpha_n11(data.t.permute(tau))
        rhs = rhs + moved if j == n else rhs - moved
    return lhs, rhs


def _check_n11_linearity(space, data):
    _need(data.t is not None and data.y is not None, "needs t and y")
    _need(is_sym_n11(data.y), "y must be invariant in the first n-1 slots")
    lhs = alpha_n11(data.t * data.y)
    rhs = alpha_n11(data.t) * data.y
    return lhs, rhs


def _check_symmetric_span(space, data):
    _need(len(data.x) == space.n and data.y is not None, "needs x and y")
    _need(is_sym_n11(data.y), "y must be invariant in the first n-1 slots")
    inst = AlternatorInstance(space, data.x)
    n = space.n
    lhs = inst.alpha_x * data.y
    rhs = space.zero()
    for i in range(1, n + 1):
        piece = alpha_map(inst.x_dropped(i) * data.y) * inst.phi_n_x[i - 1]
        rhs = rhs + piece if (n - i) % 2 == 0 else rhs - piece
    return lhs, rhs


def _check_coefficient(space, data):
    n = space.n
    _need(len(data.x) == n, "needs x")
    _need(len(data.scalars) == n, "needs one scalar per slot")
    _need(1 <= data.slot <= n, "slot out of range")
    inst = AlternatorInstance(space, data.x)
    z = space.ring.zero()
    for a, xi in zip(data.scalars, inst.x):
        z = z + xi * a
    lhs = alpha(space, inst.x_replaced(data.slot, z))
    rhs = inst.alpha_x.scale(data.scalars[data.slot - 1])
    return lhs, rhs


def _check_r_span(space, data):
    n = space.n
    _need(len(data.x) == n and data.z is not None, "needs x and z")
    inst = AlternatorInstance(space, data.x)
    z = space.as_element(data.z)
    lhs = inst.alpha_x * coprojection(space, n, z)
    rhs = space.zero()
    for i in range(1, n + 1):
        rhs = rhs + alpha(space, inst.x_replaced(i, z)) * inst.phi_n_x[i - 1]
    return lhs, rhs


_CHECKS = {
    "ts_linearity": _check_ts_linearity,
    "degree_relation": _check_degree_relation,
    "n11_linearity": _check_n11_linearity,
    "symmetric_span": _check_symmetric_span,
    "coefficient": _check_coefficient,
    "r_span": _check_r_span,
}
# the identity suites, in report order
IDENTITY_NAMES = tuple(_CHECKS)


def check_identity(name, space, data):
    """Evaluate both sides of a named identity on concrete data.

    Returns a Witness; raises PreconditionViolated when the supplied data
    does not satisfy the identity's hypotheses.
    """
    try:
        checker = _CHECKS[name]
    except KeyError:
        raise PreconditionViolated(f"unknown identity {name!r}") from None
    lhs, rhs = checker(space, data)
    return Witness(name=name, ok=lhs == rhs, lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# seeded random data for the verification suites
#
# All draws go through a caller-supplied random.Random, so a suite seed
# pins every case.  Element sizes respect the caller's bounds; dense
# inputs are never needed because every identity is multilinear.


def _random_coeff(rng, scalars):
    if scalars.kind == "Fp":
        return scalars.from_int(rng.randrange(1, scalars.p))
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _random_label(rng, space, max_degree):
    while True:
        label = tuple(rng.randint(0, max_degree) for _ in range(space.width))
        if sum(label) <= max_degree:
            return label


def random_element(rng, space, max_terms, max_degree):
    """Sparse random element of a polynomial ambient ring."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[_random_label(rng, space, max_degree)] = _random_coeff(
            rng, space.scalars
        )
    return MultiPoly(space.ring, terms)


def random_tensor(rng, space, max_terms, max_degree):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(
            v
            for _ in range(space.n)
            for v in _random_label(rng, space, max_degree)
        )
        terms[key] = _random_coeff(rng, space.scalars)
    return Tensor(space, terms)


def random_invariant(rng, space, max_degree, full=True):
    """Random invariant tensor as a sum of one or two signed-free orbit sums.

    ``full`` symmetrizes over all slots; otherwise over the first n-1
    slots only, which is every tensor when n = 2.
    """
    _, maps = _signed_reindex(space.n, space.width, not full)
    acc = {}
    for _ in range(rng.randint(1, 2)):
        key = tuple(
            v
            for _ in range(space.n)
            for v in _random_label(rng, space, max_degree)
        )
        c = _random_coeff(rng, space.scalars)
        for get, _ in maps.values():
            k = get(key)
            s = acc.get(k)
            acc[k] = c if s is None else s + c
    return Tensor(space, acc)


def random_case(name, rng, space, max_terms, max_degree):
    """Draw the data bundle one identity check needs."""
    n = space.n
    if name == "ts_linearity":
        return IdentityData(
            t=random_tensor(rng, space, max_terms, max_degree),
            y=random_invariant(rng, space, max_degree, full=True),
        )
    if name == "degree_relation":
        return IdentityData(t=random_tensor(rng, space, max_terms, max_degree))
    if name == "n11_linearity":
        return IdentityData(
            t=random_tensor(rng, space, max_terms, max_degree),
            y=random_invariant(rng, space, max_degree, full=False),
        )
    if name == "symmetric_span":
        xs = tuple(
            random_element(rng, space, max_terms, max_degree) for _ in range(n)
        )
        return IdentityData(
            x=xs, y=random_invariant(rng, space, max_degree, full=False)
        )
    if name == "coefficient":
        xs = tuple(
            random_element(rng, space, max_terms, max_degree) for _ in range(n)
        )
        scalars = tuple(
            space.scalars.from_int(rng.randint(-3, 3)) for _ in range(n)
        )
        return IdentityData(x=xs, scalars=scalars, slot=rng.randint(1, n))
    if name == "r_span":
        xs = tuple(
            random_element(rng, space, max_terms, max_degree) for _ in range(n)
        )
        return IdentityData(
            x=xs, z=random_element(rng, space, max_terms, max_degree)
        )
    raise PreconditionViolated(f"unknown identity {name!r}")

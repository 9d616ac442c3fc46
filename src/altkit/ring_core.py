"""Exact scalar arithmetic and finite free commutative algebras.

Everything downstream is built on three kinds of scalars:

* ``QQ`` / ``ZZ``  -- arbitrary-precision rationals and integers.  Rational
  values are plain ``int`` when integral and ``fractions.Fraction``
  otherwise; the two mix freely and compare equal where they should.
* ``GF(p)``       -- prime fields, values are plain ``int`` in 0..p-1.
* ``PolyRing``    -- sparse multivariate polynomials (:class:`MultiPoly`)
  over one of the above.  Every polynomial points at its PolyRing, the
  one factory for polynomials.

Scalar values carry no ring: the descriptor that holds them knows it, and
its ``normalize`` brings a sum or product back to the canonical value
(``v % p`` over GF(p)) before it is stored or tested for zero.

Polynomials and tensors share one sparse term kernel: module-level
functions on dicts from key tuples to nonzero coefficients, for add,
negate, scale, multiply, power and exact division.  Its one rule is
that keys multiply by adding.  Keys are tuples everywhere, and
exact division runs one loop for every ring and, with the caller's
product rule, for every key form (``divide_terms``), led by plain tuple
order.  Only polynomial division puts each key's total degree in front,
so that tuple order is degree-lex order there.

On top of the scalars sit dense matrix helpers and :class:`FiniteFreeAlgebra`,
a commutative algebra of finite rank given by structure constants that are
validated exhaustively at construction time.  There are two matrix
routines: a division-free determinant, valid over any commutative ring,
and one fraction-free elimination (Bareiss) whose every division is exact
and checked, from which rank, unique solutions and nullspaces all come.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, sub

from .errors import (
    BadUnit,
    NonAssociative,
    NonCommutative,
    ParseError,
    RingMismatch,
    UnsupportedBase,
    VariableMismatch,
    VerificationFailed,
)

__all__ = [
    "QQ",
    "ZZ",
    "GF",
    "CoeffRing",
    "MultiPoly",
    "PolyRing",
    "parse_expression",
    "det_generic",
    "echelon",
    "solve",
    "nullspace",
    "FiniteFreeAlgebra",
    "AlgebraElem",
    "AlgebraMap",
    "monomial_text",
    "MAX_POWER_EXPONENT",
    "MAX_POWER_DEGREE",
    "MAX_POWER_TERMS",
    "MAX_POWER_COEFF_BITS",
    "MAX_MODULUS",
]


# prime field moduli must stay below this bound, so that deciding
# primality costs a fixed number of modular powers
MAX_MODULUS = 2**64

# Miller-Rabin with the first 12 primes as bases is exact for every
# p below 318665857834031151167461 (about 3.2e23), far above MAX_MODULUS
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class CoeffRing:
    """Descriptor for a base scalar ring: Q, Z, or GF(p).

    Values are plain Python numbers: ``int``/``Fraction`` over Q and Z,
    and ``int`` in 0..p-1 over GF(p).  The descriptor supplies
    construction, parsing, rendering and the few arithmetic services that
    depend on the ring rather than on the value.
    """

    def __init__(self, kind, p=None):
        if kind not in ("Q", "Z", "Fp"):
            raise UnsupportedBase(f"unknown scalar kind {kind!r}")
        if kind == "Fp":
            if p is not None and p >= MAX_MODULUS:
                raise UnsupportedBase(f"GF({p}): modulus must be below {MAX_MODULUS}")
            if p is None or not _is_prime(p):
                raise UnsupportedBase(f"GF({p}): modulus must be prime")
            # v % p, the canonical representative
            self.normalize = p.__rmod__
        elif p is not None:
            raise UnsupportedBase(f"{kind} takes no modulus")
        self.kind = kind
        self.p = p

    def __eq__(self, other):
        return (
            isinstance(other, CoeffRing)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.kind == "Fp" else self.kind

    @property
    def is_field(self):
        return self.kind in ("Q", "Fp")

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k):
        return self.normalize(k)

    def normalize(self, v):
        # over Q and Z: keep rationals as ints when integral so dict merges
        # stay cheap (GF(p) replaces this method in __init__)
        if type(v) is Fraction and v.denominator == 1:
            return int(v)
        return v

    def coerce(self, c):
        """c as a value of this ring, or RingMismatch.

        Q takes an int or a Fraction, Z an int or a Fraction with
        denominator 1 (stored as an int), GF(p) an int.  Anything else,
        a float, a bool or a Fraction with no value in the ring, is
        refused before it is stored.
        """
        if type(c) is int or (
            type(c) is Fraction
            and (self.kind == "Q" or self.kind == "Z" and c.denominator == 1)
        ):
            return self.normalize(c)
        raise RingMismatch(f"cannot coerce {c!r} into {self!r}")

    def is_zero(self, v):
        return not v

    def is_unit(self, v):
        if self.kind == "Z":
            return v in (1, -1)
        return bool(v)

    def divide_exact(self, a, b):
        """a / b if it exists in the ring, else None."""
        if not b:
            return None
        if self.kind == "Q":
            if type(a) is int and type(b) is int:
                # an exact integer quotient needs no Fraction
                q, r = divmod(a, b)
                return Fraction(a, b) if r else q
            return self.normalize(Fraction(a) / Fraction(b))
        if self.kind == "Z":
            return a // b if a % b == 0 else None
        return a * pow(b, -1, self.p) % self.p

    def parse(self, text):
        if isinstance(text, str) and text.isdecimal():
            return self.from_int(_int_literal(text))
        return parse_expression(text, PolyRing(self, ())).constant()

    def to_text(self, v):
        return str(v)


QQ = CoeffRing("Q")
ZZ = CoeffRing("Z")

# one descriptor per modulus, so GF(p) is GF(p); an entry is one small
# CoeffRing object, a few hundred bytes
@lru_cache(maxsize=64)
def GF(p):
    return CoeffRing("Fp", p)


# ---------------------------------------------------------------------------
# the sparse term kernel: a term dict maps a key tuple (exponents, or tensor
# slot labels laid end to end) to a nonzero coefficient, ``norm`` is the
# scalar ring's ``normalize``, and keys multiply by adding.  No function
# here changes its arguments.
#
# Every coefficient is a plain number, and over GF(p) a sum, difference
# or product of two of them is not yet reduced, so each result goes
# through ``norm`` before its zero test.  Exact division keeps tuple keys,
# and plain ``max`` picks the leading key; polynomial division puts the
# total degree in front for the length of the call, so that it is the
# degree-lex leading key.  It runs one loop for every ring, and the orbit
# divisions of ``alternator`` run it too, on their keys as they are.


def _deglex(key):
    return (sum(key), key)


def terms_clean(terms, norm):
    """Normalized coefficients, with every one that normalizes to zero dropped."""
    out = {}
    for k, c in terms.items():
        c = norm(c)
        if c:
            out[k] = c
    return out


def terms_add(a, b, norm):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = norm(s + c)
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def terms_sub(a, b, norm):
    # terms_add(a, terms_neg(b, norm), norm) without the negated copy
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = norm(-c)
        else:
            s = norm(s - c)
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def terms_neg(a, norm):
    return {k: norm(-c) for k, c in a.items()}


def terms_scale(a, c, norm):
    # c is normalized first: over GF(p) the int p is zero
    c = norm(c)
    if not c:
        return {}
    return {k: norm(v * c) for k, v in a.items()}


def terms_mul(a, b, ring):
    """Product of two term dicts whose keys multiply by adding.

    ``ring`` is the CoeffRing of both dicts' coefficients.
    """
    acc = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(map(add, k1, k2))
            c = c1 * c2
            s = acc.get(k)
            acc[k] = c if s is None else s + c
    return terms_clean(acc, ring.normalize)


def power(x, k, one):
    """x**k by square-and-multiply through x's own ``*``; one is its unit.

    No multiply involves one, and x is squared only while higher bits of
    k remain, so (t+1)**8 takes three multiplies.
    """
    if k < 0:
        raise ValueError(f"negative power {k}")
    if not k:
        return one
    while not k & 1:
        x = x * x
        k >>= 1
    result = x
    k >>= 1
    while k:
        x = x * x
        if k & 1:
            result = result * x
        k >>= 1
    return result


def quotient_factor(lc, ring):
    """The factor that turns a coefficient into its quotient by the
    nonzero lc of the CoeffRing ``ring``, or None when the ring must
    divide (over Z, by ``divmod``)."""
    p = ring.p
    if p is not None:
        return pow(lc, -1, p)
    # a normalized a divided by +-1 is a times +-1, and over Q every
    # quotient is a times the inverse
    if lc == 1 or lc == -1:
        return lc
    if ring.kind == "Q":
        return ring.normalize(1 / Fraction(lc))
    return None


def divide_terms(rem, den, ring, pairs):
    """The exact-division loop on tuple keys, or None.

    Plain ``max`` picks the leading key, so the caller's keys must make
    tuple order a monomial order: the polynomial division puts the total
    degree in front (degree-lex), and orbit division keys each orbit by
    its slots in descending order (lex, ``alternator.divide_orbits``).
    ``rem`` maps the dividend's keys to nonzero coefficients of the
    CoeffRing ``ring`` and is used up; ``den`` holds the divisor's
    (key, coefficient) pairs, a list or a dict's items.  The product rule
    ``pairs(q, d)`` gives the (key, weight) terms of quotient key q times
    divisor key d, the leading key q + d with weight 1 among them, or None
    when q is no quotient key.  Each step divides the leading remainder
    coefficient by the divisor's, and subtracts every product term, the
    leading one too, which the step cancels exactly.  A weight can vanish
    modulo p, so a sum can reach zero at a key the remainder never held.
    A leading key that outlives its step means the rule broke that
    promise, and the loop would never end, so it raises
    VerificationFailed.  Returns the quotient, its keys in descending
    tuple order, and None for a zero divisor.
    """
    if not den:
        return None
    lead, lc = max(den)
    inv = quotient_factor(lc, ring)
    norm = ring.normalize
    get = rem.get
    quot = {}
    while rem:
        r = max(rem)
        q = tuple(map(sub, r, lead))
        c = rem[r]
        if inv is None:
            qc, m = divmod(c, lc)
            if m:
                return None
        else:
            qc = norm(c * inv)
        for d, dc in den:
            terms = pairs(q, d)
            if terms is None:
                return None
            m = qc * dc
            for k, w in terms:
                s = norm(get(k, 0) - w * m)
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        if r in rem:
            raise VerificationFailed(
                f"division step left its leading key {r}: the product rule is broken"
            )
        quot[q] = qc
    return quot


def _monomial_pairs(q, d):
    # keys multiply by adding, and q divides when no entry is negative
    return None if min(q, default=0) < 0 else ((tuple(map(add, q, d)), 1),)


def dict_divide_exact(num, den, ring):
    """Exact division of sparse term dicts under degree-lex order.

    Both dicts map equal-length exponent tuples to coefficients in the
    CoeffRing ``ring``.  Returns the quotient dict, its keys in descending
    degree-lex order, or None when the division leaves a remainder or a
    coefficient quotient does not exist.  The loop is ``divide_terms``
    with the monomial product rule.
    """
    quot = divide_terms(
        {(sum(k), *k): c for k, c in num.items()},
        [((sum(k), *k), c) for k, c in den.items()],
        ring,
        _monomial_pairs,
    )
    return None if quot is None else {q[1:]: c for q, c in quot.items()}


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


def monomial_text(names, exps):
    """``s*t^2`` style text of one monomial; ``1`` when every exponent is 0."""
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


class MultiPoly:
    """Sparse multivariate polynomial with exact coefficients.

    ``parent`` is the :class:`PolyRing` it lives in.  Terms map exponent
    tuples to nonzero coefficients; the zero polynomial has no terms.  Two
    polynomials are equal iff their parents are equal and their term dicts
    identical, so equality is representation equality of the canonical form.
    """

    __slots__ = ("parent", "terms")

    def __init__(self, parent, terms, _clean=False):
        self.parent = parent
        self.terms = terms if _clean else terms_clean(terms, parent.coeff.normalize)

    def _compat(self, other):
        a, b = self.parent, other.parent
        if a is not b and a != b:
            raise VariableMismatch(
                f"({a.coeff!r}, {a.vars}) vs ({b.coeff!r}, {b.vars})"
            )

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._compat(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.parent.embed_scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = terms_add(self.terms, other.terms, self.parent.coeff.normalize)
        return MultiPoly(self.parent, terms, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        terms = terms_neg(self.terms, self.parent.coeff.normalize)
        return MultiPoly(self.parent, terms, _clean=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = terms_sub(self.terms, other.terms, self.parent.coeff.normalize)
        return MultiPoly(self.parent, terms, _clean=True)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = terms_sub(other.terms, self.terms, self.parent.coeff.normalize)
        return MultiPoly(self.parent, terms, _clean=True)

    def __mul__(self, other):
        parent = self.parent
        if isinstance(other, MultiPoly):
            self._compat(other)
            terms = terms_mul(self.terms, other.terms, parent.coeff)
        elif isinstance(other, (int, Fraction)):
            coeff = parent.coeff
            terms = terms_scale(self.terms, coeff.coerce(other), coeff.normalize)
        else:
            return NotImplemented
        return MultiPoly(parent, terms, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, self.parent.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.terms == self.parent.embed_scalar(other).terms
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.parent == other.parent and self.terms == other.terms

    def __hash__(self):
        return hash((self.parent, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(sum(k) == 0 for k in self.terms)

    def constant(self):
        """The constant value; raises unless the polynomial is constant."""
        if not self.terms:
            return self.parent.coeff.zero()
        if not self.is_constant():
            raise VariableMismatch(f"{self.to_text()} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self):
        return max((sum(k) for k in self.terms), default=0)

    def to_text(self):
        """Canonical text, degree-lex descending, e.g. ``2*s^2-s+1``."""
        if not self.terms:
            return "0"
        vars, coeff = self.parent.vars, self.parent.coeff
        out = []
        for key in sorted(self.terms, key=_deglex, reverse=True):
            c = self.terms[key]
            mono = monomial_text(vars, key)
            neg = c < 0  # never over GF(p), whose values lie in 0..p-1
            mag = -c if neg else c
            if mono == "1":
                body = coeff.to_text(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{coeff.to_text(mag)}*{mono}"
            if not out:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"-{body}" if neg else f"+{body}")
        return "".join(out)

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"


class PolyRing:
    """A polynomial ring over a CoeffRing: the parent of its polynomials.

    Every :class:`MultiPoly` points at its PolyRing, and ``zero``, ``one``,
    ``from_int``, ``embed_scalar`` and ``variable`` are the one factory.
    Offers the same service surface as :class:`CoeffRing` so finite
    algebras can be based on either without caring which.
    """

    def __init__(self, coeff, vars):
        if not isinstance(coeff, CoeffRing):
            raise UnsupportedBase("polynomial scalars must be Q, Z or GF(p)")
        self.coeff = coeff
        self.vars = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise VariableMismatch(f"duplicate variable in {self.vars}")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.coeff == other.coeff
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((self.coeff, self.vars))

    def __repr__(self):
        return f"{self.coeff!r}[{', '.join(self.vars)}]"

    @property
    def is_field(self):
        return False

    def zero(self):
        return MultiPoly(self, {}, _clean=True)

    def one(self):
        return MultiPoly(self, {(0,) * len(self.vars): self.coeff.one()}, _clean=True)

    def from_int(self, k):
        return MultiPoly(self, {(0,) * len(self.vars): self.coeff.from_int(k)})

    def embed_scalar(self, c):
        return MultiPoly(self, {(0,) * len(self.vars): self.coeff.coerce(c)})

    def variable(self, name):
        i = self.vars.index(name)
        key = tuple(1 if j == i else 0 for j in range(len(self.vars)))
        return MultiPoly(self, {key: self.coeff.one()}, _clean=True)

    def normalize(self, v):
        return v

    def is_zero(self, v):
        return not v

    def is_unit(self, v):
        return v.is_constant() and self.coeff.is_unit(v.constant())

    def divide_exact(self, a, b):
        quot = dict_divide_exact(a.terms, b.terms, self.coeff)
        if quot is None:
            return None
        return MultiPoly(self, quot, _clean=True)

    def parse(self, text):
        return parse_expression(text, self)

    def to_text(self, v):
        return v.to_text()


# ---------------------------------------------------------------------------
# expression parsing (coefficient strings like "3/4", "2*s+1", "-(t^2-1)")


_TOKEN_CHARS = set("+-*/^() \t")

# bounds on one power ``base^k`` in an expression, checked before it is
# computed: the exponent literal, the degree and the term count of the
# result, and for a constant the bit length of the resulting value
MAX_POWER_EXPONENT = 1000
MAX_POWER_DEGREE = 100
MAX_POWER_TERMS = 1000
MAX_POWER_COEFF_BITS = 10_000


def _int_literal(digits):
    try:
        return int(digits)
    except ValueError as e:  # past the int-conversion limit, or "²"
        raise ParseError(f"number literal too long: {e}") from None


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", _int_literal(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif text.startswith("**", i):
            tokens.append(("op", "^"))
            i += 2
        elif ch in _TOKEN_CHARS:
            tokens.append(("op", ch))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


class _ExprParser:
    def __init__(self, tokens, parent):
        self.tokens = tokens
        self.pos = 0
        self.parent = parent

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}")

    def parse(self):
        poly = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input at token {self.pos}")
        return poly

    def expr(self):
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            acc = self.term()
            if val == "-":
                acc = -acc
        else:
            acc = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = acc * self.factor()
            elif kind == "op" and val == "/":
                self.take()
                div = self.factor()
                if not div.is_constant():
                    raise ParseError("division only by constants")
                c = div.constant()
                if not c:
                    raise ParseError("division by zero")
                coeff = self.parent.coeff
                inv = coeff.divide_exact(coeff.one(), c)
                if inv is None:
                    raise ParseError(f"cannot divide by {c} over {coeff!r}")
                acc = acc * inv
            else:
                return acc

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, k = self.take()
            if kind != "num":
                raise ParseError("exponent must be a literal integer")
            _check_power(base, k)
            return base**k
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return self.parent.from_int(val)
        if kind == "name":
            if val not in self.parent.vars:
                raise ParseError(f"unknown variable {val!r} (have {self.parent.vars})")
            return self.parent.variable(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}")


def _check_power(base, k):
    if k > MAX_POWER_EXPONENT:
        raise ParseError(f"exponent {k} above {MAX_POWER_EXPONENT}")
    degree = base.total_degree() * k
    if degree > MAX_POWER_DEGREE:
        raise ParseError(f"power of degree {degree} above {MAX_POWER_DEGREE}")
    # the result has at most one term per k-multiset of base terms, and
    # at most one per monomial of its degree in the variables it uses
    m = len(base.terms)
    used = sum(any(key[i] for key in base.terms) for i in range(len(base.parent.vars)))
    if m > 1 and min(
        math.comb(m + k - 1, k), math.comb(degree + used, used)
    ) > MAX_POWER_TERMS:
        raise ParseError(f"power may exceed {MAX_POWER_TERMS} terms")
    if base.is_constant() and base.parent.coeff.kind != "Fp":
        c = Fraction(base.constant())
        bits = k * max(c.numerator.bit_length(), c.denominator.bit_length())
        if bits > MAX_POWER_COEFF_BITS:
            raise ParseError(
                f"constant power of {bits} bits above {MAX_POWER_COEFF_BITS}"
            )


def parse_expression(text, parent):
    """Parse a polynomial expression into an element of the PolyRing parent."""
    if not isinstance(text, str):
        raise ParseError(f"expected string expression, got {type(text).__name__}")
    if text.isdecimal():
        # a plain literal, such as a structure table's "0" or "2"
        return parent.from_int(_int_literal(text))
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    try:
        return _ExprParser(tokens, parent).parse()
    except RecursionError:
        # the parser recurses once per parenthesis or leading sign
        raise ParseError("expression nested too deeply") from None


# ---------------------------------------------------------------------------
# matrices over a commutative ring (values support + - * and ==)


def det_generic(rows):
    """Division-free determinant via expansion over column subsets.

    Works over any commutative ring whose values implement +, *, unary -
    and a truth value that is false only for zero.  Cost is O(2^n n), fine
    for the ranks handled here (n <= 8).  A zero entry and a zero minor
    are skipped; when no term is left, the zero is a - a for an entry a.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("square nonempty matrix required")
    cur = {1 << j: a for j, a in enumerate(rows[0]) if a}
    for r in range(1, n):
        row = [(1 << j, a) for j, a in enumerate(rows[r]) if a]
        nxt = {}
        for mask, minor in cur.items():
            for bit, a in row:
                if mask & bit:
                    continue
                below = (mask & (bit - 1)).bit_count()
                term = a * minor
                if (r + below) % 2:
                    term = -term
                key = mask | bit
                acc = nxt.get(key)
                nxt[key] = term if acc is None else acc + term
        cur = {mask: minor for mask, minor in nxt.items() if minor}
    det = cur.get((1 << n) - 1)
    if det is None:
        a = rows[0][0]
        return a - a
    return det


def _exact(ring, a, b):
    q = ring.divide_exact(a, b)
    if q is None:
        raise VerificationFailed(
            f"elimination over {ring!r}: an update is not divisible by the "
            "previous leading minor, so the entries do not lie in a domain"
        )
    return q


def echelon(vectors, ring, limit=None):
    """Fraction-free Gauss-Jordan form of the span of vectors (Bareiss).

    Vectors are reduced one at a time against the rows found so far, and
    the scan stops once ``limit`` rows are found, so an iterator is read
    only as far as it must be.  Every row holds the current leading minor
    d at its own pivot and zero at the other pivots; a new pivot rescales
    each row by new d / old d.  By Sylvester's identity that division is
    exact whenever the entries lie in a domain; a division with no
    quotient raises VerificationFailed.  Returns d (the ring's one when
    there is no row) and the (pivot, row) pairs in pivot order.
    """
    d = ring.one()
    norm = ring.normalize
    rows = []
    for v in vectors:
        # entry c of w is the minor bordering the pivot block with v and c
        w = [d * x for x in v]
        for p, row in rows:
            f = v[p]
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        w = [norm(x) for x in w]
        q = next((i for i, x in enumerate(w) if x), None)
        if q is None:
            continue
        e = w[q]
        rows = [
            (p, [_exact(ring, e * a - row[q] * b, d) for a, b in zip(row, w)])
            for p, row in rows
        ]
        rows.append((q, w))
        d = e
        if len(rows) == limit:
            break
    return d, sorted(rows, key=lambda pr: pr[0])


def solve(A, bs, ring):
    """The unique solution of the square system A x = b for each b in bs.

    One elimination of [A | every b]: a column's reduced entries depend
    only on that column and the pivot columns, so each side reads as if
    solved alone.  None when A is singular or any entry of any solution
    leaves the ring.
    """
    n = len(A)
    vectors = [list(row) + [b[i] for b in bs] for i, row in enumerate(A)]
    d, rows = echelon(vectors, ring)
    if [p for p, _ in rows] != list(range(n)):
        return None
    sides = range(n, n + len(bs))
    xs = [[ring.divide_exact(row[k], d) for _, row in rows] for k in sides]
    if any(v is None for x in xs for v in x):
        return None
    return [[ring.normalize(v) for v in x] for x in xs]


def nullspace(A, ring):
    """Basis of the solutions of A x = 0 over the ring's fractions.

    One vector per non-pivot column f: d at f, minus entry f of each
    pivot's row at that pivot, and zero elsewhere.  Over a field,
    dividing by d gives the reduced basis.
    """
    width = len(A[0]) if A else 0
    d, rows = echelon(A, ring)
    pivots = {p for p, _ in rows}
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        vec = [ring.zero()] * width
        vec[f] = d
        for p, row in rows:
            vec[p] = ring.normalize(-row[f])
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# finite free commutative algebras


class AlgebraElem:
    """Element of a FiniteFreeAlgebra, a coordinate vector with operators."""

    __slots__ = ("alg", "coords")

    def __init__(self, alg, coords):
        self.alg = alg
        self.coords = tuple(coords)

    def _compat(self, other):
        if isinstance(other, AlgebraElem):
            if other.alg is self.alg or other.alg == self.alg:
                return other
            raise RingMismatch("elements of different algebras")
        if isinstance(other, int):
            return self.alg.from_int(other)
        return None

    def __add__(self, other):
        other = self._compat(other)
        if other is None:
            return NotImplemented
        norm = self.alg.base.normalize
        return AlgebraElem(
            self.alg, [norm(a + b) for a, b in zip(self.coords, other.coords)]
        )

    __radd__ = __add__

    def __neg__(self):
        norm = self.alg.base.normalize
        return AlgebraElem(self.alg, [norm(-a) for a in self.coords])

    def __sub__(self, other):
        other = self._compat(other)
        if other is None:
            return NotImplemented
        norm = self.alg.base.normalize
        return AlgebraElem(
            self.alg, [norm(a - b) for a, b in zip(self.coords, other.coords)]
        )

    def __rsub__(self, other):
        other = self._compat(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        coerced = self._compat(other)
        if coerced is not None:
            return AlgebraElem(self.alg, self.alg.mul_vec(self.coords, coerced.coords))
        # base scalar action
        if isinstance(self.alg.base, CoeffRing):
            other = self.alg.base.coerce(other)
        return AlgebraElem(self.alg, [self.alg._scale(other, a) for a in self.coords])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        return power(self, k, self.alg.one())

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.alg.from_int(other)
        if not isinstance(other, AlgebraElem):
            return NotImplemented
        return self.alg == other.alg and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return any(bool(c) for c in self.coords)

    def __repr__(self):
        return f"AlgebraElem({self.alg.to_text(self)})"


class FiniteFreeAlgebra:
    """Commutative unital algebra, free of finite rank over its base.

    ``structure[i][j]`` lists the coordinates of e_i * e_j in the basis
    e_1..e_rank; ``unit`` is the coordinate vector of 1.  Construction
    validates commutativity, associativity and the unit law exhaustively
    over basis elements, which pins down the laws on everything by
    bilinearity.
    """

    _SCALAR_PROTOCOL = ("zero", "one", "from_int", "normalize", "is_zero")

    def __init__(self, base, rank, structure, unit):
        # any scalar descriptor will do; isinstance would shut out wrappers
        if not all(callable(getattr(base, m, None)) for m in self._SCALAR_PROTOCOL):
            raise UnsupportedBase(f"unsupported base {base!r}")
        if rank < 1:
            raise UnsupportedBase("rank must be >= 1")
        self.base = base
        self.rank = rank
        # a coordinate from outside passes the CoeffRing gate, if any
        check = self._check_scalar = (
            base.coerce if isinstance(base, CoeffRing) else base.normalize
        )
        self.structure = tuple(
            tuple(tuple(check(c) for c in structure[i][j]) for j in range(rank))
            for i in range(rank)
        )
        self.unit = tuple(check(c) for c in unit)
        bad = [
            (i, j)
            for i in range(rank)
            for j in range(rank)
            if len(self.structure[i][j]) != rank
        ]
        if bad or len(self.unit) != rank:
            raise UnsupportedBase("structure/unit dimensions do not match rank")
        self._pairs = tuple(
            tuple(
                tuple((k, c) for k, c in enumerate(self.structure[i][j]) if c)
                for j in range(rank)
            )
            for i in range(rank)
        )
        self._validate()
        # Tr(e_k): the diagonal of multiplication by e_k
        zero = base.zero()
        self._traces = tuple(
            base.normalize(sum((self.structure[k][i][i] for i in range(rank)), zero))
            for k in range(rank)
        )

    # -- scalar-descriptor surface, so an algebra can be a base itself

    @property
    def is_field(self):
        return False

    def zero(self):
        return AlgebraElem(self, [self.base.zero()] * self.rank)

    def one(self):
        return AlgebraElem(self, self.unit)

    def from_int(self, k):
        kk = self.base.from_int(k)
        return AlgebraElem(self, [self._scale(kk, c) for c in self.unit])

    def normalize(self, v):
        return v

    def is_zero(self, v):
        return not v

    def parse(self, text):
        raise UnsupportedBase("algebra elements are not parsed from text")

    def to_text(self, v):
        coords = v.coords if isinstance(v, AlgebraElem) else v
        return "(" + ", ".join(self.base.to_text(c) for c in coords) + ")"

    def is_unit(self, v):
        det = self.base.normalize(det_generic(self.mult_matrix(v)))
        return self.base.is_unit(det)

    def divide_exact(self, a, b):
        """a / b when unique: None unless multiplication by b is injective
        and the quotient has coordinates in the base."""
        av = a.coords if isinstance(a, AlgebraElem) else tuple(a)
        sol = solve(self.mult_matrix(b), [av], self.base)
        return None if sol is None else AlgebraElem(self, sol[0])

    # -- algebra proper

    @cached_property
    def disc(self):
        """det[Tr(e_i e_j)], the discriminant of the built-in basis.

        Built on first read and kept: every trace-pairing determinant is
        a multiple of it (norm_universal.trace_pairing_det), and algebras
        that never pair, such as r_algebra's, never pay for it.
        """
        n = self.rank
        gram = [[self.trace(self.structure[i][j]) for j in range(n)] for i in range(n)]
        return self.base.normalize(det_generic(gram))

    def _scale(self, c, v):
        return self.base.normalize(c * v)

    def element(self, coords):
        coords = tuple(map(self._check_scalar, coords))
        if len(coords) != self.rank:
            raise UnsupportedBase(f"expected {self.rank} coordinates")
        return AlgebraElem(self, coords)

    def basis_elem(self, i):
        zero, one = self.base.zero(), self.base.one()
        return AlgebraElem(self, [one if j == i else zero for j in range(self.rank)])

    def mul_vec(self, u, v):
        zero = self.base.zero()
        out = [zero] * self.rank
        norm = self.base.normalize
        for i, a in enumerate(u):
            if not a:
                continue
            row = self._pairs[i]
            for j, b in enumerate(v):
                if not b:
                    continue
                ab = a * b
                for k, c in row[j]:
                    out[k] = out[k] + ab * c
        return [norm(x) for x in out]

    def mult_matrix(self, e):
        """Matrix of multiplication by e; column k is e * e_k."""
        coords = e.coords if isinstance(e, AlgebraElem) else tuple(e)
        n, zero, norm = self.rank, self.base.zero(), self.base.normalize
        rows = [[zero] * n for _ in range(n)]
        # entry (m, k) is sum_i e_i * c, over the terms (m, c) of e_i * e_k
        for i, a in enumerate(coords):
            if not a:
                continue
            for k, terms in enumerate(self._pairs[i]):
                for m, c in terms:
                    rows[m][k] = rows[m][k] + a * c
        return [[norm(x) for x in row] for row in rows]

    def trace(self, e):
        """Trace of multiplication by e, as the linear form sum e_k Tr(e_k)."""
        coords = e.coords if isinstance(e, AlgebraElem) else e
        acc = self.base.zero()
        for c, tr in zip(coords, self._traces):
            if c and tr:
                acc = acc + c * tr
        return self.base.normalize(acc)

    def _validate(self):
        n = self.rank
        for i in range(n):
            for j in range(i + 1, n):
                if self.structure[i][j] != self.structure[j][i]:
                    raise NonCommutative(f"e{i + 1}*e{j + 1} != e{j + 1}*e{i + 1}")
        basis = [self.basis_elem(i).coords for i in range(n)]
        for j, e_j in enumerate(basis):
            if tuple(self.mul_vec(self.unit, e_j)) != e_j:
                raise BadUnit(f"unit * e{j + 1} != e{j + 1}")
        # e_j * e_k once per pair; by commutativity (k, j, i) is (i, j, k)
        # and i = k always holds, so the triples with i < k suffice
        prods = [[self.mul_vec(e_j, e_k) for e_k in basis] for e_j in basis]
        for i in range(n):
            for j in range(n):
                for k in range(i + 1, n):
                    left = self.mul_vec(prods[i][j], basis[k])
                    right = self.mul_vec(basis[i], prods[j][k])
                    if left != right:
                        raise NonAssociative(
                            f"(e{i + 1}*e{j + 1})*e{k + 1} != e{i + 1}*(e{j + 1}*e{k + 1})"
                        )

    def __eq__(self, other):
        if not isinstance(other, FiniteFreeAlgebra):
            return NotImplemented
        return (
            self.base == other.base
            and self.rank == other.rank
            and self.structure == other.structure
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.base, self.rank))

    def __repr__(self):
        return f"FiniteFreeAlgebra(base={self.base!r}, rank={self.rank})"


class AlgebraMap:
    """Algebra homomorphism from a polynomial ring into a finite algebra.

    Determined by one target element per source variable; evaluation sends
    each monomial to the product of the images, which is multiplicative by
    construction.  The image of each monomial is built once per map and
    kept by exponent tuple, and a term adds its embedded coefficient times
    those coordinates.  The zero key goes to the target's one, and the
    target's structure constants were validated when it was built, so the
    map sends 1 to 1 and is multiplicative with no check of its own.
    """

    def __init__(self, source, target, images):
        if not isinstance(source, PolyRing):
            raise UnsupportedBase("source must be a polynomial ring")
        self.source = source
        self.target = target
        self.images = tuple(
            img if isinstance(img, AlgebraElem) else target.element(img)
            for img in images
        )
        if len(self.images) != len(source.vars):
            raise VariableMismatch("one image per source variable required")
        self._embed = _scalar_embedding(source.coeff, target.base)
        self._monomials = {}  # exponent tuple -> its image's coordinates

    def __call__(self, poly):
        if poly.parent != self.source:
            raise VariableMismatch("polynomial from a different source ring")
        target, monomials = self.target, self._monomials
        acc = [target.base.zero()] * target.rank
        for k, c in poly.terms.items():
            mono = monomials.get(k)
            if mono is None:
                powers = [x**e for x, e in zip(self.images, k) if e]
                mono = powers.pop() if powers else target.one()
                for x in powers:
                    mono = mono * x
                mono = monomials[k] = mono.coords
            c = self._embed(c)
            acc = [a + c * v if v else a for a, v in zip(acc, mono)]
        return AlgebraElem(target, map(target.base.normalize, acc))


def _scalar_embedding(coeff, base):
    """Embedding of a CoeffRing into a base descriptor, or RingMismatch."""
    if isinstance(base, CoeffRing):
        if base != coeff:
            raise RingMismatch(f"cannot embed {coeff!r} into {base!r}")
        return lambda c: c
    if isinstance(base, PolyRing):
        if base.coeff != coeff:
            raise RingMismatch(f"cannot embed {coeff!r} into {base!r}")
        return base.embed_scalar
    if isinstance(base, FiniteFreeAlgebra):
        inner = _scalar_embedding(coeff, base.base)
        return lambda c: base.one() * inner(c)
    raise UnsupportedBase(f"no embedding into {base!r}")

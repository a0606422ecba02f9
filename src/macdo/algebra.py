"""Exact sparse Laurent-polynomial and fraction arithmetic.

Every value in this package lives in Z[q^{+-1}, t, u, x^{+-1}, y]: a
polynomial is a sparse map from exponent vectors to nonzero
arbitrary-precision integer coefficients.  Internally an exponent vector is
packed into a single integer (28 bits per variable, offset so that negative
exponents pack monotonically), which makes monomial multiplication a single
integer addition and makes the canonical term order (lexicographic on the
fixed variable order q, t, u, x1.., y1.., exponents compared high-to-low)
plain integer comparison of keys.  The constructors, ``mono_mul`` and the
one substitution kernel (``MPoly._remap``, behind ``qshift``,
``subs_monomials`` and ``convert``) reject an exponent outside [-2^27, 2^27)
rather than let it spill into the next field; the last two test all keys in
one pass and compute each term's exponents (``_check_images``) only when
that pass fails, and ``try_div`` bounds a quotient the same way.
``MPoly.__mul__`` adds keys unchecked, because a check per term product
would cost more than the product.  Clearing fractions to a
common denominator multiplies mostly by two-term bag factors; a product with
a two-term operand, on either side, takes two linear passes over the other
operand (``_mul_binomial``), the counterpart of the chain walk that divides
by one (``_div_binomial``).  Neither kernel sorts keys: the product's first
pass is a plain copy when the two-term operand holds the constant 1
(1 - q^c x_i/x_j, 1 - q^k), and the walk takes its chains from buckets of
one exponent field, in walk order.

Fractions carry their denominator as a multiset of polynomial factors.
Equality is decided by cross-multiplication, and "this fraction is actually
a polynomial" is certified by exact trial division: one loop
(``_divide_out``) divides bag factors out of a numerator for
``Frac.shrink``, ``Frac.as_poly``, ``Frac.lowest`` and the cancelling merge.
``Frac.lowest`` reduces a fraction whose bag holds only +-1 binomials on q,
t and x, or the pieces it makes of them: each splits into cyclotomic pieces
Phi_d(X^w) of one fixed form, which are irreducible, so trial division alone
reaches lowest terms, and two fractions of equal value come out field for
field the same.  No GCD, no general factorization, no floating point.

Negative exponents are legal for q and the x variables only; building a
value with a negative exponent on t, u or y through the public constructors
raises.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from functools import lru_cache

_W = 28                  # bits per packed exponent field
_B = 1 << (_W - 1)       # offset: exponent 0 packs to _B
_MASK = (1 << _W) - 1


class UniverseMismatch(ValueError):
    """Operands belong to different variable universes."""


class NotDivisible(ArithmeticError):
    """An exact polynomial division did not come out even."""


class VarUniverse:
    """The ordered ambient variable set [q, t, u, x1..xn, y1..ym].

    Variables are identified by their position in ``names``; q and the x
    variables may carry negative (Laurent) exponents, the others may not.
    """

    __slots__ = ("names", "n_x", "n_y", "nvars", "_pos", "_shift", "_laurent",
                 "one_key", "_x0", "_y0")

    def __init__(self, n_x: int, n_y: int = 0, u: bool = False):
        if n_x < 1:
            raise ValueError("need at least one x variable")
        if n_y < 0:
            raise ValueError("n_y must be >= 0")
        names = ["q", "t"]
        if u:
            names.append("u")
        self._x0 = len(names)
        names += ["x%d" % i for i in range(1, n_x + 1)]
        self._y0 = len(names)
        names += ["y%d" % j for j in range(1, n_y + 1)]
        self.names = tuple(names)
        self.n_x, self.n_y = n_x, n_y
        self.nvars = len(names)
        self._pos = {nm: i for i, nm in enumerate(names)}
        # q sits in the most significant field so that integer comparison of
        # packed keys is the canonical (descending-lex) monomial order
        self._shift = tuple(_W * (self.nvars - 1 - i) for i in range(self.nvars))
        self._laurent = tuple(nm == "q" or nm.startswith("x") for nm in names)
        self.one_key = sum(_B << s for s in self._shift)

    def __eq__(self, other):
        return isinstance(other, VarUniverse) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "VarUniverse(%s)" % ",".join(self.names)

    # -- packing ----------------------------------------------------------

    def pack(self, exps) -> int:
        key = 0
        for e, s in zip(exps, self._shift):
            key |= (e + _B) << s
        return key

    def unpack(self, key: int) -> tuple:
        return tuple(((key >> s) & _MASK) - _B for s in self._shift)

    def pos(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError("no variable %r in %r" % (name, self)) from None

    def _check_exps(self, exps):
        for e, lau, nm in zip(exps, self._laurent, self.names):
            if not e:  # most exponents are zero; keep their cost to one test
                continue
            if e < 0 and not lau:
                raise ValueError("negative exponent on %s is not allowed" % nm)
            if not -_B <= e < _B:
                raise ValueError("exponent %d on %s overflows its %d-bit packed field"
                                 % (e, nm, _W))

    # -- constructors ------------------------------------------------------

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return MPoly(self, {self.one_key: 1})

    def const(self, c: int) -> "MPoly":
        return MPoly(self, {self.one_key: c} if c else {})

    def mono(self, c: int, exps: dict) -> "MPoly":
        """Monomial c * prod(var^e) from a name->exponent map."""
        if not c:
            return self.zero()
        vec = [0] * self.nvars
        for nm, e in exps.items():
            vec[self.pos(nm)] = e
        self._check_exps(vec)
        return MPoly(self, {self.pack(vec): c})

    def gen(self, name: str) -> "MPoly":
        return self.mono(1, {name: 1})

    def x(self, i: int) -> "MPoly":
        return self.gen("x%d" % i)

    def y(self, j: int) -> "MPoly":
        return self.gen("y%d" % j)


def universe(n_x: int, n_y: int = 0, u: bool = False) -> VarUniverse:
    """Interned universe factory; always prefer this over VarUniverse().

    Interned by value: every call naming the same variables, positionally or
    by keyword, returns the same object.
    """
    return _interned_universe(n_x, n_y, u)


@lru_cache(maxsize=None)
def _interned_universe(n_x: int, n_y: int, u: bool) -> VarUniverse:
    return VarUniverse(n_x, n_y, u)


def universe_of_names(names) -> VarUniverse:
    """Rebuild the interned universe matching a serialized variable list."""
    names = tuple(names)
    n_x = sum(1 for nm in names if nm.startswith("x"))
    n_y = sum(1 for nm in names if nm.startswith("y"))
    cand = universe(n_x, n_y, "u" in names)
    if cand.names != names:
        raise ValueError("variable list %r is not in canonical order" % (names,))
    return cand


def _chk_u(a: VarUniverse, b: VarUniverse):
    if a is not b and a != b:
        raise UniverseMismatch("%r vs %r" % (a, b))


@lru_cache(maxsize=None)
def _remap_plan(src: VarUniverse, target: VarUniverse, images: tuple) -> tuple:
    """The moves and checks of ``MPoly._remap``, worked out once per substitution."""
    same = src == target
    img = [None if j is None else (((j, 1),), 1) for j in map(target._pos.get, src.names)]
    for i, exps, sign in images:
        img[i] = None if exps is None else (exps, sign)
    moves, cols, polar, absent = [], [], set(), []
    colsum = [0] * target.nvars
    for i, (s, im) in enumerate(zip(src._shift, img)):
        if im is None:
            absent.append(i)
            continue
        cols.append((s, im[0]))
        for j, e in im[0]:
            colsum[j] += abs(e)
            if not target._laurent[j] and (e < 0 or src._laurent[i]):
                polar.add(j)  # a negative q or x exponent can land on t, u or y
        if not same or im != (((i, 1),), 1):
            off = sum(e << target._shift[j] for j, e in im[0]) - (1 << s if same else 0)
            moves.append((s, off, im[1] < 0))
    # no result exponent exceeds the largest input one times the largest column sum
    bits = _W - 1 - max(colsum).bit_length()
    return same, tuple(moves), tuple(cols), bits, tuple(polar), tuple(absent)


class MPoly:
    """Sparse Laurent polynomial over arbitrary-precision integers.

    ``terms`` maps packed exponent keys to nonzero integer coefficients and
    must never be mutated after construction; all operations are pure.
    """

    __slots__ = ("u", "terms", "_hash", "_skey")

    def __init__(self, u: VarUniverse, terms: dict):
        self.u = u
        self.terms = terms
        self._hash = None
        self._skey = None

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_one(self) -> bool:
        return self.terms == {self.u.one_key: 1}

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.u == other.u and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.u.names, self.sort_key()))
        return self._hash

    def sort_key(self) -> tuple:
        """Canonical-order tuple of (key, coeff); doubles as a total order."""
        if self._skey is None:
            self._skey = tuple(sorted(self.terms.items(), reverse=True))
        return self._skey

    def __repr__(self):
        return "MPoly(%s)" % self.text()

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.u.const(other)
        _chk_u(self.u, other.u)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            nc = out.get(k, 0) + c
            if nc:
                out[k] = nc
            else:
                del out[k]
        return MPoly(self.u, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.u, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.u.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: int) -> "MPoly":
        if c == 0:
            return self.u.zero()
        if c == 1:
            return self
        return MPoly(self.u, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        """Product; packed keys are added unchecked.

        When the smaller operand has two terms, the product is two shifted
        copies of the other (``_mul_binomial``); otherwise every term pair
        is accumulated.
        """
        if isinstance(other, int):
            return self.scale(other)
        _chk_u(self.u, other.u)
        a, b = self.terms, other.terms
        if not a or not b:
            return self.u.zero()
        if len(a) > len(b):
            a, b = b, a
        base = self.u.one_key
        if len(a) == 2:
            return MPoly(self.u, _mul_binomial(a, b, base))
        out = {}
        get = out.get
        bitems = list(b.items())
        for ka, ca in a.items():
            off = ka - base
            for kb, cb in bitems:
                k = kb + off
                out[k] = get(k, 0) + ca * cb
        if len(a) > 1:
            out = {k: c for k, c in out.items() if c}
        return MPoly(self.u, out)

    __rmul__ = __mul__

    def mono_mul(self, c: int, exps: dict) -> "MPoly":
        """Fast multiply by the monomial c * prod(var^e); ValueError on field overflow."""
        if not c:
            return self.u.zero()
        u = self.u
        (k0,) = u.mono(1, exps).terms
        # exponents in [-2^26, 2^26) moved by less than 2^26 stay in their
        # fields; otherwise compute each term's exactly
        if max(map(abs, exps.values()), default=0) >> (_W - 2) or not self._exps_within(_W - 2):
            self._check_images(u, [(s, ((i, 1),)) for i, s in enumerate(u._shift)],
                               u.unpack(k0))
        off_key = k0 - u.one_key
        return MPoly(u, {k + off_key: c * v for k, v in self.terms.items()})

    # -- degrees -------------------------------------------------------------

    def max_exp(self, name: str) -> int:
        """Largest exponent of a variable (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        s = self.u._shift[self.u.pos(name)]
        return max(((k >> s) & _MASK) for k in self.terms) - _B

    def min_exp(self, name: str) -> int:
        if not self.terms:
            return 0
        s = self.u._shift[self.u.pos(name)]
        return min(((k >> s) & _MASK) for k in self.terms) - _B

    def _exps_within(self, bits: int) -> bool:
        """True when every exponent of every term lies in [-2^bits, 2^bits)."""
        # subtracting B - 2^bits from each field maps those exponents to
        # [0, 2^(bits+1)) without a borrow; any other exponent sets a higher bit
        ones = self.u.one_key >> (_W - 1)  # the lowest bit of every field
        lo = (_B - (1 << bits)) * ones
        high = (_MASK >> (bits + 1) << (bits + 1)) * ones
        return not any((k - lo) & high for k in self.terms)

    def _check_images(self, target: VarUniverse, cols, add):
        """Raise ValueError unless each term's image fits ``target``'s fields.

        The image is ``add`` plus, for each (shift, exps) of ``cols``, the
        exponent at that shift times the (target position, exponent) pairs
        of ``exps``, computed exactly, term by term.
        """
        for k in self.terms:
            new = list(add)
            for s, exps in cols:
                e = ((k >> s) & _MASK) - _B
                for j, a in exps:
                    new[j] += e * a
            target._check_exps(new)

    # -- shifts and substitutions ---------------------------------------------

    def qshift(self, gamma) -> "MPoly":
        """Substitute x_i -> q^{gamma_i} x_i."""
        u = self.u
        if len(gamma) > u.n_x:
            raise ValueError("shift vector longer than the x variables")
        return self._remap(u, tuple((u._x0 + i, ((0, g), (u._x0 + i, 1)), 1)
                                    for i, g in enumerate(gamma) if g))

    def subs_monomials(self, assign: dict) -> "MPoly":
        """Substitute variables by (invertible) monomials, exactly.

        ``assign`` maps a variable name to a single-term MPoly in the same
        universe whose coefficient is +-1, e.g. x1 -> -q^{-2} x3^{-1}.
        Raises ValueError when an exponent of the result leaves its packed
        field, or when a term of the result has a negative exponent on t, u
        or y.
        """
        u = self.u
        images = []
        for nm, mono in assign.items():
            if mono.u != u or len(mono.terms) != 1:
                raise ValueError("substitution value for %s must be a monomial" % nm)
            ((mk, mc),) = mono.terms.items()
            if mc not in (1, -1):
                raise ValueError("substitution monomial must have unit coefficient")
            exps = tuple((j, e) for j, e in enumerate(u.unpack(mk)) if e)
            images.append((u.pos(nm), exps, mc))
        return self._remap(u, tuple(images))

    def convert(self, target: VarUniverse, rename: dict | None = None) -> "MPoly":
        """Re-express this polynomial in another universe, optionally renaming.

        Every variable carrying a nonzero exponent must map to a target
        variable; Laurent legality is re-checked in the target.
        """
        rename = rename or {}
        dest = (target._pos.get(rename.get(nm, nm)) for nm in self.u.names)
        return self._remap(target, tuple((i, None if j is None else ((j, 1),), 1)
                                         for i, j in enumerate(dest)))

    def _remap(self, target: VarUniverse, images: tuple) -> "MPoly":
        """Substitute variables by +-1 monomials of ``target``, in packed keys.

        ``images`` holds (source position, image, sign) triples; an image is
        a tuple of (target position, exponent) pairs, or None for no image.
        An unlisted variable keeps its name in the target, or has no image.
        """
        u, terms = self.u, self.terms
        same, moves, cols, bits, polar, absent = _remap_plan(u, target, images)
        for i in absent:
            s = u._shift[i]
            if any((k >> s) & _MASK != _B for k in terms):
                raise ValueError("variable %s not present in target" % u.names[i])
        if bits < 0 or not self._exps_within(bits):
            # exponents this large may overflow: compute each term's exactly
            self._check_images(target, cols, [0] * target.nvars)
        base = target.one_key
        out = {}
        get = out.get
        for k, c in terms.items():
            nk = k if same else base  # in one universe, identity fields stay put
            for s, off, neg in moves:
                e = ((k >> s) & _MASK) - _B
                if e:
                    nk += e * off
                    if neg and e & 1:
                        c = -c
            out[nk] = get(nk, 0) + c
        for j in polar:  # cancelled terms are still in out: each term is judged
            s = target._shift[j]
            if any(((k >> s) & _MASK) < _B for k in out):
                raise ValueError("negative exponent on %s is not allowed" % target.names[j])
        if len(out) < len(terms):  # terms merged: drop those that cancelled
            out = {k: c for k, c in out.items() if c}
        return MPoly(target, out)

    def coeff_of(self, exps: dict) -> "MPoly":
        """Coefficient of prod(var^e) w.r.t. the named variables only."""
        u = self.u
        shifts = {u._shift[u.pos(nm)]: e for nm, e in exps.items()}
        out = {}
        for k, c in self.terms.items():
            ok = True
            nk = k
            for s, e in shifts.items():
                if ((k >> s) & _MASK) - _B != e:
                    ok = False
                    break
                nk -= e << s
            if ok:
                out[nk] = c
        return MPoly(u, out)

    # -- display and validation ------------------------------------------------

    def validate(self) -> "MPoly":
        """Assert structural invariants (used by tests and boundaries)."""
        for k, c in self.terms.items():
            assert c != 0, "stored zero coefficient"
            self.u._check_exps(self.u.unpack(k))
        return self

    def int_content(self) -> int:
        """Positive gcd of the coefficients, signed by the leading term."""
        if not self.terms:
            return 1
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
        lead = self.terms[max(self.terms)]
        return -g if lead < 0 else g

    def content_normalized(self) -> "MPoly":
        """Divide out the integer content and make the leading sign positive.

        Display-only normalization; stored values elsewhere are untouched.
        """
        g = self.int_content()
        if g in (0, 1):
            return self
        return MPoly(self.u, {k: c // g for k, c in self.terms.items()})

    def text(self) -> str:
        if not self.terms:
            return "0"
        u = self.u
        chunks = []
        for k, c in self.sort_key():
            parts = []
            for nm, s in zip(u.names, u._shift):
                e = ((k >> s) & _MASK) - _B
                if e == 1:
                    parts.append(nm)
                elif e:
                    parts.append("%s^%d" % (nm, e))
            if not parts:
                chunks.append(str(c))
            elif c == 1:
                chunks.append("*".join(parts))
            elif c == -1:
                chunks.append("-" + "*".join(parts))
            else:
                chunks.append("%d*%s" % (c, "*".join(parts)))
        return " + ".join(chunks)


def _mul_binomial(a: dict, b: dict, base: int) -> dict:
    """Terms of the product of a two-term ``a`` and any ``b``, in two passes.

    When ``a`` holds the constant 1, in either position, the first copy of
    ``b`` is ``b`` itself: ``dict(b)`` copies it in C and keeps its key
    objects.  Otherwise the first shifted copy has distinct keys and no
    zero, so one comprehension builds it.  The other term is folded in,
    deleting each coefficient that cancels.
    """
    (k1, c1), (k2, c2) = a.items()
    if k2 == base and c2 == 1:
        (k1, c1), (k2, c2) = (k2, c2), (k1, c1)
    if k1 == base and c1 == 1:
        out = dict(b)
    else:
        off = k1 - base
        if c1 == 1:
            out = {k + off: c for k, c in b.items()}
        elif c1 == -1:
            out = {k + off: -c for k, c in b.items()}
        else:
            out = {k + off: c1 * c for k, c in b.items()}
    off = k2 - base
    get = out.get
    for k, c in b.items():
        k += off
        nc = get(k, 0) + c2 * c
        if nc:
            out[k] = nc
        else:
            del out[k]
    return out


def mp_sum(u: VarUniverse, polys) -> MPoly:
    out = {}
    for p in polys:
        _chk_u(u, p.u)
        for k, c in p.terms.items():
            nc = out.get(k, 0) + c
            if nc:
                out[k] = nc
            else:
                del out[k]
    return MPoly(u, out)


def mp_prod(u: VarUniverse, polys) -> MPoly:
    out = u.one()
    for p in polys:
        out = out * p
        if not out:
            return out
    return out


@lru_cache(maxsize=None)
def cauchy_kernel(u: VarUniverse) -> MPoly:
    """The dual Cauchy kernel prod_{i,j} (1 + x_i y_j) over every x and y of u.

    Memoized per universe; the polynomial is shared, and never mutated.
    """
    return mp_prod(u, (u.one() + u.x(i) * u.y(j)
                       for i in range(1, u.n_x + 1) for j in range(1, u.n_y + 1)))


# -- q-shifted factorials -----------------------------------------------------


def qpoch_factors(base: MPoly, k: int) -> list:
    """The k binomial factors (1 - base * q^nu), nu = 0..k-1."""
    if k < 0:
        raise ValueError("q-Pochhammer length must be >= 0")
    u = base.u
    one = u.one()
    return [one - base.mono_mul(1, {"q": nu}) for nu in range(k)]


def qpoch(base: MPoly, k: int) -> MPoly:
    """q-shifted factorial (base; q)_k, the empty product being 1."""
    return mp_prod(base.u, qpoch_factors(base, k))


# -- exact division ------------------------------------------------------------


def try_div(num: MPoly, den: MPoly):
    """Exact quotient num/den, or None when den does not divide num.

    Divisibility is in the Laurent sense: monomials are units, so the
    quotient may pick up monomial shifts.  Two-term divisors with a leading
    coefficient of +-1 (the overwhelmingly common case here: Pochhammer
    binomials, Vandermonde differences) take the linear-time chain walk of
    :func:`_div_binomial`; every other divisor, a monomial or a two-term
    divisor such as 2 - 3q included, takes the heap division of Monagan and
    Pearce (CASC 2007).  Both raise ValueError for a quotient with an
    exponent outside [-2^27, 2^27) (:func:`_check_quotient`), and the heap
    division, which shifts its operands to nonnegative exponents, also for an
    operand that spans 2^27 or more in one variable.
    """
    _chk_u(num.u, den.u)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return num
    u = num.u
    if len(den.terms) == 2 and den.terms[max(den.terms)] in (1, -1):
        return _div_binomial(num, den)
    # shift both operands so every exponent is nonnegative, divide in N^k,
    # then shift the quotient back; a shifted exponent must fit its field
    for p in (num, den):
        for nm in u.names:
            if p.max_exp(nm) - p.min_exp(nm) >= _B:
                raise ValueError("an operand spans 2^%d or more in %s, which overflows "
                                 "its %d-bit packed field when shifted" % (_W - 1, nm, _W))
    noff = u.pack([num.min_exp(nm) for nm in u.names]) - u.one_key
    doff = u.pack([den.min_exp(nm) for nm in u.names]) - u.one_key
    r = {k - noff: c for k, c in num.terms.items()}
    d = {k - doff: c for k, c in den.terms.items()}
    kd = max(d)
    cd = d[kd]
    dit = [(k - kd, c) for k, c in d.items() if k != kd]
    qu = {}
    heap = [-k for k in r]
    heapq.heapify(heap)
    base = u.one_key
    while heap:
        kr = -heapq.heappop(heap)
        cr = r.get(kr)
        if cr is None:
            continue
        del r[kr]
        kq = kr - kd + base
        # a field's bit 27 is clear exactly where its exponent is negative,
        # and base sets it in every field: one AND finds any such field
        if cr % cd or kq & base != base:
            return None
        cq = cr // cd
        qu[kq] = cq
        off = kq - base
        for dk, dc in dit:
            kk = kr + dk
            nc = r.get(kk, 0) - cq * dc
            if nc:
                if kk not in r:
                    heapq.heappush(heap, -kk)
                r[kk] = nc
            elif kk in r:
                del r[kk]
    if r:
        return None
    _check_quotient(num, den)
    back = noff - doff
    return MPoly(u, {k + back: c for k, c in qu.items()})


def _check_quotient(num: MPoly, den: MPoly) -> None:
    """Raise ValueError unless the exact quotient num/den fits the packed fields.

    In each variable its exponents range from num's least minus den's least
    to num's greatest minus den's greatest.  The heap division calls this
    for every quotient it finds; the chain walk only when a position it
    passed or the divisor has an exponent outside [-2^26, 2^26).
    """
    for nm in num.u.names:
        lo, hi = num.min_exp(nm) - den.min_exp(nm), num.max_exp(nm) - den.max_exp(nm)
        if lo < -_B or hi >= _B:
            raise ValueError("a quotient exponent on %s overflows its %d-bit packed field"
                             % (nm, _W))


def _div_binomial(num: MPoly, den: MPoly):
    """Exact division by a two-term divisor with a leading coefficient of +-1.

    Terms of the numerator split into chains along the divisor's exponent
    step.  One walk runs down each chain in linear time, carrying the
    correction term, and stops where the carry cancels; a walk consumes
    every key it passes.  The one scan that sets the step budget also
    buckets the keys by the step's widest exponent component.  Two keys on
    one chain differ in that component, so walking the buckets in walk order
    (descending where the step component is positive, ascending where it is
    negative) starts every chain at its top, without sorting the keys.  A
    chain of an exact quotient can visit at most span/step positions, so
    walks are cut off by a step budget; integer key arithmetic stays
    faithful to exponent vectors within that budget.  A leading
    coefficient of +-1 is its own inverse, so the walk needs no integer
    division: the quotient term is a*c1 and the carry a*(-c1*c2).  The walk
    also ORs together every position it gives a quotient term (the test of
    ``MPoly._exps_within``): while those and the divisor's exponents lie in
    [-2^26, 2^26), every position is a faithful key and no quotient
    exponent can leave its field; otherwise :func:`_check_quotient` runs.
    """
    u = num.u
    k1, k2 = sorted(den.terms, reverse=True)
    c1, c2 = den.terms[k1], den.terms[k2]
    d = k1 - k2
    qoff = u.one_key - k1
    # widest step component bounds the number of positions a valid chain
    # can visit; one extra step is allowed for the closing carry
    dvec = [a - b for a, b in zip(u.unpack(k1), u.unpack(k2))]
    comp = max(range(u.nvars), key=lambda i: abs(dvec[i]))
    s_comp = u._shift[comp]
    buckets = {}
    for k in num.terms:
        f = (k >> s_comp) & _MASK
        bucket = buckets.get(f)
        if bucket is None:
            buckets[f] = [k]
        else:
            bucket.append(k)
    budget = (max(buckets) - min(buckets)) // abs(dvec[comp]) + 2
    rest = dict(num.terms)
    qu = {}
    mult = -c1 * c2
    ones = u.one_key >> (_W - 1)
    lo, high = (1 << (_W - 2)) * ones, (1 << (_W - 1)) * ones  # as _exps_within(_W - 2)
    spill = (k1 - lo) | (k2 - lo)
    for f in sorted(buckets, reverse=dvec[comp] > 0):
        for pos in buckets[f]:
            if pos not in rest:
                continue
            carry, left = 0, budget
            while True:
                a = carry + rest.pop(pos, 0)
                if not a:
                    break
                qu[pos + qoff] = a * c1
                spill |= pos - lo
                carry = a * mult
                left -= 1
                if left < 0:
                    return None
                pos -= d
    if spill & high:
        _check_quotient(num, den)
    return MPoly(u, qu)


def _times(num: MPoly, pairs) -> MPoly:
    """num times f^k for each (f, k) of ``pairs``, one factor copy at a time."""
    for f, k in pairs:
        for _ in range(k):
            num = num * f
    return num


def _divide_out(num: MPoly, tries):
    """Divide num by each factor f up to k times for (f, k) in ``tries``.

    Trying a factor stops at its first inexact division.  The factors are
    tried in the given order, which decides which of two factors sharing a
    divisor (associates, 1 - q^k with a common cyclotomic factor) goes.
    Returns the quotient and {f: copies divided out}.
    """
    gone = {}
    for f, k in tries:
        for _ in range(k):
            qu = try_div(num, f)
            if qu is None:
                break
            num = qu
            gone[f] = gone.get(f, 0) + 1
    return num, gone


# -- fractions -------------------------------------------------------------------


def as_frac(u: VarUniverse, v) -> "Frac":
    if isinstance(v, Frac):
        _chk_u(u, v.u)
        return v
    if isinstance(v, MPoly):
        _chk_u(u, v.u)
        return Frac(v)
    if isinstance(v, int):
        return Frac(u.const(v))
    raise TypeError("cannot coerce %r to Frac" % (v,))


class Frac:
    """Fraction num / prod(factor^mult) of Laurent polynomials.

    The denominator is kept as a multiset of factors so that sums over a
    common structural denominator do not balloon; ``den`` expands it on
    each read.  Semantic equality is cross-multiplication via :meth:`eq`.
    Nothing is reduced to lowest terms except by :meth:`lowest`.
    """

    __slots__ = ("num", "bag")

    def __init__(self, num: MPoly, bag=()):
        self.num = num
        if isinstance(bag, dict):
            bag = tuple(sorted(bag.items(), key=lambda fv: fv[0].sort_key()))
        self.bag = bag
        for f, m in bag:
            if f.is_zero():
                raise ZeroDivisionError("zero factor in denominator")
            if m <= 0:
                raise ValueError("factor multiplicities must be positive")

    @property
    def u(self) -> VarUniverse:
        return self.num.u

    @classmethod
    def over(cls, num: MPoly, den: MPoly) -> "Frac":
        """num/den with the denominator as a single factor."""
        _chk_u(num.u, den.u)
        if den.is_one():
            return cls(num)
        return cls(num, {den: 1})

    @classmethod
    def from_factors(cls, u: VarUniverse, num_factors, den_factors) -> "Frac":
        """prod(num_factors) / prod(den_factors), shared factors cancelled.

        A factor that appears in both lists is dropped from both, up to the
        smaller multiplicity, before the numerator is expanded: a multiset
        difference of identical polynomials, no division.  The result is not
        claimed to be in lowest terms (1 - q^2 over 1 - q stays as it is).
        """
        bag = {}
        for f in den_factors:
            if not f.is_one():
                bag[f] = bag.get(f, 0) + 1
        num = []
        for f in num_factors:
            if bag.get(f):
                bag[f] -= 1
            else:
                num.append(f)
        return cls(mp_prod(u, num), {f: m for f, m in bag.items() if m})

    @property
    def den(self) -> MPoly:
        return _times(self.u.one(), self.bag)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __repr__(self):
        return "Frac(%s)" % self.text()

    def text(self) -> str:
        if not self.bag:
            return self.num.text()
        return "(%s) / (%s)" % (self.num.text(), self.den.text())

    # -- arithmetic ------------------------------------------------------------

    def _bagdict(self):
        return dict(self.bag)

    def __add__(self, other):
        other = as_frac(self.u, other)
        return frac_sum(self.u, [self, other])

    __radd__ = __add__

    def __neg__(self):
        return Frac(-self.num, self.bag)

    def __sub__(self, other):
        other = as_frac(self.u, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Frac(self.num.scale(other), self.bag)
        if isinstance(other, MPoly):
            _chk_u(self.u, other.u)
            return Frac(self.num * other, self.bag)
        other = as_frac(self.u, other)
        bag = self._bagdict()
        for f, m in other.bag:
            bag[f] = bag.get(f, 0) + m
        return Frac(self.num * other.num, bag)

    __rmul__ = __mul__

    # -- comparison and certification -------------------------------------------

    def eq(self, other) -> bool:
        """Semantic equality: the difference, over the union bag, is zero."""
        return (self - other).is_zero()

    def as_poly(self) -> MPoly:
        """Certify that the denominator divides the numerator; exact quotient."""
        r, gone = _divide_out(self.num, self.bag)
        if sum(gone.values()) != sum(m for _, m in self.bag):
            raise NotDivisible("denominator does not divide numerator exactly")
        return r

    def shrink(self) -> "Frac":
        """Cancel denominator factors that happen to divide the numerator.

        Pure trial division (no GCD); the value is unchanged and the result
        is not claimed to be in lowest terms.
        """
        if not self.bag:
            return self
        num, gone = _divide_out(self.num, self.bag)
        return Frac(num, {f: m - gone.get(f, 0) for f, m in self.bag if m > gone.get(f, 0)})

    def lowest(self) -> "Frac":
        """The value in lowest terms, over a bag of canonical irreducible pieces.

        Every bag factor must be a two-term binomial with coefficients +-1
        and exponents on q, t and x only (1 - q^c x_i/x_j, 1 - q^a t^b), or a
        piece :func:`_cyclotomic` of three or more terms in either
        orientation (so a fraction in lowest terms, or one with x permuted,
        may go through again); any other raises ValueError.  Each is a unit
        times pieces (:func:`_pieces`); the units move into the numerator
        through ``mono_mul``, and the numerator is divided by each piece
        until a division fails.  The pieces are irreducible and pairwise
        non-associate, so what stays in the bag is prime to the numerator,
        with no GCD: two fractions of equal value come out field for field
        the same.
        """
        if self.num.is_zero():
            return Frac(self.num)
        u = self.u
        pieces, shift, sign = {}, {}, 1
        for f, m in self.bag:
            c, b, ps = _pieces(u, f)
            sign *= c ** m
            for nm, e in zip(u.names, b):
                if e:
                    shift[nm] = shift.get(nm, 0) - e * m
            for p in ps:
                pieces[p] = pieces.get(p, 0) + m
        num = self.num.mono_mul(sign, {nm: e for nm, e in shift.items() if e})
        num, gone = _divide_out(num, pieces.items())
        return Frac(num, {p: k - gone.get(p, 0) for p, k in pieces.items()
                          if k > gone.get(p, 0)})

    # -- structural maps ----------------------------------------------------------

    def _map(self, fn) -> "Frac":
        bag = {}
        for f, m in self.bag:
            nf = fn(f)
            bag[nf] = bag.get(nf, 0) + m
        return Frac(fn(self.num), bag)

    def qshift(self, gamma) -> "Frac":
        return self._map(lambda p: p.qshift(gamma))

    def convert(self, target: VarUniverse, rename: dict | None = None) -> "Frac":
        return self._map(lambda p: p.convert(target, rename))

    def subs_monomials(self, assign: dict) -> "Frac":
        return self._map(lambda p: p.subs_monomials(assign))


@lru_cache(maxsize=None)
def _cyclotomic(u: VarUniverse, w: tuple, d: int) -> MPoly:
    """The piece of index d in direction w: 1 - X^w for d = 1, else Phi_d(X^w).

    1 - X^{dw} is the product of the pieces of every divisor of d, so each
    piece is the exact quotient of 1 - X^{dw} by those of the proper
    divisors; memoized per (universe, w, d).
    """
    piece = u.one() - u.mono(1, {nm: d * e for nm, e in zip(u.names, w) if e})
    for e in range(1, d):
        if d % e == 0:
            piece = try_div(piece, _cyclotomic(u, w, e))
    return piece


def _totient(d: int) -> int:
    """Euler's phi(d), by trial division."""
    r, k, p = d, d, 2
    while p * p <= k:
        if k % p == 0:
            r -= r // p
            while k % p == 0:
                k //= p
        p += 1
    return r - r // k if k > 1 else r


def _pieces(u: VarUniverse, f: MPoly):
    """(c, b, pieces) with f = c X^b prod(pieces), for f = c1 X^a + c X^b with
    c1, c = +-1, exponents on q, t and x only and X^a above X^b, or for f a
    piece of three or more terms in either orientation; ValueError for any
    other f.  A step X^w with a negative t exponent (t - q, step q/t), or in
    :meth:`Frac.lowest` a unit X^b with t in it, raises in the checked constructors.

    With X^a = X^b Z^g, Z = X^w, w primitive and its first nonzero entry
    positive: 1 - Z^g is the product of the :func:`_cyclotomic` pieces for
    d | g, and 1 + Z^g = (1 - Z^2g)/(1 - Z^g) that for d | 2g, d not | g.
    A longer f must be Phi_d(Z) itself (X^b = 1) or Phi_d(Z^-1) = Z^-g
    Phi_d(Z) (X^a = 1), for a d with phi(d) = g, so its unit is X^b.
    """
    tm = f.terms
    if len(tm) < 2 or (len(tm) == 2 and any(c not in (1, -1) for c in tm.values())):
        raise ValueError("lowest terms need +-1 binomial factors, not %s" % f.text())
    hi, lo = max(tm), min(tm)
    a, b = u.unpack(hi), u.unpack(lo)
    if any((ea or eb) and nm[0] not in "qtx" for ea, eb, nm in zip(a, b, u.names)):
        raise ValueError("lowest terms need factors on q, t and x only, not %s" % f.text())
    v = [ea - eb for ea, eb in zip(a, b)]
    g = math.gcd(*v)
    w = tuple(e // g for e in v)
    if len(tm) > 2:
        if u.one_key in (hi, lo):
            # phi(d) >= sqrt(d / 2), so d <= 2 g^2
            z = f.mono_mul(1, {nm: -e for nm, e in zip(u.names, b) if e})
            for d in range(3, 2 * g * g + 1):
                if _totient(d) == g and z == _cyclotomic(u, w, d):
                    return 1, b, [_cyclotomic(u, w, d)]
        raise ValueError("lowest terms need +-1 binomials or their pieces, not %s"
                         % f.text())
    h = g if tm[hi] != tm[lo] else 2 * g
    return tm[lo], b, [_cyclotomic(u, w, d) for d in range(1, h + 1)
                       if h % d == 0 and (h == g or g % d)]


def _orient(u: VarUniverse, f: MPoly):
    """(g, c, v) with f = c X^v g, when f = 1 + c X^v with c = +-1, X^v below
    1 and v on q and x only, and g = 1 + c X^-v; (f, 1, None) otherwise.

    The associates 1 - x1/x2 and 1 - x2/x1 thus share one oriented form.
    """
    base = u.one_key
    tm = f.terms
    k = min(tm) if len(tm) == 2 else base
    if k < base and tm.get(base) == 1 and tm[k] in (1, -1):
        vec = u.unpack(k)
        if all(lau or not e for e, lau in zip(vec, u._laurent)):
            c = tm[k]
            return u.one() + u.mono(c, {nm: -e for nm, e in zip(u.names, vec) if e}), c, vec
    return f, 1, None


def _oriented(u: VarUniverse, num: MPoly, bag: dict):
    """num / prod(bag) as (num', oriented bag): each copy of a factor moves
    its unit c X^v (:func:`_orient`) into the numerator as c X^-v, through
    the checked ``mono_mul``."""
    out, shift, sign = {}, {}, 1
    for f, m in bag.items():
        g, c, vec = _orient(u, f)
        if vec is not None:
            for nm, e in zip(u.names, vec):
                if e:
                    shift[nm] = shift.get(nm, 0) - e * m
            if c < 0 and m % 2:
                sign = -sign
        out[g] = out.get(g, 0) + m
    shift = {nm: e for nm, e in shift.items() if e}
    if shift or sign < 0:
        num = num.mono_mul(sign, shift)
    return num, out


def _best_pair(bags, holders=None) -> tuple:
    """Indices i < j of the two bags that share the most factor copies; the
    first such pair in scan order wins a tie.

    Given ``holders`` (factor -> number of pending bags holding it), the pair
    that completes the most factors comes first: a shared factor completes
    when the two bags are its only holders.  Shared copies then break a tie,
    and scan order after that.
    """
    best, bi, bj = None, 0, 1
    for i in range(len(bags)):
        bag_i = bags[i]
        for j in range(i + 1, len(bags)):
            bag_j = bags[j]
            small, large = (bag_i, bag_j) if len(bag_i) < len(bag_j) else (bag_j, bag_i)
            score = sum(min(m, large.get(f, 0)) for f, m in small.items())
            if holders is not None:
                score = (sum(holders[f] == 2 for f in small if f in large), score)
            if best is None or score > best:
                best, bi, bj = score, i, j
    return bi, bj


def _merge(n1: MPoly, b1: dict, n2: MPoly, b2: dict, holders=None):
    """n1 / prod(b1) + n2 / prod(b2) over the union bag, as (num, bag).

    A sum that vanishes gets the empty bag.  Given ``holders`` (the cancelling
    merge), the sum is trial-divided by each two-term factor of both bags
    whose only holders are these two, up to the smaller multiplicity, and
    each factor that divides exactly leaves the bag.  ``holders`` is then
    updated for the merged item.
    """
    union = dict(b1)
    for f, m in b2.items():
        if union.get(f, 0) < m:
            union[f] = m
    s = (_times(n1, ((f, m - b1.get(f, 0)) for f, m in union.items())) +
         _times(n2, ((f, m - b2.get(f, 0)) for f, m in union.items())))
    if s.is_zero():
        union = {}
    elif holders is not None:
        s, gone = _divide_out(s, [(f, min(m, b2[f])) for f, m in b1.items()
                                  if f in b2 and holders[f] == 2 and len(f.terms) == 2])
        for f, k in gone.items():
            union[f] -= k
            if not union[f]:
                del union[f]
    if holders is not None:
        holders.subtract(b1.keys())
        holders.subtract(b2.keys())
        holders.update(union.keys())
    return s, union


def frac_sum(u: VarUniverse, terms, *, cancel: bool = False) -> Frac:
    """Sum fractions over the union of their factored denominators.

    Fractions are merged pairwise, most-similar denominators first, so each
    merge only multiplies numerators by the symmetric difference of the two
    factor bags.  Without ``cancel`` the result is identical to clearing
    everything to the multiset union at once, just far cheaper on big sums.

    With ``cancel`` each term's bag is first oriented (:func:`_oriented`):
    a factor 1 + c X^v with c = +-1, X^v below 1 in the term order and v on
    q and x only becomes 1 + c X^-v, and each copy's unit c X^-v moves into
    the numerator.  The two orientations of one pole (1 - x1/x2 and
    1 - x2/x1, 1 - q^-1 x3/x1 and 1 - q x1/x3) thus meet as one shared
    factor.  Factors that touch t, u or y, x_i - x_j and multi-term factors
    keep their form.  The sum then counts, for each factor, the pending
    items that hold it (its holders).  A merge trial-divides the new
    numerator by a two-term factor found in both bags only when the merge
    leaves the merged item as that factor's last holder, up to the smaller
    of its two multiplicities, and drops each factor that divides exactly
    from the union bag.  If the whole sum has no pole at a factor, neither
    has the sum over its holders, so that division succeeds; while another
    holder is pending the pole almost never cancels, and a failing division
    costs about as much as the product that made it.  Pairs that complete
    the most factors (merge their last two holders) go first, so poles
    cancel as the sum proceeds instead of all at the end.  The value is
    unchanged.  Only two-term factors are tried: they divide in linear time
    (:func:`_div_binomial`), while trial division by multi-term factors
    costs far more than it saves.

    :meth:`macdonald.QDiffOp.apply` and the B_m build cancel, and the
    reason is speed; the B_m build stores the sum in lowest terms
    (:meth:`Frac.lowest`), which are the same whichever path summed it.
    The terms of the q-binomial and b_alpha sums already arrive with their
    shared factors cancelled (:meth:`Frac.from_factors`); cancelling in the
    other sums as well gained nothing measurable on top of that, so they
    keep the plain merge.
    """
    items = []
    for tm in terms:
        tm = as_frac(u, tm)
        if not tm.num.is_zero():
            items.append(_oriented(u, tm.num, tm._bagdict()) if cancel
                         else (tm.num, tm._bagdict()))
    if not items:
        return Frac(u.zero())
    holders = Counter(f for _, bag in items for f in bag) if cancel else None
    while len(items) > 1:
        bi, bj = _best_pair([bag for _, bag in items], holders)
        n2, b2 = items.pop(bj)
        n1, b1 = items.pop(bi)
        items.append(_merge(n1, b1, n2, b2, holders))
    num, bag = items[0]
    return Frac(num, bag)

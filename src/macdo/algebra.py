"""Exact sparse Laurent-polynomial and fraction arithmetic.

Every value in this package lives in Z[q^{+-1}, t, u, x^{+-1}, y]: a
polynomial is a sparse map from exponent vectors to nonzero
arbitrary-precision integer coefficients.  Internally an exponent vector is
packed into a single integer (28 bits per variable, offset so that negative
exponents pack monotonically), which makes monomial multiplication a single
integer addition and makes the canonical term order (lexicographic on the
fixed variable order q, t, u, x1.., y1.., exponents compared high-to-low)
plain integer comparison of keys.  The constructors, the shifts (``qshift``,
``mono_mul``) and ``subs_monomials`` reject an exponent outside
[-2^27, 2^27) rather than let it spill into the next field; ``MPoly.__mul__``
adds keys unchecked, because a check per term product would cost more than
the product.  Clearing fractions to a common denominator multiplies mostly
by two-term bag factors; a product with a two-term operand, on either side,
takes two linear passes over the other operand (``_mul_binomial``), the
counterpart of the chain walk that divides by one (``_div_binomial``).

Fractions carry their denominator as a multiset of polynomial factors and
are never reduced to lowest terms.  Equality is decided by
cross-multiplication, and "this fraction is actually a polynomial" is
certified by exact trial division: one loop (``_divide_out``) divides bag
factors out of a numerator for ``Frac.shrink``, ``Frac.as_poly`` and the
cancelling ``frac_sum``.  No GCD, no factorization, no floating point.

Negative exponents are legal for q and the x variables only; building a
value with a negative exponent on t, u or y through the public constructors
raises.
"""

from __future__ import annotations

import heapq
import math
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
        """Fast multiply by the monomial c * prod(var^e)."""
        if not c:
            return self.u.zero()
        for nm, e in exps.items():
            self._check_shift(nm, e)
        off = self.u.mono(1, exps)
        (k0,) = off.terms
        off_key = k0 - self.u.one_key
        return MPoly(self.u, {k + off_key: c * v for k, v in self.terms.items()})

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

    def _check_shift(self, name: str, e: int):
        """Raise ValueError if adding e to each exponent of name leaves its field."""
        if e and self.terms and not (-_B <= self.min_exp(name) + e
                                     and self.max_exp(name) + e < _B):
            raise ValueError("shifting %s by %d overflows its %d-bit packed field"
                             % (name, e, _W))

    def _exps_within(self, bits: int) -> bool:
        """True when every exponent of every term lies in [-2^bits, 2^bits)."""
        # subtracting B - 2^bits from each field maps those exponents to
        # [0, 2^(bits+1)) without a borrow; any other exponent sets a higher bit
        sh = self.u._shift
        lo = sum((_B - (1 << bits)) << s for s in sh)
        high = sum((_MASK >> (bits + 1) << (bits + 1)) << s for s in sh)
        return not any((k - lo) & high for k in self.terms)

    def _min_vec(self):
        mins = [_MASK] * self.u.nvars
        for k in self.terms:
            for i, s in enumerate(self.u._shift):
                f = (k >> s) & _MASK
                if f < mins[i]:
                    mins[i] = f
        return [m - _B for m in mins]

    # -- shifts and substitutions ---------------------------------------------

    def qshift(self, gamma) -> "MPoly":
        """Substitute x_i -> q^{gamma_i} x_i."""
        u = self.u
        if len(gamma) > u.n_x:
            raise ValueError("shift vector longer than the x variables")
        shifts = [u._shift[u._x0 + i] for i in range(len(gamma))]
        sv = u._shift[0]
        out = {}
        for k, c in self.terms.items():
            d = 0
            for g, s in zip(gamma, shifts):
                if g:
                    d += g * (((k >> s) & _MASK) - _B)
            out[k + (d << sv)] = c
        # q is the most significant field, so a q exponent outside its range
        # shows as a negative key or as bits above the field
        if out and (min(out) < 0 or max(out) >> sv > _MASK):
            raise ValueError("q-shift overflows the %d-bit packed q field" % _W)
        return MPoly(u, out)

    def subs_monomials(self, assign: dict) -> "MPoly":
        """Substitute variables by (invertible) monomials, exactly.

        ``assign`` maps a variable name to a single-term MPoly in the same
        universe whose coefficient is +-1, e.g. x1 -> -q^{-2} x3^{-1}.
        Raises ValueError when an exponent of the result leaves its packed
        field, or when the result has a negative exponent on t, u or y.
        """
        u = self.u
        base = u.one_key
        subs = []
        # no result exponent exceeds gain times the largest input exponent
        # in absolute value
        gain = 1
        # t, u and y positions that a negative q or x exponent can reach
        polar = set()
        for nm, mono in assign.items():
            if mono.u != u or len(mono.terms) != 1:
                raise ValueError("substitution value for %s must be a monomial" % nm)
            ((mk, mc),) = mono.terms.items()
            if mc not in (1, -1):
                raise ValueError("substitution monomial must have unit coefficient")
            i = u.pos(nm)
            subs.append((u._shift[i], mk - base, mc))
            vec = u.unpack(mk)
            gain += sum(map(abs, vec))
            if u._laurent[i]:
                polar.update(j for j, e in enumerate(vec) if e and not u._laurent[j])
        bits = _W - 1 - gain.bit_length()
        if bits < 0 or not self._exps_within(bits):
            # exponents this large may overflow: compute each term's exactly
            for k in self.terms:
                old = u.unpack(k)
                new = list(old)
                for s, moff, _ in subs:
                    i = u._shift.index(s)
                    new[i] -= old[i]
                    new = [a + old[i] * b for a, b in zip(new, u.unpack(moff + base))]
                if not all(-_B <= a < _B for a in new):
                    raise ValueError("monomial substitution overflows a %d-bit packed field"
                                     % _W)
        out = {}
        for k, c in self.terms.items():
            nk, nc = k, c
            for s, moff, mc in subs:
                e = ((k >> s) & _MASK) - _B
                if e:
                    nk += e * moff - (e << s)
                    if mc < 0 and e % 2:
                        nc = -nc
            pc = out.get(nk, 0) + nc
            if pc:
                out[nk] = pc
            else:
                del out[nk]
        for j in sorted(polar):
            s = u._shift[j]
            if any(((k >> s) & _MASK) < _B for k in out):
                raise ValueError("monomial substitution leaves a negative exponent on %s"
                                 % u.names[j])
        return MPoly(u, out)

    def convert(self, target: VarUniverse, rename: dict | None = None) -> "MPoly":
        """Re-express this polynomial in another universe, optionally renaming.

        Every variable carrying a nonzero exponent must map to a target
        variable; Laurent legality is re-checked in the target.
        """
        u = self.u
        rename = rename or {}
        dest = []
        for i, nm in enumerate(u.names):
            dn = rename.get(nm, nm)
            dest.append(target._pos.get(dn, -1))
        out = {}
        for k, c in self.terms.items():
            vec = [0] * target.nvars
            for i, s in enumerate(u._shift):
                e = ((k >> s) & _MASK) - _B
                if e:
                    if dest[i] < 0:
                        raise ValueError("variable %s not present in target" % u.names[i])
                    vec[dest[i]] += e
            target._check_exps(vec)
            nk = target.pack(vec)
            nc = out.get(nk, 0) + c
            if nc:
                out[nk] = nc
            else:
                del out[nk]
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

    The first shifted copy of ``b`` has distinct keys and no zero, so one
    comprehension builds it; the second is folded in, deleting each
    coefficient that cancels.
    """
    (k1, c1), (k2, c2) = a.items()
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


def _has_x(p: MPoly) -> bool:
    """True when some term of p carries a nonzero x exponent."""
    u = p.u
    shifts = u._shift[u._x0:u._y0]
    return any(((k >> s) & _MASK) != _B for k in p.terms for s in shifts)


def cauchy_kernel(u: VarUniverse) -> MPoly:
    """The dual Cauchy kernel prod_{i,j} (1 + x_i y_j) over every x and y of u."""
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
    quotient may pick up monomial shifts.  Two-term divisors (the
    overwhelmingly common case here: Pochhammer binomials, Vandermonde
    differences) take the linear-time chain walk of :func:`_div_binomial`;
    every other divisor, a monomial included, takes the heap division of
    Monagan and Pearce (CASC 2007).
    """
    _chk_u(num.u, den.u)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return num
    u = num.u
    if len(den.terms) == 2:
        return _div_binomial(num, den)
    # shift both operands so every exponent is nonnegative, divide in N^k,
    # then shift the quotient back
    nmin, dmin = num._min_vec(), den._min_vec()
    noff = u.pack(nmin) - u.one_key
    doff = u.pack(dmin) - u.one_key
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
        if cr % cd:
            return None
        for f in u._shift:
            if ((kq >> f) & _MASK) < _B:
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
    back = noff - doff
    return MPoly(u, {k + back: c for k, c in qu.items()})


def _div_binomial(num: MPoly, den: MPoly):
    """Exact division by a two-term divisor via chain-walk synthetic division.

    Terms of the numerator split into chains along the divisor's exponent
    step.  One walk runs down each chain in linear time, carrying the
    correction term, and stops where the carry cancels.  Walks start at the
    keys in descending order, the leading chain first, so that a division
    failing there fails before any sort; a walk consumes every key it
    passes.  A chain of an exact quotient can visit at most span/step
    positions, so walks are cut off by a step budget; integer key arithmetic
    stays faithful to exponent vectors within that budget.
    """
    u = num.u
    k1, k2 = sorted(den.terms, reverse=True)
    c1, c2 = den.terms[k1], den.terms[k2]
    d = k1 - k2
    base = u.one_key
    # widest step component bounds the number of positions a valid chain
    # can visit; one extra step is allowed for the closing carry
    dvec = [a - b for a, b in zip(u.unpack(k1), u.unpack(k2))]
    comp = max(range(u.nvars), key=lambda i: abs(dvec[i]))
    step = abs(dvec[comp])
    s_comp = u._shift[comp]
    fmin, fmax = _MASK, 0
    for k in num.terms:
        f = (k >> s_comp) & _MASK
        if f < fmin:
            fmin = f
        if f > fmax:
            fmax = f
    budget = (fmax - fmin) // step + 2
    rest = dict(num.terms)
    qu = {}
    for pos in _walk_starts(rest):
        if pos not in rest:
            continue
        carry, left = 0, budget
        while True:
            a = carry + rest.pop(pos, 0)
            if a % c1:
                return None
            cq = a // c1
            if not cq:
                break
            qu[pos - k1 + base] = cq
            carry = -cq * c2
            left -= 1
            if left < 0:
                return None
            pos -= d
    return MPoly(u, qu)


def _walk_starts(keys):
    """The leading key, then the keys left after its walk, sorted descending."""
    yield max(keys)
    yield from sorted(keys, reverse=True)


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
    """Unreduced fraction num / prod(factor^mult) of Laurent polynomials.

    The denominator is kept as a multiset of factors so that sums over a
    common structural denominator do not balloon; ``den`` expands it on
    each read.  Semantic equality is cross-multiplication via :meth:`eq`.
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
        """prod(num_factors) / prod(den_factors), shared x-factors cancelled.

        A factor that contains an x variable and appears in both lists is
        dropped from both, up to the smaller multiplicity, before the
        numerator is expanded: a multiset difference of identical
        polynomials, no division.  Such a factor 1 - t^e q^c x_i/x_j has a
        primitive exponent vector, so it is irreducible and prime to every
        bag factor that is not a unit multiple of it; ``shrink`` leaves it at
        its pole order however many copies came in, and cancelling it here
        changes no fraction that ``shrink`` returns.  Factors without x
        (1 - q^k, 1 + t, ...) are never cancelled: the 1 - q^k share
        cyclotomic factors, so which of them ``shrink`` keeps depends on the
        bag they arrive in.
        """
        bag = {}
        for f in den_factors:
            if not f.is_one():
                bag[f] = bag.get(f, 0) + 1
        num = []
        for f in num_factors:
            if bag.get(f) and _has_x(f):
                bag[f] -= 1
            else:
                num.append(f)
        return cls(mp_prod(u, num), {f: m for f, m in bag.items() if m})

    @property
    def den(self) -> MPoly:
        den = self.u.one()
        for f, m in self.bag:
            for _ in range(m):
                den = den * f
        return den

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


def frac_sum(u: VarUniverse, terms, *, cancel: bool = False) -> Frac:
    """Sum fractions over the union of their factored denominators.

    Fractions are merged pairwise, most-similar denominators first, so each
    merge only multiplies numerators by the symmetric difference of the two
    factor bags.  Without ``cancel`` the result is identical to clearing
    everything to the multiset union at once, just far cheaper on big sums.

    With ``cancel`` each merge also trial-divides the new numerator by every
    two-term factor found in both bags, up to the smaller of its two
    multiplicities, and drops each factor that divides exactly from the
    union bag.  The value is unchanged; numerators stay small because shared
    poles cancel as the sum proceeds instead of all at the end.  Only
    two-term factors are tried: they divide in linear time
    (:func:`_div_binomial`), while trial division by multi-term factors (the
    eigenvalue gaps of the P solve) costs far more than it saves.

    Only :meth:`macdonald.QDiffOp.apply` cancels, and the reason is speed.
    The B_m build keeps the plain merge because its cancelled coefficients
    carry bags that make every later application of B_m slower (it would
    also change the bytes ``operator --format json`` writes).  The terms of
    the q-binomial and b_alpha sums already arrive with their shared
    x-dependent factors cancelled (:meth:`Frac.from_factors`); cancelling in
    the P solve and the other sums as well gained nothing measurable on top
    of that, so they keep the plain merge.
    """
    items = []
    for tm in terms:
        tm = as_frac(u, tm)
        if not tm.num.is_zero():
            items.append((tm.num, tm._bagdict()))
    if not items:
        return Frac(u.zero())
    while len(items) > 1:
        best, bi, bj = -1, 0, 1
        for i in range(len(items)):
            bag_i = items[i][1]
            for j in range(i + 1, len(items)):
                bag_j = items[j][1]
                small, large = (bag_i, bag_j) if len(bag_i) < len(bag_j) else (bag_j, bag_i)
                score = sum(min(m, large.get(f, 0)) for f, m in small.items())
                if score > best:
                    best, bi, bj = score, i, j
        n2, b2 = items.pop(bj)
        n1, b1 = items.pop(bi)
        union = dict(b1)
        for f, m in b2.items():
            if union.get(f, 0) < m:
                union[f] = m
        for f, m in union.items():
            for _ in range(m - b1.get(f, 0)):
                n1 = n1 * f
            for _ in range(m - b2.get(f, 0)):
                n2 = n2 * f
        s = n1 + n2
        if s.is_zero():
            union = {}
        elif cancel:
            s, gone = _divide_out(s, [(f, min(m, b2.get(f, 0))) for f, m in b1.items()
                                      if len(f.terms) == 2])
            for f, k in gone.items():
                union[f] -= k
                if not union[f]:
                    del union[f]
        items.append((s, union))
    num, bag = items[0]
    return Frac(num, bag)

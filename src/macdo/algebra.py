"""Exact sparse Laurent-polynomial and fraction arithmetic.

Every value in this package lives in Z[q^{+-1}, t, u, x^{+-1}, y]: a
polynomial is a sparse map from exponent vectors to nonzero
arbitrary-precision integer coefficients.  Internally an exponent vector is
packed into a single integer (28 bits per variable, offset so that negative
exponents pack monotonically), which makes monomial multiplication a single
integer addition and makes the canonical term order (lexicographic on the
fixed variable order q, t, u, x1.., y1.., exponents compared high-to-low)
plain integer comparison of keys.  The constructors reject an exponent
outside [-2^27, 2^27) rather than let it spill into the next field.

Fractions carry their denominator as a multiset of polynomial factors and
are never reduced to lowest terms.  Equality is decided by
cross-multiplication, and "this fraction is actually a polynomial" is
certified by exact trial division.  No GCD, no factorization, no floating
point.

Negative exponents are legal for q and the x variables only; building a
value with a negative exponent on t, u or y through the public constructors
raises.  The one sanctioned exception is :meth:`MPoly.laurent_shift`, used
to divide by the monomial y1*...*ym transiently inside the dual-lowering
check.
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

    __slots__ = ("names", "n_x", "n_y", "has_q", "has_t", "has_u",
                 "nvars", "_pos", "_shift", "_laurent", "one_key", "_x0", "_y0")

    def __init__(self, n_x: int, n_y: int = 0, q: bool = True, t: bool = True,
                 u: bool = False):
        if n_x < 1:
            raise ValueError("need at least one x variable")
        if n_y < 0:
            raise ValueError("n_y must be >= 0")
        names = []
        if q:
            names.append("q")
        if t:
            names.append("t")
        if u:
            names.append("u")
        self._x0 = len(names)
        names += ["x%d" % i for i in range(1, n_x + 1)]
        self._y0 = len(names)
        names += ["y%d" % j for j in range(1, n_y + 1)]
        self.names = tuple(names)
        self.n_x, self.n_y = n_x, n_y
        self.has_q, self.has_t, self.has_u = q, t, u
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

    def exp_of(self, key: int, name: str) -> int:
        return ((key >> self._shift[self._pos[name]]) & _MASK) - _B

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


@lru_cache(maxsize=None)
def universe(n_x: int, n_y: int = 0, q: bool = True, t: bool = True,
             u: bool = False) -> VarUniverse:
    """Interned universe factory; always prefer this over VarUniverse()."""
    return VarUniverse(n_x, n_y, q, t, u)


def universe_of_names(names) -> VarUniverse:
    """Rebuild the interned universe matching a serialized variable list."""
    names = tuple(names)
    q, t, u = "q" in names, "t" in names, "u" in names
    n_x = sum(1 for nm in names if nm.startswith("x"))
    n_y = sum(1 for nm in names if nm.startswith("y"))
    cand = universe(n_x, n_y, q, t, u)
    if cand.names != names:
        raise ValueError("variable list %r is not in canonical order" % (names,))
    return cand


def _chk_u(a: VarUniverse, b: VarUniverse):
    if a != b:
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

    def n_terms(self) -> int:
        return len(self.terms)

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
        if isinstance(other, int):
            return self.scale(other)
        _chk_u(self.u, other.u)
        a, b = self.terms, other.terms
        if not a or not b:
            return self.u.zero()
        if len(a) > len(b):
            a, b = b, a
        base = self.u.one_key
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

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = self.u.one()
        for _ in range(e):
            out = out * self
        return out

    def mono_mul(self, c: int, exps: dict) -> "MPoly":
        """Fast multiply by the monomial c * prod(var^e)."""
        if not c:
            return self.u.zero()
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

    def _min_vec(self):
        mins = [_MASK] * self.u.nvars
        for k in self.terms:
            for i, s in enumerate(self.u._shift):
                f = (k >> s) & _MASK
                if f < mins[i]:
                    mins[i] = f
        return [m - _B for m in mins]

    # -- shifts and substitutions ---------------------------------------------

    def qshift(self, gamma, block: str = "x", shift_var: str = "q") -> "MPoly":
        """Substitute v_i -> s^{gamma_i} v_i over a variable block.

        The default is the q-shift on x; the swapped-parameter operators use
        the t-shift on y.
        """
        u = self.u
        if len(gamma) > (u.n_x if block == "x" else u.n_y):
            raise ValueError("shift vector longer than the %s block" % block)
        v0 = u._x0 if block == "x" else u._y0
        shifts = [u._shift[v0 + i] for i in range(len(gamma))]
        sv = u._shift[u.pos(shift_var)]
        out = {}
        for k, c in self.terms.items():
            d = 0
            for g, s in zip(gamma, shifts):
                if g:
                    d += g * (((k >> s) & _MASK) - _B)
            out[k + (d << sv)] = c
        return MPoly(u, out)

    def laurent_shift(self, deltas: dict) -> "MPoly":
        """Add a fixed offset to the exponents of given variables.

        Bypasses the Laurent legality check on purpose: the dual-lowering
        check divides by y1*...*ym and re-enters the legal range afterwards.
        """
        u = self.u
        off = sum(d << u._shift[u.pos(nm)] for nm, d in deltas.items())
        return MPoly(u, {k + off: c for k, c in self.terms.items()})

    def subs_monomials(self, assign: dict) -> "MPoly":
        """Substitute variables by (invertible) monomials, exactly.

        ``assign`` maps a variable name to a single-term MPoly in the same
        universe whose coefficient is +-1, e.g. x1 -> -q^{-2} x3^{-1}.
        """
        u = self.u
        base = u.one_key
        subs = []
        for nm, mono in assign.items():
            if mono.u != u or len(mono.terms) != 1:
                raise ValueError("substitution value for %s must be a monomial" % nm)
            ((mk, mc),) = mono.terms.items()
            if mc not in (1, -1):
                raise ValueError("substitution monomial must have unit coefficient")
            subs.append((u._shift[u.pos(nm)], mk - base, mc))
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
        return MPoly(u, out)

    def eval_partial(self, assign: dict) -> "Frac":
        """Substitute Frac values for some variables; exact, returns a Frac."""
        u = self.u
        names = sorted(assign)
        vals = [as_frac(u, assign[nm]) for nm in names]
        shifts = [u._shift[u.pos(nm)] for nm in names]
        clear = sum(_MASK << s for s in shifts)
        groups = {}
        for k, c in self.terms.items():
            sig = tuple(((k >> s) & _MASK) - _B for s in shifts)
            rk = (k & ~clear) | sum(_B << s for s in shifts)
            g = groups.setdefault(sig, {})
            nc = g.get(rk, 0) + c
            if nc:
                g[rk] = nc
            else:
                del g[rk]
        total = Frac(u.zero())
        for sig, terms in groups.items():
            part = Frac(MPoly(u, terms))
            for v, e in zip(vals, sig):
                if e:
                    part = part * (v ** e)
            total = total + part
        return total

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
    quotient may pick up monomial shifts.  Divisors with one or two terms
    (the overwhelmingly common case here: Pochhammer binomials, Vandermonde
    differences) take dedicated linear-time paths.
    """
    _chk_u(num.u, den.u)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return num
    u = num.u
    if len(den.terms) == 1:
        ((kd, cd),) = den.terms.items()
        base = u.one_key
        out = {}
        for k, c in num.terms.items():
            if c % cd:
                return None
            out[k - kd + base] = c // cd
        return MPoly(u, out)
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
    step; each chain is divided independently in linear time, carrying the
    correction term downward.  A chain of an exact quotient can visit at
    most span/step positions, so walks are cut off by a step budget; integer
    key arithmetic stays faithful to exponent vectors within that budget.
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
    groups: dict = {}
    for k in num.terms:
        groups.setdefault(k % d, []).append(k)
    terms = num.terms
    qu = {}
    for keys in groups.values():
        keys.sort(reverse=True)
        idx = 0
        npos = len(keys)
        while idx < npos:
            pos = keys[idx]
            carry = 0
            left = budget
            while True:
                if idx < npos and keys[idx] == pos:
                    idx += 1
                a = carry + terms.get(pos, 0)
                if a:
                    if a % c1:
                        return None
                    cq = a // c1
                    qu[pos - k1 + base] = cq
                    carry = -cq * c2
                else:
                    carry = 0
                if carry:
                    left -= 1
                    if left < 0:
                        return None
                    pos -= d
                elif idx < npos:
                    pos = keys[idx]
                    left = budget
                else:
                    break
    return MPoly(u, qu)


def div_exact(num: MPoly, den: MPoly) -> MPoly:
    qu = try_div(num, den)
    if qu is None:
        raise NotDivisible("denominator does not divide numerator exactly")
    return qu


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
    demand.  Semantic equality is cross-multiplication via :meth:`eq`.
    """

    __slots__ = ("num", "bag", "_den")

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
        self._den = None

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
    def from_factors(cls, num: MPoly, factors) -> "Frac":
        bag = {}
        for f in factors:
            if f.is_one():
                continue
            bag[f] = bag.get(f, 0) + 1
        return cls(num, bag)

    @property
    def den(self) -> MPoly:
        if self._den is None:
            den = self.u.one()
            for f, m in self.bag:
                for _ in range(m):
                    den = den * f
            self._den = den
        return self._den

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

    def __pow__(self, e: int):
        if e >= 0:
            out = Frac(self.u.one())
            for _ in range(e):
                out = out * self
            return out
        return self.inverse() ** (-e)

    def inverse(self) -> "Frac":
        if self.num.is_zero():
            raise ZeroDivisionError("inverting the zero fraction")
        num = self.den
        if self.num.is_one():
            return Frac(num)
        return Frac(num, {self.num: 1})

    def __truediv__(self, other):
        other = as_frac(self.u, other)
        return self * other.inverse()

    # -- comparison and certification -------------------------------------------

    def eq(self, other) -> bool:
        """Semantic equality by cross-multiplication (common factors cancel)."""
        other = as_frac(self.u, other)
        a, b = self._bagdict(), other._bagdict()
        lhsf, rhsf = [], []
        for f in set(a) | set(b):
            d = a.get(f, 0) - b.get(f, 0)
            if d > 0:
                rhsf += [f] * d
            elif d < 0:
                lhsf += [f] * (-d)
        lhs = self.num
        for f in lhsf:
            lhs = lhs * f
        rhs = other.num
        for f in rhsf:
            rhs = rhs * f
        return lhs == rhs

    def as_poly(self) -> MPoly:
        """Certify that the denominator divides the numerator; exact quotient."""
        r = self.num
        for f, m in self.bag:
            for _ in range(m):
                r = div_exact(r, f)
        return r

    def shrink(self) -> "Frac":
        """Cancel denominator factors that happen to divide the numerator.

        Pure trial division (no GCD); the value is unchanged and the result
        is not claimed to be in lowest terms.
        """
        if not self.bag:
            return self
        num = self.num
        bag = {}
        if num.is_zero():
            return Frac(num)
        for f, m in self.bag:
            while m:
                qu = try_div(num, f)
                if qu is None:
                    break
                num = qu
                m -= 1
            if m:
                bag[f] = m
        return Frac(num, bag)

    # -- structural maps ----------------------------------------------------------

    def _map(self, fn) -> "Frac":
        bag = {}
        for f, m in self.bag:
            nf = fn(f)
            bag[nf] = bag.get(nf, 0) + m
        return Frac(fn(self.num), bag)

    def qshift(self, gamma, block: str = "x", shift_var: str = "q") -> "Frac":
        return self._map(lambda p: p.qshift(gamma, block, shift_var))

    def convert(self, target: VarUniverse, rename: dict | None = None) -> "Frac":
        return self._map(lambda p: p.convert(target, rename))

    def subs_monomials(self, assign: dict) -> "Frac":
        return self._map(lambda p: p.subs_monomials(assign))

    def eval_partial(self, assign: dict) -> "Frac":
        num = self.num.eval_partial(assign)
        out = num
        for f, m in self.bag:
            fv = f.eval_partial(assign)
            if fv.is_zero():
                raise ZeroDivisionError("substitution vanishes on a denominator factor")
            out = out * (fv ** (-m))
        return out


def frac_sum(u: VarUniverse, terms) -> Frac:
    """Sum fractions over the union of their factored denominators.

    Fractions are merged pairwise, most-similar denominators first, so each
    merge only multiplies numerators by the symmetric difference of the two
    factor bags.  The result is identical to clearing everything to the
    multiset union at once, just far cheaper on big sums.
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
        items.append((s, union))
    num, bag = items[0]
    return Frac(num, bag)

"""Macdonald q-difference operators and the polynomials they single out.

Every operator here acts on the x variables by q-shifts.  The generating
operator D(u) is assembled over subsets K of the x variables with the
cleared cross-ratio (x_j - t x_i)/(x_j - x_i); its determinantal form is an
independent construction used as a cross-check.  The operator D_y(1;t,q) of
the dual side is not built separately: by the duality q <-> t, x <-> y
(Macdonald, Symmetric Functions and Hall Polynomials, ch. VI) it is
D(1;q,t) on the renamed variables, which is how :func:`dual_lowering` and
the P_lam(y;t,q) of the Cauchy checks are obtained.  The integral forms J
are their m-basis coordinates in Z[q,t], from a fraction-free
dominance-triangular solve against the one-subset operator D_1, each
coordinate one exact division; P is J / c_lam in lowest terms.  One certificate
(:func:`certified_column`) vouches for every m-basis column of an operator:
D_1 and D(u) here, B_m in ``raising``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .algebra import (Frac, MPoly, VarUniverse, as_frac, cauchy_kernel,
                      frac_sum, mp_prod, mp_sum, universe)
from .partitions import (Partition, dominance_downset, memo_per_partition,
                         mi_weight, partitions_in_box)


class QDiffOp:
    """Finite sum  sum_gamma c_gamma * T^gamma  of q-shifts on the x variables.

    T^gamma substitutes x_i -> q^{gamma_i} x_i.
    """

    __slots__ = ("u", "coeffs")

    def __init__(self, u: VarUniverse, coeffs: dict):
        self.u = u
        self.coeffs = coeffs

    def keys_canonical(self) -> list:
        return sorted(self.coeffs, key=lambda g: (mi_weight(g), tuple(-e for e in g)))

    def apply(self, f) -> Frac:
        """Exact image  sum_gamma c_gamma * f(q^gamma x).

        The sum cancels shared two-term denominator factors as it merges
        (see :func:`frac_sum`), so the image's bag may be smaller than the
        union of the coefficients' bags.  The sum also orients each binomial
        pole 1 + c X^v on q and x (c = +-1) so that X^v lies above 1, but
        here that changes no factor: the poles x_i - x_j of D_1 and D(u)
        keep their form, and B_m's coefficients are stored in lowest terms
        (:meth:`Frac.lowest`), whose pieces are already oriented.  The
        orientation acts in the B_m build and in the graded q-binomial sums,
        whose terms carry both orientations of a pole.
        """
        f = as_frac(self.u, f)
        terms = []
        for gamma, c in self.coeffs.items():
            terms.append(c * f.qshift(gamma))
        return frac_sum(self.u, terms, cancel=True)


def cross_term(u: VarUniverse, K, others):
    """Cleared cross-ratio prod_{i in K, j not in K} (x_j - t x_i)/(x_j - x_i).

    Indices are 0-based.  The denominator comes back as a factor bag in the
    canonical orientation (x_min - x_max), so equal factors collide across
    subsets; the sign the reorientation produces is absorbed into the
    numerator.
    """
    num = u.one()
    bag = {}
    sign = 1
    for i in K:
        for j in others:
            num = num * (u.x(j + 1) - u.x(i + 1).mono_mul(1, {"t": 1}))
            lo, hi = (i, j) if i < j else (j, i)
            f = u.x(lo + 1) - u.x(hi + 1)
            bag[f] = bag.get(f, 0) + 1
            if i < j:
                sign = -sign
    return num.scale(sign), bag


@lru_cache(maxsize=None)
def macdonald_d(u: VarUniverse) -> QDiffOp:
    """The generating operator D(u;q,t) = sum_r (-u)^r D_r over 2^n subsets.

    On a universe without a u variable the specialization u = 1 is built.
    Memoized per universe; the operator and its coefficient dict are shared,
    and never mutated.
    """
    n = u.n_x
    with_u = "u" in u.names
    coeffs = {}
    for bits in itertools.product((0, 1), repeat=n):
        K = [i for i in range(n) if bits[i]]
        others = [j for j in range(n) if not bits[j]]
        k = len(K)
        num, bag = cross_term(u, K, others)
        pref = {"t": k * (k - 1) // 2}
        if with_u:
            pref["u"] = k
        num = num.mono_mul((-1) ** k, pref)
        coeffs[bits] = Frac(num, bag)
    return QDiffOp(u, coeffs)


@lru_cache(maxsize=None)
def macdonald_d1(u: VarUniverse) -> QDiffOp:
    """The one-subset operator D_1 (coefficient of -u in D(u)).

    Memoized per universe, as :func:`macdonald_d` is.
    """
    n = u.n_x
    coeffs = {}
    for i in range(n):
        others = [j for j in range(n) if j != i]
        num, bag = cross_term(u, [i], others)
        gamma = tuple(1 if j == i else 0 for j in range(n))
        coeffs[gamma] = Frac(num, bag)
    return QDiffOp(u, coeffs)


# the determinantal form expands n! permutations times 2^n subsets
DET_MAX_N = 4


def macdonald_d_det(u: VarUniverse) -> QDiffOp:
    """Determinantal form of D(u;q,t).

    Expands (1/Delta(x)) sum_w eps(w) w(prod_i x_i^{n-i}(1 - u t^{n-i} T_{q,x_i}))
    directly; every coefficient is a fraction over the Vandermonde factors.
    An independent cross-check of macdonald_d for n <= DET_MAX_N.
    """
    n = u.n_x
    if n > DET_MAX_N:
        raise ValueError("determinantal expansion is a desk-scale cross-check (n <= %d)"
                         % DET_MAX_N)
    delta_bag = {}
    for i in range(n):
        for j in range(i + 1, n):
            f = u.x(i + 1) - u.x(j + 1)
            delta_bag[f] = delta_bag.get(f, 0) + 1
    nums = {}
    for w in itertools.permutations(range(n)):
        eps = _perm_sign(w)
        for bits in itertools.product((0, 1), repeat=n):
            K = [i for i in range(n) if bits[i]]
            gamma = [0] * n
            exps = {}
            tpow = 0
            for i in range(n):
                exps["x%d" % (w[i] + 1)] = exps.get("x%d" % (w[i] + 1), 0) + (n - 1 - i)
            for i in K:
                gamma[w[i]] = 1
                tpow += n - 1 - i
            exps["t"] = tpow
            exps["u"] = len(K)
            mono = u.mono(eps * (-1) ** len(K), exps)
            g = tuple(gamma)
            nums[g] = nums.get(g, u.zero()) + mono
    coeffs = {g: Frac(num, dict(delta_bag)) for g, num in nums.items()}
    return QDiffOp(u, coeffs)


def _perm_sign(w) -> int:
    s = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                s = -s
    return s


def operators_agree(a: QDiffOp, b: QDiffOp) -> bool:
    """Coefficientwise semantic equality of two shift operators."""
    keys = set(a.coeffs) | set(b.coeffs)
    zero = Frac(a.u.zero())
    for g in keys:
        if not a.coeffs.get(g, zero).eq(b.coeffs.get(g, zero)):
            return False
    return True


# -- symmetric polynomials -----------------------------------------------------


def monomial_symmetric(u: VarUniverse, mu: Partition) -> MPoly:
    """The monomial symmetric polynomial m_mu in the x variables."""
    exps = mu.padded(u.n_x)
    monos = []
    for perm in set(itertools.permutations(exps)):
        monos.append(u.mono(1, {"x%d" % (i + 1): e
                                for i, e in enumerate(perm) if e}))
    return mp_sum(u, monos)


def from_monomial_basis(u: VarUniverse, coords: dict) -> MPoly:
    """sum_mu coords[mu] m_mu, multiplied out in the x variables of u."""
    return mp_sum(u, (c * monomial_symmetric(u, mu) for mu, c in coords.items()))


def expand_in_monomial_basis(p: MPoly) -> dict:
    """Write a symmetric x-polynomial as {partition: coefficient in q,t}.

    Reads off the coefficient of each dominant monomial x^mu, then certifies
    symmetry: it rebuilds sum_mu c_mu m_mu and raises ValueError unless that
    equals p, so a returned expansion is always exact.
    """
    u = p.u
    out = {}
    for k, c in p.terms.items():
        vec = u.unpack(k)
        xv = vec[u._x0:u._x0 + u.n_x]
        if any(e < 0 for e in xv):
            raise ValueError("negative x exponent in a symmetric polynomial")
        if all(a >= b for a, b in zip(xv, xv[1:])):
            mu = Partition(xv)
            rest = list(vec)
            rest[u._x0:u._x0 + u.n_x] = [0] * u.n_x
            mono = MPoly(u, {u.pack(rest): c})
            out[mu] = out.get(mu, u.zero()) + mono
    out = {mu: c for mu, c in out.items() if not c.is_zero()}
    if from_monomial_basis(u, out) != p:
        raise ValueError("polynomial is not symmetric in x")
    return out


def x_transposition_rename(i: int, j: int) -> dict:
    return {"x%d" % i: "x%d" % j, "x%d" % j: "x%d" % i}


def is_symmetric_frac(v: Frac) -> bool:
    """Invariance of a fraction under all adjacent x transpositions."""
    u = v.u
    for i in range(1, u.n_x):
        transposed = v.convert(u, x_transposition_rename(i, i + 1))
        if not v.eq(transposed):
            return False
    return True


def d1_eigenvalue(u: VarUniverse, mu: Partition) -> MPoly:
    """sum_i q^{mu_i} t^{n-i}, n the number of x variables of the universe."""
    n = u.n_x
    return mp_sum(u, (u.mono(1, {"q": m, "t": n - i})
                      for i, m in enumerate(mu.padded(n), start=1)))


def eigenvalue_u(u: VarUniverse, lam: Partition) -> MPoly:
    """prod_i (1 - u q^{lam_i} t^{n-i}), the D(u) eigenvalue on P_lam."""
    n = u.n_x
    return mp_prod(u, (u.one() - u.mono(1, {"u": 1, "q": m, "t": n - i})
                       for i, m in enumerate(lam.padded(n), start=1)))


def certified_column(op: QDiffOp, name: str, mu: Partition, top: Partition) -> dict:
    """The m-basis column op(m_mu) as {nu: coefficient}, certified below ``top``.

    The image of :meth:`QDiffOp.apply` must be a polynomial (``as_poly``)
    and symmetric (:func:`expand_in_monomial_basis`), and every nu in it
    must have the weight of ``top`` and be dominated by it; AssertionError
    otherwise, naming the operator by ``name``.
    """
    col = expand_in_monomial_basis(op.apply(monomial_symmetric(op.u, mu)).as_poly())
    for nu in col:
        if nu.weight() != top.weight() or not top.dominates(nu):
            raise AssertionError("%s m_(%s) has m_(%s) outside the dominance order "
                                 "below (%s)" % (name, mu.to_string(), nu.to_string(),
                                                 top.to_string()))
    return col


def _eigen_column(op: QDiffOp, name: str, mu: Partition, eigenvalue: MPoly) -> dict:
    """:func:`certified_column` below mu, whose entry at mu must be ``eigenvalue``."""
    col = certified_column(op, name, mu, mu)
    if col.get(mu) != eigenvalue:
        raise AssertionError("%s diagonal entry is not the eigenvalue" % name)
    return col


def _c_factors(u: VarUniverse, lam: Partition) -> list:
    """The factors 1 - q^arm t^(leg+1) of c_lam, one per cell of lam."""
    return [u.one() - u.mono(1, {"q": a, "t": l + 1}) for a, l in map(lam.arm_leg, lam.cells())]


def integral_form_scalar(u: VarUniverse, lam: Partition) -> MPoly:
    """c_lam = prod over cells of (1 - q^arm t^(leg+1))."""
    return mp_prod(u, _c_factors(u, lam))


@memo_per_partition
def d1_column(mu: Partition, n: int) -> dict:
    """D_1 m_mu in the m basis of n variables: {nu: coefficient in q, t}.

    Certified below mu with diagonal entry sum_i q^{mu_i} t^{n-i}
    (:func:`_eigen_column`).  Memoized per (mu, n), so each J solve above mu
    reads one certificate; the cached dict is never mutated.
    """
    u = universe(n)
    return _eigen_column(macdonald_d1(u), "D_1", mu, d1_eigenvalue(u, mu))


@memo_per_partition
def macdonald_j(lam: Partition, n: int) -> dict:
    """Integral form J_lam = c_lam * P_lam as its m-basis coordinates {mu: polynomial}.

    Fraction-free dominance-triangular solve of the D_1 eigenproblem: J_lam[lam] = c_lam,
    and each nu below lam has (e_lam - e_nu) J_nu = sum_mu J_mu D_{nu,mu} over the mu
    above it, so J_nu is one exact division by that gap (``as_poly`` raises NotDivisible
    otherwise, an upstream bug).  Memoized per (lam, n); the cached dict is never mutated.
    """
    if lam.length() > n:
        raise ValueError("J_%r needs at least %d variables" % (lam, lam.length()))
    u = universe(n)
    down = dominance_downset(lam, n)
    columns = {mu: d1_column(mu, n) for mu in down}
    e_lam = d1_eigenvalue(u, lam)
    coeffs = {lam: integral_form_scalar(u, lam)}
    for pos, nu in reversed(list(enumerate(down[:-1]))):
        s = mp_sum(u, [coeffs[mu] * columns[mu][nu]
                       for mu in down[pos + 1:] if mu in coeffs and nu in columns[mu]])
        if not s.is_zero():
            coeffs[nu] = Frac.over(s, e_lam - d1_eigenvalue(u, nu)).as_poly()
    return coeffs


@memo_per_partition
def macdonald_p(lam: Partition, n: int) -> dict:
    """Monic P_lam = J_lam / c_lam as its m-basis coordinates {mu: fraction in (q,t)}.

    Each is in lowest terms (:meth:`Frac.lowest`), so its bytes depend only on its value.
    Memoized per (lam, n); the cached dict is never mutated.
    """
    u, j = universe(n), macdonald_j(lam, n)
    bag = _c_factors(u, lam)
    return {mu: Frac.from_factors(u, [c], bag).lowest() for mu, c in j.items()}


def _p_in_x(lam: Partition, n: int) -> Frac:
    """P_lam multiplied out in the x variables of universe(n)."""
    u = universe(n)
    return frac_sum(u, [c * monomial_symmetric(u, mu) for mu, c in macdonald_p(lam, n).items()])


# -- identity checks -----------------------------------------------------------


@memo_per_partition
def d_u_column(mu: Partition, n: int) -> dict:
    """D(u) m_mu in the m basis of n variables: {nu: coefficient in q, t, u}.

    D(u) is triangular on the monomial basis with diagonal entry
    prod_i (1 - u q^{mu_i} t^{n-i}) (Macdonald, ch. VI); both are certified
    as :func:`d1_column` certifies them for D_1.  Memoized per (mu, n); the
    cached dict is never mutated.
    """
    uu = universe(n, u=True)
    return _eigen_column(macdonald_d(uu), "D(u)", mu, eigenvalue_u(uu, mu))


def combine_columns(u: VarUniverse, coords: dict, column, minus: dict) -> dict:
    """sum_mu coords[mu] column(mu) - minus in the m basis, as {nu: polynomial}.

    ``column(mu)`` is an m-basis column {nu: coefficient}.  Each row is summed
    once, rows that vanish are left out, and neither input dict is mutated.
    """
    rows = {nu: [-c] for nu, c in minus.items()}
    for mu, c in coords.items():
        for nu, d in column(mu).items():
            rows.setdefault(nu, []).append(c * d)
    sums = ((nu, mp_sum(u, row)) for nu, row in rows.items())
    return {nu: r for nu, r in sums if not r.is_zero()}


def eigen_diff(lam: Partition, n: int) -> Frac:
    """Difference D(u) J_lam - e_lam(u) J_lam, which is c_lam != 0 times
    D(u) P_lam - e_lam(u) P_lam; zero iff the eigen equation holds.

    Computed by linearity on J_lam's certified m-basis coordinates c_mu, as
    the raising property is: the polynomial sum_nu r_nu m_nu with
    r_nu = sum_mu c_mu D_{nu,mu} - e_lam(u) c_nu, the D_{nu,mu} from the
    memoized columns :func:`d_u_column`, over the rows that do not vanish.
    """
    lam = Partition(lam)
    uu = universe(n, u=True)
    coords = {mu: c.convert(uu) for mu, c in macdonald_j(lam, n).items()}
    e_lam = eigenvalue_u(uu, lam)
    return Frac(from_monomial_basis(uu, combine_columns(
        uu, coords, lambda mu: d_u_column(mu, n), {nu: e_lam * c for nu, c in coords.items()})))


def determinantal_agreement_check(n: int) -> bool:
    uu = universe(n, u=True)
    return operators_agree(macdonald_d(uu), macdonald_d_det(uu))


def _duality(n_x: int, n_y: int) -> dict:
    """The renaming q <-> t, x_i -> y_i, y_j -> x_j of a universe's variables."""
    rename = {"q": "t", "t": "q"}
    rename.update({"x%d" % i: "y%d" % i for i in range(1, n_x + 1)})
    rename.update({"y%d" % j: "x%d" % j for j in range(1, n_y + 1)})
    return rename


def _p_on_y_side(lam: Partition, m: int, target: VarUniverse) -> Frac:
    """P_lam(y; t, q): computed in x variables, then q<->t and x->y."""
    return _p_in_x(lam, m).convert(target, _duality(m, 0))


def cauchy_diff(n: int, m: int) -> Frac:
    """Difference of the two sides of the dual Cauchy product formula.

    prod (1+x_i y_j) against sum over partitions in the n x m box of
    P_lam(x;q,t) P_lam'(y;t,q).
    """
    u = universe(n, m)
    lhs = cauchy_kernel(u)
    terms = []
    for lam in partitions_in_box(n, m):
        px = _p_in_x(lam, n).convert(u)
        py = _p_on_y_side(lam.conjugate(), m, u)
        terms.append(px * py)
    return frac_sum(u, terms) - lhs


def dual_lowering(f) -> Frac:
    """(1/(y1..ym)) D_y(1;t,q) f over every y variable of f's universe.

    D_y(1;t,q) is D(1;q,t) seen through the renaming q <-> t, x <-> y, so f
    is carried into the dual universe, D(1;q,t) acts there on x, and the
    image is carried back.  The division by y1*..*ym happens on the dual
    side, where those variables are the Laurent x1..xm: the image is
    divisible by that monomial, and its bag factors x_i - x_j are prime to
    it.  Precondition: f has no negative q or x exponent, since those become
    t and y exponents; ``convert`` raises ValueError otherwise, and so it
    would for a y exponent left negative by the division.
    """
    u = f.u
    f = as_frac(u, f)
    if not u.n_y:
        return f
    rename = _duality(u.n_x, u.n_y)
    dual = universe(u.n_y, u.n_x)
    img = macdonald_d(dual).apply(f.convert(dual, rename))
    lowered = img.num.mono_mul(1, {"x%d" % j: -1 for j in range(1, u.n_y + 1)})
    return Frac(lowered, img.bag).convert(u, {v: k for k, v in rename.items()})


def lowering_diff(mu: Partition, m: int) -> Frac:
    """Difference for the row-lowering action of D_y(1;t,q)/(y1..ym).

    On P_mu(y;t,q) the operator strips a full column when mu has m rows and
    kills the polynomial otherwise.
    """
    mu = Partition(mu)
    if mu.length() > m:
        raise ValueError("mu must have at most m rows")
    u = universe(1, m)
    lowered = dual_lowering(_p_on_y_side(mu, m, u))
    if mu.length() == m:
        stripped = Partition(p - 1 for p in mu)
        scalar = mp_prod(u, (u.one() - u.mono(1, {"q": m - i, "t": mu[i - 1]})
                             for i in range(1, m + 1)))
        rhs = _p_on_y_side(stripped, m, u) * scalar
    else:
        rhs = Frac(u.zero())
    return lowered - rhs

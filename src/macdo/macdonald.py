"""Macdonald q-difference operators and the polynomials they single out.

Every operator here acts on the x variables by q-shifts.  The subset form of
D(u), over subsets K of the x variables with the cleared cross-ratio
(x_j - t x_i)/(x_j - x_i), and its determinantal form cross-check each
other.  Verdicts apply D_1, D(u) and D(1) only through m-basis columns read
off the determinantal form (Macdonald, Symmetric Functions and Hall
Polynomials, ch. VI (3.2)), with no fraction summed: D m_mu is a signed sum
of Schur polynomials, one symbol per point of the S_n orbit of mu, over a
Schur table certified by exact division of the bialternant.  By the duality
q <-> t, x <-> y (ch. VI), the lowering L = D_y(1;t,q)/(y1..ym) is
:func:`lowering_column` and P_lam(y;t,q) is P_lam(x;q,t) renamed.  The
integral forms J are m-basis coordinates in Z[q,t] from a fraction-free
triangular solve against D_1; P is J / c_lam in lowest terms.  The columns
of B_m in ``raising`` are images of :meth:`QDiffOp.apply`, certified by
:func:`certified_column`.
"""

from __future__ import annotations

import itertools

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
        union of the coefficients' bags.  It also orients each binomial pole
        1 + c X^v on q and x (c = +-1) so that X^v lies above 1; that changes
        no factor of B_m's coefficients, which are in lowest terms
        (:meth:`Frac.lowest`), and acts only in the B_m build and the graded
        q-binomial sums.  Verdicts reach it only through :func:`certified_column`.
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


def _u_power(u: VarUniverse, k: int = 1) -> dict:
    """{"u": k}, or {} on a universe without u: there every D(u) is built at u = 1."""
    return {"u": k} if "u" in u.names else {}


def macdonald_d(u: VarUniverse) -> QDiffOp:
    """The generating operator D(u;q,t) = sum_r (-u)^r D_r over 2^n subsets.

    On a universe without a u variable the specialization u = 1 is built.
    Only :func:`determinantal_agreement_check` builds it, as a cross-check.
    """
    n = u.n_x
    coeffs = {}
    for bits in itertools.product((0, 1), repeat=n):
        K = [i for i in range(n) if bits[i]]
        others = [j for j in range(n) if not bits[j]]
        k = len(K)
        num, bag = cross_term(u, K, others)
        num = num.mono_mul((-1) ** k, {"t": k * (k - 1) // 2, **_u_power(u, k)})
        coeffs[bits] = Frac(num, bag)
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
    coeffs = {g: Frac(num, _vandermonde_bag(u)) for g, num in nums.items()}
    return QDiffOp(u, coeffs)


def _vandermonde_bag(u: VarUniverse) -> dict:
    """The factors x_i - x_j, i < j, of a_delta = prod_{i<j} (x_i - x_j)."""
    n = u.n_x
    return {u.x(i) - u.x(j): 1 for i in range(1, n + 1) for j in range(i + 1, n + 1)}


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


def d1_eigenvalue(u: VarUniverse, mu: Partition) -> MPoly:
    """sum_i q^{mu_i} t^{n-i}, n the number of x variables of the universe."""
    n = u.n_x
    return mp_sum(u, (u.mono(1, {"q": m, "t": n - i})
                      for i, m in enumerate(mu.padded(n), start=1)))


def eigenvalue_u(u: VarUniverse, lam: Partition) -> MPoly:
    """prod_i (1 - u q^{lam_i} t^{n-i}), the D(u) eigenvalue on P_lam (u = 1 without u)."""
    n = u.n_x
    return mp_prod(u, (u.one() - u.mono(1, {**_u_power(u), "q": m, "t": n - i})
                       for i, m in enumerate(lam.padded(n), start=1)))


def _check_below(name: str, mu: Partition, top: Partition, col: dict) -> dict:
    """col, an m-basis column of ``name`` on m_mu, if every nu in it has the
    weight of ``top`` and is dominated by it; AssertionError otherwise."""
    for nu in col:
        if nu.weight() != top.weight() or not top.dominates(nu):
            raise AssertionError("%s m_(%s) has m_(%s) outside the dominance order "
                                 "below (%s)" % (name, mu.to_string(), nu.to_string(),
                                                 top.to_string()))
    return col


def certified_column(op: QDiffOp, name: str, mu: Partition, top: Partition) -> dict:
    """The m-basis column op(m_mu) as {nu: coefficient}, certified below ``top``.

    The image of :meth:`QDiffOp.apply` must be a polynomial (``as_poly``)
    and symmetric (:func:`expand_in_monomial_basis`), and every nu in it
    must have the weight of ``top`` and be dominated by it; AssertionError
    otherwise, naming the operator by ``name``.
    """
    img = op.apply(monomial_symmetric(op.u, mu)).as_poly()
    return _check_below(name, mu, top, expand_in_monomial_basis(img))


def _bialternant(u: VarUniverse, exps) -> MPoly:
    """a_exps = sum_w eps(w) x^{w(exps)}, the alternant det(x_i^{exps_j})."""
    n = u.n_x
    return mp_sum(u, (u.mono(_perm_sign(w), {"x%d" % (w[j] + 1): e
                                             for j, e in enumerate(exps) if e})
                      for w in itertools.permutations(range(n))))


@memo_per_partition
def schur_column(lam: Partition, n: int) -> dict:
    """s_lam in the m basis of n variables: {nu: integer}, the Kostka numbers.

    s_lam is the bialternant a_{lam+delta} over a_delta = prod_{i<j} (x_i - x_j)
    (Macdonald, ch. I (3.1)).  Each factor x_i - x_j must divide exactly
    (``as_poly`` raises NotDivisible otherwise), and the quotient must be
    symmetric (:func:`expand_in_monomial_basis` raises ValueError otherwise).
    Memoized per (lam, n); the cached dict is never mutated.
    """
    u = universe(n)
    exps = [p + n - 1 - i for i, p in enumerate(lam.padded(n))]
    col = expand_in_monomial_basis(Frac(_bialternant(u, exps), _vandermonde_bag(u)).as_poly())
    # a_{lam+delta} has only x exponents, so each coefficient is a constant
    return {nu: c.terms[u.one_key] for nu, c in col.items()}


def _d1_symbol(u: VarUniverse, kappa: tuple) -> MPoly:
    """sum_i t^{n-i} q^{kappa_i}, the factor D_1 puts on x^{kappa+delta}."""
    n = len(kappa)
    return mp_sum(u, (u.mono(1, {"q": k, "t": n - 1 - i}) for i, k in enumerate(kappa)))


def _d_u_symbol(u: VarUniverse, kappa: tuple) -> MPoly:
    """prod_i (1 - u t^{n-i} q^{kappa_i}), the factor D(u) puts on x^{kappa+delta}."""
    n = len(kappa)
    return mp_prod(u, (u.one() - u.mono(1, {**_u_power(u), "q": k, "t": n - 1 - i})
                       for i, k in enumerate(kappa)))


def _alternant_column(u: VarUniverse, name: str, mu: Partition, symbol,
                      eigenvalue: MPoly) -> dict:
    """D m_mu = sum_kappa eps_kappa symbol(kappa) s_{lam(kappa)} in the m basis.

    kappa runs over the S_n orbit of mu; sorting kappa + delta gives
    lam(kappa) + delta with sign eps_kappa, and kappa is skipped when
    kappa + delta repeats an entry, since its alternant vanishes.  The
    symbols are summed per lam and combined with :func:`schur_column`.  The
    column must lie in weight |mu| below mu (:func:`_check_below`), and its
    entry at mu (0 if absent) must be ``eigenvalue``; AssertionError otherwise.
    """
    n = u.n_x
    delta = range(n - 1, -1, -1)
    coords = {}
    for kappa in sorted(set(itertools.permutations(mu.padded(n)))):
        shifted = [k + d for k, d in zip(kappa, delta)]
        if len(set(shifted)) < n:
            continue
        order = sorted(range(n), key=shifted.__getitem__, reverse=True)
        lam = Partition(shifted[i] - d for i, d in zip(order, delta))
        coords.setdefault(lam, []).append(symbol(u, kappa).scale(_perm_sign(order)))
    coords = {lam: mp_sum(u, s) for lam, s in coords.items()}
    col = _check_below(name, mu, mu, combine_columns(
        u, coords, lambda lam: schur_column(lam, n), {}))
    if col.get(mu, u.zero()) != eigenvalue:
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

    Read off the determinantal form (Macdonald, ch. VI (3.2)): D_1 sends
    x^kappa to A(x^{kappa+delta}) / a_delta times sum_i t^{n-i} q^{kappa_i},
    and A(x^{kappa+delta}) / a_delta is +-s_lam, so the column is a signed
    sum of Schur columns, each the bialternant divided exactly by
    a_delta (:func:`_alternant_column`, :func:`schur_column`).  Certified
    below mu with diagonal entry sum_i q^{mu_i} t^{n-i}.  Memoized per
    (mu, n), so each J solve above mu reads one certificate; the cached
    dict is never mutated.
    """
    u = universe(n)
    return _alternant_column(u, "D_1", mu, _d1_symbol, d1_eigenvalue(u, mu))


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

    Read off the determinantal form (Macdonald, ch. VI (3.2)) as
    :func:`d1_column` is, with the symbol prod_i (1 - u t^{n-i} q^{kappa_i})
    on the bialternant of kappa + delta.  D(u) is triangular on the monomial
    basis with diagonal entry prod_i (1 - u q^{mu_i} t^{n-i}); both are
    certified.  Memoized per (mu, n); the cached dict is never mutated.
    """
    uu = universe(n, u=True)
    return _alternant_column(uu, "D(u)", mu, _d_u_symbol, eigenvalue_u(uu, mu))


@memo_per_partition
def lowering_column(kappa: Partition, m: int) -> dict:
    """D(1;q,t) m_kappa / (x1..xm) in the m basis of m variables: {rho: coefficient}.

    :func:`d_u_column` at u = 1, whose diagonal entry prod_i (1 - q^{kappa_i}
    t^{m-i}) vanishes unless kappa has m parts: the image lies in e_m Lambda_m,
    so every row must have m parts (AssertionError otherwise) and comes back
    as rho - 1^m.  Under q <-> t, x <-> y this is L = D_y(1;t,q)/(y1..ym) on
    the m basis of y.  Memoized per (kappa, m); the cached dict is never mutated.
    """
    u = universe(m)
    col = _alternant_column(u, "D(1)", kappa, _d_u_symbol, eigenvalue_u(u, kappa))
    for rho in col:
        if rho.length() < m:
            raise AssertionError("D(1) m_(%s) has m_(%s), which has fewer than %d parts"
                                 % (kappa.to_string(), rho.to_string(), m))
    return {Partition(p - 1 for p in rho): c for rho, c in col.items()}


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


def cauchy_diff(n: int, m: int) -> Frac:
    """Difference of the two sides of the dual Cauchy product formula.

    prod (1+x_i y_j) against sum over partitions in the n x m box of
    P_lam(x;q,t) P_lam'(y;t,q), the second P_lam'(x;q,t) on m variables
    renamed q <-> t, x -> y.
    """
    u = universe(n, m)
    lhs = cauchy_kernel(u)
    terms = []
    for lam in partitions_in_box(n, m):
        px = _p_in_x(lam, n).convert(u)
        py = _p_in_x(lam.conjugate(), m).convert(u, _duality(m, 0))
        terms.append(px * py)
    return frac_sum(u, terms) - lhs


def lowering_diff(mu: Partition, m: int) -> Frac:
    """Difference for the row-lowering action of L = D_y(1;t,q)/(y1..ym).

    L strips a full column off P_mu(y;t,q) when mu has m rows and kills it
    otherwise.  Checked under q <-> t, x <-> y on J_mu as :func:`eigen_diff` is:
    J_mu through :func:`lowering_column`, minus at full length prod_i (1 - t^{m-i}
    q^{mu_i}) (1 - q^{mu_i-1} t^{m-i+1}) J_{mu-1^m}, the second factor c_mu / c_{mu-1^m}.
    """
    mu = Partition(mu)
    if mu.length() > m:
        raise ValueError("mu must have at most m rows")
    u = universe(m)
    minus = {}
    if mu.length() == m:
        scalar = mp_prod(u, ((u.one() - u.mono(1, {"q": p, "t": m - i}))
                             * (u.one() - u.mono(1, {"q": p - 1, "t": m - i + 1}))
                             for i, p in enumerate(mu, start=1)))
        minus = {nu: scalar * c for nu, c in macdonald_j(Partition(p - 1 for p in mu), m).items()}
    return Frac(from_monomial_basis(u, combine_columns(
        u, macdonald_j(mu, m), lambda kappa: lowering_column(kappa, m), minus)))

"""Macdonald operators, P and J polynomials, and the dual-pair checks."""

import itertools
from collections import Counter

import pytest

from macdo import macdonald as mac
from macdo.algebra import Frac, NotDivisible, cauchy_kernel, frac_sum, try_div, universe
from macdo.macdonald import (QDiffOp, cauchy_diff, d1_eigenvalue,
                             determinantal_agreement_check, dual_lowering,
                             eigen_diff, eigenvalue_u, expand_in_monomial_basis,
                             from_monomial_basis, integral_form_scalar, is_symmetric_frac,
                             lowering_diff, macdonald_d,
                             macdonald_d1, macdonald_d_det, macdonald_j,
                             macdonald_p, monomial_symmetric, operators_agree)
from macdo.partitions import Partition, memo_per_partition, partitions_of
from macdo.raising import kernel_rows, row_raising_op
from macdo.serialize import sympoly_to_obj
from sympy_util import sympy_poly


def test_apply_identity_and_single_shift():
    u = universe(2)
    f = u.x(1) * u.x(2)
    assert QDiffOp(u, {(0, 0): Frac(u.one())}).apply(f).eq(Frac(f))
    t_q_x1 = QDiffOp(u, {(1, 0): Frac(u.one())})
    assert t_q_x1.apply(f).eq(Frac(u.gen("q") * f))


def test_generating_operator_on_one():
    for n in (1, 2, 3):
        uu = universe(n, u=True)
        img = macdonald_d(uu).apply(uu.one())
        assert img.eq(Frac(eigenvalue_u(uu, Partition(()))))


def test_generating_operator_coefficient_n2():
    # coefficient at K={1}: -u (1 - t x1/x2)/(1 - x1/x2), cleared form
    uu = universe(2, u=True)
    d = macdonald_d(uu)
    got = d.coeffs[(1, 0)]
    x1, x2 = uu.x(1), uu.x(2)
    expect = Frac.over(
        (x2 - uu.gen("t") * x1) * uu.mono(-1, {"u": 1}), x2 - x1)
    assert got.eq(expect)


def test_the_universe_decides_between_d_of_u_and_d_of_1():
    # without a u variable macdonald_d builds D(1): D(u) with u -> 1
    for n in (1, 2, 3):
        uu, u1 = universe(n, u=True), universe(n)
        at_1 = {g: c.subs_monomials({"u": uu.one()}).convert(u1)
                for g, c in macdonald_d(uu).coeffs.items()}
        assert "u" not in u1.names
        assert operators_agree(macdonald_d(u1), QDiffOp(u1, at_1))
        assert not operators_agree(macdonald_d(u1), macdonald_d1(u1))


def test_determinantal_form_matches():
    uu = universe(1, u=True)
    det = macdonald_d_det(uu)
    gen = macdonald_d(uu)
    assert operators_agree(det, gen)
    for n in (2, 3):
        assert determinantal_agreement_check(n)


def test_monomial_basis_expansion_roundtrip():
    u = universe(3)
    mu = Partition((2, 1))
    m = monomial_symmetric(u, mu)
    exp = expand_in_monomial_basis(m)
    assert set(exp) == {mu}
    assert exp[mu] == u.one()
    with pytest.raises(ValueError):
        expand_in_monomial_basis(u.x(1))  # not symmetric


def test_macdonald_p_small_values():
    u = universe(2)
    one, q, t = u.one(), u.gen("q"), u.gen("t")
    assert mac._p_in_x(Partition((1,)), 2).eq(Frac(u.x(1) + u.x(2)))
    assert mac._p_in_x(Partition((1, 1)), 2).eq(Frac(u.x(1) * u.x(2)))
    p2 = macdonald_p(Partition((2,)), 2)
    assert set(p2) == {Partition((2,)), Partition((1, 1))}
    coeff = p2[Partition((1, 1))]
    assert coeff.eq(Frac.over((one + q) * (one - t), one - q * t))
    # J_(2) / c_(2) in lowest terms, field for field
    want = Frac((one + q) * (one - t), {one - q * t: 1})
    assert coeff.num.terms == want.num.terms and coeff.bag == want.bag
    assert p2[Partition((2,))].eq(Frac(one))


def test_macdonald_p_needs_enough_variables():
    with pytest.raises(ValueError):
        macdonald_p(Partition((1, 1, 1)), 2)


def test_p_is_symmetric():
    for lam in [(2,), (2, 1), (3, 1)]:
        assert is_symmetric_frac(mac._p_in_x(Partition(lam), 2))
    assert is_symmetric_frac(mac._p_in_x(Partition((2, 1)), 3))


def test_p_at_q_equals_t_is_monic_and_symmetric():
    # Schur sanity: specializing q = t keeps the leading coefficient 1
    for lam in [(2,), (2, 1), (2, 2)]:
        lam = Partition(lam)
        u = universe(2)
        val = mac._p_in_x(lam, 2)
        spec = Frac(val.num.convert(u, {"q": "t"}),
                    {f.convert(u, {"q": "t"}): m for f, m in val.bag})
        lead = Frac(spec.num.coeff_of(
            {"x%d" % i: e for i, e in enumerate(lam.padded(2), start=1)}), spec.bag)
        assert lead.eq(Frac(u.one()))
        assert is_symmetric_frac(spec)


def test_integral_form_scalars():
    u = universe(2)
    one, q, t = u.one(), u.gen("q"), u.gen("t")
    assert integral_form_scalar(u, Partition(())) == one
    assert integral_form_scalar(u, Partition((1,))) == one - t
    assert integral_form_scalar(u, Partition((2,))) == (one - q * t) * (one - t)


def test_macdonald_j_values():
    u = universe(2)
    one, q, t = u.one(), u.gen("q"), u.gen("t")
    assert macdonald_j(Partition(()), 2) == {Partition(()): one}
    j1 = macdonald_j(Partition((1,)), 2)
    assert j1 == {Partition((1,)): one - t}
    assert from_monomial_basis(u, j1) == (one - t) * (u.x(1) + u.x(2))
    # J_(2) = (1 - qt)(1 - t) m_(2) + (1 + q)(1 - t)^2 m_(1,1), written out
    # rather than read back from P, which is J over c_lam
    assert macdonald_j(Partition((2,)), 2) == {
        Partition((2,)): (one - q * t) * (one - t),
        Partition((1, 1)): (one + q) * (one - t) * (one - t)}


def test_j_coefficients_are_integral():
    for n in (1, 2, 3):
        for d in range(5):
            for lam in partitions_of(d, max_len=n):
                # macdonald_j raises NotDivisible unless every coordinate divides
                for c in macdonald_j(lam, n).values():
                    assert c.min_exp("q") >= 0 and c.min_exp("t") >= 0


def test_j_solves_certify_each_d1_column_once(monkeypatch):
    # J_(2,1) and J_(3) on n = 3 share the columns D_1 m_(2,1) and
    # D_1 m_(1,1,1); the second solve reads them from d1_column's memo
    certified = []
    real = mac._eigen_column

    def counting(op, name, mu, eigenvalue):
        certified.append((name, mu))
        return real(op, name, mu, eigenvalue)

    monkeypatch.setattr(mac, "_eigen_column", counting)
    macdonald_j.__wrapped__(Partition((2, 1)), 3)
    del certified[:]
    macdonald_j.__wrapped__(Partition((3,)), 3)
    assert set(certified) <= {("D_1", Partition((3,)))}


def test_j_solve_refuses_a_seed_that_is_not_integral(monkeypatch):
    # negative control: seeded with c_(2,1) / (1 - q t^2) = (1 - t)^2, the
    # solve's coordinates below (2,1) are P's times (1 - t)^2, whose
    # denominators keep 1 - q t^2, so an exact division by a gap fails
    lam, n = Partition((2, 1)), 3
    seed = integral_form_scalar
    monkeypatch.setattr(mac, "integral_form_scalar", lambda u, lam_: try_div(
        seed(u, lam_), u.one() - u.mono(1, {"q": 1, "t": 2})))
    with pytest.raises(NotDivisible):
        macdonald_j.__wrapped__(lam, n)
    monkeypatch.undo()  # the true seed passes
    macdonald_j.__wrapped__(lam, n)


def test_eigen_equation_examples():
    uu = universe(2, u=True)
    # lam = (1), n = 2: eigenvalue (1 - u q t)(1 - u)
    ev = eigenvalue_u(uu, Partition((1,)))
    one = uu.one()
    expect = (one - uu.mono(1, {"u": 1, "q": 1, "t": 1})) * \
        (one - uu.gen("u"))
    assert ev == expect
    assert eigen_diff(Partition(()), 2).is_zero()
    assert eigen_diff(Partition((1,)), 2).is_zero()
    assert eigen_diff(Partition((2, 1)), 2).is_zero()


def test_eigen_equation_holds_in_four_variables():
    cases = [lam for d in range(6) for lam in partitions_of(d, max_len=4)]
    assert len(cases) == 18
    for lam in cases:
        assert eigen_diff(lam, 4).is_zero(), lam


def _lifted_j(lam, n):
    """J_lam with its first non-leading m-coordinate multiplied by q: c_lam
    times a P_lam lifted the same way, which is no eigenfunction."""
    q = universe(n).gen("q")
    j = macdonald_j(lam, n)
    lift = sorted(mu for mu in j if mu != lam)[0]
    return {mu: c * q if mu == lift else c for mu, c in j.items()}


@pytest.mark.parametrize("lam,n", [((2, 1), 3), ((3, 1), 4), ((2, 2), 4)],
                         ids=["21-n3", "31-n4", "22-n4"])
def test_eigen_diff_of_a_lifted_p_is_the_direct_difference(monkeypatch, lam, n):
    # negative control: the column-wise residual of a J that is not an
    # eigenfunction is nonzero and equals D(u) J - e(u) J applied whole
    lam = Partition(lam)
    lifted = _lifted_j(lam, n)
    monkeypatch.setattr(mac, "macdonald_j", lambda lam_, n_: lifted)
    got = eigen_diff(lam, n)
    uu = universe(n, u=True)
    j = from_monomial_basis(uu, {mu: c.convert(uu) for mu, c in lifted.items()})
    direct = macdonald_d(uu).apply(j) - j * eigenvalue_u(uu, lam)
    assert not got.is_zero()
    assert got.eq(direct)


def test_eigenvalue_structure():
    for n in (1, 2, 3):
        uu = universe(n, u=True)
        for lam in [Partition(()), Partition((2, 1))]:
            if lam.length() > n:
                continue
            ev = eigenvalue_u(uu, lam)
            assert ev.max_exp("u") == n
            assert ev.coeff_of({"u": 0}) == uu.one()


def test_d1_diagonal_entries():
    u = universe(2)
    d1 = macdonald_d1(u)
    img = d1.apply(monomial_symmetric(u, Partition((2,)))).as_poly()
    exp = expand_in_monomial_basis(img)
    assert exp[Partition((2,))] == d1_eigenvalue(u, Partition((2,)))


def _perturbed(op, extra):
    """op plus the multiplication by ``extra``, added to its shift-free term."""
    coeffs = dict(op.coeffs)
    g = (0,) * op.u.n_x
    coeffs[g] = coeffs.get(g, Frac(op.u.zero())) + Frac(extra)
    return QDiffOp(op.u, coeffs)


@pytest.mark.parametrize("operator", ["D_1", "D(u)"])
@pytest.mark.parametrize("extra, message", [
    ("x1/x2 + x2/x1", "outside the dominance order"),  # adds m_(2) to D m_(1,1)
    ("1", "diagonal entry is not the eigenvalue"),      # adds m_(1,1) itself
], ids=["dominance", "diagonal"])
def test_triangular_columns_refuse_a_broken_image(monkeypatch, operator, extra, message):
    # negative control: the shared column certificate refuses an image of
    # m_(1,1) that leaves the dominance order or has the wrong diagonal
    n, mu = 2, Partition((1, 1))
    if operator == "D_1":
        u, build, name = universe(n), mac.macdonald_d1, "macdonald_d1"
    else:
        u, build, name = universe(n, u=True), mac.macdonald_d, "macdonald_d"
    term = (u.one() if extra == "1" else
            u.mono(1, {"x1": 1, "x2": -1}) + u.mono(1, {"x1": -1, "x2": 1}))
    monkeypatch.setattr(mac, name, lambda uu: _perturbed(build(uu), term))
    column = mac.d1_column if operator == "D_1" else mac.d_u_column
    with pytest.raises(AssertionError, match=message):
        column.__wrapped__(mu, n)
    monkeypatch.undo()  # the operators themselves pass
    mac.d1_column.__wrapped__(mu, n)
    mac.d_u_column.__wrapped__(mu, n)


def _same_poly(a, b):
    """a and b carry the same universe and the same terms, in the same order."""
    return a.u is b.u and list(a.terms.items()) == list(b.terms.items())


def _same_op(a, b):
    """a and b carry the same shifts in the same order, field for field."""
    return a.u is b.u and list(a.coeffs) == list(b.coeffs) and all(
        _same_poly(c.num, b.coeffs[g].num) and c.bag == b.coeffs[g].bag
        for g, c in a.coeffs.items())


MEMO_UNIVERSES = [universe(2), universe(3), universe(2, u=True), universe(3, u=True),
                  universe(2, 2), universe(2, 3), universe(1, 2, u=True)]


@pytest.mark.parametrize("u", MEMO_UNIVERSES, ids=repr)
def test_operator_and_kernel_tables_hand_out_the_uncached_build(u):
    for build in (macdonald_d, macdonald_d1):
        op = build(u)
        assert _same_op(op, build.__wrapped__(u))
        assert build(u) is op
    kernel = cauchy_kernel(u)
    assert _same_poly(kernel, cauchy_kernel.__wrapped__(u))
    assert cauchy_kernel(u) is kernel


def test_a_perturbed_operator_leaves_the_cached_one_intact():
    # runs after test_triangular_columns_refuse_a_broken_image, whose
    # _perturbed copies the cached coefficient dict and edits the copy
    for u, build in ((universe(2, u=True), macdonald_d), (universe(2), macdonald_d1)):
        assert _same_op(build(u), build.__wrapped__(u))


def _count_cross_terms(monkeypatch):
    """Count calls of cross_term per universe from here on."""
    calls = Counter()
    real = mac.cross_term

    def counted(u, K, others):
        calls[u] += 1
        return real(u, K, others)

    monkeypatch.setattr(mac, "cross_term", counted)
    return calls


def test_eigen_checks_build_d_of_u_once_per_universe(monkeypatch):
    # every column of D(u) on n = 3 reads the one operator: 8 subsets, once
    monkeypatch.setattr(mac, "d_u_column", memo_per_partition(mac.d_u_column.__wrapped__))
    macdonald_d.cache_clear()
    calls = _count_cross_terms(monkeypatch)
    for d in range(4):
        for lam in partitions_of(d, max_len=3):
            assert eigen_diff(lam, 3).is_zero()
    assert calls[universe(3, u=True)] == 8


def test_kernel_rows_build_d_of_1_once(monkeypatch):
    # every lowered row of (2, 3) reads the one D(1) on the dual universe
    # universe(2, 3): 4 subsets, built once and not once per row
    kernel_rows.cache_clear()
    macdonald_d.cache_clear()
    calls = _count_cross_terms(monkeypatch)
    assert len(kernel_rows(2, 3)[1]) > 1
    assert calls == Counter({universe(2, 3): 4})


def test_cauchy_examples():
    u = universe(1, 1)
    assert cauchy_diff(1, 1).is_zero()
    assert cauchy_diff(2, 1).is_zero()
    assert cauchy_diff(2, 2).is_zero()


def test_lowering_examples():
    assert lowering_diff(Partition((1,)), 1).is_zero()
    assert lowering_diff(Partition((1,)), 2).is_zero()  # mu_m = 0 branch
    assert lowering_diff(Partition((2, 1)), 2).is_zero()
    with pytest.raises(ValueError):
        lowering_diff(Partition((1, 1, 1)), 2)



def test_dual_lowering_refuses_a_negative_q_exponent():
    # q becomes t in the dual universe, where negative exponents are illegal
    u = universe(1, 2)
    with pytest.raises(ValueError):
        dual_lowering(u.mono(1, {"q": -1, "y1": 1}))
    with pytest.raises(ValueError):
        dual_lowering(Frac(u.y(1), {u.one() - u.mono(1, {"q": -1}): 1}))

def _cancelling_sum_cases():
    """(operator, argument) pairs whose images QDiffOp.apply sums with cancel."""
    for m, n in ((2, 2), (2, 3)):
        for d in range(3):
            for lam in partitions_of(d, max_len=n):
                yield row_raising_op(m, n), from_monomial_basis(universe(n),
                                                                macdonald_j(lam, n))
    u3 = universe(3)
    for d in range(4):
        for mu in partitions_of(d, max_len=3):
            yield macdonald_d1(u3), monomial_symmetric(u3, mu)
    uxy = universe(2, 2)
    # D(1;q,t) on the 2x2 kernel: D_y(1;t,q) of dual_lowering after the q <-> t,
    # x <-> y renaming, which maps this kernel to itself
    yield macdonald_d(uxy), cauchy_kernel(uxy)


def test_cancelling_sum_agrees_with_the_plain_sum():
    removed_total = 0
    for op, f in _cancelling_sum_cases():
        terms = [c * Frac(f).qshift(g) for g, c in op.coeffs.items()]
        plain = frac_sum(op.u, terms)
        cancelled = frac_sum(op.u, terms, cancel=True)
        img = op.apply(f)
        assert img.num == cancelled.num and img.bag == cancelled.bag
        assert cancelled.eq(plain)
        plain_bag, kept = dict(plain.bag), dict(cancelled.bag)
        for fac, mult in kept.items():
            assert mult <= plain_bag.get(fac, 0)
        for fac, mult in plain_bag.items():
            if kept.get(fac, 0) < mult:
                assert len(fac.terms) == 2
                removed_total += mult - kept.get(fac, 0)
        assert cancelled.as_poly() == plain.as_poly()
    assert removed_total > 0


# n <= 3 and |lambda| <= 3: 17 cases, 5 of them with more than one mu
P_ORACLE_CASES = [(lam, n) for n in (1, 2, 3) for d in range(4)
                  for lam in partitions_of(d, max_len=n)]


def _sympy_p(sp, lam, n, lift=None):
    """P_lambda, read only from its serialized table, in sympy.

    Returns {mu: (numerator, denominator)} and the polynomial F = P * prod
    of the denominators; ``lift`` names a mu whose numerator is multiplied
    by q.
    """
    obj = sympoly_to_obj(macdonald_p(lam, n), lam, "P")
    xs = sp.symbols(["x%d" % i for i in range(1, n + 1)])
    coeffs = {}
    for mu, c in obj["coeffs"].items():
        num = sympy_poly(sp, c["num"]) * (sp.Symbol("q") if mu == lift else 1)
        coeffs[mu] = (num, sympy_poly(sp, c["den"]))
    total = 0
    for mu, (num, _) in coeffs.items():
        exps = ([int(p) for p in mu.split(",") if p] + [0] * n)[:n]
        monomial = sp.Add(*(sp.Mul(*(x ** e for x, e in zip(xs, perm)))
                            for perm in set(itertools.permutations(exps))))
        others = sp.Mul(*(den for nu, (_, den) in coeffs.items() if nu != mu))
        total += num * others * monomial
    return coeffs, sp.expand(total)


def _sympy_d1_residual(sp, f, lam, n):
    """(D_1 f - e_lambda f) times the Vandermonde product, expanded.

    D_1 = sum_i prod_{j != i} (t x_i - x_j)/(x_i - x_j) T_{q,x_i} and
    e_lambda = sum_i q^{lambda_i} t^{n-i}; the division by x_i - x_j is
    cleared by hand, so the result is a polynomial.
    """
    q, t = sp.symbols("q t")
    xs = sp.symbols(["x%d" % i for i in range(1, n + 1)])

    def vandermonde(vs):
        return sp.Mul(*(a - b for k, a in enumerate(vs) for b in vs[k + 1:]))

    image = 0
    for i, xi in enumerate(xs):
        rest = xs[:i] + xs[i + 1:]
        image += ((-1) ** i * sp.Mul(*(t * xi - xj for xj in rest)) * vandermonde(rest)
                  * f.subs(xi, q * xi))
    e = sp.Add(*(q ** part * t ** (n - 1 - i) for i, part in enumerate(lam.padded(n))))
    return sp.expand(image - e * vandermonde(xs) * f)


def test_p_matches_an_independent_sympy_d1_eigenproblem():
    sp = pytest.importorskip("sympy")
    assert len(P_ORACLE_CASES) == 17
    for lam, n in P_ORACLE_CASES:
        coeffs, f = _sympy_p(sp, lam, n)
        num, den = coeffs[lam.to_string()]
        assert sp.expand(num - den) == 0, (lam, n)
        for mu, (num, den) in coeffs.items():
            assert sp.gcd(num, den) in (1, -1), (lam, n, mu)  # lowest terms
        assert _sympy_d1_residual(sp, f, lam, n) == 0, (lam, n)


def test_sympy_p_oracle_rejects_a_lifted_coefficient():
    # negative control: multiplying the coefficient of one mu below lambda by
    # q breaks the eigen equation for every lambda with more than one mu
    sp = pytest.importorskip("sympy")
    hits = 0
    for lam, n in P_ORACLE_CASES:
        coeffs, _ = _sympy_p(sp, lam, n)
        lower = sorted(mu for mu in coeffs if mu != lam.to_string())
        if not lower:
            continue
        _, f = _sympy_p(sp, lam, n, lift=lower[0])
        assert _sympy_d1_residual(sp, f, lam, n) != 0, (lam, n)
        hits += 1
    assert hits == 5

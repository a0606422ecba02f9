"""Macdonald operators, P and J polynomials, and the dual-pair checks."""

import itertools
from collections import Counter

import pytest

from macdo import macdonald as mac
from macdo.algebra import (Frac, NotDivisible, cauchy_kernel, frac_sum, mp_prod, mp_sum,
                           try_div, universe)
from macdo.macdonald import (QDiffOp, cauchy_diff, certified_column, combine_columns,
                             d1_column, d1_eigenvalue, d_u_column,
                             determinantal_agreement_check, eigen_diff, eigenvalue_u,
                             expand_in_monomial_basis, from_monomial_basis,
                             integral_form_scalar, lowering_column,
                             lowering_diff, macdonald_d, macdonald_d_det, macdonald_j,
                             macdonald_p, monomial_symmetric, operators_agree, schur_column)
from macdo.partitions import Partition, memo_per_partition, partitions_of
from macdo.raising import kernel_rows, row_raising_op
from macdo.serialize import sympoly_to_obj
from sympy_util import sympy_poly


def _d1_operator(u):
    """The one-subset operator D_1 in subset form: the shift T_{q,x_i} with
    coefficient prod_{j != i} (x_j - t x_i)/(x_j - x_i), for each i."""
    n = u.n_x
    coeffs = {}
    for i in range(n):
        num, bag = mac.cross_term(u, [i], [j for j in range(n) if j != i])
        coeffs[tuple(int(j == i) for j in range(n))] = Frac(num, bag)
    return QDiffOp(u, coeffs)


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
        assert not operators_agree(macdonald_d(u1), _d1_operator(u1))


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


def _is_symmetric_frac(v):
    """Invariance of a fraction under every adjacent transposition of x."""
    u = v.u
    return all(v.eq(v.convert(u, {"x%d" % i: "x%d" % (i + 1), "x%d" % (i + 1): "x%d" % i}))
               for i in range(1, u.n_x))


def test_p_is_symmetric():
    for lam in [(2,), (2, 1), (3, 1)]:
        assert _is_symmetric_frac(mac._p_in_x(Partition(lam), 2))
    assert _is_symmetric_frac(mac._p_in_x(Partition((2, 1)), 3))
    # negative control: x1 alone is not symmetric in two variables
    assert not _is_symmetric_frac(Frac(universe(2).x(1)))


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
        assert _is_symmetric_frac(spec)


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
    real = mac._alternant_column

    def counting(u, name, mu, symbol, eigenvalue):
        certified.append((name, mu))
        return real(u, name, mu, symbol, eigenvalue)

    monkeypatch.setattr(mac, "_alternant_column", counting)
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
    d1 = _d1_operator(u)
    img = d1.apply(monomial_symmetric(u, Partition((2,)))).as_poly()
    exp = expand_in_monomial_basis(img)
    assert exp[Partition((2,))] == d1_eigenvalue(u, Partition((2,)))


@pytest.mark.parametrize("operator", ["D_1", "D(u)"])
@pytest.mark.parametrize("extra, message", [
    ((2,), "outside the dominance order"),              # s_(1,1) gains m_(2)
    ((1, 1), "diagonal entry is not the eigenvalue"),  # s_(1,1) counts m_(1,1) twice
], ids=["dominance", "diagonal"])
def test_triangular_columns_refuse_a_broken_image(monkeypatch, operator, extra, message):
    # negative control: on n = 2 the orbit of (1,1) is one point, so D m_(1,1)
    # is its symbol times s_(1,1); a Schur table whose s_(1,1) leaves the
    # dominance order or has the wrong diagonal must be refused
    n, mu = 2, Partition((1, 1))
    real = mac.schur_column

    def broken(lam, n_):
        col = dict(real(lam, n_))
        if (lam, n_) == (mu, n):
            col[Partition(extra)] = col.get(Partition(extra), 0) + 1
        return col

    monkeypatch.setattr(mac, "schur_column", broken)
    column = mac.d1_column if operator == "D_1" else mac.d_u_column
    with pytest.raises(AssertionError, match=message):
        column.__wrapped__(mu, n)
    monkeypatch.undo()  # the true table passes
    mac.d1_column.__wrapped__(mu, n)
    mac.d_u_column.__wrapped__(mu, n)


def _same_poly(a, b):
    """a and b carry the same universe and the same terms, in the same order."""
    return a.u is b.u and list(a.terms.items()) == list(b.terms.items())


MEMO_UNIVERSES = [universe(2), universe(3), universe(2, u=True), universe(3, u=True),
                  universe(2, 2), universe(2, 3), universe(1, 2, u=True)]


@pytest.mark.parametrize("u", MEMO_UNIVERSES, ids=repr)
def test_operator_and_kernel_tables_hand_out_the_uncached_build(u):
    kernel = cauchy_kernel(u)
    assert _same_poly(kernel, cauchy_kernel.__wrapped__(u))
    assert cauchy_kernel(u) is kernel
    for lam in partitions_of(4, max_len=u.n_x):
        for table in (schur_column, lowering_column):
            col = table(lam, u.n_x)
            assert col == table.__wrapped__(lam, u.n_x)
            assert table(lam, u.n_x) is col


def test_a_perturbed_operator_leaves_the_cached_one_intact():
    # runs after test_triangular_columns_refuse_a_broken_image, whose broken
    # Schur table copies the cached s_(1,1) column and edits the copy
    assert schur_column(Partition((1, 1)), 2) == {Partition((1, 1)): 1}


def _count_cross_terms(monkeypatch):
    """Count calls of cross_term per universe from here on."""
    calls = Counter()
    real = mac.cross_term

    def counted(u, K, others):
        calls[u] += 1
        return real(u, K, others)

    monkeypatch.setattr(mac, "cross_term", counted)
    return calls


def test_eigen_checks_build_no_subset_operator(monkeypatch):
    # the columns of D(u) and D_1 on n = 3 are read off the alternant, so the
    # eigen checks and the J solves under them build no subset operator
    for name in ("d_u_column", "d1_column", "macdonald_j"):
        monkeypatch.setattr(mac, name, memo_per_partition(getattr(mac, name).__wrapped__))
    calls = _count_cross_terms(monkeypatch)
    for d in range(4):
        for lam in partitions_of(d, max_len=3):
            assert eigen_diff(lam, 3).is_zero()
    assert calls == Counter()


def test_kernel_rows_build_no_subset_operator(monkeypatch):
    # the lowered rows of (2, 3) are read off the alternant columns of D(1)
    # on two variables, so building them from fresh tables builds no subset
    # operator
    kernel_rows.cache_clear()
    monkeypatch.setattr("macdo.raising.lowering_column",
                        memo_per_partition(lowering_column.__wrapped__))
    monkeypatch.setattr(mac, "schur_column", memo_per_partition(schur_column.__wrapped__))
    calls = _count_cross_terms(monkeypatch)
    assert len(kernel_rows(2, 3)[1]) > 1
    assert calls == Counter()


def test_alternant_columns_equal_the_subset_form_images():
    # oracle: each column read off the alternant equals, as a value, the
    # certified image of m_mu under the subset-form operator; the lowering
    # column is D(1;q,t)'s image shifted down by 1^n
    cases = 0
    for n in (1, 2, 3, 4):
        d_1, d_of_u = _d1_operator(universe(n)), macdonald_d(universe(n, u=True))
        d_of_1 = macdonald_d(universe(n))
        for d in range(7):
            for mu in partitions_of(d, max_len=n):
                assert d1_column(mu, n) == certified_column(d_1, "D_1", mu, mu)
                if d <= 5:
                    assert d_u_column(mu, n) == certified_column(d_of_u, "D(u)", mu, mu)
                image = certified_column(d_of_1, "D(1)", mu, mu)
                assert all(rho.length() == n for rho in image)
                assert lowering_column(mu, n) == {
                    Partition(p - 1 for p in rho): c for rho, c in image.items()}
                cases += 1
    assert cases == 73


def test_a_lowering_column_refuses_a_short_row(monkeypatch):
    # negative control: D(1) m_(3,1) on m = 3 is a multiple of s_(2,1,1); a
    # Schur table whose s_(2,1,1) gains m_(2,2), below (3,1) and off the
    # diagonal, puts a row with fewer than m parts into the image
    real = mac.schur_column

    def broken(lam, n):
        col = dict(real(lam, n))
        if (lam, n) == (Partition((2, 1, 1)), 3):
            col[Partition((2, 2))] = col.get(Partition((2, 2)), 0) + 1
        return col

    monkeypatch.setattr(mac, "schur_column", broken)
    with pytest.raises(AssertionError, match="fewer than 3 parts"):
        lowering_column.__wrapped__(Partition((3, 1)), 3)
    monkeypatch.undo()  # the true table passes
    assert set(lowering_column.__wrapped__(Partition((3, 1)), 3)) == {Partition((1,))}


def _ssyt_contents(lam, n):
    """Counter of the contents (#1s, .., #ns) of the semistandard tableaux
    of shape lam with entries 1..n, enumerated cell by cell."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    filling = {}

    def fill(k):
        if k == len(cells):
            values = list(filling.values())
            yield tuple(values.count(e) for e in range(1, n + 1))
            return
        i, j = cells[k]
        # rows weakly increase, columns strictly increase
        for v in range(max(filling.get((i, j - 1), 1), filling.get((i - 1, j), 0) + 1), n + 1):
            filling[(i, j)] = v
            yield from fill(k + 1)
        filling.pop((i, j), None)

    return Counter(fill(0))


def test_schur_columns_are_kostka_numbers():
    # s_lam = sum_nu K_{lam,nu} m_nu, K_{lam,nu} the number of semistandard
    # tableaux of shape lam and content nu
    for n in (1, 2, 3, 4):
        for d in range(7):
            for lam in partitions_of(d, max_len=n):
                kostka = {Partition(c): k for c, k in _ssyt_contents(lam, n).items()
                          if list(c) == sorted(c, reverse=True)}
                assert schur_column(lam, n) == kostka, (lam, n)


def test_schur_column_refuses_a_bialternant_short_of_a_vandermonde_factor(monkeypatch):
    # negative control: a_{lam+delta} / (x1 - x2) is not divisible by a_delta
    real = mac._bialternant
    monkeypatch.setattr(mac, "_bialternant",
                        lambda u, exps: try_div(real(u, exps), u.x(1) - u.x(2)))
    with pytest.raises(NotDivisible):
        schur_column.__wrapped__(Partition((2, 1)), 3)
    monkeypatch.undo()  # the true bialternant passes
    assert schur_column.__wrapped__(Partition((2, 1)), 3) == {
        Partition((2, 1)): 1, Partition((1, 1, 1)): 2}


@pytest.mark.parametrize("operator, symbol", [
    ("D_1", lambda u, kappa: mp_sum(u, (u.mono(1, {"q": k, "t": i})
                                       for i, k in enumerate(kappa)))),
    ("D(u)", lambda u, kappa: mp_prod(u, (u.one() - u.mono(1, {"u": 1, "q": k, "t": i})
                                          for i, k in enumerate(kappa)))),
    ("D(1)", lambda u, kappa: mp_prod(u, (u.one() - u.mono(1, {"q": k, "t": i})
                                          for i, k in enumerate(kappa)))),
], ids=["D_1", "D(u)", "D(1)"])
def test_a_symbol_with_reversed_t_powers_fails_the_diagonal_check(monkeypatch, operator,
                                                                   symbol):
    # negative control: t^(i-1) in place of t^(n-i) in the symbol at x^kappa
    name, column = {"D_1": ("_d1_symbol", d1_column), "D(u)": ("_d_u_symbol", d_u_column),
                    "D(1)": ("_d_u_symbol", lowering_column)}[operator]
    monkeypatch.setattr(mac, name, symbol)
    with pytest.raises(AssertionError, match="diagonal entry is not the eigenvalue"):
        column.__wrapped__(Partition((2, 1)), 3)
    monkeypatch.undo()  # the true symbol passes
    column.__wrapped__(Partition((2, 1)), 3)


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


def test_lowering_diff_holds_past_the_suite():
    # the cauchy suite reaches m <= 2; m = 5 is past DET_MAX_N, where no
    # subset form is expanded
    cases = 0
    for m in (3, 4, 5):
        for d in range(7):
            for mu in partitions_of(d, max_len=m):
                assert lowering_diff(mu, m).is_zero(), (mu, m)
                cases += 1
    assert cases == 79


@pytest.mark.parametrize("mu", [(1, 1, 1), (2, 1, 1), (3, 2, 1)], ids=repr)
def test_the_lowering_contract_needs_the_integral_form_ratio(mu):
    # negative control: on J the stripped side carries c_mu / c_(mu - 1^m);
    # the contract with only the P scalar prod_i (1 - t^(m-i) q^(mu_i))
    # leaves a nonzero difference
    mu, m = Partition(mu), 3
    u = universe(m)
    p_scalar = mp_prod(u, (u.one() - u.mono(1, {"q": p, "t": m - i})
                           for i, p in enumerate(mu, start=1)))
    stripped = macdonald_j(Partition(p - 1 for p in mu), m)
    residual = combine_columns(u, macdonald_j(mu, m), lambda kappa: lowering_column(kappa, m),
                               {nu: p_scalar * c for nu, c in stripped.items()})
    assert residual
    assert lowering_diff(mu, m).is_zero()


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
            yield _d1_operator(u3), monomial_symmetric(u3, mu)
    uxy = universe(2, 2)
    # D(1;q,t) on the 2x2 kernel: D_y(1;t,q) of the subset-form lowering after
    # the q <-> t, x <-> y renaming, which maps this kernel to itself
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

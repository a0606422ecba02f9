"""Raising operator assembly, its oracles, and the verification machinery."""

import itertools
from math import comb

import pytest

import macdo.algebra as algebra
import macdo.macdonald as mac
import macdo.raising as raising
from macdo.algebra import Frac, NotDivisible, as_frac, cauchy_kernel, frac_sum, universe
from macdo.macdonald import (QDiffOp, _duality, from_monomial_basis, macdonald_d, macdonald_j,
                             macdonald_p, monomial_symmetric)
from macdo.partitions import Partition, box_below, partitions_of, weak_compositions
from macdo.qbinomial import qbinom_x
from macdo.raising import (block_coeff, block_coeff_interp, degree_bound_check,
                           equivariance_check, hall_littlewood_apply,
                           hall_littlewood_p, hall_littlewood_raising_check,
                           iterated_build_diff, kernel_rows, key_identity_diff,
                           ladder_f_closed, ladder_f_paths, ladder_g, ladder_inverse_check,
                           order_bound_check, raising_block, raising_block_entry,
                           raising_block_recurrence, raising_column, raising_diff,
                           recurrence_weight, row_raising_op)
from macdo.serialize import frac_to_obj, op_to_obj, poly_to_obj
from macdo.suites import KEYID_PAIRS
from sympy_util import sympy_poly

U1 = universe(1)
U2 = universe(2)


def test_block_entry_examples():
    one, q = U1.one(), U1.gen("q")
    assert raising_block_entry(U1, (1,), (1,)).eq(Frac(one))
    assert raising_block_entry(U1, (1,), (0,)).eq(Frac(-q))
    assert raising_block_entry(U2, (1, 0), (0, 0)).eq(Frac(-U2.gen("q")))


def test_block_recurrence_matches_closed_form():
    for n in (1, 2):
        u = universe(n)
        for m in (1, 2):
            for alpha in weak_compositions(m, n):
                closed = raising_block(u, alpha)
                rec = raising_block_recurrence(u, m, alpha)
                assert set(rec) == set(closed)
                for beta, c in closed.items():
                    assert rec[beta].eq(c), (alpha, beta)


def test_recurrence_weight_small():
    q = U1.gen("q")
    w = recurrence_weight(U1, 1, (1,), (0,))
    assert w.eq(Frac(q))


def test_ladder_paths_vs_closed():
    assert ladder_f_paths(U1, (2,), (0,)).eq(ladder_f_closed(U1, (2,), (0,)))
    assert ladder_f_paths(U2, (1, 1), (0, 0)).eq(ladder_f_closed(U2, (1, 1), (0, 0)))
    assert ladder_f_paths(U1, (1,), (1,)).eq(Frac(U1.one()))


def test_ladder_inverse_examples():
    assert ladder_inverse_check((2,), (0,))
    assert ladder_inverse_check((1, 1), (0, 0))
    assert ladder_inverse_check((1, 0), (1, 0))


def test_block_coeff_closed_values():
    one, q, t, x = U1.one(), U1.gen("q"), U1.gen("t"), U1.x(1)
    assert block_coeff(U1, 0, (0,)).eq(Frac(one))
    assert block_coeff(U1, 1, (1,)).eq(Frac.over(x * (one - t), one - q))


def test_block_coeff_interp_agrees():
    assert block_coeff_interp(U1, 0, (0,)).eq(Frac(U1.one()))
    assert block_coeff_interp(U1, 1, (1,)).eq(block_coeff(U1, 1, (1,)))
    assert block_coeff_interp(U2, 1, (1, 0)).eq(block_coeff(U2, 1, (1, 0)))
    assert block_coeff_interp(U2, 2, (1, 1)).eq(block_coeff(U2, 2, (1, 1)))


def test_row_raising_identity_at_weight_zero():
    op = row_raising_op(0, 2)
    assert list(op.coeffs) == [(0, 0)]
    assert op.coeffs[(0, 0)].eq(Frac(U2.one()))


def test_row_raising_refuses_a_negative_row_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("built a universe for a negative row")

    monkeypatch.setattr("macdo.raising.universe", no_build)
    cached = row_raising_op.cache_info().currsize
    for m, n in ((-1, 1), (-1, 2), (-3, 3)):
        with pytest.raises(ValueError):
            row_raising_op(m, n)
    assert row_raising_op.cache_info().currsize == cached


def test_row_raising_n1_table():
    # B_1 = (x(1-t)/(1-q)) (T_q - q) in one variable
    op = row_raising_op(1, 1)
    b = block_coeff(U1, 1, (1,))
    assert op.coeffs[(1,)].eq(b)
    assert op.coeffs[(0,)].eq(b * U1.mono(-1, {"q": 1}))


def test_row_raising_equivariance_and_order():
    for (m, n) in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        assert equivariance_check(m, n)
        assert order_bound_check(row_raising_op(m, n), m)


def test_an_orbit_build_with_the_inverse_permutation_fails_equivariance(monkeypatch):
    # on three variables the 3-cycles tell sigma from its inverse: beta =
    # (1,0,2) is (2,1,0) with x1 -> x3, x2 -> x1, x3 -> x2, and the inverse
    # rename gives another coefficient; a transposition is its own inverse
    real = raising._sorting_rename

    def inverse(gamma):
        rep, rename = real(gamma)
        return rep, {v: k for k, v in rename.items()}

    monkeypatch.setattr(raising, "_sorting_rename", inverse)
    wrong = row_raising_op.__wrapped__(3, 3)
    monkeypatch.setattr(raising, "_sorting_rename", real)
    right = row_raising_op(3, 3)
    assert not _same_frac(wrong.coeffs[(1, 0, 2)], right.coeffs[(1, 0, 2)])
    assert equivariance_check(3, 3)
    monkeypatch.setattr(raising, "row_raising_op", lambda m, n: wrong)
    assert not equivariance_check(3, 3)


def _direct_build(m, n):
    """B_m's coefficients summed at every shift, each b_alpha from block_coeff."""
    u = universe(n)
    acc = {}
    for alpha in weak_compositions(m, n):
        b = block_coeff(u, m, alpha)
        for beta, phi in raising_block(u, alpha).items():
            acc.setdefault(beta, []).append(b * phi)
    coeffs = {}
    for beta, parts in acc.items():
        c = frac_sum(u, parts, cancel=True).lowest()
        if not c.is_zero():
            coeffs[beta] = c
    return coeffs


@pytest.mark.parametrize("m, n", [(m, n) for n in range(1, 7) for m in range(10)
                                  if m * n <= 9])
def test_orbit_build_is_the_direct_sum_field_for_field(m, n):
    # n <= 6: B_1's sum at the zero shift on n = 9 takes over a minute either way
    want = _direct_build(m, n)
    got = row_raising_op.__wrapped__(m, n).coeffs
    assert list(got) == list(want)
    for beta, c in want.items():
        assert _same_frac(got[beta], c), (m, n, beta)


def test_raising_property_examples():
    u = universe(1)
    img = row_raising_op(1, 1).apply(u.one())
    assert img.eq(Frac(from_monomial_basis(u, macdonald_j(Partition((1,)), 1))))
    assert raising_diff(1, Partition(()), 1).is_zero()
    assert raising_diff(1, Partition((1,)), 1).is_zero()  # length n: image vanishes
    assert raising_diff(2, Partition(()), 2).is_zero()
    assert raising_diff(2, Partition((1,)), 2).is_zero()
    with pytest.raises(ValueError):
        raising_diff(1, Partition((2,)), 2)  # first row exceeds m


def test_image_polynomiality_certified():
    # as_poly raises NotDivisible unless the image is a certified polynomial
    for m, lam in ((1, (1,)), (2, (2,))):
        j = from_monomial_basis(U2, macdonald_j(Partition(lam), 2))
        row_raising_op(m, 2).apply(j).as_poly()


def test_iterated_build_examples():
    assert iterated_build_diff(Partition(()), 2).is_zero()
    assert iterated_build_diff(Partition((2, 1)), 2).is_zero()
    assert iterated_build_diff(Partition((1, 1)), 3).is_zero()


def test_raising_column_examples():
    # B_1 1 = J_(1) = (1 - t) x1
    one, t = U1.one(), U1.gen("t")
    assert raising_column(1, Partition(()), 1) == {Partition((1,)): one - t}
    # m_mu with n rows is a combination of J_nu with n rows, which B_m kills
    for m, mu, n in ((1, (1,), 1), (4, (2, 1), 2), (3, (1, 1, 1), 3)):
        assert raising_column(m, Partition(mu), n) == {}, (m, mu, n)


def test_raising_columns_are_built_once_per_triple(monkeypatch):
    # J_(2) and J_(1,1) on n = 2 share the coordinate m_(1,1); B_2 m_(1,1) is
    # built by the first check only
    b2 = row_raising_op(2, 2)
    applied = []
    real_apply = QDiffOp.apply

    def counting(op, f):
        if op is b2:
            applied.append(f)
        return real_apply(op, f)

    monkeypatch.setattr(QDiffOp, "apply", counting)
    raising_column.cache_clear()
    assert raising_diff(2, Partition((2,)), 2).is_zero()
    assert len(applied) == 2 and raising_column.cache_info().misses == 2
    assert raising_diff(2, Partition((1, 1)), 2).is_zero()
    assert len(applied) == 2 and raising_column.cache_info().misses == 2


def test_b3_columns_on_three_variables_make_no_failing_merge_division(monkeypatch):
    # B_3 m_mu is a polynomial, so the cancelling merges of its apply divide
    # each shared pole only at its last holder, where it cancels: no merge
    # division fails (156 failed when every shared pole was tried at every
    # merge), and the as_poly certificate that follows is not counted
    row_raising_op(3, 3)  # built outside the count
    real_div, real_sum = algebra.try_div, mac.frac_sum
    merging, outcomes = [False], []

    def counting_div(num, den):
        qu = real_div(num, den)
        if merging[0]:
            outcomes.append(qu is not None)
        return qu

    def marked_sum(u, terms, **kw):
        merging[0] = kw.get("cancel", False)
        try:
            return real_sum(u, terms, **kw)
        finally:
            merging[0] = False

    monkeypatch.setattr(algebra, "try_div", counting_div)
    monkeypatch.setattr(mac, "frac_sum", marked_sum)
    raising_column.cache_clear()
    for mu in ((), (1,)):
        assert raising_column(3, Partition(mu), 3)
    assert outcomes and all(outcomes), outcomes.count(False)


@pytest.mark.parametrize("m, mu, n", [(1, (2,), 2), (2, (3, 1), 3), (-1, (), 1),
                                      (-1, (1,), 2)])
def test_raising_column_refuses_mu_1_above_m_before_building(monkeypatch, m, mu, n):
    def no_build(*args):
        raise AssertionError("built B_m for a column outside its range")

    monkeypatch.setattr("macdo.raising.row_raising_op", no_build)
    # a negative m used to fail inside Partition, as "parts must be nonnegative"
    with pytest.raises(ValueError, match="needs 0 <= mu_1 <= m"):
        raising_column(m, mu, n)


@pytest.mark.parametrize("m, mu, n, mult", [
    (2, (), 2, "B_1"),            # weight |mu| + 1, not |mu| + 2
    (1, (1,), 2, "x1 + x2"),      # m_(2) is not dominated by (1, 1)
    (1, (), 2, "(x1 + x2)/q"),    # q^-1 in a coefficient
], ids=["weight", "dominance", "negative-q"])
def test_raising_column_refuses_a_broken_image(monkeypatch, m, mu, n, mult):
    u = universe(n)
    p1 = u.x(1) + u.x(2)
    ops = {"B_1": row_raising_op(1, n),
           "x1 + x2": QDiffOp(u, {(0, 0): Frac(p1)}),
           "(x1 + x2)/q": QDiffOp(u, {(0, 0): Frac(p1.mono_mul(1, {"q": -1}))})}
    monkeypatch.setattr("macdo.raising.row_raising_op", lambda m, n: ops[mult])
    with pytest.raises(AssertionError):
        raising_column.__wrapped__(m, Partition(mu), n)


def _lifted_j(lam, n):
    """J_lam's coordinates with the leading one, at lam, times q.

    The non-leading coordinates of the J_lam below sit at mu with n rows,
    where B_m m_mu = 0, so lifting one of them would change neither side.
    """
    q = universe(n).gen("q")
    return {mu: c * q if mu == lam else c for mu, c in macdonald_j(lam, n).items()}


@pytest.mark.parametrize("m, lam, n", [(2, (1,), 2), (3, (2, 1), 3), (4, (3,), 2)],
                         ids=["2-1-n2", "3-21-n3", "4-3-n2"])
def test_raising_diff_of_a_lifted_j_is_the_direct_difference(monkeypatch, m, lam, n):
    # negative control: the column combination must see a changed coordinate
    # and give exactly B_m J - J', computed by applying B_m to J's value
    lam = Partition(lam)
    u = universe(n)
    lifted = _lifted_j(lam, n)
    value = from_monomial_basis(u, lifted)
    assert value != from_monomial_basis(u, macdonald_j(lam, n))
    assert all(mu == lam or mu.length() == n for mu in lifted)
    target = from_monomial_basis(u, macdonald_j(lam.prepend(m), n))
    real = macdonald_j
    monkeypatch.setattr("macdo.raising.macdonald_j",
                        lambda mu, k: lifted if (Partition(mu), k) == (lam, n) else real(mu, k))
    diff = raising_diff(m, lam, n)
    direct = row_raising_op(m, n).apply(value) - Frac(target)
    assert not diff.is_zero()
    assert diff.eq(direct)


def test_key_identity_examples():
    assert key_identity_diff(0, 2).is_zero()
    assert key_identity_diff(1, 1).is_zero()
    assert key_identity_diff(1, 2).is_zero()
    assert key_identity_diff(2, 2).is_zero()


def test_degree_bound_examples():
    assert degree_bound_check(0, 2)
    assert degree_bound_check(1, 2)
    assert degree_bound_check(2, 2)


def test_kernel_images_are_built_once_per_pair():
    # the kernel identity, the degree bound and the interpolation oracle
    # all read the one memoized m-basis view of the kernel
    kernel_rows.cache_clear()
    assert key_identity_diff(1, 2).is_zero()
    assert degree_bound_check(1, 2)
    assert block_coeff_interp(U2, 1, (1, 0)).eq(block_coeff(U2, 1, (1, 0)))
    assert kernel_rows.cache_info().misses == 1


def _multiplied_out(m, n, rows):
    """sum_nu rows[nu] m_nu(x) in the (x, y) universe, as a fraction."""
    return Frac(from_monomial_basis(universe(n, m), rows))


def _raised_kernel(m, n):
    """B_x prod (1 + x_i y_j) from its m-basis rows, multiplied out."""
    return _multiplied_out(m, n, raising._on_kernel(m, n, {}))


def _lowered_kernel(m, n):
    """(1/(y1..ym)) D_y(1;t,q) prod (1 + x_i y_j) from its rows, multiplied out."""
    return _multiplied_out(m, n, kernel_rows(m, n)[1])


def _direct_on_kernel(m, n):
    """Oracle: B_m built in the (x, y) universe and applied to the whole kernel."""
    uxy = universe(n, m)
    b = QDiffOp(uxy, {g: c.convert(uxy) for g, c in row_raising_op(m, n).coeffs.items()})
    return b.apply(cauchy_kernel(uxy))


@pytest.mark.parametrize("m, n", KEYID_PAIRS)
def test_kernel_image_through_columns_is_the_direct_apply(m, n):
    assert _raised_kernel(m, n).eq(_direct_on_kernel(m, n))


def _subset_form_lowering(f) -> Frac:
    """Oracle: (1/(y1..ym)) D_y(1;t,q) f by the 2^m-subset form, over every y of f.

    D_y(1;t,q) is D(1;q,t) seen through the renaming q <-> t, x <-> y: f is
    carried into the dual universe, :func:`macdonald_d` acts there on x by
    :meth:`QDiffOp.apply`, the image is divided by the Laurent monomial
    x1..xm and carried back.  Shares no code with the alternant columns.
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


@pytest.mark.parametrize("m, n", KEYID_PAIRS + ((3, 3), (4, 2), (2, 4)))
def test_lowered_rows_are_the_whole_lowered_kernel_term_for_term(m, n):
    # oracle: the 2^m-subset D_y applied to every term of the whole kernel
    whole = _subset_form_lowering(cauchy_kernel(universe(n, m)))
    assert not whole.bag
    assert whole.num.terms == _lowered_kernel(m, n).num.terms


def test_lowered_rows_match_the_subset_form_row_by_row():
    # oracle: each row L e_lam(y) against the subset form applied to that
    # one e_lam(y); a row the subset form sends to 0 is left out
    for m, n in KEYID_PAIRS + ((3, 3), (4, 2), (2, 4), (4, 3), (3, 4), (4, 4)):
        coords, lowered = kernel_rows(m, n)
        want = {lam: _subset_form_lowering(e).as_poly() for lam, e in coords.items()}
        assert lowered == {lam: r for lam, r in want.items() if not r.is_zero()}, (m, n)


def _passes_key_identity(m, n) -> bool:
    try:
        return key_identity_diff(m, n).is_zero()
    except (AssertionError, NotDivisible):
        return False  # a column certificate refused the image


@pytest.fixture
def fresh_columns():
    raising_column.cache_clear()
    yield
    raising_column.cache_clear()


@pytest.mark.parametrize("m, n", [mn for mn in KEYID_PAIRS if mn[0]])
def test_a_lifted_raising_coefficient_fails_the_key_identity(monkeypatch, fresh_columns,
                                                            m, n):
    # negative control: B_m with the numerator of its first or its last
    # coefficient times q must not pass through the columns
    op = row_raising_op(m, n)
    for gamma in (op.keys_canonical()[0], op.keys_canonical()[-1]):
        lifted = QDiffOp(op.u, {g: Frac(c.num.mono_mul(1, {"q": 1}), c.bag) if g == gamma
                                else c for g, c in op.coeffs.items()})
        monkeypatch.setattr("macdo.raising.row_raising_op", lambda *mn: lifted)
        assert not _passes_key_identity(m, n), gamma
        raising_column.cache_clear()
    monkeypatch.undo()
    assert _passes_key_identity(m, n)


@pytest.mark.parametrize("m, n", KEYID_PAIRS)
def test_a_lifted_lowered_row_fails_the_key_identity(monkeypatch, m, n):
    # negative control on the lowered side: its first or its last row times q
    coords, lowered = kernel_rows(m, n)
    q = universe(n, m).gen("q")
    for lam in (next(iter(lowered)), next(reversed(lowered))):
        lifted = {nu: r * q if nu == lam else r for nu, r in lowered.items()}
        monkeypatch.setattr("macdo.raising.kernel_rows", lambda *mn: (coords, lifted))
        assert not _passes_key_identity(m, n), lam
    monkeypatch.undo()
    assert _passes_key_identity(m, n)


ORACLE_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2))


def _sympy_frac(sp, fr):
    den = sp.Mul(*(sympy_poly(sp, poly_to_obj(f)) ** mult for f, mult in fr.bag))
    return sympy_poly(sp, poly_to_obj(fr.num)) / den


def _sympy_dual_operator_on_kernel(sp, m, n):
    """D_y(1;t,q) prod (1 + x_i y_j) built in sympy alone, and y1..ym.

    The image is sum_K (-1)^|K| q^C(|K|,2) prod_{i in K, j not in K}
    (y_j - q y_i)/(y_j - y_i) times the kernel with y_i -> t y_i for i in K.
    """
    q, t = sp.symbols("q t")
    xs = sp.symbols(["x%d" % i for i in range(1, n + 1)])
    ys = sp.symbols(["y%d" % j for j in range(1, m + 1)])
    total = 0
    for bits in itertools.product((0, 1), repeat=m):
        K = [i for i in range(m) if bits[i]]
        rest = [j for j in range(m) if not bits[j]]
        coeff = (-1) ** len(K) * q ** comb(len(K), 2)
        for i in K:
            for j in rest:
                coeff *= (ys[j] - q * ys[i]) / (ys[j] - ys[i])
        shifted = [t * y if b else y for y, b in zip(ys, bits)]
        total += coeff * sp.Mul(*(1 + x * y for x in xs for y in shifted))
    return total, sp.Mul(*ys)


def test_lowered_kernel_matches_an_independent_sympy_construction():
    sp = pytest.importorskip("sympy")
    for m, n in ORACLE_PAIRS:
        image, ys = _sympy_dual_operator_on_kernel(sp, m, n)
        assert sp.cancel(_sympy_frac(sp, _lowered_kernel(m, n)) - image / ys) == 0, (m, n)


def test_sympy_kernel_oracle_rejects_the_unlowered_image():
    # negative control: the same comparison without the division by y1..ym
    sp = pytest.importorskip("sympy")
    for m, n in ORACLE_PAIRS:
        image, _ = _sympy_dual_operator_on_kernel(sp, m, n)
        assert sp.cancel(_sympy_frac(sp, _lowered_kernel(m, n)) - image) != 0, (m, n)


# (2,2) is left out: its sp.cancel alone takes about a minute
OP_ORACLE_PAIRS = ((1, 1), (1, 2), (2, 1))


def _sympy_operator_on_kernel(sp, m, n, lift=0):
    """Serialized B_m applied in sympy to prod (1 + x_i y_j).

    ``lift`` raises the q power of the first coefficient's numerator.
    """
    q = sp.Symbol("q")
    xs = sp.symbols(["x%d" % i for i in range(1, n + 1)])
    ys = sp.symbols(["y%d" % j for j in range(1, m + 1)])
    total = 0
    for i, c in enumerate(op_to_obj(row_raising_op(m, n), m)["coeffs"]):
        num = sympy_poly(sp, c["num"]) * q ** (lift if i == 0 else 0)
        shifted = [q ** g * x for g, x in zip(c["gamma"], xs)]
        total += num / sympy_poly(sp, c["den"]) * sp.Mul(*(1 + x * y for x in shifted
                                                           for y in ys))
    return total


def test_raising_op_on_kernel_matches_an_independent_sympy_construction():
    # the build (read back from its serialized form) and the cancelling
    # apply, each against D_y(1;t,q) built in sympy alone
    sp = pytest.importorskip("sympy")
    for m, n in OP_ORACLE_PAIRS:
        image, ys = _sympy_dual_operator_on_kernel(sp, m, n)
        assert sp.cancel(_sympy_operator_on_kernel(sp, m, n) - image / ys) == 0, (m, n)
        assert sp.cancel(_sympy_frac(sp, _raised_kernel(m, n)) - image / ys) == 0, (m, n)


def test_sympy_operator_oracle_rejects_a_shifted_coefficient():
    # negative control: one coefficient's numerator times q breaks both checks
    sp = pytest.importorskip("sympy")
    for m, n in OP_ORACLE_PAIRS:
        image, ys = _sympy_dual_operator_on_kernel(sp, m, n)
        lifted = _sympy_operator_on_kernel(sp, m, n, lift=1)
        assert sp.cancel(lifted - image / ys) != 0, (m, n)
        assert sp.cancel(_sympy_frac(sp, _raised_kernel(m, n)) - lifted) != 0, (m, n)


def _sympy_cleared(sp, obj):
    """A serialized polynomial as a sympy Poly, its largest monomial factor divided out."""
    lows = [min(col) for col in zip(*(tm["e"] for tm in obj["terms"]))]
    return sp.Poly.from_dict({tuple(e - lo for e, lo in zip(tm["e"], lows)): int(tm["c"])
                              for tm in obj["terms"]}, sp.symbols(obj["vars"]))


def _sympy_coprime(sp, fr):
    g = sp.gcd(_sympy_cleared(sp, fr["num"]), _sympy_cleared(sp, fr["den"]))
    return g.as_expr() in (1, -1)


def _same_frac(a, b):
    return a.num.terms == b.num.terms and a.bag == b.bag


@pytest.mark.parametrize("m, n", [(m, n) for n in range(1, 7) for m in range(7) if m * n <= 6])
def test_stored_raising_coefficients_go_through_lowest_unchanged(m, n):
    # the bags hold the pieces Frac.lowest makes, Phi_d(q) with d >= 3 among them
    for gamma, c in row_raising_op(m, n).coeffs.items():
        assert _same_frac(c.lowest(), c), (m, n, gamma)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (3, 3)])
def test_transposed_raising_coefficients_reduce_to_the_stored_ones(m, n):
    # c_{sigma gamma} is c_gamma with x permuted by sigma; lowest terms are
    # unique, so the permuted coefficient reduced again is the stored one
    op = row_raising_op(m, n)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        ren = {"x%d" % i: "x%d" % j, "x%d" % j: "x%d" % i}
        for gamma, c in op.coeffs.items():
            sg = list(gamma)
            sg[i - 1], sg[j - 1] = sg[j - 1], sg[i - 1]
            assert _same_frac(c.convert(op.u, ren).lowest(), op.coeffs[tuple(sg)]), \
                (m, n, gamma, (i, j))


def test_stored_raising_coefficients_are_in_lowest_terms_by_sympy():
    # sympy's gcd of each stored numerator and denominator, shared with
    # nothing Frac.lowest uses
    sp = pytest.importorskip("sympy")
    for m, n in ((1, 2), (2, 2), (2, 3), (3, 2)):
        for c in op_to_obj(row_raising_op(m, n), m)["coeffs"]:
            assert _sympy_coprime(sp, c), (m, n, c["gamma"])
    # negative control: a coefficient with 1 - q on both sides
    u = universe(2)
    c = row_raising_op(2, 2).coeffs[(1, 1)]
    f = u.one() - u.gen("q")
    assert not _sympy_coprime(sp, frac_to_obj(Frac(c.num * f, c.bag + ((f, 1),))))


def _sympy_qbinom_x(sp, alpha, beta, lift=0):
    """C[alpha,beta] built in sympy alone; ``lift`` raises the numerator's q power.

    prod_{i,j} (q^{alpha_i-beta_j+1} x_i/x_j; q)_{beta_j}
             / prod_{i,j} (q^{beta_i-beta_j+1} x_i/x_j; q)_{beta_j}
    """
    q = sp.Symbol("q")
    xs = sp.symbols(["x%d" % i for i in range(1, len(alpha) + 1)])

    def double_poch(a, c):
        return sp.Mul(*(1 - q ** (a[i] - beta[j] + c + nu) * xs[i] / xs[j]
                        for i in range(len(a)) for j in range(len(a))
                        for nu in range(beta[j])))
    return double_poch(alpha, 1 + lift) / double_poch(beta, 1)


# n <= 2 with |alpha| <= 3 and n = 3 with |alpha| <= 2: 73 pairs, 49 with beta != 0
QBINOM_ORACLE_PAIRS = [(alpha, beta) for n, top in ((1, 3), (2, 3), (3, 2))
                       for w in range(top + 1) for alpha in weak_compositions(w, n)
                       for beta in box_below(alpha)]


def test_qbinom_x_matches_an_independent_sympy_construction():
    sp = pytest.importorskip("sympy")
    assert len(QBINOM_ORACLE_PAIRS) == 73
    for alpha, beta in QBINOM_ORACLE_PAIRS:
        c = qbinom_x(universe(len(alpha)), alpha, beta)
        assert sp.cancel(_sympy_frac(sp, c) - _sympy_qbinom_x(sp, alpha, beta)) == 0, \
            (alpha, beta)


def test_sympy_qbinom_oracle_rejects_a_shifted_numerator():
    # negative control: raising the numerator's q exponent by 1 changes every
    # C[alpha,beta] with beta != 0
    sp = pytest.importorskip("sympy")
    pairs = [(a, b) for a, b in QBINOM_ORACLE_PAIRS if any(b)]
    assert len(pairs) == 49
    for alpha, beta in pairs:
        c = qbinom_x(universe(len(alpha)), alpha, beta)
        assert sp.cancel(_sympy_frac(sp, c) - _sympy_qbinom_x(sp, alpha, beta, 1)) != 0, \
            (alpha, beta)


def _limit_q0(fr):
    """Exact limit q -> 0 of a fraction regular there, the oracle for hall_littlewood_p.

    Pulls the monomial q-content out of numerator and denominator (minimum
    exponent, no GCD) and evaluates; raises ZeroDivisionError on a pole.
    """
    u = fr.u
    if fr.num.is_zero():
        return Frac(u.zero())
    num, den = fr.num, fr.den
    a, b = num.min_exp("q"), den.min_exp("q")
    if a < b:
        raise ZeroDivisionError("pole at q = 0")
    if a > b:
        return Frac(u.zero())
    return Frac.over(num.coeff_of({"q": a}), den.coeff_of({"q": b}))


def test_limit_q0():
    one, q, t = U1.one(), U1.gen("q"), U1.gen("t")
    f = Frac.over((one - t) * (one + q), one - q * t)
    assert _limit_q0(f).eq(Frac(one - t))
    g = Frac.over(q * (one + t), q * q + q)  # = (1+t)/(1+q), regular at q=0
    assert _limit_q0(g).eq(Frac(one + t))
    zero_at = Frac.over(q * (one + t), one - t * q)
    assert _limit_q0(zero_at).is_zero()
    with pytest.raises(ZeroDivisionError):
        _limit_q0(Frac.over(one, q))


def test_hall_littlewood_p_values():
    u = universe(2)
    one, t = u.one(), u.gen("t")
    assert hall_littlewood_p(Partition((1,)), 2) == u.x(1) + u.x(2)
    p2 = hall_littlewood_p(Partition((2,)), 2)
    # P_(2)(x; 0, t) = m_2 + (1 - t) m_11
    x1, x2 = u.x(1), u.x(2)
    assert p2 == x1 * x1 + x2 * x2 + (one - t) * x1 * x2


def test_hall_littlewood_p_is_the_limit_of_the_whole_x_form():
    # hall_littlewood_p divides J's q-free coordinates by c_lam(0, t); the
    # oracle multiplies P (J / c_lam in lowest terms) out in x and takes the
    # limit q -> 0 once, on every lam the hl suite reaches at its desk limits
    cases = 0
    for n in (1, 2, 3, 4):
        u = universe(n)
        for d in range(9):
            for lam in partitions_of(d, max_len=n):
                whole = frac_sum(u, [c * monomial_symmetric(u, mu)
                                     for mu, c in macdonald_p(lam, n).items()])
                assert hall_littlewood_p(lam, n) == _limit_q0(whole).as_poly(), (lam, n)
                cases += 1
    assert cases == 128


def test_hall_littlewood_p_refuses_a_broken_integral_form(monkeypatch):
    # negative controls on the uncached function: a coordinate with q^-1 has
    # no value at q = 0, and J_(1,1)[(1,1)] + 1 is not divisible by c_(1,1)(0, t)
    lam, n = Partition((1, 1)), 2
    j = macdonald_j(lam, n)
    u = universe(n)
    monkeypatch.setattr(raising, "macdonald_j", lambda lam_, n_: {
        mu: c.mono_mul(1, {"q": -1}) if mu == lam else c for mu, c in j.items()})
    with pytest.raises(AssertionError):
        hall_littlewood_p.__wrapped__(lam, n)
    monkeypatch.setattr(raising, "macdonald_j", lambda lam_, n_: {
        mu: c + u.one() if mu == lam else c for mu, c in j.items()})
    with pytest.raises(NotDivisible):
        hall_littlewood_p.__wrapped__(lam, n)
    monkeypatch.undo()
    assert hall_littlewood_p.__wrapped__(lam, n) == u.x(1) * u.x(2)


def test_hall_littlewood_apply_basic():
    u = universe(1)
    one, t = u.one(), u.gen("t")
    img = hall_littlewood_apply(1, u.one())
    assert img.eq(Frac((one - t) * u.x(1)))
    with pytest.raises(ValueError):
        hall_littlewood_apply(0, u.one())


def test_hall_littlewood_image_is_multiple_of_p():
    # applied to P_() = 1 the image is a nonzero scalar multiple of P_(m)(x;0,t)
    for n in (2, 3):
        for m in (1, 2):
            u = universe(n)
            assert hall_littlewood_p(Partition(()), n) == u.one()
            img = hall_littlewood_apply(m, u.one()).as_poly()
            scalar = img.coeff_of({"x1": m})
            assert not scalar.is_zero()
            assert img == hall_littlewood_p(Partition((m,)), n) * scalar


def test_hall_littlewood_check_refuses_a_wrong_target(monkeypatch):
    # negative control: P_(2,1) swapped for P_(3), of the same weight
    assert hall_littlewood_raising_check(2, Partition((1,)), 2)
    real = raising.hall_littlewood_p
    monkeypatch.setattr(raising, "hall_littlewood_p", lambda lam, n: real(
        Partition((3,)) if Partition(lam) == Partition((2, 1)) else lam, n))
    assert not hall_littlewood_raising_check(2, Partition((1,)), 2)


def test_hall_littlewood_check_refuses_a_nonzero_image_at_full_length(monkeypatch):
    # negative control: the zero branch fails when the image does not vanish
    assert hall_littlewood_raising_check(1, Partition((1,)), 1)
    monkeypatch.setattr(raising, "hall_littlewood_apply", lambda m, f: Frac(f))
    assert not hall_littlewood_raising_check(1, Partition((1,)), 1)


def test_hall_littlewood_check_refuses_a_vanishing_image_below_full_length(monkeypatch):
    # negative control: off the zero branch the fitted scalar must be nonzero,
    # though 0 is 0 times P_(m,lam)
    assert hall_littlewood_raising_check(2, Partition((1,)), 2)
    monkeypatch.setattr(raising, "hall_littlewood_apply", lambda m, f: Frac(f.u.zero()))
    assert not hall_littlewood_raising_check(2, Partition((1,)), 2)


def test_hall_littlewood_raising_examples():
    assert hall_littlewood_raising_check(2, Partition((1,)), 2)
    assert hall_littlewood_raising_check(1, Partition((1,)), 1)  # zero branch
    assert hall_littlewood_raising_check(3, Partition((2, 1)), 3)

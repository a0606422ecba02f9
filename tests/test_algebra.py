"""Core exact-arithmetic contracts: ring axioms, shifts, fractions, division."""

import itertools
import json
import random

import pytest

import macdo.algebra as algebra
from macdo.algebra import (Frac, MPoly, NotDivisible, UniverseMismatch,
                           frac_sum, mp_prod, mp_sum, qpoch, qpoch_factors,
                           try_div, universe, universe_of_names)
from macdo.serialize import poly_from_obj, poly_to_obj


U = universe(2, n_y=2, u=True)
ONE = U.one()
Q, T, UU = U.gen("q"), U.gen("t"), U.gen("u")
X1, X2 = U.x(1), U.x(2)


def rnd_poly(rng, nt=4, coeff=5):
    gens = [Q, T, UU, X1, X2, U.y(1)]
    p = U.zero()
    for _ in range(nt):
        m = U.const(rng.randint(-coeff, coeff))
        for g in rng.sample(gens, rng.randint(0, 3)):
            m = m * g
        p = p + m
    return p


def test_add_cancellation():
    assert (X1 + Q) + (-Q) == X1
    p = rnd_poly(random.Random(1))
    assert p + U.zero() == p
    assert (ONE - T) + (ONE + T) == U.const(2)


def test_mul_basics():
    assert (ONE - Q) * (ONE + Q) == ONE - Q * Q
    assert X1 * U.mono(1, {"x1": -1}) == ONE
    expect = ONE - UU - UU * Q + UU * UU * Q
    assert (ONE - UU) * (ONE - UU * Q) == expect


def test_ring_axioms_on_random_triples():
    rng = random.Random(42)
    for _ in range(60):
        a, b, c = (rnd_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_shift_examples():
    assert (X1 * X2).qshift((1, 1)) == Q * Q * X1 * X2
    assert (X1 + X2).qshift((2, 0)) == U.mono(1, {"q": 2, "x1": 1}) + X2
    assert ONE.qshift((3, 1)) == ONE


def test_shift_composes_additively():
    rng = random.Random(3)
    for _ in range(25):
        f = rnd_poly(rng)
        g1 = (rng.randint(0, 2), rng.randint(0, 2))
        g2 = (rng.randint(0, 2), rng.randint(0, 2))
        total = tuple(a + b for a, b in zip(g1, g2))
        assert f.qshift(g1).qshift(g2) == f.qshift(total)


def test_packed_exponent_range_is_enforced():
    u = universe(2)
    for e in (2 ** 27 - 1, -2 ** 27):
        (key,) = u.mono(1, {"q": e}).terms
        assert u.unpack(key)[u.pos("q")] == e
        assert poly_from_obj(poly_to_obj(u.mono(1, {"q": e}))) == u.mono(1, {"q": e})
    for e in (2 ** 27, -2 ** 27 - 1):
        with pytest.raises(ValueError):
            u.mono(1, {"q": e})
        obj = poly_to_obj(u.one())
        obj["terms"][0]["e"][u.pos("q")] = e
        with pytest.raises(ValueError):
            poly_from_obj(obj)
    with pytest.raises(ValueError):
        u.mono(1, {"t": 2 ** 27})


def test_qshift_refuses_packed_overflow():
    u = universe(2)
    top, bottom = 2 ** 27 - 1, -2 ** 27
    f = u.mono(1, {"q": top - 2, "x1": 1}) + u.mono(1, {"t": top, "x2": 1})
    assert f.qshift((2, 1)) == (u.mono(1, {"q": top, "x1": 1}) +
                                u.mono(1, {"q": 1, "t": top, "x2": 1}))
    with pytest.raises(ValueError):
        f.qshift((3, 0))
    g = u.mono(1, {"q": bottom + 1, "x2": -1})
    assert g.qshift((0, 1)) == u.mono(1, {"q": bottom, "x2": -1})
    with pytest.raises(ValueError):
        g.qshift((0, 2))


def test_mono_mul_refuses_packed_overflow():
    u = universe(2)
    f = u.mono(1, {"q": 2 ** 26, "t": 2 ** 27 - 1, "x1": -2 ** 27}) + u.one()
    assert f.mono_mul(-1, {"q": 2 ** 26 - 1}) == \
        u.mono(-1, {"q": 2 ** 27 - 1, "t": 2 ** 27 - 1, "x1": -2 ** 27}) + \
        u.mono(-1, {"q": 2 ** 26 - 1})
    for exps in ({"q": 2 ** 26}, {"t": 1}, {"x1": -1}):
        with pytest.raises(ValueError):
            f.mono_mul(1, exps)


def test_mono_mul_refuses_a_large_shift_of_small_exponents():
    top, bottom = 2 ** 27 - 1, -2 ** 27
    f = Q - X1 * U.mono(1, {"x2": -1}) + ONE
    assert f.mono_mul(2, {"q": top - 1, "x2": bottom + 1}) == \
        U.mono(2, {"q": top, "x2": bottom + 1}) + U.mono(2, {"q": top - 1, "x2": bottom + 1}) - \
        U.mono(2, {"q": top - 1, "x1": 1, "x2": bottom})
    for exps in ({"q": top}, {"x2": bottom}, {"t": 2, "x1": top}):
        assert ONE.mono_mul(1, exps) == U.mono(1, exps)
        with pytest.raises(ValueError):
            f.mono_mul(1, exps)


def test_subs_monomials_refuses_packed_overflow():
    u1 = universe(1)
    q, x1 = u1.gen("q"), u1.x(1)
    to_qx = {"x1": u1.mono(1, {"q": -1, "x1": 1})}
    assert u1.mono(1, {"q": 1 - 2 ** 27, "x1": 1}).subs_monomials(to_qx) == \
        u1.mono(1, {"q": -2 ** 27, "x1": 1})
    with pytest.raises(ValueError):
        u1.mono(1, {"q": -2 ** 27, "x1": 1}).subs_monomials(to_qx)
    with pytest.raises(ValueError):
        (q + x1.mono_mul(1, {"x1": 2 ** 26})).subs_monomials({"x1": x1 * x1})
    u2 = universe(2)
    to_x1 = {"x2": u2.x(1)}
    top = 2 ** 27 - 1
    # each term alone fits after x2 -> x1, though the largest exponents of
    # the input, added, would not
    assert (u2.mono(1, {"x1": top}) + u2.mono(1, {"x2": top})).subs_monomials(to_x1) == \
        u2.mono(2, {"x1": top})
    assert u2.mono(1, {"x1": top - 1, "x2": 1}).subs_monomials(to_x1) == \
        u2.mono(1, {"x1": top})
    with pytest.raises(ValueError):
        u2.mono(1, {"x1": top, "x2": 1}).subs_monomials(to_x1)


def test_subs_monomials_keeps_the_exponent_rule():
    # a negative q or x exponent must not carry over onto t, u or y
    u1 = universe(1)
    t, x1 = u1.gen("t"), u1.x(1)
    with pytest.raises(ValueError):
        u1.mono(1, {"x1": -1}).subs_monomials({"x1": t * x1})
    uy = universe(1, 1)
    with pytest.raises(ValueError):
        uy.mono(1, {"q": -2}).subs_monomials({"q": uy.y(1)})
    # legal: the negative x2 exponent's t is paid back by x1's
    u2 = universe(2)
    tx = {"x1": u2.mono(1, {"t": 1, "x1": 1}), "x2": u2.mono(1, {"t": 1, "x2": 1})}
    got = u2.mono(1, {"x1": 2, "x2": -1}).subs_monomials(tx)
    assert got == u2.mono(1, {"t": 1, "x1": 2, "x2": -1})
    got.validate()


def test_convert_refuses_packed_overflow():
    # merging x2 into x1 adds their exponents, in the same universe or a smaller one
    u2, u1 = universe(2), universe(1)
    top, bottom = 2 ** 27 - 1, -2 ** 27
    for target in (u2, u1):
        merge = {"x2": "x1"}
        assert u2.mono(3, {"x1": top - 5, "x2": 5}).convert(target, merge) == \
            target.mono(3, {"x1": top})
        assert u2.mono(1, {"x1": bottom + 5, "x2": -5}).convert(target, merge) == \
            target.mono(1, {"x1": bottom})
        with pytest.raises(ValueError):
            u2.mono(1, {"x1": top - 4, "x2": 5}).convert(target, merge)
        with pytest.raises(ValueError):
            u2.mono(1, {"x1": bottom + 4, "x2": -5}).convert(target, merge)


def test_convert_keeps_the_exponent_rule():
    # the duality q <-> t, x <-> y: a negative q exponent would land on t
    uxy = universe(1, 1)
    duality = {"q": "t", "t": "q", "x1": "y1", "y1": "x1"}
    assert uxy.mono(1, {"q": 2, "y1": 1}).convert(uxy, duality) == \
        uxy.mono(1, {"t": 2, "x1": 1})
    with pytest.raises(ValueError):
        uxy.mono(1, {"q": -1}).convert(uxy, duality)
    with pytest.raises(ValueError):
        uxy.mono(1, {"x1": -1}).convert(uxy, duality)


def test_convert_needs_every_used_variable_in_the_target():
    uxy, ux = universe(2, 2), universe(2)
    with pytest.raises(ValueError):
        uxy.mono(1, {"x1": 1, "y2": 1}).convert(ux)
    f = uxy.mono(2, {"q": -1, "t": 3, "x1": 2}) - uxy.mono(1, {"x2": -4}) + uxy.one()
    g = f.convert(ux)
    assert g == ux.mono(2, {"q": -1, "t": 3, "x1": 2}) - ux.mono(1, {"x2": -4}) + ux.one()
    assert g.convert(uxy) == f


def test_universe_of_names_accepts_only_the_canonical_list():
    for u in (universe(1), universe(2, 1, u=True), U):
        assert universe_of_names(list(u.names)) == u
    for names in (("q", "x1"), ("t", "q", "x1"), ("q", "t", "x2", "x1"),
                  ("q", "t", "y1", "x1")):
        with pytest.raises(ValueError):
            universe_of_names(names)


def test_frac_eq_examples():
    assert Frac.over(ONE - Q * Q, ONE - Q).eq(Frac(ONE + Q))
    assert not Frac.over(X1, X2).eq(Frac.over(X2, X1))
    assert Frac.over(U.zero(), ONE - Q).eq(Frac.over(U.zero(), X1 + T))


def test_frac_eq_is_congruence():
    rng = random.Random(9)
    fracs = []
    for _ in range(6):
        num, den = rnd_poly(rng), rnd_poly(rng)
        if den.is_zero():
            den = ONE + Q
        fracs.append(Frac.over(num, den))
    for a in fracs:
        assert a.eq(a)
        for b in fracs:
            assert a.eq(b) == b.eq(a)
            scl = Frac.over(ONE + T, ONE - Q)
            if a.eq(b):
                assert (a * scl).eq(b * scl)
                for c in fracs:
                    if b.eq(c):
                        assert a.eq(c)


def test_divide_exact_examples():
    assert try_div(ONE - Q * Q, ONE - Q) == ONE + Q
    assert Frac.over(X1 * X1 - X2 * X2, X1 - X2).as_poly() == X1 + X2
    assert try_div(X1 + Q, X1 + T) is None
    with pytest.raises(NotDivisible):
        Frac.over(X1 + Q, X1 + T).as_poly()


def rnd_unit_multiple(rng):
    """+-c * monomial with c in 2..5 and negative q and x exponents."""
    return U.mono(rng.choice((-1, 1)) * rng.randint(2, 5),
                  {"q": rng.randint(-4, 2), "x1": rng.randint(-3, 2),
                   "x2": rng.randint(-3, 2), "t": rng.randint(0, 1)})


def test_divide_roundtrip_random():
    rng = random.Random(17)
    for _ in range(120):
        a, b = rnd_poly(rng, 3), rnd_poly(rng, 3)
        if a.is_zero() or b.is_zero():
            continue
        for d in (b, rnd_unit_multiple(rng)):
            prod = a * d
            qu = try_div(prod, d)
            assert qu is not None and qu * d == prod
            assert qu == a  # quotients are unique over an integral domain


def test_divide_detects_nondivisible_random():
    rng = random.Random(23)
    hits = 0
    for _ in range(120):
        a, b = rnd_poly(rng, 3), rnd_poly(rng, 2)
        if b.is_zero():
            continue
        prod = a * b + ONE
        qu = try_div(prod, b)
        if qu is None:
            hits += 1
        else:
            assert qu * b == prod
        # every coefficient of a*d is a multiple of c >= 2, so adding 1 to
        # one of them leaves a coefficient c does not divide
        d = rnd_unit_multiple(rng)
        assert try_div(a * d + ONE, d) is None
    assert hits > 0


def test_heap_division_stops_at_a_negative_quotient_exponent():
    # x1 + x2 + q takes the heap path; every coefficient divides, so this
    # division can fail only through the sign of a quotient exponent (the
    # Laurent series of the quotient never ends)
    den = X1 + X2 + Q
    assert try_div(X1 * X1 + Q, den) is None
    # negative x exponents in an exact quotient are shifted away and back
    qu = X1 * U.mono(1, {"x2": -3}) - Q
    assert try_div(den * qu, den) == qu


@pytest.mark.parametrize("path", ["binomial", "heap", "heap-wide-dividend"])
def test_division_refuses_a_quotient_past_the_packed_field(path):
    # the exact quotient x1^(2^28 - 1) used to come back as t*x1^-1
    u = universe(1)
    one, q = u.one(), u.gen("q")
    f = one - q if path == "binomial" else one - q + q * q
    top, bottom = 2 ** 27 - 1, -2 ** 27

    def x(e):
        return u.mono(1, {"x1": e})

    if path == "heap-wide-dividend":
        # a spans 2^28 - 2 in x1; the heap division shifts it to nonnegative
        # exponents, which used to overflow the field and report the exact
        # quotient a as "not divisible"; the chain walk needs no shift
        a = x(top) + x(1 - 2 ** 27)
        assert try_div(a * (one - q), one - q) == a
        for num, den in ((a * f, f), (a + q, a + q)):
            with pytest.raises(ValueError, match="spans 2\\^27 or more in x1"):
                try_div(num, den)
        return
    # a divisor near either end, or a small divisor under a dividend near one
    for a, b in ((top, bottom), (bottom, top), (1, bottom), (top, -1), (bottom, 1)):
        with pytest.raises(ValueError, match="overflows"):
            try_div(x(a) * f, x(b) * f)
    # quotients at either end of the field still divide
    for a, b in ((top, 0), (1, 2 - 2 ** 27), (bottom, 0), (-1, top)):
        assert try_div(x(a) * f, x(b) * f) == x(a - b)
    assert try_div(x(top) * f, x(top)) == f
    assert try_div(x(top) * f * (one + q), x(top) * f) == one + q


def test_products_reach_both_ends_of_the_packed_field():
    top, bottom, half = 2 ** 27 - 1, -2 ** 27, 2 ** 26
    for var in ("q", "x1"):
        def m(c, e):
            return U.mono(c, {var: e})
        b = m(1, half - 1) - m(1, -half) + T
        two = m(1, half) + m(1, -half)
        prod = m(1, top) - ONE + T * m(1, half) + m(1, -1) - m(1, bottom) + T * m(1, -half)
        assert two * b == prod and b * two == prod  # the two-term path
        assert (two + ONE) * b == prod + b  # the general loop
        for p in (prod, prod + b):
            p.validate()


def test_qpochhammer():
    assert qpoch(UU, 0) == ONE
    assert qpoch(UU, 2) == (ONE - UU) * (ONE - UU * Q)
    base = U.mono(1, {"q": -1, "x1": 1, "x2": -1})
    assert qpoch(base, 1) == ONE - base


def test_qpochhammer_splits():
    base = U.mono(1, {"u": 1})
    for j in range(5):
        for k in range(5):
            lhs = qpoch(base, j + k)
            rhs = qpoch(base, j) * qpoch(base.mono_mul(1, {"q": j}), k)
            assert lhs == rhs


def test_frac_sum_matches_pairwise():
    rng = random.Random(31)
    dens = [ONE - Q, ONE - T * Q, X1 - X2, ONE + X1]
    terms = [Frac.over(rnd_poly(rng, 2), rng.choice(dens)) for _ in range(5)]
    s = frac_sum(U, terms)
    acc = Frac(U.zero())
    for tm in terms:
        acc = acc + tm
    assert s.eq(acc)


def test_cancelling_sum_orients_associate_factors():
    # 1 + c x2/x1 = c (x2/x1) (1 + c x1/x2): the cancelling sum keeps the
    # orientation whose non-constant key lies above 1, and moves the unit
    # (c x1/x2)^m into the numerator
    r = U.mono(1, {"x1": 1, "x2": -1})
    r_inv = U.mono(1, {"x1": -1, "x2": 1})
    for c in (-1, 1):
        up, down = ONE + r.scale(c), ONE + r_inv.scale(c)
        for m in (1, 2, 3):
            unit = mp_prod(U, [r.scale(c)] * m)
            terms = [Frac(ONE + Q, {up: m}), Frac(T, {down: m})]
            plain = frac_sum(U, terms)
            cancelled = frac_sum(U, terms, cancel=True)
            assert plain.bag == Frac(ONE, {up: m, down: m}).bag
            assert cancelled.bag == ((up, m),), (c, m)
            assert cancelled.num == ONE + Q + T * unit, (c, m)
            assert cancelled.eq(plain)
            # a sum that is a polynomial: p + (g c^m X^m - g c^m X^m) / up^m
            p, g = Q + T * X1, ONE + U.y(1)
            terms = [Frac(p * mp_prod(U, [up] * m) - g * unit, {up: m}),
                     Frac(g, {down: m})]
            plain = frac_sum(U, terms)
            cancelled = frac_sum(U, terms, cancel=True)
            assert cancelled.bag == ()
            assert cancelled.as_poly() == plain.as_poly() == p
            assert cancelled.eq(plain)


def test_cancelling_sum_orients_only_q_x_binomials_through_one():
    down = ONE - U.mono(1, {"q": -1, "x1": -1, "x2": 1})
    up = ONE - U.mono(1, {"q": 1, "x1": 1, "x2": -1})
    s = frac_sum(U, [Frac(ONE + T, {down: 1})], cancel=True)
    assert s.bag == ((up, 1),)
    assert s.num == (ONE + T) * U.mono(-1, {"q": 1, "x1": 1, "x2": -1})
    # a step on t or y, a constant other than 1, no constant, an oriented
    # factor, a non-unit coefficient and three terms all stay as they are
    kept = {ONE - U.mono(1, {"q": -1, "t": 1}): 1, ONE - U.mono(1, {"x1": -1, "y1": 1}): 2,
            U.mono(1, {"q": -1}) - ONE: 1, X1 - X2: 1, ONE - Q * Q: 1, up: 1,
            ONE - U.mono(2, {"x1": -1}): 1, ONE + X1 + X2: 1}
    s = frac_sum(U, [Frac(ONE + Q, kept)], cancel=True)
    assert s.num == ONE + Q
    assert s.bag == Frac(ONE, kept).bag


def test_cancelling_sum_tries_a_pole_at_its_last_holder(monkeypatch):
    # a/f + b/f + c/f with a + b + c = q f: the total has no pole at f, but no
    # pair sum (1 + t, q f - t, q f - 1) is divisible by f, so f is tried
    # only at the merge that leaves one holder, and there it divides
    f = ONE - U.mono(1, {"q": 1, "x1": 1, "x2": -1})
    real, tried = algebra.try_div, []

    def counting(num, den):
        qu = real(num, den)
        if den == f:
            tried.append(qu is not None)
        return qu

    monkeypatch.setattr(algebra, "try_div", counting)
    terms = [Frac(ONE, {f: 1}), Frac(T, {f: 1}), Frac(Q * f - ONE - T, {f: 1})]
    s = frac_sum(U, terms, cancel=True)
    assert tried == [True]
    assert s.bag == () and s.num == Q
    assert s.eq(frac_sum(U, terms))
    # negative control: (1 + t + q) / f keeps its pole; f is tried once, at
    # its last holder, that division fails and f stays in the bag
    del tried[:]
    terms = [Frac(ONE, {f: 1}), Frac(T, {f: 1}), Frac(Q, {f: 1})]
    s = frac_sum(U, terms, cancel=True)
    assert tried == [False]
    assert s.bag == ((f, 1),) and s.num == ONE + T + Q
    assert s.eq(frac_sum(U, terms))


def test_cancelling_sum_refuses_a_shift_past_the_packed_field():
    # 1 - 1/x1 becomes 1 - x1 and moves -x1 into the numerator
    num = U.mono(1, {"x1": 2 ** 27 - 1})
    f = Frac(num, {ONE - U.mono(1, {"x1": -1}): 1})
    assert frac_sum(U, [f]).num == num
    with pytest.raises(ValueError):
        frac_sum(U, [f], cancel=True)
    ok = Frac(U.mono(1, {"x1": 2 ** 27 - 2}), f.bag)
    assert frac_sum(U, [ok], cancel=True).num == U.mono(-1, {"x1": 2 ** 27 - 1})


PARTLY_CANCELLING = Frac((ONE - Q) * (ONE + T), {ONE - Q: 2, ONE + T: 1, X1 - X2: 1})


def test_as_poly_certifies():
    f = Frac.from_factors(U, [(ONE - Q * Q) * (X1 - X2)], [ONE - Q])
    assert f.as_poly() == (ONE + Q) * (X1 - X2)
    with pytest.raises(NotDivisible):
        Frac.over(X1 + Q, X1 + T).as_poly()
    # some copies divide out, but not every one
    with pytest.raises(NotDivisible):
        PARTLY_CANCELLING.as_poly()


def test_shrink_preserves_value():
    f = Frac.from_factors(U, [(ONE - Q * Q) * (ONE + T)], [ONE - Q, ONE + T, X1 - X2])
    g = f.shrink()
    assert g.eq(f)
    assert sum(m for _, m in g.bag) == 1  # only the x factor resists
    # one copy of 1 - q goes, the second stays, and 1 + t goes
    g = PARTLY_CANCELLING.shrink()
    assert g.num == ONE
    assert g.bag == Frac(ONE, {ONE - Q: 1, X1 - X2: 1}).bag


def assert_same_frac(got, want):
    # field for field: the numerator's terms, then the bag's factors and
    # multiplicities in stored order
    assert got.num.terms == want.num.terms
    assert got.bag == want.bag


def _sorted_to(gamma):
    """x rename carrying x^rep to x^gamma, rep = gamma sorted decreasing."""
    rep = tuple(sorted(gamma, reverse=True))
    for perm in itertools.permutations(range(len(gamma))):
        if all(rep[perm[i]] == g for i, g in enumerate(gamma)):
            return rep, {"x%d" % (perm[i] + 1): "x%d" % (i + 1) for i in range(len(gamma))}


@pytest.mark.parametrize("m, n", [(m, n) for n in range(1, 7) for m in range(7) if m * n <= 6])
def test_shrunk_sum_is_the_plain_sum_shrunk_on_every_b_m_sum(monkeypatch, m, n):
    # the plain sum, the cancelling sum and the plain sum shrunk carry
    # different bags; each reduces to the same bytes.  B_m sums only at the
    # weakly decreasing shifts, in expansion order, and stores every other
    # coefficient as its orbit representative's sum with x permuted, so each
    # stored coefficient is the plain sum shrunk, permuted and reduced
    from macdo import raising
    from macdo.partitions import box_below, weak_compositions
    wants = []

    def compared(u, parts, **kw):
        got = frac_sum(u, parts, **kw)
        if kw.get("cancel"):
            want = got.lowest()
            plain = frac_sum(u, parts)
            assert_same_frac(plain.lowest(), want)
            assert_same_frac(plain.shrink().lowest(), want)
            wants.append(want)
        return got

    monkeypatch.setattr(raising, "frac_sum", compared)
    op = raising.row_raising_op.__wrapped__(m, n)
    shifts = dict.fromkeys(b for a in weak_compositions(m, n) for b in box_below(a))
    reps = [b for b in shifts if list(b) == sorted(b, reverse=True)]
    assert len(wants) == len(reps)
    by_rep = dict(zip(reps, wants))
    u = universe(n)
    for gamma in shifts:
        rep, rename = _sorted_to(gamma)
        want = by_rep[rep].convert(u, rename).lowest()
        if want.is_zero():
            assert gamma not in op.coeffs
        else:
            assert_same_frac(op.coeffs[gamma], want)


UP = ONE - U.mono(1, {"x1": 1, "x2": -1})    # 1 - x1/x2, the oriented form
DOWN = ONE - U.mono(1, {"x1": -1, "x2": 1})  # 1 - x2/x1 = -(x2/x1) UP
P1, P2 = ONE - Q, ONE - Q * Q


def test_shrunk_sum_is_the_plain_sum_shrunk_on_random_sums():
    # random sums over bags of +-1 binomials, the factors B_m's sums carry:
    # the plain sum, the cancelling sum and the plain sum shrunk reduce alike
    rng = random.Random(14)
    pool = [P1, P2, ONE + Q, UP, DOWN, ONE - U.mono(1, {"q": 1, "x1": 1, "x2": -1}),
            ONE - U.mono(1, {"q": -1, "x1": -1, "x2": 1}), X1 - X2,
            ONE + U.mono(1, {"q": 3})]
    for _ in range(60):
        terms = []
        for _ in range(rng.randint(1, 5)):
            if terms and rng.random() < 0.2:
                terms.append(-rng.choice(terms))
                continue
            num = mp_prod(U, rng.sample(pool, rng.randint(0, 2))) * rnd_poly(rng, 2, 2)
            bag = {}
            for f in rng.sample(pool, rng.randint(1, 3)):
                bag[f] = rng.randint(1, 2)
            terms.append(Frac(num, bag))
        rng.shuffle(terms)
        plain = frac_sum(U, terms)
        want = plain.lowest()
        assert want.eq(plain)
        assert_same_frac(frac_sum(U, terms, cancel=True).lowest(), want)
        assert_same_frac(plain.shrink().lowest(), want)


def test_lowest_splits_1_minus_q_k_into_cyclotomic_pieces():
    assert_same_frac(Frac(ONE + Q, {P2: 1}).lowest(), Frac(ONE, {P1: 1}))
    # 1 - q^6 = (1 - q)(1 + q)(1 + q + q^2)(1 - q + q^2) and 1 + q^3 =
    # (1 + q)(1 - q + q^2); (1 - q)^2 divides the numerator
    phi3, phi6 = ONE + Q + Q * Q, ONE - Q + Q * Q
    got = Frac(P1 * P1 * phi3, {ONE - U.mono(1, {"q": 6}): 2,
                                ONE + U.mono(1, {"q": 3}): 1}).lowest()
    assert_same_frac(got, Frac(ONE, {ONE + Q: 3, phi3: 1, phi6: 3}))


def test_lowest_gives_one_form_for_one_value():
    # (1 + t) / ((1 - q)(1 - x1/x2)), written five ways
    p = ONE + T
    want = Frac(p, {P1: 1, UP: 1})
    ways = [want,
            Frac(p * (ONE + Q), {P2: 1, UP: 1}),
            Frac(-p * U.mono(1, {"x1": -1, "x2": 1}), {P1: 1, DOWN: 1}),
            Frac(-p * U.mono(1, {"q": -1}), {ONE - U.mono(1, {"q": -1}): 1, UP: 1}),
            Frac(p * (ONE + Q) * UP * DOWN, {P2: 1, UP: 2, DOWN: 1}),
            Frac(p * U.mono(1, {"x2": 1}), {P1: 1, X2 - X1: 1})]
    for f in ways:
        assert f.eq(want)
        assert_same_frac(f.lowest(), want)
    assert_same_frac(Frac(U.zero(), {P1: 1}).lowest(), Frac(U.zero()))
    assert_same_frac(Frac(p).lowest(), Frac(p))


def test_lowest_splits_q_t_binomials_into_pieces():
    # the factors 1 - q^a t^(l+1) of c_lam: 1 - q^2 t^2 = (1 - qt)(1 + qt),
    # and 1 - t, 1 - q t^2 are pieces themselves, so P = J / c_lam reaches
    # lowest terms
    qt, qt2 = Q * T, Q * T * T
    got = Frac((ONE - qt) * (ONE - T) * (ONE - qt2),
               {ONE - T: 2, ONE - qt * qt: 1, ONE - qt2: 2}).lowest()
    assert_same_frac(got, Frac(ONE, {ONE - T: 1, ONE + qt: 1, ONE - qt2: 1}))


@pytest.mark.parametrize("factor", [ONE + X1 + X2, T - Q, ONE - UU, ONE - U.y(1),
                                    U.const(2) - Q, X1, ONE + Q + U.mono(1, {"q": 3}),
                                    -(ONE + Q + Q * Q), X1 * (ONE + Q + Q * Q),
                                    U.mono(1, {"q": -1}) * (ONE - Q + Q * Q)],
                         ids=["three-terms", "t-q", "1-u", "1-y1", "2-q", "monomial",
                              "1+q+q^3", "minus-phi3", "x1-phi3", "q^-1-phi6"])
def test_lowest_refuses_other_factors(factor):
    with pytest.raises(ValueError):
        Frac(ONE, {factor: 1}).lowest()


def test_lowest_takes_its_own_pieces_in_either_orientation():
    # Phi_3(Z) = 1 + Z + Z^2 and Phi_6(Z) = 1 - Z + Z^2 have three terms;
    # lowest() makes them and must take them back, as Phi_d(Z) or as
    # Phi_d(1/Z) = Z^-2 Phi_d(Z), whose unit Z^2 moves into the numerator
    z = U.mono(1, {"x1": 1, "x2": -1})
    for base, inv in ((Q, U.mono(1, {"q": -1})), (z, U.mono(1, {"x1": -1, "x2": 1})),
                      (Q * z, U.mono(1, {"q": -1, "x1": -1, "x2": 1}))):
        for sign in (1, -1):
            f = Frac(ONE + T, {ONE + base.scale(sign) + base * base: 2, ONE - base: 1})
            assert_same_frac(f.lowest(), f)
            g = Frac(ONE + T, {ONE + inv.scale(sign) + inv * inv: 2, ONE - base: 1})
            want = Frac((ONE + T) * (base * base) * (base * base), f.bag)
            assert g.eq(want)
            assert_same_frac(g.lowest(), want)


def test_from_factors_cancels_every_shared_factor():
    qx = ONE - U.mono(1, {"q": 1, "x1": 1, "x2": -1})
    f = Frac.from_factors(U, [X1 - X2, qx, ONE + X1], [X1 - X2, qx, qx])
    assert f.num == ONE + X1
    assert f.bag == ((qx, 1),)
    # factors without x go as well
    for c in (ONE - Q * Q, ONE + T):
        g = Frac.from_factors(U, [c, X1 - X2], [c, X1 - X2])
        assert g.num == ONE
        assert g.bag == ()
    # only identical factors cancel: 1 - q^2 over 1 - q stays as it is
    g = Frac.from_factors(U, [ONE - Q * Q], [ONE - Q])
    assert g.num == ONE - Q * Q
    assert g.bag == ((ONE - Q, 1),)


def test_binomial_division_property():
    # exact quotients with negative Laurent exponents, and numerators that a
    # binomial cannot divide because a monomial sits above the top key, below
    # the bottom key or on an interior key (a monomial is a unit, a binomial
    # is not).  Every draw is also divided through the general (heap) path,
    # by multiplying numerator and divisor by an h in t alone: none of the
    # divisors contains t, so f*h has more than two terms.
    rng = random.Random(8128)
    u = universe(3)
    one = u.one()
    t = u.gen("t")
    h = one + t + t * t

    def mono(exps):
        return u.mono(rng.choice((-3, -2, -1, 1, 2, 3)), exps)

    def laurent():
        return mp_sum(u, (mono({"q": rng.randint(-4, 4), "t": rng.randint(0, 2),
                                "x1": rng.randint(-3, 3), "x2": rng.randint(-3, 3),
                                "x3": rng.randint(-3, 3)})
                          for _ in range(rng.randint(1, 8))))

    for _ in range(300):
        i, j = rng.sample(("x1", "x2", "x3"), 2)
        f = rng.choice((one - u.mono(1, {"q": rng.randint(-3, 3), i: 1, j: -1}),
                        u.gen(i) - u.gen(j),
                        one - u.mono(1, {"q": rng.randint(1, 4)})))
        a = laurent()
        if a.is_zero():
            continue
        af = a * f
        assert try_div(af, f) == a
        assert try_div(af * h, f * h) == a
        keys = sorted(af.terms)
        bumps = [(keys[-1], rng.randint(1, 3)), (keys[0], -rng.randint(1, 3))]
        if len(keys) > 2:
            bumps.append((rng.choice(keys[1:-1]), 0))
        for key, dq in bumps:
            exps = dict(zip(u.names, u.unpack(key)))
            exps["q"] += dq
            g = af + mono(exps)
            assert try_div(g, f) is None
            assert try_div(g * h, f * h) is None


def test_binomial_division_walk_order_and_coefficients():
    # divisors with a leading coefficient other than +-1 (which try_div
    # sends to the heap path) and with a negative widest step component
    # (buckets walked in ascending order), and quotients whose chains run
    # through positions where the numerator has no term.  Every division is
    # checked against the known quotient and, through f*h, the heap path.
    rng = random.Random(4093)
    u = universe(3)
    one = u.one()
    t = u.gen("t")
    h = one + t + t * t

    def laurent():
        return mp_sum(u, (u.mono(rng.choice((-3, -2, -1, 1, 2, 3)),
                                 {"q": rng.randint(-4, 4), "t": rng.randint(0, 2),
                                  "x1": rng.randint(-3, 3), "x2": rng.randint(-3, 3),
                                  "x3": rng.randint(-3, 3)})
                          for _ in range(rng.randint(1, 8))))

    def divisor():
        i, j = rng.sample(("x1", "x2", "x3"), 2)
        c = rng.randint(1, 3)
        return rng.choice((u.const(2) - u.mono(3, {"q": rng.randint(-3, 3), i: 1, j: -1}),
                           u.mono(3, {i: 1}) + u.mono(2, {j: 1}),
                           u.mono(-1, {"q": -c}) + u.gen(i),
                           one - u.mono(1, {"q": 1, i: -2}),
                           u.mono(1, {i: 3}) - u.mono(1, {"q": 1, j: 1}),
                           u.const(2) - u.mono(3, {"q": 1, i: -2}),
                           u.mono(-2, {i: 3}) + u.mono(3, {"q": c, j: 1})))

    def gapped(f):
        # sum_e c1^(k-1-e) (-c2)^e r^e with r the step down the chain: times
        # f it keeps only the two ends of the chain
        (k1, c1), (k2, c2) = sorted(f.terms.items(), reverse=True)
        r = dict(zip(u.names, (a - b for a, b in zip(u.unpack(k2), u.unpack(k1)))))
        k = rng.randint(2, 6)
        return mp_sum(u, (u.mono(c1 ** (k - 1 - e) * (-c2) ** e,
                                 {nm: e * x for nm, x in r.items()}) for e in range(k)))

    def check(g, f, want):
        assert try_div(g, f) == want
        assert try_div(g * h, f * h) == want

    for _ in range(250):
        f = divisor()
        c1 = f.terms[max(f.terms)]
        g = gapped(f)
        assert len((g * f).terms) == 2
        for a in (laurent(), g, g * laurent(), g + laurent().mono_mul(1, {"t": 3})):
            if a.is_zero():
                continue
            af = a * f
            check(af, f, a)
            # adding a monomial leaves a numerator f cannot divide; on the
            # top key it leaves a coefficient that c1 does not divide
            top = max(af.terms)
            assert abs(c1) == 1 or (af.terms[top] + 1) % c1
            for key in (top, rng.choice(list(af.terms))):
                check(af + MPoly(u, {key: 1}), f, None)


def test_binomial_product_property():
    # a*f and f*a for a two-term f against a reference that never calls
    # __mul__: the sum of a shifted by each term of f
    rng = random.Random(4096)
    u = universe(3)
    one = u.one()
    x1 = u.x(1)

    def laurent():
        return mp_sum(u, (u.mono(rng.choice((-3, -2, -1, 1, 2, 3)),
                                 {"q": rng.randint(-4, 4), "t": rng.randint(0, 2),
                                  "x1": rng.randint(-3, 3), "x2": rng.randint(-3, 3),
                                  "x3": rng.randint(-3, 3)})
                          for _ in range(rng.randint(1, 8))))

    def binomial():
        i, j = rng.sample(("x1", "x2", "x3"), 2)
        c = rng.randint(1, 3)
        return rng.choice((one - u.mono(1, {"q": rng.randint(-3, 3), i: 1, j: -1}),
                           u.gen(i) - u.gen(j),
                           one - u.mono(1, {"q": rng.randint(1, 4)}),
                           u.mono(-1, {"q": -c}) + u.gen(i),
                           u.const(2) - u.mono(3, {"q": c, i: 1, j: -1})))

    def reference(a, f):
        return mp_sum(u, (a.mono_mul(c, dict(zip(u.names, u.unpack(k))))
                          for k, c in f.terms.items()))

    cases = [(laurent(), binomial()) for _ in range(300)]
    cases += [(binomial(), binomial()) for _ in range(50)]
    # products that cancel terms: (1 - x1)(1 + x1 + ... + x1^k) = 1 - x1^(k+1)
    for k in range(5):
        geo = mp_sum(u, (u.mono(1, {"x1": e}) for e in range(k + 1)))
        assert geo * (one - x1) == one - u.mono(1, {"x1": k + 1})
        cases.append((geo, one - x1))
    cases.append((one + x1, one - x1))
    cases.append((one + x1, x1 + one))
    # the constant 1 in second dict position, the constant -1, and 1 + m
    for _ in range(30):
        i, j = rng.sample(("x1", "x2", "x3"), 2)
        m = u.mono(1, {"q": rng.randint(-3, 3), i: 1, j: -1})
        for f in (-m + one, m - one, one + m):
            cases.append((laurent(), f))
    assert list((-m + one).terms)[1] == u.one_key
    for a, f in cases:
        assert len(f.terms) == 2
        want = reference(a, f)
        for got in (a * f, f * a):
            got.validate()
            assert got == want


def test_laurent_restrictions():
    assert U.mono(1, {"q": -2, "x1": -1}).validate()
    with pytest.raises(ValueError):
        U.mono(1, {"t": -1})
    with pytest.raises(ValueError):
        U.mono(1, {"y1": -2})


def test_universe_is_interned_by_value():
    assert universe(1) is universe(1, 0, False) is universe(n_x=1, u=False)
    for u in (universe(1), universe(2, 2), universe(3, u=True)):
        assert universe_of_names(u.names) is u


def test_universe_mismatch_raises():
    other = universe(3)
    with pytest.raises(UniverseMismatch):
        X1 + other.x(1)
    with pytest.raises(UniverseMismatch):
        X1 * other.x(1)


def test_canonical_order_and_text():
    p = ONE + Q * Q * X1 - T * X2
    keys = [k for k, _ in p.sort_key()]
    assert keys == sorted(keys, reverse=True)
    assert p.text() == "q^2*x1 + -t*x2 + 1"
    assert U.zero().text() == "0"
    assert (X1 - X2).text() == "x1 + -x2"


def test_content_normalized_display_only():
    p = U.const(4) * Q - U.const(8) * Q * Q
    norm = p.content_normalized()
    assert norm == U.const(2) * Q * Q - Q
    assert p == U.const(4) * Q - U.const(8) * Q * Q  # stored value untouched


def test_json_roundtrip_bit_exact():
    rng = random.Random(5)
    for _ in range(20):
        p = rnd_poly(rng)
        obj = poly_to_obj(p)
        back = poly_from_obj(obj)
        assert back == p
        assert poly_to_obj(back) == obj


def test_json_reader_refuses_values_the_writer_never_makes():
    obj = poly_to_obj(U.mono(3, {"q": -1, "x1": 2}) + ONE)
    for bad in (1.5, True, 3, "3.0", "03", "+3", " 3", "3 ", "1_000", "-0", "x", None):
        o = json.loads(json.dumps(obj))
        o["terms"][0]["c"] = bad
        with pytest.raises(ValueError):
            poly_from_obj(o)
    for bad in (True, False, 1.0, 0.0, "1", None, [1]):
        o = json.loads(json.dumps(obj))
        o["terms"][0]["e"][U.pos("x2")] = bad
        with pytest.raises(ValueError):
            poly_from_obj(o)
    for bad in (5, "11111111", None):
        o = json.loads(json.dumps(obj))
        o["terms"][0]["e"] = bad
        with pytest.raises(ValueError):
            poly_from_obj(o)


@pytest.mark.parametrize("shape", ["no vars", "no terms", "no c", "no e",
                                   "term is a string", "term is a list",
                                   "terms is a string", "vars holds a number",
                                   "not an object"])
def test_json_reader_refuses_a_malformed_structure(shape):
    o = json.loads(json.dumps(poly_to_obj(U.mono(3, {"q": -1, "x1": 2}) + ONE)))
    if shape == "no vars":
        del o["vars"]
    elif shape == "no terms":
        del o["terms"]
    elif shape == "no c":
        del o["terms"][0]["c"]
    elif shape == "no e":
        del o["terms"][1]["e"]
    elif shape == "term is a string":
        o["terms"][0] = "3"
    elif shape == "term is a list":
        o["terms"][0] = ["3", [0] * U.nvars]
    elif shape == "terms is a string":
        o["terms"] = "[]"
    elif shape == "vars holds a number":
        o["vars"][0] = 7
    else:
        o = [o]
    with pytest.raises(ValueError):
        poly_from_obj(o)


def test_mp_sum_prod_helpers():
    rng = random.Random(8)
    ps = [rnd_poly(rng, 2) for _ in range(4)]
    acc = U.zero()
    for p in ps:
        acc = acc + p
    assert mp_sum(U, ps) == acc
    assert mp_prod(U, [ONE + Q, ONE - Q]) == ONE - Q * Q
    assert mp_prod(U, []) == ONE
    assert qpoch_factors(UU, 2) == [ONE - UU, ONE - UU * Q]

"""Core exact-arithmetic contracts: ring axioms, shifts, fractions, division."""

import random

import pytest

from macdo.algebra import (Frac, MPoly, NotDivisible, UniverseMismatch,
                           div_exact, frac_sum, mp_prod, mp_sum, qpoch,
                           qpoch_factors, try_div, universe, universe_of_names)
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


def test_laurent_shift_refuses_packed_overflow():
    u = universe(1, 2)
    f = u.mono(1, {"y1": 2 ** 27 - 1}) + u.y(2)
    g = f.laurent_shift({"y2": -2 ** 27})
    assert sorted(g.u.exp_of(k, "y2") for k in g.terms) == [-2 ** 27, 1 - 2 ** 27]
    assert all(g.u.exp_of(k, "y1") in (0, 2 ** 27 - 1) for k in g.terms)
    for deltas in ({"y1": 1}, {"y2": -2 ** 27 - 1}):
        with pytest.raises(ValueError):
            f.laurent_shift(deltas)


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
    assert div_exact(ONE - Q * Q, ONE - Q) == ONE + Q
    assert div_exact(X1 * X1 - X2 * X2, X1 - X2) == X1 + X2
    assert try_div(X1 + Q, X1 + T) is None
    with pytest.raises(NotDivisible):
        div_exact(X1 + Q, X1 + T)


def test_divide_roundtrip_random():
    rng = random.Random(17)
    for _ in range(120):
        a, b = rnd_poly(rng, 3), rnd_poly(rng, 3)
        if b.is_zero():
            continue
        prod = a * b
        qu = try_div(prod, b)
        assert qu is not None and qu * b == prod
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
    assert hits > 0


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


def test_as_poly_certifies():
    f = Frac.from_factors(U, [(ONE - Q * Q) * (X1 - X2)], [ONE - Q])
    assert f.as_poly() == (ONE + Q) * (X1 - X2)
    with pytest.raises(NotDivisible):
        Frac.over(X1 + Q, X1 + T).as_poly()


def test_shrink_preserves_value():
    f = Frac.from_factors(U, [(ONE - Q * Q) * (ONE + T)], [ONE - Q, ONE + T, X1 - X2])
    g = f.shrink()
    assert g.eq(f)
    assert sum(m for _, m in g.bag) == 1  # only the x factor resists


def test_from_factors_cancels_only_shared_x_factors():
    qx = ONE - U.mono(1, {"q": 1, "x1": 1, "x2": -1})
    f = Frac.from_factors(U, [X1 - X2, qx, ONE + X1], [X1 - X2, qx, qx])
    assert f.num == ONE + X1
    assert f.bag == ((qx, 1),)
    # factors without x stay on both sides
    for c in (ONE - Q * Q, ONE + T):
        g = Frac.from_factors(U, [c, X1 - X2], [c, X1 - X2])
        assert g.num == c
        assert g.bag == ((c, 1),)


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

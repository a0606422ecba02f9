"""Core exact-arithmetic contracts: ring axioms, shifts, fractions, division."""

import random

import pytest

from macdo.algebra import (Frac, MPoly, NotDivisible, UniverseMismatch,
                           div_exact, frac_sum, mp_prod, mp_sum, qpoch,
                           qpoch_factors, try_div, universe)
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


def test_eval_partial_interpolation_zero():
    u = universe(1, 1)
    f = u.one() + u.x(1) * u.y(1)
    v = f.eval_partial({"y1": Frac.over(-u.one(), u.x(1))})
    assert v.is_zero()


def test_eval_partial_product_of_points():
    u = universe(1, 2)
    f = u.y(1) * u.y(2)
    v = f.eval_partial({
        "y1": Frac.over(-u.one(), u.x(1)),
        "y2": Frac.over(-u.one(), u.gen("q") * u.x(1)),
    })
    expect = Frac.over(u.one(), u.gen("q") * u.x(1) * u.x(1))
    assert v.eq(expect)


def test_eval_partial_untouched_without_assignment():
    f = X1 + Q
    assert f.eval_partial({}).eq(Frac(f))
    # assigning a variable the polynomial does not involve changes nothing
    assert f.eval_partial({"y1": Frac.over(-ONE, X1)}).eq(Frac(f))


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


def test_frac_eval_partial():
    u = universe(1, 1)
    fr = Frac.over(u.one() + u.x(1) * u.y(1), u.y(1))
    v = fr.eval_partial({"y1": Frac(u.gen("q"))})
    assert v.eq(Frac.over(u.one() + u.x(1) * u.gen("q"), u.gen("q")))
    with pytest.raises(ZeroDivisionError):
        fr.eval_partial({"y1": Frac(u.zero())})


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
    f = Frac.from_factors((ONE - Q * Q) * (X1 - X2), [ONE - Q])
    assert f.as_poly() == (ONE + Q) * (X1 - X2)
    with pytest.raises(NotDivisible):
        Frac.over(X1 + Q, X1 + T).as_poly()


def test_shrink_preserves_value():
    f = Frac.from_factors((ONE - Q * Q) * (ONE + T), [ONE - Q, ONE + T, X1 - X2])
    g = f.shrink()
    assert g.eq(f)
    assert sum(m for _, m in g.bag) == 1  # only the x factor resists


def test_laurent_restrictions():
    assert U.mono(1, {"q": -2, "x1": -1}).validate()
    with pytest.raises(ValueError):
        U.mono(1, {"t": -1})
    with pytest.raises(ValueError):
        U.mono(1, {"y1": -2})


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

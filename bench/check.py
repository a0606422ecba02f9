"""Independent exact checker for the J tables and B_m operators macdo writes.

It reads macdo's JSON output and nothing else: polynomials are
``{"vars": [...], "terms": [{"c": "<int>", "e": [...]}]}``, J tables map a
partition string to such a coefficient, and an operator lists
``{"gamma", "num", "den"}`` per shift.  All arithmetic is integers and
``fractions.Fraction``; no code is shared with ``macdo.algebra``.  Identities
are checked by evaluation at seeded rational points where no denominator
factor vanishes, so nothing is compared against a stored copy of earlier
output.

Checks:

* ``J_lam`` satisfies the D_1 eigen equation, with D_1 written from
  Macdonald's formula sum_i prod_{j!=i} (t x_i - x_j)/(x_i - x_j) T_{q,x_i}
  and eigenvalue sum_i q^{lam_i} t^{n-i};
* ``J_lam`` is supported on monomials m_mu with mu dominated by lam;
* the coefficient of x^lam in ``J_lam`` is c_lam = prod (1 - q^a t^{l+1});
* sum_gamma c_gamma J_lam(q^gamma x) equals J_(m,lam), or 0 when lam already
  has n parts;
* the kernel identity B_m prod (1 + x_i y_j) = (y_1..y_m)^{-1} D_y(1;t,q)
  prod (1 + x_i y_j), with D_y(1;t,q) from its subset formula.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

POINTS_PER_CHECK = 2


# -- polynomials ----------------------------------------------------------------


class Poly:
    """A parsed macdo polynomial: variable names and (coefficient, exponents)."""

    __slots__ = ("names", "terms", "lo", "hi")

    def __init__(self, obj: dict):
        self.names = tuple(obj["vars"])
        self.terms = [(int(tm["c"]), tuple(tm["e"])) for tm in obj["terms"]]
        for c, e in self.terms:
            if c == 0 or len(e) != len(self.names):
                raise ValueError("malformed polynomial term")
        k = len(self.names)
        self.lo = [min([0] + [e[i] for _, e in self.terms]) for i in range(k)]
        self.hi = [max([0] + [e[i] for _, e in self.terms]) for i in range(k)]

    def is_zero(self) -> bool:
        return not self.terms

    def at(self, point: dict) -> Fraction:
        """Exact value; each term is cleared to an integer before summing."""
        vals = [Fraction(point[v]) for v in self.names]
        apow, bpow, scale = [], [], 1
        for v, lo, hi in zip(vals, self.lo, self.hi):
            a, b = v.numerator, v.denominator
            apow.append(_powers(a, hi - lo))
            bpow.append(_powers(b, hi - lo))
            scale *= a ** (-lo) * b ** hi
        total = 0
        for c, e in self.terms:
            term = c
            for i, ei in enumerate(e):
                if self.hi[i] or self.lo[i]:
                    term *= apow[i][ei - self.lo[i]] * bpow[i][self.hi[i] - ei]
            total += term
        return Fraction(total, scale)

    def qt_dict(self) -> dict:
        """{(q exponent, t exponent): coefficient}; every other exponent must be 0."""
        iq, it = self.names.index("q"), self.names.index("t")
        out = {}
        for c, e in self.terms:
            if any(x for i, x in enumerate(e) if i not in (iq, it)):
                raise ValueError("coefficient depends on more than q and t")
            out[(e[iq], e[it])] = out.get((e[iq], e[it]), 0) + c
        return {k: c for k, c in out.items() if c}


def _powers(a: int, k: int) -> list:
    out = [1]
    for _ in range(k):
        out.append(out[-1] * a)
    return out


# -- partitions ------------------------------------------------------------------


def parse_partition(s: str) -> tuple:
    return tuple(int(p) for p in s.split(",")) if s else ()


def dominates(lam: tuple, mu: tuple) -> bool:
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for x, y in itertools.zip_longest(lam, mu, fillvalue=0):
        a, b = a + x, b + y
        if a < b:
            return False
    return True


def c_lambda(lam: tuple) -> dict:
    """prod over cells of (1 - q^arm t^(leg+1)) as {(q exp, t exp): coefficient}."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    poly = {(0, 0): 1}
    for i, row in enumerate(lam):
        for j in range(row):
            arm, leg = row - j - 1, conj[j] - i - 1
            nxt = dict(poly)
            for (a, b), c in poly.items():
                k = (a + arm, b + leg + 1)
                nxt[k] = nxt.get(k, 0) - c
            poly = {k: c for k, c in nxt.items() if c}
    return poly


def _monomial_exponents(mu: tuple, n: int) -> list:
    return sorted(set(itertools.permutations(mu + (0,) * (n - len(mu)))))


# -- J tables --------------------------------------------------------------------


class JTable:
    """A J_lam table in the monomial basis, as ``macdo poly J --format json`` writes it."""

    def __init__(self, obj: dict):
        if obj.get("kind") != "J" or obj.get("basis") != "monomial":
            raise ValueError("not a J table in the monomial basis")
        self.n = int(obj["n"])
        self.lam = parse_partition(obj["lambda"])
        self.coeffs = {parse_partition(k): Poly(v) for k, v in obj["coeffs"].items()}
        self.monos = {mu: _monomial_exponents(mu, self.n) for mu in self.coeffs}

    def at(self, point: dict, xs) -> Fraction:
        """J(xs) with q, t taken from the point."""
        total = Fraction(0)
        for mu, c in self.coeffs.items():
            m = Fraction(0)
            for e in self.monos[mu]:
                v = Fraction(1)
                for x, k in zip(xs, e):
                    if k:
                        v *= x ** k
                m += v
            total += c.at(point) * m
        return total


def check_j(j: JTable, points) -> list:
    """Problems found in one J table (empty when it passes)."""
    bad = []
    lam, n = j.lam, j.n
    if len(lam) > n:
        bad.append("lambda has more than n parts")
    for mu in j.coeffs:
        if len(mu) > n or not dominates(lam, mu):
            bad.append("support: m_%s is not dominated by %s" % (mu, lam))
    lead = j.coeffs.get(lam)
    if lead is None or lead.qt_dict() != c_lambda(lam):
        bad.append("coefficient of x^lambda is not c_lambda")
    for p in points:
        xs = [p["x%d" % i] for i in range(1, n + 1)]
        q, t = p["q"], p["t"]
        lhs = Fraction(0)
        for i in range(n):
            a = Fraction(1)
            for k in range(n):
                if k != i:
                    a *= (t * xs[i] - xs[k]) / (xs[i] - xs[k])
            shifted = list(xs)
            shifted[i] = q * xs[i]
            lhs += a * j.at(p, shifted)
        padded = lam + (0,) * (n - len(lam))
        eig = sum(q ** padded[i - 1] * t ** (n - i) for i in range(1, n + 1))
        if lhs != eig * j.at(p, xs):
            bad.append("D_1 eigen equation fails at a point")
            break
    return bad


# -- operators -------------------------------------------------------------------


class Operator:
    """B_m as ``macdo operator --format json`` writes it."""

    def __init__(self, obj: dict):
        self.m, self.n = int(obj["m"]), int(obj["n"])
        self.coeffs = [(tuple(c["gamma"]), Poly(c["num"]), Poly(c["den"]))
                       for c in obj["coeffs"]]
        for g, _, den in self.coeffs:
            if len(g) != self.n or den.is_zero():
                raise ValueError("malformed operator coefficient")

    def defined_at(self, point: dict) -> bool:
        return all(den.at(point) != 0 for _, _, den in self.coeffs)

    def values(self, point: dict) -> list:
        return [(g, num.at(point) / den.at(point)) for g, num, den in self.coeffs]


def check_raising(op: Operator, j: JTable, target, points) -> list:
    """sum_gamma c_gamma J_lam(q^gamma x) against J_(m,lam), or 0 at full length."""
    if j.n != op.n or (target is not None and target.n != op.n):
        return ["variable counts differ"]
    if (target is None) != (len(j.lam) == op.n):
        return ["target J missing or unexpected"]
    if target is not None and target.lam != tuple(p for p in (op.m,) + j.lam if p):
        return ["target is not J_(m,lambda)"]
    for p in points:
        xs = [p["x%d" % i] for i in range(1, op.n + 1)]
        q = p["q"]
        img = sum(c * j.at(p, [q ** g * x for g, x in zip(gamma, xs)])
                  for gamma, c in op.values(p))
        want = target.at(p, xs) if target is not None else 0
        if img != want:
            return ["B_%d J_%s is not J_(m,lambda) at a point" % (op.m, j.lam)]
    return []


def _kernel(xs, ys) -> Fraction:
    v = Fraction(1)
    for x in xs:
        for y in ys:
            v *= 1 + x * y
    return v


def check_kernel(op: Operator, points) -> list:
    """B_m prod(1 + x_i y_j) = (y_1..y_m)^{-1} D_y(1;t,q) prod(1 + x_i y_j)."""
    m, n = op.m, op.n
    for p in points:
        q, t = p["q"], p["t"]
        xs = [p["x%d" % i] for i in range(1, n + 1)]
        ys = [p["y%d" % j] for j in range(1, m + 1)]
        lhs = sum(c * _kernel([q ** g * x for g, x in zip(gamma, xs)], ys)
                  for gamma, c in op.values(p))
        rhs = Fraction(0)
        for r in range(m + 1):
            for subset in itertools.combinations(range(m), r):
                a = Fraction((-1) ** r) * q ** (r * (r - 1) // 2)
                for i in subset:
                    for k in range(m):
                        if k not in subset:
                            a *= (q * ys[i] - ys[k]) / (ys[i] - ys[k])
                shifted = [t * y if k in subset else y for k, y in enumerate(ys)]
                rhs += a * _kernel(xs, shifted)
        for y in ys:
            rhs /= y
        if lhs != rhs:
            return ["kernel identity fails for B_%d on n=%d at a point" % (m, n)]
    return []


# -- points ------------------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    while True:
        v = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if v not in (0, 1, -1):
            return v


def points(seed: int, tag: str, n_x: int, n_y: int = 0, ok=None) -> list:
    """POINTS_PER_CHECK points from (seed, tag), with distinct x's and y's.

    ``ok`` rejects a point where some denominator of the checked object
    vanishes; rejected candidates are skipped deterministically.
    """
    rng = random.Random("%d:%s" % (seed, tag))
    out = []
    while len(out) < POINTS_PER_CHECK:
        p = {"q": _rational(rng), "t": _rational(rng)}
        for block, k in (("x", n_x), ("y", n_y)):
            vals = []
            while len(vals) < k:
                v = _rational(rng)
                if v not in vals:
                    vals.append(v)
            p.update(("%s%d" % (block, i + 1), v) for i, v in enumerate(vals))
        if ok is None or ok(p):
            out.append(p)
    return out


# -- files ---------------------------------------------------------------------------


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Caches parsed outputs by file and runs the checks with seeded points."""

    def __init__(self, seed: int):
        self.seed = seed
        self._j: dict = {}
        self._op: dict = {}
        self._op_points: dict = {}

    def j(self, path) -> JTable:
        if path not in self._j:
            self._j[path] = JTable(load(path))
        return self._j[path]

    def op(self, path) -> Operator:
        if path not in self._op:
            self._op[path] = Operator(load(path))
        return self._op[path]

    def j_table(self, path) -> list:
        j = self.j(path)
        return check_j(j, points(self.seed, "J%d:%s" % (j.n, j.lam), j.n))

    def _points_for(self, path) -> list:
        if path not in self._op_points:
            op = self.op(path)
            self._op_points[path] = points(
                self.seed, "B%d:%d" % (op.m, op.n), op.n, op.m, ok=op.defined_at)
        return self._op_points[path]

    def raising(self, op_path, j_path, target_path) -> list:
        target = self.j(target_path) if target_path else None
        return check_raising(self.op(op_path), self.j(j_path), target,
                             self._points_for(op_path))

    def kernel(self, op_path) -> list:
        return check_kernel(self.op(op_path), self._points_for(op_path))

"""Verification suites: the identity grids behind `verify` and acceptance.

Each suite is a deterministic list of named cases; a case runs to a
(passed, detail) pair where detail carries the cross-multiplied difference
polynomial on failure.  Suites are sized so the full run finishes at desk
scale; wider grids need the CLI's unsafe-limits override.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass, field

from . import macdonald as mac
from . import qbinomial as qb
from . import raising as rs
from .algebra import Frac, mp_sum, qpoch, universe
from .partitions import (Partition, mi_weight, multi_indices_upto,
                         partitions_of, weak_compositions)
from .qbinomial import ordinary_qbinom
from .serialize import diff_text


@dataclass
class Case:
    suite: str
    name: str
    params: dict
    run: object = field(repr=False)


def _diff_case(suite, name, params, diff_fn):
    def run():
        diff = diff_fn()
        if diff.is_zero():
            return True, None
        return False, diff_text(diff)
    return Case(suite, name, params, run)


def _bool_case(suite, name, params, check_fn):
    def run():
        return (True, None) if check_fn() else (False, "check returned false")
    return Case(suite, name, params, run)


# -- suite builders -----------------------------------------------------------


def suite_raising(max_m: int | None = None, max_n: int = 3, max_weight: int = 4) -> list:
    """Raising property, iterated build, equivariance and order bound.

    Without ``max_m`` the operator grid stops at m = 3 and the iterated
    build takes every lambda within the weight bound; an explicit ``max_m``
    also caps lambda_1, so no B_m beyond it is ever built.
    """
    grid_m = 3 if max_m is None else max_m
    cases = []
    for n in range(1, max_n + 1):
        for m in range(grid_m + 1):
            for d in range(max_weight + 1):
                for lam in partitions_of(d, max_len=n, max_part=m):
                    cases.append(_diff_case(
                        "raising", "raise",
                        {"m": m, "lambda": lam.to_string(), "n": n,
                         "branch": "zero" if lam.length() == n else "raise"},
                        lambda m=m, lam=lam, n=n: rs.raising_diff(m, lam, n)))
    for n in range(1, max_n + 1):
        for d in range(max_weight + 1):
            for lam in partitions_of(d, max_len=n, max_part=max_m):
                cases.append(_diff_case(
                    "raising", "iterated_build",
                    {"lambda": lam.to_string(), "n": n},
                    lambda lam=lam, n=n: rs.iterated_build_diff(lam, n)))
    for n in range(1, max_n + 1):
        for m in range(grid_m + 1):
            cases.append(_bool_case(
                "raising", "equivariance", {"m": m, "n": n},
                lambda m=m, n=n: rs.equivariance_check(rs.row_raising_op(m, n))))
            cases.append(_bool_case(
                "raising", "order_bound", {"m": m, "n": n},
                lambda m=m, n=n: rs.order_bound_check(rs.row_raising_op(m, n), m)))
    return cases


def suite_qbinom(max_weight: int = 4, max_n: int = 3) -> list:
    """Generalized q-binomial theorem plus the n=1 classical cross-check."""
    cases = []
    for n in range(1, max_n + 1):
        for d in range(max_weight + 1):
            for alpha in weak_compositions(d, n):
                cases.append(_diff_case(
                    "qbinom", "qbinom_theorem", {"alpha": list(alpha)},
                    lambda alpha=alpha: qb.qbinom_theorem_diff(alpha)))
    u1 = universe(1, u=True)

    def classical(l):
        terms = [ordinary_qbinom(u1, l, k).mono_mul((-1) ** k, {"q": k * (k - 1) // 2,
                                                                "u": k})
                 for k in range(l + 1)]
        return Frac(mp_sum(u1, terms) - qpoch(u1.gen("u"), l))

    for l in range(7):
        cases.append(_diff_case("qbinom", "classical_qbinom_theorem", {"l": l},
                                lambda l=l: classical(l)))

    for n in range(1, max_n + 1):
        for dg in range(4):
            for da in range(4):
                for gamma in weak_compositions(dg, n):
                    for alpha in weak_compositions(da, n):
                        cases.append(_bool_case(
                            "qbinom", "interp_product",
                            {"gamma": list(gamma), "alpha": list(alpha)},
                            lambda g=gamma, a=alpha: qb.interp_product_check(g, a)))
    return cases


def suite_chu(max_weight: int = 4, max_n: int = 3) -> list:
    """Both Chu-Vandermonde generalizations, all weights up to the bound."""
    cases = []
    for n in range(1, max_n + 1):
        for d in range(max_weight + 1):
            for alpha in weak_compositions(d, n):
                for k in range(d + 1):
                    cases.append(_diff_case(
                        "chu", "chu_vandermonde",
                        {"alpha": list(alpha), "k": k,
                         "weight_equals_vars": d == n},
                        lambda alpha=alpha, k=k: qb.chu_vandermonde_diff(alpha, k)))
    for n in range(1, max_n + 1):
        for d in range(max_weight + 1):
            for da in range(d + 1):
                for alpha in weak_compositions(da, n):
                    for beta in weak_compositions(d - da, n):
                        for k in range(d + 1):
                            cases.append(_diff_case(
                                "chu", "chu_vandermonde_split",
                                {"alpha": list(alpha), "beta": list(beta), "k": k},
                                lambda a=alpha, b=beta, k=k:
                                    qb.chu_vandermonde2_diff(a, b, k)))
    return cases


def suite_oracles(max_m: int = 3, max_n: int = 3) -> list:
    """Closed forms against their independent oracles, and the ladder inverse."""
    cases = []
    for n in range(1, max_n + 1):
        u = universe(n)
        for m in range(max_m + 1):
            for alpha in weak_compositions(m, n):
                def phi_agree(u=u, m=m, alpha=alpha):
                    closed = rs.raising_block(u, alpha)
                    rec = rs.raising_block_recurrence(u, m, alpha)
                    keys = set(closed) | set(rec)
                    zero = Frac(u.zero())
                    for b in keys:
                        d = closed.get(b, zero) - rec.get(b, zero)
                        if not d.is_zero():
                            return d
                    return zero
                cases.append(_diff_case(
                    "oracles", "phi_closed_vs_recurrence",
                    {"m": m, "alpha": list(alpha), "n": n}, phi_agree))
                cases.append(_diff_case(
                    "oracles", "b_closed_vs_interpolation",
                    {"m": m, "alpha": list(alpha), "n": n},
                    lambda u=u, m=m, alpha=alpha:
                        rs.block_coeff(u, m, alpha) -
                        rs.block_coeff_interp(u, m, alpha)))
    for n in (1, 2):
        for alpha in multi_indices_upto(3, n):
            for beta in multi_indices_upto(mi_weight(alpha), n):
                if all(x >= y for x, y in zip(alpha, beta)):
                    cases.append(_bool_case(
                        "oracles", "ladder_inverse",
                        {"alpha": list(alpha), "beta": list(beta)},
                        lambda a=alpha, b=beta: rs.ladder_inverse_check(a, b)))
    return cases


KEYID_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2), (0, 1), (0, 2), (2, 3), (3, 2))


def suite_keyid(max_m: int = 3, max_n: int = 3) -> list:
    """Kernel identity and the y-degree bound, n,m <= 2 plus spot cases.

    Runs the (m, n) pairs of KEYID_PAIRS with m <= max_m and n <= max_n.
    """
    cases = []
    for m, n in KEYID_PAIRS:
        if m > max_m or n > max_n:
            continue
        cases.append(_diff_case("keyid", "key_identity", {"m": m, "n": n},
                                lambda m=m, n=n: rs.key_identity_diff(m, n)))
        cases.append(_bool_case("keyid", "degree_bound", {"m": m, "n": n},
                                lambda m=m, n=n: rs.degree_bound_check(m, n)))
    return cases


def suite_cauchy(max_n: int = 3, max_weight: int = 4) -> list:
    """Macdonald infrastructure: eigen equations, operator forms, dual pairs."""
    cases = []
    for n in range(1, max_n + 1):
        cases.append(_bool_case(
            "cauchy", "determinantal_agreement", {"n": n},
            lambda n=n: mac.determinantal_agreement_check(n)))
    for n in range(1, max_n + 1):
        for d in range(max_weight + 1):
            for lam in partitions_of(d, max_len=n):
                cases.append(_diff_case(
                    "cauchy", "eigen_equation", {"lambda": lam.to_string(), "n": n},
                    lambda lam=lam, n=n: mac.eigen_diff(lam, n)))
                cases.append(_bool_case(
                    "cauchy", "integral_form_certified",
                    {"lambda": lam.to_string(), "n": n},
                    lambda lam=lam, n=n: _integrality(lam, n)))
    for n in (1, 2):
        for m in (1, 2):
            cases.append(_diff_case("cauchy", "cauchy_dual", {"n": n, "m": m},
                                    lambda n=n, m=m: mac.cauchy_diff(n, m)))
    for m in (1, 2):
        for d in range(max_weight + 1):
            for mu in partitions_of(d, max_len=m):
                cases.append(_diff_case(
                    "cauchy", "dual_lowering", {"mu": mu.to_string(), "m": m},
                    lambda mu=mu, m=m: mac.lowering_diff(mu, m)))
    return cases


def _integrality(lam: Partition, n: int) -> bool:
    sp = mac.macdonald_j(lam, n)
    for c in sp.expansion.values():
        p = c.as_poly()
        if p.min_exp("q") < 0 or p.min_exp("t") < 0:
            return False
    return True


def suite_hl(max_m: int = 3, max_n: int = 3, max_weight: int = 3) -> list:
    """Hall-Littlewood raising up to a fitted scalar, both branches."""
    cases = []
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            for d in range(max_weight + 1):
                for lam in partitions_of(d, max_len=n, max_part=m):
                    cases.append(_bool_case(
                        "hl", "hall_littlewood_raise",
                        {"m": m, "lambda": lam.to_string(), "n": n,
                         "branch": "zero" if lam.length() == n else "raise"},
                        lambda m=m, lam=lam, n=n:
                            rs.hall_littlewood_raising_check(m, lam, n)))
    return cases


SUITES = {
    "raising": suite_raising,
    "qbinom": suite_qbinom,
    "chu": suite_chu,
    "oracles": suite_oracles,
    "keyid": suite_keyid,
    "cauchy": suite_cauchy,
    "hl": suite_hl,
}


def build_suite(name: str, **limits) -> list:
    """Cases for one suite name, or every suite for 'all'."""
    if name == "all":
        cases = []
        for nm in SUITES:
            cases.extend(build_suite(nm, **limits))
        return cases
    if name not in SUITES:
        raise KeyError("unknown suite %r" % name)
    builder = SUITES[name]
    accepted = inspect.signature(builder).parameters
    kw = {k: v for k, v in limits.items() if k in accepted and v is not None}
    return builder(**kw)


def run_cases(cases, threads: int = 1, shuffle_seed: int | None = None):
    """Run cases one after another; reports come back in case order.

    Returns (reports, all_passed); reports are dicts ready for JSON lines.
    The optional seed shuffles execution order only.  Every case runs in
    the calling thread, so each ``ms`` is that case's own wall time.
    ``threads`` stays only for callers that pass ``threads=1``, such as
    ``bench/worker.py``; any other value raises ValueError.
    """
    if threads != 1:
        raise ValueError("run_cases runs one case at a time; threads must be 1")
    order = list(range(len(cases)))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    results = [None] * len(cases)
    for idx in order:
        case = cases[idx]
        t0 = time.perf_counter()
        try:
            ok, detail = case.run()
        except Exception as exc:  # a crash is a failed case, not a crashed suite
            ok, detail = False, "error: %s" % (exc,)
        results[idx] = {"suite": case.suite, "case": case.name,
                        "params": case.params, "pass": bool(ok),
                        "ms": int((time.perf_counter() - t0) * 1000),
                        **({"detail": detail} if detail else {})}
    return results, all(r["pass"] for r in results)

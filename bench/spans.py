"""Layer tracing installed from outside around macdo's public functions.

``install()`` replaces each traced function by a wrapper in every loaded
``macdo`` module that binds it (names taken by ``from ... import`` included)
and on the classes that define the traced methods.  While the tracer is
active each wrapper times its call:

* layer calls (operator apply, memo fills, builds, identity checks, suite
  cases, serialization) record a span ``(name, start, end, parent, op)``;
* the hot algebra kernels (``MPoly.__mul__``, ``frac_sum``, ``try_div``,
  ``Frac.shrink``, ``Frac.as_poly``) only add to per-name totals, since
  they run up to ~10^5 times per workload.

Both kinds keep a frame on one stack, so every reported ``.s`` is self time:
the call's duration minus the time of the traced calls nested in it.  Spans
stay in memory and are written once, by the caller of ``dump()``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("macdo", "macdo.algebra", "macdo.partitions", "macdo.macdonald",
           "macdo.qbinomial", "macdo.raising", "macdo.suites",
           "macdo.serialize", "macdo.cli")

# raw totals merged across processes by taking the maximum, not the sum
PEAK_KEYS = ("algebra.frac_sum.peak_num_terms", "algebra.frac_sum.peak_bag_factors",
             "macdonald.apply.peak_num_terms")


def _bag_size(fr) -> int:
    return sum(m for _, m in fr.bag)


def _norm_partition(lam) -> tuple:
    return tuple(int(p) for p in lam if int(p))


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None              # index of the enclosing benchmark operation
        self.spans = []             # (name, start, end, parent span, op)
        self.stack = []             # frames [child seconds, span index or None]
        self.open_spans = []        # indices of the spans currently open
        self.raw = {}               # name.calls / name.s / extra counters
        self._seen = {}             # memo keys already filled, per span name

    # -- recording ---------------------------------------------------------------

    def add(self, key, v):
        self.raw[key] = self.raw.get(key, 0) + v

    def peak(self, key, v):
        if v > self.raw.get(key, 0):
            self.raw[key] = v

    def _enter(self, is_span):
        frame = [0.0, None]
        if is_span:
            frame[1] = len(self.spans)
            parent = self.open_spans[-1] if self.open_spans else None
            self.spans.append(None)
            self.open_spans.append(frame[1])
            frame.append(parent)
        self.stack.append(frame)
        return frame

    def _leave(self, name, frame, t0, t1):
        self.stack.pop()
        dt = t1 - t0
        self.add(name + ".calls", 1)
        self.add(name + ".s", dt - frame[0])
        if self.stack:
            self.stack[-1][0] += dt
        if frame[1] is not None:
            self.open_spans.pop()
            self.spans[frame[1]] = (name, t0, t1, frame[2], self.op)

    def wrap(self, name, fn, span=True, observe=None, memo_key=None):
        """Timed wrapper; with ``memo_key`` only a key's first call is traced."""
        seen = self._seen.setdefault(name, set()) if memo_key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if seen is not None:
                key = memo_key(*args, **kwargs)
                if key in seen:
                    return fn(*args, **kwargs)
                seen.add(key)
            frame = self._enter(span)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, t0, time.perf_counter())
            if observe is not None:
                observe(self, args, out)
            return out

        traced.__wrapped_by_bench__ = True
        return traced

    # -- results -----------------------------------------------------------------

    def dump(self) -> dict:
        from macdo import qbinomial
        info = qbinomial.qbinom_x.cache_info()
        raw = dict(self.raw)
        raw["qbinomial.qbinom_x.hits"] = info.hits
        raw["qbinomial.qbinom_x.misses"] = info.misses
        return {"raw": raw,
                "spans": [list(s) for s in self.spans if s is not None]}


# -- observers: counts taken at the same boundaries as the timings --------------------


def _obs_mul(tr, args, out):
    a, b = args
    tr.add("algebra.mul.term_products",
           len(a.terms) * (1 if isinstance(b, int) else len(b.terms)))


def _obs_frac_sum(tr, args, out):
    tr.peak("algebra.frac_sum.peak_num_terms", len(out.num.terms))
    tr.peak("algebra.frac_sum.peak_bag_factors", _bag_size(out))


def _obs_try_div(tr, args, out):
    if out is not None:
        tr.add("algebra.try_div.exact", 1)


def _obs_shrink(tr, args, out):
    tr.add("algebra.shrink.factors_cancelled", _bag_size(args[0]) - _bag_size(out))


def _obs_apply(tr, args, out):
    tr.peak("macdonald.apply.peak_num_terms", len(out.num.terms))


def _obs_dumps(tr, args, out):
    tr.add("serialize.bytes", len(out.encode("utf-8")))


def _key_sym(lam, n):
    return (_norm_partition(lam), n)


def _key_op(m, n):
    return (m, n)


def install(tr: Tracer) -> None:
    """Wrap the traced functions of every macdo module with ``tr``'s wrappers."""
    mods = [importlib.import_module(m) for m in MODULES]
    from macdo import (algebra, cli, macdonald, qbinomial, raising,
                       serialize, suites)

    def patch_fn(mod, attr, name, **kw):
        orig = getattr(mod, attr)
        new = tr.wrap(name, orig, **kw)
        for m in mods:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, new)

    def patch_method(cls, attr, name, **kw):
        orig = cls.__dict__[attr]
        new = tr.wrap(name, orig, **kw)
        for k, v in list(cls.__dict__.items()):
            if v is orig:
                setattr(cls, k, new)

    patch_method(algebra.MPoly, "__mul__", "algebra.mul", span=False, observe=_obs_mul)
    patch_fn(algebra, "frac_sum", "algebra.frac_sum", span=False, observe=_obs_frac_sum)
    patch_fn(algebra, "try_div", "algebra.try_div", span=False, observe=_obs_try_div)
    patch_method(algebra.Frac, "shrink", "algebra.shrink", span=False, observe=_obs_shrink)
    patch_method(algebra.Frac, "as_poly", "algebra.as_poly", span=False)

    patch_method(macdonald.QDiffOp, "apply", "macdonald.apply", observe=_obs_apply)
    patch_fn(macdonald, "macdonald_p", "macdonald.p_fill", memo_key=_key_sym)
    patch_fn(macdonald, "macdonald_j", "macdonald.j_fill", memo_key=_key_sym)
    patch_fn(macdonald, "eigen_diff", "macdonald.eigen")

    patch_fn(raising, "row_raising_op", "raising.build", memo_key=_key_op)
    patch_fn(raising, "block_coeff", "raising.block_coeff")
    patch_fn(raising, "raising_diff", "raising.raising_diff")
    patch_fn(raising, "key_identity_diff", "raising.key_identity")
    patch_fn(raising, "degree_bound_check", "raising.degree_bound")

    for attr in ("qbinom_theorem_diff", "chu_vandermonde_diff", "chu_vandermonde2_diff",
                 "interp_product_eval", "qbinom_product_rule_diff"):
        patch_fn(qbinomial, attr, "qbinomial.identity")

    for attr in ("poly_to_obj", "frac_to_obj", "sympoly_to_obj", "op_to_obj", "diff_text"):
        patch_fn(serialize, attr, "serialize")
    patch_fn(serialize, "dumps", "serialize", observe=_obs_dumps)

    orig_build = suites.build_suite

    def build_suite(name, **limits):
        # "all" recurses through the module global, so cases may arrive wrapped
        cases = orig_build(name, **limits)
        for c in cases:
            if not getattr(c.run, "__wrapped_by_bench__", False):
                c.run = tr.wrap("suites.case", c.run)
        return cases

    traced_build = tr.wrap("suites.build", build_suite)
    for m in (suites, cli):
        for k, v in list(vars(m).items()):
            if v is orig_build:
                setattr(m, k, traced_build)


def finalize(raw: dict) -> dict:
    """Per-layer metric values from raw totals (one process or merged)."""
    def g(k):
        return raw.get(k, 0)

    out = {}
    for name in ("algebra.mul", "algebra.frac_sum", "algebra.try_div", "algebra.shrink",
                 "macdonald.apply", "raising.build"):
        out[name + ".calls"] = g(name + ".calls")
    for name in ("algebra.mul", "algebra.frac_sum", "algebra.try_div", "algebra.shrink",
                 "algebra.as_poly", "macdonald.apply", "macdonald.p_fill",
                 "macdonald.j_fill", "macdonald.eigen", "raising.build",
                 "raising.block_coeff", "raising.raising_diff", "raising.key_identity",
                 "raising.degree_bound", "qbinomial.identity", "suites.build",
                 "suites.case", "serialize"):
        out[name + ".s"] = float(g(name + ".s"))
    for k in ("algebra.mul.term_products", "algebra.frac_sum.peak_num_terms",
              "algebra.frac_sum.peak_bag_factors", "algebra.shrink.factors_cancelled",
              "macdonald.apply.peak_num_terms", "serialize.bytes"):
        out[k] = g(k)
    out["algebra.try_div.exact_ratio"] = (g("algebra.try_div.exact") / g("algebra.try_div.calls")
                                          if g("algebra.try_div.calls") else 0.0)
    looked = g("qbinomial.qbinom_x.hits") + g("qbinomial.qbinom_x.misses")
    out["qbinomial.qbinom_x.hit_ratio"] = (g("qbinomial.qbinom_x.hits") / looked
                                           if looked else 0.0)
    out["suites.cases"] = g("suites.case.calls")
    out["cli.start_s"] = float(g("cli.start_s"))
    return out


def merge(raws) -> dict:
    """Sum raw totals of several processes; peaks take the maximum."""
    out = {}
    for raw in raws:
        for k, v in raw.items():
            out[k] = max(out.get(k, 0), v) if k in PEAK_KEYS else out.get(k, 0) + v
    return out


def write(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)

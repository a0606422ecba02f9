"""Deterministic JSON and text serialization for polynomials and operators.

Coefficients travel as decimal strings (arbitrary precision survives JSON),
terms in the canonical monomial order, and every dump is byte-reproducible:
golden files are compared verbatim.
"""

from __future__ import annotations

import json

from .algebra import Frac, MPoly, universe_of_names
from .macdonald import QDiffOp
from .partitions import Partition


def poly_to_obj(p: MPoly) -> dict:
    terms = [{"c": str(c), "e": list(p.u.unpack(k))} for k, c in p.sort_key()]
    return {"vars": list(p.u.names), "terms": terms}


def poly_from_obj(obj: dict) -> MPoly:
    """Read a polynomial in the form ``poly_to_obj`` writes.

    Raises ValueError unless the object holds a ``vars`` list of names and
    a ``terms`` list of objects with ``c`` and ``e`` keys, each coefficient is
    the canonical decimal string of a nonzero int and each exponent a JSON
    integer (not a bool, a float or a string) that fits its packed field.
    """
    if (not isinstance(obj, dict) or not isinstance(obj.get("terms"), list)
            or not isinstance(obj.get("vars"), list)
            or not all(isinstance(nm, str) for nm in obj["vars"])):
        raise ValueError("serialized polynomial needs a 'vars' list of names and a 'terms' list")
    u = universe_of_names(obj["vars"])
    out = {}
    for tm in obj["terms"]:
        if not isinstance(tm, dict) or "c" not in tm or "e" not in tm:
            raise ValueError("serialized term %r is not an object with 'c' and 'e'" % (tm,))
        s = tm["c"]
        c = int(s) if isinstance(s, str) else None  # int() raises ValueError itself
        if c is None or str(c) != s:
            raise ValueError("coefficient %r is not a canonical decimal string" % (s,))
        if c == 0:
            raise ValueError("serialized polynomial carries a zero coefficient")
        e = tm["e"]
        if not isinstance(e, (list, tuple)) or len(e) != u.nvars:
            raise ValueError("exponent vector length mismatch")
        if not all(type(x) is int for x in e):
            raise ValueError("exponent vector %r holds a non-integer" % (e,))
        u._check_exps(e)
        k = u.pack(e)
        if k in out:
            raise ValueError("duplicate exponent vector in serialized polynomial")
        out[k] = c
    return MPoly(u, out)


def frac_to_obj(fr: Frac) -> dict:
    return {"num": poly_to_obj(fr.num), "den": poly_to_obj(fr.den)}


def sympoly_to_obj(coords: dict, lam: Partition, kind: str) -> dict:
    """Monomial-basis table {mu: coefficient} of a P or J polynomial.

    J's coordinates (:func:`macdonald_j`) are certified polynomials and
    serialize bare; P's (``macdonald_p(...).expansion``) keep their num/den
    split.
    """
    put = poly_to_obj if kind == "J" else frac_to_obj
    return {"n": next(iter(coords.values())).u.n_x, "lambda": lam.to_string(),
            "basis": "monomial", "kind": kind,
            "coeffs": {mu.to_string(): put(coords[mu]) for mu in sorted(coords)}}


def op_to_obj(op: QDiffOp, m: int) -> dict:
    coeffs = []
    for gamma in op.keys_canonical():
        coeffs.append({"gamma": list(gamma), **frac_to_obj(op.coeffs[gamma])})
    return {"m": m, "n": op.u.n_x, "coeffs": coeffs}


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


DETAIL_TERMS = 20  # most terms of a difference that a failure report writes


def diff_text(diff: Frac) -> str:
    """Failure artifact: the cross-multiplied difference, display-normalized.

    At most ``DETAIL_TERMS`` terms are written, the leading ones in canonical
    order, followed by the count left out and the total.
    """
    p = diff.num.content_normalized()
    total = len(p.terms)
    if total <= DETAIL_TERMS:
        return p.text()
    head = MPoly(p.u, dict(p.sort_key()[:DETAIL_TERMS]))
    return "%s + ... (%d more terms, %d in all)" % (head.text(), total - DETAIL_TERMS, total)

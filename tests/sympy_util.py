"""Helpers shared by the optional sympy oracle tests (sympy is passed in)."""


def sympy_poly(sp, obj):
    """A macdo polynomial, read from its serialized form, as a sympy expression."""
    names = sp.symbols(obj["vars"])
    return sp.Add(*(int(tm["c"]) * sp.Mul(*(v ** e for v, e in zip(names, tm["e"])))
                    for tm in obj["terms"]))

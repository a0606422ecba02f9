"""Command-line front end: polynomials, operators, identity suites, goldens.

Exit codes follow the CI contract: 0 all good, 1 an identity or golden
comparison failed, 2 usage or I/O trouble.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import macdonald as mac
from . import qbinomial as qb
from . import raising as rs
from . import serialize as ser
from .partitions import mi_weight, parse_partition, partitions_of
from .suites import SUITES, build_suite, run_cases

DESK_N, DESK_M, DESK_WEIGHT = 4, 4, 5
# building B_m on n variables (2-core VM, fresh processes): m*n = 12 takes
# 1.9 s at 30 MB for (4, 3) and 2.6 s at 54 MB for (3, 4), while (4, 4)
# takes 139 s at 567 MB.  The cap bounds every command that builds B_m:
# `operator`, `verify` and `identity --name keyid`, whose columns B_m m_lam
# take keyid (4, 3) 32 s at 56 MB and (3, 4) 180 s at 161 MB
DESK_BUILD_MN = 12


def check_limits(*, n=None, m=None, max_weight=None, unsafe=False):
    """Refuse sizes below n = 1, m = 0 or weight 0, and beyond desk scale.

    Only the upper caps yield to --unsafe-limits.  Raises ValueError, which
    main turns into exit code 2.
    """
    for value, low, label in ((n, 1, "n"), (m, 0, "m"), (max_weight, 0, "max weight")):
        if value is not None and value < low:
            raise ValueError("%s must be at least %d" % (label, low))
    if unsafe:
        return
    for value, cap, label in ((n, DESK_N, "n"), (m, DESK_M, "m"),
                              (max_weight, DESK_WEIGHT, "max weight")):
        if value is not None and value > cap:
            raise ValueError("%s > %d needs --unsafe-limits" % (label, cap))


def check_build(m: int, n: int, unsafe=False) -> None:
    """Refuse building B_m on n variables with m*n beyond DESK_BUILD_MN.

    Yields to --unsafe-limits; raises ValueError, which main turns into
    exit code 2.
    """
    if m * n > DESK_BUILD_MN and not unsafe:
        raise ValueError("B_m with m*n > %d needs --unsafe-limits" % DESK_BUILD_MN)


def _parse_mi(option: str, s: str) -> tuple:
    """The multi-index of --option; ValueError naming the input otherwise."""
    try:
        return tuple(int(p) for p in s.split(","))
    except ValueError:
        raise ValueError("--%s %r is not a multi-index (integers joined by commas)"
                         % (option, s)) from None


def _out_stream(path):
    return open(path, "w", encoding="utf-8") if path else sys.stdout


def _write(text: str, stream=None) -> None:
    """Write text to stream (stdout by default) in full, or raise OSError.

    An unbuffered stdout (PYTHONUNBUFFERED, ``python -u``) is a text layer
    over a raw file whose write may take only part of the bytes, and the
    text layer drops the rest without an error.  So the encoded text goes to
    the binary layer until every byte is taken; a reader that has gone makes
    a later write raise BrokenPipeError.  A stream with no binary layer
    takes the text as it is.
    """
    stream = sys.stdout if stream is None else stream
    buf = getattr(stream, "buffer", None)
    if buf is None:
        stream.write(text)
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        took = buf.write(data)
        if not took:
            raise BlockingIOError(errno.EAGAIN, "stdout took none of the output")
        data = data[took:]


def cmd_poly(args) -> int:
    try:
        lam = parse_partition(args.lam)
    except ValueError:
        raise ValueError("--lambda %r is not a partition (weakly decreasing nonnegative "
                         "integers joined by commas)" % args.lam) from None
    check_limits(n=args.n, max_weight=lam.weight(), unsafe=args.unsafe_limits)
    if lam.length() > args.n:
        return _fail("--lambda %r has %d rows, more than --n %d"
                     % (args.lam, lam.length(), args.n))
    coords = (mac.macdonald_j if args.kind == "J" else mac.macdonald_p)(lam, args.n)
    if args.format == "json":
        _write(ser.dumps(ser.sympoly_to_obj(coords, lam, args.kind)))
        return 0
    chunks = ["(%s)*m[%s]" % (coords[mu].text(), mu.to_string() or "0")
              for mu in sorted(coords, reverse=True)]
    _write((" + ".join(chunks) if chunks else "0") + "\n")
    return 0


def cmd_operator(args) -> int:
    check_limits(n=args.n, m=args.m, unsafe=args.unsafe_limits)
    check_build(args.m, args.n, unsafe=args.unsafe_limits)
    op = rs.row_raising_op(args.m, args.n)
    if args.format == "json":
        _write(ser.dumps(ser.op_to_obj(op, args.m)))
        return 0
    _write("".join("T^%s: %s\n" % (list(gamma), op.coeffs[gamma].text())
                   for gamma in op.keys_canonical()))
    return 0


# name -> (required options, check); a check takes the parsed options (multi-
# indices as tuples) and returns a difference that must vanish, or a bool
_IDENTITIES = {
    "qbinom": (("alpha",), lambda p: qb.qbinom_theorem_diff(p["alpha"])),
    "chu": (("alpha", "k"), lambda p: qb.chu_vandermonde_diff(p["alpha"], p["k"])),
    "chu2": (("alpha", "beta", "k"),
             lambda p: qb.chu_vandermonde2_diff(p["alpha"], p["beta"], p["k"])),
    "interp": (("gamma", "alpha"),
               lambda p: qb.interp_product_check(p["gamma"], p["alpha"])),
    "product-rule": (("alpha", "gamma", "beta"),
                     lambda p: qb.qbinom_product_rule_diff(p["alpha"], p["gamma"],
                                                           p["beta"])),
    "keyid": (("m", "n"), lambda p: rs.key_identity_diff(p["m"], p["n"])),
}
_MULTI_INDEX_OPTIONS = ("alpha", "beta", "gamma")


def cmd_identity(args) -> int:
    name = args.name
    if name not in _IDENTITIES:
        return _fail("unknown identity %r (choose from %s)"
                     % (name, ", ".join(sorted(_IDENTITIES))))
    need, check = _IDENTITIES[name]
    params = {}
    for p in need:
        v = getattr(args, p)
        if v is None:
            return _fail("identity %s needs --%s" % (name, p))
        params[p] = v
    parsed = {p: _parse_mi(p, v) if p in _MULTI_INDEX_OPTIONS else v
              for p, v in params.items()}
    for p, v in parsed.items():
        if min(v if p in _MULTI_INDEX_OPTIONS else (v,)) < 0:
            raise ValueError("--%s must not be negative" % p)
    mis = [v for p, v in parsed.items() if p in _MULTI_INDEX_OPTIONS]
    if mis:
        # --k only matters up to the weight, so it is held to the same cap
        check_limits(n=max(len(a) for a in mis),
                     max_weight=max([mi_weight(a) for a in mis] + [parsed.get("k", 0)]),
                     unsafe=args.unsafe_limits)
    else:
        check_build(parsed["m"], parsed["n"], unsafe=args.unsafe_limits)
        check_limits(m=parsed["m"], n=parsed["n"], unsafe=args.unsafe_limits)
    result = check(parsed)
    ok = result if isinstance(result, bool) else result.is_zero()
    rec = {"identity": name, "params": params, "pass": bool(ok)}
    if not isinstance(result, bool) and not ok:
        rec["detail"] = ser.diff_text(result)
    _write(json.dumps(rec, sort_keys=True) + "\n")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        return _fail("unknown suite %r (choose from %s)"
                     % (args.suite, ", ".join(sorted(SUITES) + ["all"])))
    check_limits(n=args.n, m=args.m, max_weight=args.max_weight,
                 unsafe=args.unsafe_limits)
    cases = build_suite(args.suite, max_n=args.n, max_m=args.m,
                        max_weight=args.max_weight)
    if not cases:
        return _fail("no %s cases within these limits" % args.suite)
    check_limits(m=max(c.builds[0] for c in cases), unsafe=args.unsafe_limits)
    m, n = max((c.builds for c in cases), key=lambda mn: mn[0] * mn[1])
    check_build(m, n, unsafe=args.unsafe_limits)
    try:
        stream = _out_stream(args.out)
    except OSError as exc:
        return _fail(exc)
    try:
        reports, ok = run_cases(cases, shuffle_seed=args.seed)
        _write("".join(json.dumps({k: v for k, v in rec.items() if k != "ms"},
                                  sort_keys=True) + "\n" for rec in reports), stream)
    finally:
        if stream is not sys.stdout:
            stream.close()
    passed = sum(r["pass"] for r in reports)
    _note("%d/%d cases passed" % (passed, len(reports)))
    return 0 if ok else 1


def _golden_items():
    """The golden corpus: J tables for |lam| <= 4, n <= 3; B_m for m,n <= 2."""
    for n in (1, 2, 3):
        for d in range(5):
            for lam in partitions_of(d, max_len=n):
                name = "J_n%d_lam%s.json" % (n, lam.to_string().replace(",", "-") or "0")
                yield name, lambda lam=lam, n=n: ser.dumps(
                    ser.sympoly_to_obj(mac.macdonald_j(lam, n), lam, "J"))
    for n in (1, 2):
        for m in (0, 1, 2):
            name = "B_m%d_n%d.json" % (m, n)
            yield name, lambda m=m, n=n: ser.dumps(
                ser.op_to_obj(rs.row_raising_op(m, n), m))


def cmd_golden(args) -> int:
    path = args.path
    if args.mode == "write":
        try:
            os.makedirs(path, exist_ok=True)
            for name, gen in _golden_items():
                with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
                    fh.write(gen())
        except OSError as exc:
            return _fail(exc)
        return 0
    bad = 0
    for name, gen in _golden_items():
        fp = os.path.join(path, name)
        try:
            with open(fp, "r", encoding="utf-8") as fh:
                on_disk = fh.read()
        except OSError as exc:
            return _fail(exc)
        if on_disk != gen():
            _note("golden mismatch: %s" % name)
            bad += 1
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="macdo",
        description="Exact Macdonald polynomials, row raising operators, "
                    "and q-binomial identity verification.")
    sub = ap.add_subparsers(dest="command", required=True)
    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--unsafe-limits", action="store_true",
                        help="allow n > %d, m > %d, weight > %d or B_m with m*n > %d"
                             % (DESK_N, DESK_M, DESK_WEIGHT, DESK_BUILD_MN))

    p = sub.add_parser("poly", parents=[limits],
                       help="print P or J in the monomial basis")
    p.add_argument("kind", choices=("P", "J"))
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-joined partition; '' or '0' for empty")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("operator", parents=[limits],
                       help="print the raising operator B_m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_operator)

    p = sub.add_parser("identity", parents=[limits],
                       help="run one identity check, JSON report")
    p.add_argument("--name", required=True,
                   help="|".join(sorted(_IDENTITIES)))
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--gamma")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("verify", parents=[limits],
                       help="run an identity suite, JSON-lines report")
    p.add_argument("--suite", default="all",
                   help="raising|qbinom|chu|keyid|oracles|cauchy|hl|all")
    p.add_argument("--n", type=int, default=None, help="cap on variable count")
    p.add_argument("--m", type=int, default=None, help="cap on operator weight")
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="shuffle execution order (math stays exact)")
    p.add_argument("--out", default=None, help="write the report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("golden", help="write or byte-check the golden tables")
    p.add_argument("mode", choices=("write", "check"))
    p.add_argument("path")
    p.set_defaults(fn=cmd_golden)
    return ap


def _to_devnull(stream) -> None:
    """Point the process's real stdout or stderr, whose reader has gone, at
    devnull, so the flush at exit does not fail again."""
    if stream in (sys.__stdout__, sys.__stderr__):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _note(text: str) -> None:
    """Print a line to stderr; if its reader has gone, exit 2 (I/O trouble)
    as argparse exits on a usage error."""
    try:
        print(text, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)
        raise SystemExit(2) from None


def _fail(message) -> int:
    """Print ``error: message`` to stderr and return 2, usage or I/O trouble."""
    _note("error: %s" % message)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        return _fail(exc)
    except BrokenPipeError:
        # every stderr line goes through _note, so stdout is the stream whose
        # reader has gone (`| head`, say)
        _to_devnull(sys.stdout)
        return _fail("stdout closed before the output was written")
    except OSError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())

"""One cold-cache round of a benchmark workload, run in its own process.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src``, one thread and no ``MACDO_THREADS``.  It imports macdo, builds the
workload's operation list (that is the set-up), keeps the CPU busy for one
second without touching macdo, then times each operation in a fixed order,
so every memo cache is filled by the same operation on every run.  After
the timed part it exports the outputs the independent checker needs and
writes one JSON result file.

    python3 bench/worker.py --workload raise-n3 --out DIR --result FILE \
        --spawned-at <time.time() of the parent> [--trace | --setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# identity-grid: suite name and the limits handed to suites.build_suite
IDENTITY_SUITES = (
    ("qbinom", {"max_n": 3, "max_weight": 5}),
    ("chu", {"max_n": 3, "max_weight": 5}),
    ("oracles", {}),
    ("cauchy", {"max_n": 4, "max_weight": 5}),
    ("hl", {"max_n": 4, "max_weight": 5}),
)

# cli-kernel: operators written as JSON, and the J tables asked for with n = 4
CLI_OPERATORS = ((2, 3), (3, 2), (4, 2))
CLI_POLY_J = ("5", "4,1", "3,2", "3,1,1", "2,2,1", "2,1,1,1")

# seconds of busy work between the set-up and the first timed operation
WARM_UP_S = 1.0


def j_name(lam, n) -> str:
    return "J_n%d_lam%s.json" % (n, "-".join(str(p) for p in lam) or "0")


def b_name(m, n) -> str:
    return "B_m%d_n%d.json" % (m, n)


def warm_up() -> None:
    """Keep the core busy without touching macdo, so timing starts on a running CPU."""
    end = time.perf_counter() + WARM_UP_S
    x = 0
    while time.perf_counter() < end:
        for i in range(10000):
            x += i * i


def write_text(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class Workload:
    """A fixed list of (label, operation); an operation returns (ok, detail)."""

    in_process = True   # False: operations run in child processes

    def __init__(self, out_dir, trace=False):
        self.out = out_dir
        self.trace = trace
        self.ops = []
        self.checks = []
        self.child_traces = []

    def export(self) -> None:
        """Write the outputs the checker reads; runs after the timed part."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RaisingGrid(Workload):
    """B_m builds then raising-property checks, in a fixed order."""

    def __init__(self, out_dir, trace, builds, grid, kernels=()):
        super().__init__(out_dir, trace)
        from macdo import raising
        self.grid = grid
        self.kernels = kernels
        for m, n in builds:
            self.ops.append(("build B_%d on n=%d" % (m, n),
                             lambda m=m, n=n: (raising.row_raising_op(m, n) is not None,
                                               None)))
        for m, lam, n in grid:
            self.ops.append(("B_%d J_(%s) on n=%d" % (m, lam.to_string(), n),
                             lambda m=m, lam=lam, n=n:
                                 (raising.raising_diff(m, lam, n).is_zero(), None)))

    def export(self) -> None:
        from macdo import macdonald, raising, serialize
        written = set()

        def put(name, make):
            path = os.path.join(self.out, name)
            if name not in written:
                write_text(path, serialize.dumps(make()))
                written.add(name)
            return path

        def j_file(lam, n):
            path = put(j_name(lam, n), lambda: serialize.sympoly_to_obj(
                macdonald.macdonald_j(lam, n), lam, "J"))
            if ("j", path) not in self.checks:
                self.checks.append(("j", path))
            return path

        for m, lam, n in self.grid:
            op = put(b_name(m, n),
                     lambda: serialize.op_to_obj(raising.row_raising_op(m, n), m))
            src = j_file(lam, n)
            dst = None if lam.length() == n else j_file(lam.prepend(m), n)
            self.checks.append(("raising", op, src, dst))
        for m, n in self.kernels:
            self.checks.append(("kernel", os.path.join(self.out, b_name(m, n))))


def raise_n3(out_dir, trace):
    from macdo.partitions import Partition, partitions_of
    grid = []
    for n, max_m in ((1, 4), (2, 4), (3, 2)):
        for m in range(max_m + 1):
            for d in range(5):
                for lam in partitions_of(d, max_len=n, max_part=m):
                    grid.append((m, lam, n))
    grid += [(3, Partition(()), 3), (3, Partition((1,)), 3)]
    return RaisingGrid(out_dir, trace, [(m, 3) for m in range(4)], grid)


def tiny(out_dir, trace):
    """Self-test sizes: B_1 and B_2 on n = 2 with |lambda| <= 2, plus kernels."""
    from macdo.partitions import partitions_of
    grid = [(m, lam, 2) for m in (1, 2) for d in range(3)
            for lam in partitions_of(d, max_len=2, max_part=m)]
    builds = [(1, 2), (2, 2)]
    return RaisingGrid(out_dir, trace, builds, grid, kernels=builds)


class IdentityGrid(Workload):
    """Every case of five suites, each timed through suites.run_cases."""

    def __init__(self, out_dir, trace):
        super().__init__(out_dir, trace)
        from macdo import suites
        self.cases = []
        for name, limits in IDENTITY_SUITES:
            self.cases.extend(suites.build_suite(name, **limits))

        def run_one(case):
            reports, ok = suites.run_cases([case], threads=1)
            return ok, reports[0].get("detail")

        for i, case in enumerate(self.cases):
            self.ops.append(("%s/%s #%d" % (case.suite, case.name, i),
                             lambda c=case: run_one(c)))

    def export(self) -> None:
        from macdo import macdonald, serialize
        from macdo.partitions import parse_partition
        for case in self.cases:
            if case.name == "integral_form_certified":
                lam, n = parse_partition(case.params["lambda"]), case.params["n"]
                path = os.path.join(self.out, j_name(lam, n))
                write_text(path, serialize.dumps(serialize.sympoly_to_obj(
                    macdonald.macdonald_j(lam, n), lam, "J")))
                self.checks.append(("j", path))


class CliKernel(Workload):
    """The macdo command line, one child process per operation."""

    in_process = False

    def __init__(self, out_dir, trace):
        super().__init__(out_dir, trace)
        from macdo import cli, suites
        self.keyid_cases = len(suites.build_suite("keyid"))
        self.golden = os.path.join(out_dir, "golden")
        runs = [("verify --suite keyid",
                 ["verify", "--suite", "keyid", "--out", os.path.join(out_dir, "keyid.jsonl")],
                 None)]
        for m, n in CLI_OPERATORS:
            runs.append(("operator m=%d n=%d" % (m, n),
                         ["operator", "--m", str(m), "--n", str(n), "--format", "json"],
                         b_name(m, n)))
        runs.append(("golden write", ["golden", "write", self.golden], None))
        for lam in CLI_POLY_J:
            runs.append(("poly J lam=%s n=4" % lam,
                         ["poly", "J", "--lambda", lam, "--n", "4", "--format", "json"],
                         j_name(lam.split(","), 4)))
        parser = cli.build_parser()
        for label, argv, stdout in runs:
            parser.parse_args(argv)
            self.ops.append((label, lambda i=len(self.ops), a=argv, s=stdout:
                             self.run_cli(i, a, s)))

    def run_cli(self, index, argv, stdout_name):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "launch.py")]
        if self.trace:
            tpath = os.path.join(self.out, "child-trace-%d.json" % index)
            cmd += ["--trace-out", tpath, repr(time.time())]
            self.child_traces.append(tpath)
        out_path = os.path.join(self.out, stdout_name or "stdout-%d.txt" % index)
        with open(out_path, "w", encoding="utf-8") as out, \
                open(os.path.join(self.out, "stderr-%d.txt" % index), "w") as err:
            code = subprocess.run(cmd + ["--"] + argv, stdout=out, stderr=err).returncode
        if code != 0:
            return False, "exit code %d" % code
        if argv[0] == "verify":
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
                reports = [json.loads(line) for line in fh if line.strip()]
            bad = [r for r in reports if not r["pass"]]
            if bad or len(reports) != self.keyid_cases:
                return False, "%d of %d keyid cases failed" % (len(bad), len(reports))
        return True, None

    def export(self) -> None:
        for m, n in CLI_OPERATORS:
            self.checks.append(("kernel", os.path.join(self.out, b_name(m, n))))
        for lam in CLI_POLY_J:
            self.checks.append(("j", os.path.join(self.out, j_name(lam.split(","), 4))))
        names = sorted(os.listdir(self.golden))
        for name in names:
            path = os.path.join(self.golden, name)
            if name.startswith("J_"):
                self.checks.append(("j", path))
            else:
                self.checks.append(("kernel", path))
        # the raising property wherever the golden set holds J_lam and J_(m,lam)
        for name in names:
            if not name.startswith("B_"):
                continue
            m, n = (int(x) for x in name[3:-5].split("_n"))
            for jn in names:
                if not jn.startswith("J_n%d_" % n):
                    continue
                lam = tuple(int(p) for p in jn[len("J_n%d_lam" % n):-5].split("-") if p != "0")
                if lam and lam[0] > m:
                    continue
                target = None
                if len(lam) < n:
                    target = j_name(tuple(p for p in (m,) + lam if p), n)
                    if target not in names:
                        continue
                    target = os.path.join(self.golden, target)
                self.checks.append(("raising", os.path.join(self.golden, name),
                                    os.path.join(self.golden, jn), target))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {
    "raise-n3": raise_n3,
    "identity-grid": IdentityGrid,
    "cli-kernel": CliKernel,
    "tiny": tiny,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    make = WORKLOADS[args.workload]
    tracer = None
    if args.trace and getattr(make, "in_process", True):
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True
    work = make(args.out, args.trace)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    warm_up()
    ops = []
    for i, (label, fn) in enumerate(work.ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failed operation, not a crashed round
            ok, detail = False, "error: %r" % (exc,)
        rec = {"label": label, "s": time.perf_counter() - t0, "ok": bool(ok)}
        if not ok:
            rec["detail"] = str(detail)[:300]
        ops.append(rec)
    peak = work.peak_rss_mb()
    layers = None
    if tracer is not None:
        tracer.active = False
        dump = tracer.dump()
        layers = dump["raw"]
        with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(dump["spans"], fh)
    elif work.child_traces:
        import spans
        dumps = []
        for path in work.child_traces:
            with open(path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        layers = spans.merge(d["raw"] for d in dumps)
        with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([d["spans"] for d in dumps], fh)
    work.export()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "ops": ops, "peak_rss_mb": peak,
                   "checks": work.checks, "layers": layers}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

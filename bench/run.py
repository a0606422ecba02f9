"""The macdo benchmark: three cold-cache workloads, layer tracing, exact checks.

    python3 bench/run.py --workload raise-n3 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --self-test

Run from the root of a checkout.  A run repeats rounds until ``--seconds``
have passed (at least one round).  A round is one fresh worker process
(``worker.py``) with cold memo caches, one thread, no ``MACDO_THREADS`` and
a fixed hash seed; it times every operation of the workload in a fixed
order.  The seed picks only the evaluation points of the
independent checker (``check.py``), which then checks every J table and
operator the round wrote.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are printed
(medians over rounds; ``setup_s`` is the median over the rounds and eight
extra set-up-only processes).  With ``--trace 1`` the rounds run under the
span wrappers of ``spans.py`` and the per-layer metrics are printed; the
spans go to ``bench/traces/<workload>.json`` together with the tracing
overhead against the last untraced run of that workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import check
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
TRACE_DIR = os.path.join(BENCH_DIR, "traces")
WORKLOADS = ("raise-n3", "identity-grid", "cli-kernel")
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MACDO_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, out_dir, deadline, trace=False, setup_only=False) -> dict:
    """One worker process; returns its result file, killing it at the deadline."""
    os.makedirs(out_dir, exist_ok=True)
    result = os.path.join(out_dir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--out", out_dir, "--result", result,
           "--spawned-at", repr(time.time())]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr.fileno(),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("%s worker passed the %.0f s run limit" % (workload, RUN_LIMIT_S))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise BenchError("%s worker exited with code %d" % (workload, code))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def run_checks(checks, seed) -> list:
    """Problems the independent checker finds in one round's outputs."""
    ck = check.Checker(seed)
    problems = []
    for item in checks:
        kind, paths = item[0], item[1:]
        try:
            if kind == "j":
                found = ck.j_table(paths[0])
            elif kind == "raising":
                found = ck.raising(*paths)
            else:
                found = ck.kernel(paths[0])
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            found = ["unreadable output (%s)" % exc]
        problems += ["%s: %s" % (os.path.basename(paths[0]), p) for p in found]
    return problems


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def op_times(rounds) -> dict:
    """Medians over rounds of the total, median and slowest operation time."""
    def med(fn):
        return statistics.median(fn([o["s"] for o in r["ops"]]) for r in rounds)
    return {"total_s": med(sum),
            "op_p50_ms": med(statistics.median) * 1000.0,
            "op_max_s": med(max)}


def end_to_end(rounds, setups) -> dict:
    out = op_times(rounds)
    out["setup_s"] = statistics.median(setups)
    out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
    return out


def per_layer(rounds) -> dict:
    values = [spans.finalize(r["layers"]) for r in rounds]
    out = {k: statistics.median(v[k] for v in values) for k in values[0]}
    times = op_times(rounds)
    out["trace.total_s"] = times["total_s"]
    out["ops.p50_ms"] = times["op_p50_ms"]
    out["ops.max_s"] = times["op_max_s"]
    return out


def write_trace(workload, seed, metrics, run_dir) -> None:
    """Keep the first round's spans and the overhead against the last untraced run."""
    overhead = None
    last = os.path.join(OUT_DIR, "last-%s.json" % workload)
    if os.path.exists(last):
        with open(last, encoding="utf-8") as fh:
            untraced = json.load(fh)["total_s"]
        overhead = {"traced_total_s": metrics["trace.total_s"], "untraced_total_s": untraced,
                    "ratio": metrics["trace.total_s"] / untraced}
        print("tracing overhead: traced total_s %.3f s against untraced %.3f s (x%.3f)"
              % (overhead["traced_total_s"], untraced, overhead["ratio"]))
    with open(os.path.join(run_dir, "round0", "spans.json"), encoding="utf-8") as fh:
        span_list = json.load(fh)
    os.makedirs(TRACE_DIR, exist_ok=True)
    spans.write(os.path.join(TRACE_DIR, "%s.json" % workload), {
        "workload": workload, "seed": seed, "metrics": metrics, "overhead": overhead,
        "span_fields": ["name", "start", "end", "parent", "op"], "spans": span_list})


def require_sources() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "macdo", "__init__.py")):
        raise BenchError("no macdo sources under %s" % os.path.join(ROOT, "src"))


def run(workload, seed, seconds, trace) -> dict:
    """Measure one workload, print its metrics by name; return the result object."""
    spec = load_spec()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    run_dir = os.path.join(OUT_DIR, "%s-seed%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    setups = []
    if not trace:
        # the probes run first, so the CPU is busy before the timed rounds
        for k in range(SETUP_PROBES):
            probe = run_worker(workload, os.path.join(run_dir, "setup%d" % k), deadline,
                               setup_only=True)
            setups.append(probe["setup_s"])
    rounds, problems = [], []
    while not rounds or time.monotonic() - started < seconds:
        rd = os.path.join(run_dir, "round%d" % len(rounds))
        rounds.append(run_worker(workload, rd, deadline, trace=trace))
        problems += run_checks(rounds[-1]["checks"], seed)
    attempted = sum(len(r["ops"]) for r in rounds)
    failures = [(o["label"], o.get("detail")) for r in rounds for o in r["ops"] if not o["ok"]]

    if trace:
        values = per_layer(rounds)
        write_trace(workload, seed, values, run_dir)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(rounds, setups + [r["setup_s"] for r in rounds])
        os.makedirs(OUT_DIR, exist_ok=True)
        spans.write(os.path.join(OUT_DIR, "last-%s.json" % workload), values)
        wanted = spec["end_to_end"]

    for label, detail in failures[:10]:
        print("FAILED %s: %s" % (label, detail))
    for p in problems[:10]:
        print("CHECKER REJECTS %s" % p)
    print("%s: %d rounds, %d operations attempted, %d failed, %d checker problems"
          % (workload, len(rounds), attempted, len(failures), len(problems)))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-36s %14.6f %s" % (m["name"], values[m["name"]], m["unit"]))
    if not trace:
        # too noisy on a shared host for a regression bound; see bench/README.md
        print("unbounded: op_p50_ms %.3f ms, op_max_s %.3f s"
              % (values["op_p50_ms"], values["op_max_s"]))
    if not problems:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": not problems, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def tamper_j(src, dst) -> None:
    """Change one coefficient of a J table below its leading monomial."""
    obj = check.load(src)
    lam = obj["lambda"]
    mu = next(k for k in sorted(obj["coeffs"]) if k != lam)
    term = obj["coeffs"][mu]["terms"][0]
    term["c"] = str(2 * int(term["c"]))
    spans.write(dst, obj)


def tamper_b(src, dst) -> None:
    """Change one numerator coefficient of an operator."""
    obj = check.load(src)
    term = obj["coeffs"][-1]["num"]["terms"][0]
    term["c"] = str(2 * int(term["c"]))
    spans.write(dst, obj)


def self_test() -> int:
    """Tiny round: the checker accepts it, rejects two tampered outputs, traces all layers."""
    spec = load_spec()
    run_dir = os.path.join(OUT_DIR, "self-test-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    res = run_worker("tiny", os.path.join(run_dir, "plain"), deadline)
    ok = True

    def report(cond, what):
        nonlocal ok
        ok = ok and cond
        print("%s  %s" % ("PASS" if cond else "FAIL", what))

    report(all(o["ok"] for o in res["ops"]), "%d tiny operations pass" % len(res["ops"]))
    report(not run_checks(res["checks"], 1), "checker accepts %d untouched outputs"
           % len(res["checks"]))
    for name, tamper in (("J_n2_lam2.json", tamper_j), ("B_m2_n2.json", tamper_b)):
        src = os.path.join(run_dir, "plain", name)
        bad = os.path.join(run_dir, "tampered-" + name)
        tamper(src, bad)
        checks = [[bad if p == src else p for p in c] for c in res["checks"]]
        touched = [c for c in checks if bad in c]
        failing = sum(1 for c in touched if run_checks([c], 1))
        report(failing > 0, "checker rejects %s with one coefficient changed "
               "(%d of the %d checks that read it fail)" % (name, failing, len(touched)))
    traced = run_worker("tiny", os.path.join(run_dir, "traced"), deadline, trace=True)
    names = set(per_layer([traced]))
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in names]
    report(not missing, "trace yields every per-layer metric%s"
           % (" (missing %s)" % ", ".join(missing) if missing else ""))
    if ok:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="'all' runs every workload in turn; its metrics are "
                         "named <workload>.<metric>")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        require_sources()
        if args.self_test:
            return self_test()
        if args.workload != "all":
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            parts = {w: run(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
            result = {"correct": all(p["correct"] for p in parts.values()),
                      "attempted": sum(p["attempted"] for p in parts.values()),
                      "failed": sum(p["failed"] for p in parts.values()),
                      "metrics": {"%s.%s" % (w, k): v for w, p in parts.items()
                                  for k, v in p["metrics"].items()}}
        print(json.dumps(result))
        return 0
    except (BenchError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

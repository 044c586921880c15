#!/usr/bin/env python3
"""Duoquest benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--slo-ms L]
    python3 perfbench/run.py all [--seed N] [--seconds S]
    python3 perfbench/run.py compare RESULTS_A RESULTS_B

Run from the repository root.  `run` builds perfbench/duoperf.exe with
dune, runs workload W with inputs drawn from seed N for about S seconds,
checks every output (committed baseline, engine vs reference interpreter,
served vs solo, parallel vs sequential), writes a result file under
perfbench/results/ and prints a table of every metric (unit, sample
count) followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  A per-layer metric a workload does not
exercise (the server's round trips on a synthesis workload) reads 0.

`all` runs every workload untraced and traced, printing each table.

`compare` reads two directories of result files (e.g. copies of
perfbench/results/ from a parent and a child commit) and prints, per
workload and end-to-end metric, whether the second set is better, no
worse, worse, or unresolved against the bounds in BENCHMARK.json.
"""

import argparse
import datetime
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
EXE = os.path.join("_build", "default", "perfbench", "duoperf.exe")
WORKER_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except OSError as e:
        die("run from the repository root (BENCHMARK.json: %s)" % e)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no dune project here: the benchmark builds the program from source")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/duoperf.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed", 1)


def sh(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """The commit when this is a git checkout, else a digest of the
    sources the benchmark builds (a checkout may carry no .git)."""
    head = sh(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else ""
    if head and head != "unknown":
        return "git:" + head
    h = hashlib.sha256()
    files = ["dune", "dune-project", "BENCHMARK.json"]
    for top in ("lib", "perfbench"):
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "results")
            files += [os.path.join(root, n) for n in sorted(names)]
    for p in files:
        if os.path.isfile(p):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "ocaml": sh(["ocamlfind", "ocamlopt", "-version"]),
        "kernel": platform.release(),
        "duoquest_env": {k: v for k, v in os.environ.items() if k.startswith("DUOQUEST_")},
    }


def next_run_index():
    os.makedirs(RESULTS, exist_ok=True)
    return len(glob.glob(os.path.join(RESULTS, "*.json"))) + 1


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)))
    build()
    order = next_run_index()
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    out = os.path.join(RESULTS, "%04d-%s-s%d-t%d-%s.json" % (
        order, args.workload, args.seed, args.trace, stamp))
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--slo-ms", str(args.slo_ms),
           "--baseline", os.path.join("perfbench", "baseline.json"), "--out", out]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % WORKER_TIMEOUT_S, 1)
    if r.returncode != 0 or not os.path.isfile(out):
        die("worker exited with %d" % r.returncode, 1)
    with open(out) as f:
        report = json.load(f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = report["metrics"]
    metrics, table = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                die("workload did not produce end-to-end metric %s" % m["name"], 1)
            got = {"value": 0, "n": 0, "note": "not exercised by this workload"}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        table.append((m["name"], got["value"], m["unit"], got["n"], got["note"]))

    report["run_record"] = {
        "host": host_fingerprint(),
        "source": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "slo_ms": args.slo_ms,
        "run_order": order,
        "started_utc": stamp,
    }
    with open(out, "w") as f:
        json.dump(report, f, indent=1)

    print("%s seed=%d trace=%d  (%s)" % (args.workload, args.seed, args.trace, out))
    for name, value, unit, n, note in table:
        print("  %-34s %14.6g %-6s n=%-6d %s" % (name, value, unit, n, note))
    for msg in report["failures"][:20]:
        print("  FAILED " + msg)
    failed = int(report["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(report["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))


# --- compare ------------------------------------------------------------

def load_results(directory):
    """workload -> metric -> list of values, in run order (trace 0 only)."""
    runs = []
    for p in glob.glob(os.path.join(directory, "*.json")):
        with open(p) as f:
            d = json.load(f)
        rec = d.get("run_record", {})
        if rec.get("trace") == 0:
            runs.append((rec.get("run_order", 0), rec.get("workload"), d["metrics"]))
    out = {}
    for _, wl, ms in sorted(runs, key=lambda r: r[0]):
        for name, m in ms.items():
            out.setdefault(wl, {}).setdefault(name, []).append(m["value"])
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """choosing-metrics §6.5 and §8 on two lists of per-run values."""
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    lower = better == "lower"
    spread = max((qa3 - qa1) / ma if ma else 0.0, (qb3 - qb1) / mb if mb else 0.0)
    worse_by = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
    b_wins_all = (max(b) < min(a)) if lower else (min(b) > max(a))
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    if spread > bound and not b_wins_all:
        return "unresolved", spread
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > (qa3 - qa1):
        return "better", spread
    if worse_by > bound:
        return "worse", spread
    return "no worse", spread


def compare(args):
    spec = load_spec()
    a, b = load_results(args.a), load_results(args.b)
    print("%-13s %-18s %-10s %-34s %-34s %-22s %s" % (
        "workload", "metric", "verdict", "A median [q1, q3] (n)", "B median [q1, q3] (n)",
        "B/A (base A)", "spread/bound"))
    for wl in sorted(set(a) | set(b)):
        for m in spec["end_to_end"]:
            va, vb = a.get(wl, {}).get(m["name"]), b.get(wl, {}).get(m["name"])
            if not va or not vb:
                print("%-13s %-18s %-10s" % (wl, m["name"], "missing"))
                continue
            v, spread = verdict(va, vb, m["better"], m["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print("%-13s %-18s %-10s %-34s %-34s %-22s %.3f/%.2f" % (
                wl, m["name"], v,
                "%.4g [%.4g, %.4g] (%d)" % (qa[1], qa[0], qa[2], len(va)),
                "%.4g [%.4g, %.4g] (%d)" % (qb[1], qb[0], qb[2], len(vb)),
                "%.3fx of %.4g %s" % (ratio, qa[1], m["unit"]), spread, m["bound"]))


def run_all(args):
    spec = load_spec()
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", str(args.seed),
                                     "--seconds", str(args.seconds), "--trace", str(trace)]
            r = subprocess.run(cmd)
            if r.returncode != 0:
                die("%s --trace %d failed" % (w["name"], trace), 1)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "all":
        spec = load_spec()
        p = argparse.ArgumentParser(prog="run.py all")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=int, default=spec["run_seconds"])
        run_all(p.parse_args(sys.argv[2:]))
        return
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--slo-ms", type=float, default=2000.0)
    run(p.parse_args())


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""HalfGNN two-clock benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --list

Run from the repository root. The first run configures and builds the
perfbench binary (the repo's libraries from src/, plus link-time wrappers
around each layer's entry points) under .bench_build/perfbench. Every run
prints a table of all metrics with units and sample counts, a `meta` line
with the run's facts, and, as its last line, the result object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

--selfcheck runs every workload for a few steps, traced and untraced, and
fails if a named metric is missing, lacks its unit or is not finite, if an
output check fails, or if the traced layers plus nn.other_ms do not add up to
the step wall time. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# Layer self times that, with nn.other_ms, make up a traced step.
LAYER_SELF = ["tensor.self_ms", "nn.dispatch.self_ms", "kernels.self_ms",
              "simt.pool_ms", "ckpt.write_ms"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures (once) and builds the perfbench binary; logs to BUILD."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at %s: run from a full checkout of the repo" %
                 (need, ROOT))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT)
            if r.returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (log_path, tail))


def source_digest():
    """sha256 over the program and benchmark sources, to tell builds apart
    where there is no git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_binary(workload, seed, seconds, trace, quick=False):
    """Runs one workload; returns (result dict, loadavg start, loadavg end)."""
    # The binary sets the workload's HALFGNN_THREADS itself.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HALFGNN_") or k == "HALFGNN_SIMD"}
    work = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", work]
    if trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (workload, seed))]
    if quick:
        cmd.append("--quick")
    load0 = os.getloadavg()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                           text=True, timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in %d s" % (workload, seconds + 120))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load1 = os.getloadavg()
    if r.returncode != 0:
        fail("%s exited with %d" % (workload, r.returncode))
    lines = r.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), load0, load1
    except (IndexError, ValueError):
        fail("%s printed no result" % workload)


def meta(res, seed, load0, load1):
    return {
        "commit": commit(),
        "source_digest": source_digest(),
        "build_type": res["build_type"],
        "f16c_build": res["f16c_build"],
        "avx2_build": res["avx2_build"],
        "simd": res["simd"],
        "nproc": os.cpu_count(),
        "HALFGNN_THREADS": res["threads"],
        "seed": seed,
        "loadavg_start": [round(x, 2) for x in load0],
        "loadavg_end": [round(x, 2) for x in load1],
        "loss_hash": res["loss_hash"],
    }


def check_set(res, seed, digest):
    """Cross-run checks within one build of one source tree: every run of a
    workload must report bit-identical modeled values, and every run of a
    (workload, seed) the same loss trajectory hash. Returns failure lines."""
    path = os.path.join(BUILD, "sets", "%s-%s.json" % (res["workload"],
                                                        digest))
    modeled = {k: m["value"] for k, m in res["metrics"].items()
               if k == "modeled_step_ms" or k.startswith("modeled.")}
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {"modeled": modeled, "loss_hash": {}}
    problems = []
    if known["modeled"] != modeled:
        diff = sorted(k for k in set(modeled) | set(known["modeled"])
                      if modeled.get(k) != known["modeled"].get(k))
        problems.append("modeled values differ from earlier runs of this "
                        "build: " + ", ".join(diff))
    if res.get("loss_hash"):
        seen = known["loss_hash"].setdefault(str(seed), res["loss_hash"])
        if seen != res["loss_hash"]:
            problems.append("loss trajectory hash %s, earlier runs of seed "
                            "%d had %s" % (res["loss_hash"], seed, seen))
    if not problems:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(known, f, sort_keys=True)
    return problems


def finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def print_table(res):
    print("perfbench %s seed=%s trace=%s threads=%s simd=%s" % (
        res["workload"], res["seed"], res["trace"], res["threads"],
        res["simd"]))
    print("  %-34s %18s  %-8s %s" % ("metric", "value", "unit", "samples"))
    for name, m in res["metrics"].items():
        v = m["value"]
        print("  %-34s %18s  %-8s %d" % (
            name, "%.6g" % v if finite(v) else "nan", m["unit"],
            m["samples"]))
    for f in res["failures"]:
        print("  FAILED: " + f)


def result_metrics(res, names):
    out = {}
    for entry in names:
        m = res["metrics"].get(entry["name"])
        if m is not None and finite(m["value"]):
            out[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def selfcheck():
    spec = load_spec()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            res, _, _ = run_binary(workload, 1, 1, trace, quick=True)
            tag = "%s trace=%d: " % (workload, trace)
            names = spec["end_to_end"] if trace == 0 else spec["per_layer"]
            for entry in names:
                m = res["metrics"].get(entry["name"])
                if m is None:
                    problems.append(tag + entry["name"] + " missing")
                elif m.get("unit") != entry["unit"]:
                    problems.append(tag + "%s has unit %r, expected %r" % (
                        entry["name"], m.get("unit"), entry["unit"]))
                elif not finite(m["value"]):
                    problems.append(tag + entry["name"] + " is not finite")
            if res["failed"] != 0:
                problems += [tag + f for f in res["failures"]]
            if trace:
                mt = res["metrics"]
                step = mt["trace.step_ms"]["value"]
                total = sum(mt[n]["value"] for n in LAYER_SELF) + \
                    mt["nn.other_ms"]["value"]
                acc = res["accounting"]
                if abs(total - step) > 1e-6 * max(1.0, step):
                    problems.append(tag + "layers + nn.other_ms = %.6f ms, "
                                    "step wall = %.6f ms" % (total, step))
                if acc["min_other_ms"] is None or acc["min_other_ms"] < 0:
                    problems.append(tag + "a step's layer self times exceed "
                                    "its wall time")
                if acc["max_self_gap_ms"] > 1e-6 or acc["spans_outside"]:
                    problems.append(tag + "spans do not nest inside steps")
            print("selfcheck %-16s trace=%d  %d metrics  %d steps  %s" % (
                workload, trace, len(res["metrics"]), res["attempted"],
                "ok" if not any(p.startswith(tag) for p in problems)
                else "FAIL"))
    for p in problems:
        print("  " + p)
    print("selfcheck: %s" % ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--list", action="store_true")
    a = ap.parse_args()

    spec = load_spec()
    if a.list:
        for w in spec["workloads"]:
            print("%-16s %s" % (w["name"], w["why"]))
        return 0
    build()
    if a.selfcheck:
        return selfcheck()
    if a.workload is None:
        ap.error("--workload is required")
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]

    res, load0, load1 = run_binary(a.workload, a.seed, seconds, a.trace)
    info = meta(res, a.seed, load0, load1)
    # A set-level mismatch taints every step of this run.
    for p in check_set(res, a.seed, info["source_digest"]):
        res["failures"].append(p)
        res["failed"] = res["attempted"]
    print_table(res)
    print("meta " + json.dumps(info, sort_keys=True))
    names = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    metrics = result_metrics(res, names)
    correct = res["failed"] == 0 and len(metrics) == len(names)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

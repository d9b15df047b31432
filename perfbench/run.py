#!/usr/bin/env python3
"""The repository benchmark: four counter workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload tree-closed --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --quick        # every workload at a tiny size

The first call configures and builds perfbench/CMakeLists.txt (the
repository's src/ libraries, dcnt_node and perfbench_driver) into
$CARGO_TARGET_DIR, default .bench_build. Each repetition of a workload runs
in its own perfbench_driver process, so a failed correctness check aborts only that
repetition, which is then counted as failed.

--trace 0 prints the end-to-end metrics of REPS repetitions, each
measuring seconds/REPS. --trace 1 prints the per-layer metrics: the
TracedCounter spans of TRACE_REPS traced repetitions, the layer
micro-timings, and trace.overhead_frac against as many untraced ones.

On a shared virtual host, a repetition that loses a fifth of its vCPU
time to other tenants (/proc/stat steal) runs up to 3x slower and its
tail grows tenfold. So each end-to-end metric is the median over the
quiet repetitions, those with less than QUIET_STEAL of steal per second
(the KEEP quietest if none is quiet), and while fewer than KEEP
repetitions were quiet, more run, until the run has taken
EXTEND_UNTIL_S. Steal is a number the program cannot move, so selecting
by it keeps host stalls out of the medians without looking at the
results. Every repetition, with its steal, is kept in the report.
The last stdout line is the result; the line before it and
.bench_out/<workload>-s<seed>-t<trace>.json hold the provenance and every
repetition's raw numbers.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["tree-closed", "central-tcp", "keys-lru", "central-open"]
REPS = 16
KEEP = 4
# Host steal, in CPU-seconds per wall second over all vCPUs, under which a
# repetition counts as quiet.
QUIET_STEAL = 0.05
EXTEND_UNTIL_S = 60.0
TRACE_REPS = 4
# Every run must end within 180 s; repetitions left when this is spent
# are recorded as failed.
RUN_BUDGET_S = 165.0

# Per-layer metrics that have no meaning on a workload, with the reason.
TREE_ONLY_TAGS = ["inc", "takeover", "child_info", "new_id"]
WIRE_COUNTS = {
    name: "wire counts need the socket cluster: see --workload central-tcp"
    for name in ["net.wire_*", "net.writes_per_inc", "net.bytes_per_write",
                 "net.quiesce_rounds", "net.retransmissions"]
}
NO_FABRIC = {"service.*": "no key fabric on this workload"}
NOT_APPLICABLE = {
    "tree-closed": {
        "core.msgs_per_inc.req": "the central counter's tag; the tree sends none",
    } | NO_FABRIC | WIRE_COUNTS,
    "central-tcp": {
        "core.*": "the protocol runs inside the dcnt_node processes",
        "runtime.*": "the nodes drive their shard inline; nothing in-process to time",
        "harness.complete_ns": "completions arrive at the cluster controller, not through Context::complete",
    } | NO_FABRIC,
    "keys-lru": {
        "core.msgs_per_inc." + t: "tree tag; the per-key counter is central" for t in TREE_ONLY_TAGS
    } | {
        "concurrent.lin_check_ns_per_inc": "keyed runs check each key's permutation, not a global history",
    } | WIRE_COUNTS,
    "central-open": {
        "core.msgs_per_inc." + t: "tree tag; this counter is central" for t in TREE_ONLY_TAGS
    } | NO_FABRIC | WIRE_COUNTS,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds perfbench_driver and dcnt_node; returns
    their paths, or None on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: the repository sources (src/) are missing")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_driver", "dcnt_node"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return None
        if rc != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return out / "perfbench_driver", out / "dcnt" / "dcnt_node"


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def group_alive(pgid):
    """Whether any process of the group still runs (zombies excluded)."""
    for p in Path("/proc").iterdir():
        if not p.name.isdigit():
            continue
        try:
            stat = (p / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 2 and fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def run_child(cmd, timeout_s):
    """Runs one perfbench_driver process in its own process group (the cluster
    workload's nodes join it). Returns (returncode, parsed JSON or None,
    stderr tail, host steal seconds, wall seconds). A timeout kills the whole group and
    waits until every member has exited."""
    s0 = steal_ticks()
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nperfbench: killed after {timeout_s:.0f} s"
    deadline = time.monotonic() + 10.0
    while group_alive(proc.pid) and time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            break
        time.sleep(0.05)
    steal_s = (steal_ticks() - s0) / os.sysconf("SC_CLK_TCK")
    wall_s = time.monotonic() - t0
    result = None
    if proc.returncode == 0:
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, err.strip()[-600:], steal_s, wall_s


class Runner:
    def __init__(self, driver, node, workload, seed, rep_seconds, quick, deadline):
        self.driver, self.node = driver, node
        self.workload, self.seed = workload, seed
        self.rep_seconds, self.quick, self.deadline = rep_seconds, quick, deadline

    def rep(self, index, traced, trace_out=None):
        """One repetition. Its inputs come from the workload seed and the
        repetition index alone."""
        cmd = [str(self.driver), "run", "--workload", self.workload,
               "--seed", str(self.seed * 1000 + index),
               "--seconds", f"{self.rep_seconds:.6f}", "--node-bin", str(self.node)]
        if traced:
            cmd.append("--traced")
        if trace_out:
            cmd += ["--trace-out", str(trace_out)]
        if self.quick:
            cmd.append("--quick")
        left = self.deadline - time.monotonic()
        if left < self.rep_seconds + 2:
            return {"index": index, "traced": traced, "ok": False,
                    "error": "run budget spent before this repetition"}
        rc, res, err, steal, wall = run_child(cmd, min(left, self.rep_seconds * 3 + 60))
        rep = {"index": index, "traced": traced, "steal_s": steal, "wall_s": wall,
               "returncode": rc}
        if rc != 0 or res is None:
            rep.update(ok=False, error=err or f"exit code {rc}")
            log(f"perfbench: {self.workload} repetition {index} failed: {rep['error']}")
        else:
            rep.update(ok=True, result=res)
        return rep

    def layers(self, run_ops):
        cmd = [str(self.driver), "layers", "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", f"{self.rep_seconds:.6f}",
               "--run-ops", str(int(run_ops))]
        if self.quick:
            cmd.append("--quick")
        left = self.deadline - time.monotonic()
        rc, res, err, _, _ = run_child(cmd, min(max(left, 1.0), 90.0))
        if rc != 0 or res is None:
            log(f"perfbench: {self.workload} layer timings failed: {err}")
            return None
        return res


def summarize(reps):
    """Failure accounting and validity over a set of repetitions."""
    good = [r for r in reps if r["ok"]]
    valid = [r for r in good if not r["result"].get("cap_hit")]
    typical = statistics.median([r["result"]["attempted"] for r in good]) if good else 1
    attempted = failed = 0
    for r in reps:
        if r["ok"]:
            attempted += int(r["result"]["attempted"])
            failed += int(r["result"]["failed"])
        else:
            # An aborted repetition reports nothing: charge it as many
            # incs as a typical repetition of this run, all failed.
            n = max(int(typical), 1)
            attempted += n
            failed += n
    problems = []
    if len(good) < len(reps):
        problems.append(f"{len(reps) - len(good)} repetition(s) aborted")
    if len(valid) < len(good):
        problems.append(f"{len(good) - len(valid)} repetition(s) hit the op cap "
                        "(invalid: the cap, not the duration, ended them)")
    for r in good:
        res = r["result"]
        if res.get("lin_required") == 1 and res.get("lin_checked") != 1:
            problems.append(f"repetition {r['index']} skipped the linearizability check")
        if res.get("hdr_recorder") != 1:
            problems.append(f"repetition {r['index']} did not record in HDR mode")
        if not res.get("inc_per_s", 0) > 0:
            problems.append(f"repetition {r['index']} completed no incs")
    if failed:
        problems.append(f"{failed} of {attempted} incs failed")
    return valid, max(attempted, 1), failed, problems


def med(values):
    return statistics.median(values) if values else 0.0


def steal_rate(rep):
    return rep["steal_s"] / max(rep["wall_s"], 1e-9)


def quietest(reps, keep):
    """The `keep` repetitions with the least host steal per second."""
    return sorted(reps, key=steal_rate)[:keep]


def quiet(reps):
    """Every repetition under QUIET_STEAL; the KEEP quietest if none is."""
    return [r for r in reps if steal_rate(r) <= QUIET_STEAL] or quietest(reps, KEEP)


def end_to_end(valid, attempted, failed):
    keys = ["inc_per_s", "p50_us", "p99_us", "slo_attain", "msgs_per_inc",
            "bottleneck_msgs_per_inc", "setup_s"]
    used = quiet(valid)
    out = {k: med([r["result"][k] for r in used]) for k in keys}
    out["verified_frac"] = (attempted - failed) / attempted
    return out


def per_layer(names, workload, traced, untraced, layer_fields):
    keep = (TRACE_REPS + 1) // 2
    traced, untraced = quietest(traced, keep), quietest(untraced, keep)
    values = {}
    for name in names:
        samples = [r["result"][name] for r in traced if name in r["result"]]
        if samples:
            values[name] = med(samples)
    values.update({k: v for k, v in (layer_fields or {}).items() if k != "workload"})
    base = med([r["result"]["inc_per_s"] for r in untraced])
    with_trace = med([r["result"]["inc_per_s"] for r in traced])
    values["trace.overhead_frac"] = 1.0 - with_trace / base if base > 0 else 0.0
    skipped = {}
    for name in names:
        if name in values:
            continue
        reason = next((why for pattern, why in NOT_APPLICABLE.get(workload, {}).items()
                       if name == pattern or (pattern.endswith("*") and
                                              name.startswith(pattern[:-1]))), None)
        skipped[name] = reason or "not measured"
        values[name] = 0.0
    return values, skipped


def source_digest():
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(reps):
    commit = "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    built = next((r["result"] for r in reps if r["ok"]), {})
    build_type = built.get("build_type", "unknown")
    flags = built.get("cxx_flags", "")
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "compiler": built.get("compiler", "unknown"),
        "build_type": build_type,
        "cxx_flags": flags,
        "optimized_build": build_type in ("Release", "RelWithDebInfo")
        and "-fsanitize" not in flags,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "placement": "none: runtime workers and node processes are not pinned",
        "steal_s_per_rep": [round(r.get("steal_s", 0.0), 3) for r in reps],
        "wall_s_per_rep": [round(r.get("wall_s", 0.0), 3) for r in reps],
    }


def metric_block(names_units, values):
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


def measure(spec, driver, node, workload, seed, seconds, trace, quick=False):
    """Runs one workload; returns (result line dict, report dict)."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    n_reps = 1 if quick else (TRACE_REPS if trace else REPS)
    rep_seconds = seconds / (2 * n_reps if trace else n_reps)
    runner = Runner(driver, node, workload, seed, rep_seconds, quick, deadline)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    reps = []
    if not trace:
        reps = [runner.rep(i, traced=False) for i in range(n_reps)]
        # Wait out a burst of host steal with more repetitions, within
        # EXTEND_UNTIL_S of wall time for the whole run.
        while not quick and sum(1 for r in reps if r["ok"] and steal_rate(r) <= QUIET_STEAL) < KEEP:
            last_wall = reps[-1].get("wall_s", rep_seconds)
            if time.monotonic() + last_wall > start + EXTEND_UNTIL_S:
                break
            reps.append(runner.rep(len(reps), traced=False))
        valid, attempted, failed, problems = summarize(reps)
        metrics = metric_block([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                               end_to_end(valid, attempted, failed))
        extra = {}
    else:
        # Alternate untraced and traced repetitions so host drift hits both.
        for i in range(n_reps):
            reps.append(runner.rep(i, traced=False))
            trace_file = out_dir / f"trace-{workload}-s{seed}.json" if i == 0 else None
            reps.append(runner.rep(i, traced=True, trace_out=trace_file))
        valid, attempted, failed, problems = summarize(reps)
        untraced = [r for r in valid if not r["traced"]]
        traced = [r for r in valid if r["traced"]]
        run_ops = med([r["result"]["attempted"] for r in untraced]) or 1
        layer_fields = runner.layers(run_ops)
        if layer_fields is None:
            problems.append("layer micro-timings failed")
        names = [m["name"] for m in spec["per_layer"]]
        values, skipped = per_layer(names, workload, traced, untraced, layer_fields)
        metrics = metric_block([(m["name"], m["unit"]) for m in spec["per_layer"]], values)
        extra = {"not_applicable": skipped}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "repetition_seconds": rep_seconds, "problems": problems,
              "provenance": provenance(reps), **extra, "repetitions": reps,
              "result": result}
    with open(out_dir / f"{workload}-s{seed}-t{int(trace)}.json", "w") as f:
        json.dump(report, f, indent=1)
    return result, report


def quick_check(spec, driver, node):
    """Every workload at a tiny size, untraced and traced. Prints each
    metric with its unit; returns the number of failures."""
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            result, report = measure(spec, driver, node, workload, 1, 0.4, trace, quick=True)
            status = "ok" if result["correct"] else "FAILED: " + "; ".join(report["problems"])
            print(f"{workload} trace={int(trace)}: {status}")
            for name, m in result["metrics"].items():
                note = report.get("not_applicable", {}).get(name)
                print(f"  {name:36s} {m['value']:14.6g} {m['unit']}"
                      + (f"  (n/a: {note})" if note else ""))
            failures += 0 if result["correct"] else 1
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="run every workload at a tiny size; exit non-zero on any failure")
    args = ap.parse_args()
    if not args.quick and args.workload is None:
        ap.error("--workload is required unless --quick is given")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    try:
        spec = load_spec()
    except (OSError, json.JSONDecodeError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 2
    binaries = build()
    if binaries is None:
        return 1
    driver, node = binaries
    if args.quick:
        return 1 if quick_check(spec, driver, node) else 0
    result, report = measure(spec, driver, node, args.workload, args.seed,
                             args.seconds, bool(args.trace))
    print(json.dumps({"provenance": report["provenance"], "problems": report["problems"],
                      "not_applicable": report.get("not_applicable", {})}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

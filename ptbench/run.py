#!/usr/bin/env python3
"""PhaseTree benchmark: one command per workload run.

    python3 ptbench/run.py --workload drop|bubble|adapt|farm --seed N \
        --seconds S --trace 0|1

Run from the repository root. It builds ptbench/driver.cpp against src/ into
.bench_build/ptbench (CMake, release flags), runs one workload, checks the
outputs, and prints the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The line before the result, "ptbench-record {...}", carries
the host (cores, SIMD tier, CPU model and MHz), build type, thread counts,
the seed and the order it gives the input variants, the percentile and
sample count behind step_s.tail, per-span self times, and any failed check.

A run is correct when every check the driver makes passes (repeated
campaigns and the traced run end bitwise equal; in traced runs, thread
counts agree per the library's determinism contract and checkpoints
round-trip) and the final fingerprints of every input variant match
reference.json: fingerprint sums to RTOL of their L1 norm, L1 and L2 norms
to RTOL relative, element counts exactly, and phase-mass drift no worse
than twice the reference plus 1e-9. `--update-reference` records the
current outputs as the workload's reference before checking them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ptbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("drop", "bubble", "adapt", "farm")
RTOL = 1e-6  # solver tolerances are 1e-6 (CH linear) to 1e-10 (VU)
DEADLINE_S = 170.0


def fail(msg):
    print("ptbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PhaseTree sources under %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ptbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "ptbench")


def check_reference(rec, entry):
    """Problems found comparing a record with its reference entry."""
    if entry is None:
        return ["no reference for this workload"]
    problems = []
    for name, want in entry["fingerprints"].items():
        got = rec["fingerprints"].get(name)
        if got is None:
            problems.append("%s: missing fingerprint" % name)
            continue
        if abs(got["sum"] - want["sum"]) > RTOL * max(want["l1"], 1e-300):
            problems.append("%s: sum %.17g, reference %.17g"
                            % (name, got["sum"], want["sum"]))
        for k in ("l1", "l2sq"):
            if abs(got[k] - want[k]) > RTOL * max(abs(want[k]), 1e-300):
                problems.append("%s: %s %.17g, reference %.17g"
                                % (name, k, got[k], want[k]))
    for v, want in entry.get("final_elems", {}).items():
        got = rec["info"].get(v + ".final_elems")
        if got != want:
            problems.append("%s: final element count %s, reference %s"
                            % (v, got, want))
    for v, want in entry.get("mass_drift", {}).items():
        got = rec["info"].get(v + ".mass_drift", float("inf"))
        if got > 2 * want + 1e-9:
            problems.append("%s: phase-mass drift %.3g, reference %.3g"
                            % (v, got, want))
    return problems


def reference_entry(rec):
    entry = {"fingerprints": rec["fingerprints"]}
    for field in ("final_elems", "mass_drift"):
        per = {k.split(".")[0]: v for k, v in rec["info"].items()
               if k.endswith("." + field)}
        if per:
            entry[field] = per
    return entry


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true")
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = build()
    start = time.monotonic()  # the first run's build has its own allowance
    tag = "%s_%d_%d_%d" % (a.workload, a.seed, a.trace, os.getpid())
    out = os.path.join(BUILD, "record_%s.json" % tag)
    work = os.path.join(BUILD, "work_%s" % tag)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--out", out, "--workdir", work]
    try:
        run = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=max(1.0, DEADLINE_S -
                                         (time.monotonic() - start)))
        if run.returncode:
            fail("driver exited with %d" % run.returncode)
        with open(out) as f:
            rec = json.load(f)
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(out):
            os.remove(out)

    if a.update_reference:
        ref = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as f:
                ref = json.load(f)
        ref[a.workload] = reference_entry(rec)
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        print("ptbench: reference updated for " + a.workload,
              file=sys.stderr)

    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            ref = json.load(f)
    problems = ["%s: %s" % (c["name"], c["detail"])
                for c in rec["checks"] if not c["ok"]]
    problems += check_reference(rec, ref.get(a.workload))

    if a.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, notes = stats.per_layer(rec, a.workload, units)
    else:
        metrics, notes = stats.end_to_end(rec)
        names = {m["name"] for m in spec["end_to_end"]}
        if names != set(metrics):
            fail("end-to-end metrics differ from BENCHMARK.json")
    info = rec["info"]
    detail = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "variant_order": rec["sinfo"]["variant_order"],
        # cpu_mhz is 0 when CPUID has no frequency leaf (0x16).
        "host": {"cores": int(info["cores"]), "cpu": rec["sinfo"]["cpu"],
                 "cpu_mhz": info["cpu_mhz"] or None,
                 "simd": rec["sinfo"]["simd"],
                 "build_type": rec["sinfo"]["build_type"],
                 "threads": int(info["threads"]),
                 "thread_check_threads": info.get("thread_check_threads")},
        "notes": notes,
        "self_s": {k: v[1] for k, v in
                   sorted(stats.self_times(rec["spans"]).items())},
        "problems": problems,
    }
    print("ptbench-record " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Validate and summarize PhaseTree telemetry files (DESIGN.md section 12).

Auto-detects the format of each input file:

  * Chrome trace-event JSON written by pt::obs::Tracer::writeChromeTrace
    (PT_TRACE=...): {"traceEvents": [...]} with "X" complete events and
    "M" thread_name metadata. Summarized as a per-span table (count, total
    ms, threads seen).
  * Per-step JSONL step reports ("pt-step-v1") written by
    pt::obs::StepReporter (PT_STEP_REPORT=...): one JSON object per line.
    Summarized as a per-phase table of summed per-step deltas.
  * Unified bench JSON ("pt-bench-v1") written by pt::obs::BenchReport
    (BENCH_*.json): per-config metric and phase tables.

Validation is strict: any parse error, schema violation, missing required
key, or out-of-range value exits nonzero, which is how the bench run_*.sh
wrappers fail a run that produced malformed telemetry.

A Chrome trace whose per-thread rings overflowed carries
"otherData": {"droppedEvents": N > 0}: the summary prints N and warns that
the trace is truncated; with --no-drops a truncated trace exits nonzero.

Usage: trace_summary.py [--no-drops] FILE [FILE ...]
"""

import json
import sys


class Malformed(Exception):
    pass


class Truncated(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise Malformed(msg)


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# ---- Chrome trace ----------------------------------------------------------

def check_chrome_trace(doc):
    """Validates and summarizes; returns the dropped-event count."""
    _require(isinstance(doc, dict), "trace: top level must be an object")
    _require("traceEvents" in doc, "trace: missing 'traceEvents'")
    events = doc["traceEvents"]
    _require(isinstance(events, list), "trace: 'traceEvents' must be a list")
    other = doc.get("otherData", {})
    _require(isinstance(other, dict), "trace: 'otherData' must be an object")
    dropped = other.get("droppedEvents", 0)
    _require(isinstance(dropped, int) and not isinstance(dropped, bool)
             and dropped >= 0,
             "trace: otherData.droppedEvents must be a non-negative integer")
    spans = {}  # name -> [count, total_us, set(tids)]
    jobs = {}   # job id -> {name -> [count, total_us]}  (args.job tagging)
    tid_names = {}
    for i, ev in enumerate(events):
        _require(isinstance(ev, dict), f"trace: event {i} is not an object")
        _require("ph" in ev, f"trace: event {i} missing 'ph'")
        ph = ev["ph"]
        if ph == "M":
            _require(ev.get("name") == "thread_name",
                     f"trace: metadata event {i} is not thread_name")
            _require(isinstance(ev.get("args", {}).get("name"), str),
                     f"trace: metadata event {i} missing args.name")
            tid_names[ev.get("tid")] = ev["args"]["name"]
        elif ph == "X":
            for key in ("name", "ts", "dur", "tid", "pid"):
                _require(key in ev, f"trace: event {i} missing '{key}'")
            _require(isinstance(ev["name"], str),
                     f"trace: event {i} name must be a string")
            _require(_is_num(ev["ts"]) and ev["ts"] >= 0,
                     f"trace: event {i} ts must be a non-negative number")
            _require(_is_num(ev["dur"]) and ev["dur"] >= 0,
                     f"trace: event {i} dur must be a non-negative number")
            s = spans.setdefault(ev["name"], [0, 0.0, set()])
            s[0] += 1
            s[1] += ev["dur"]
            s[2].add(ev["tid"])
            job = ev.get("args", {}).get("job")
            if job is not None:
                _require(isinstance(job, int) and job >= 0,
                         f"trace: event {i} args.job must be a non-negative "
                         "integer")
                j = jobs.setdefault(job, {}).setdefault(ev["name"], [0, 0.0])
                j[0] += 1
                j[1] += ev["dur"]
        else:
            raise Malformed(f"trace: event {i} has unsupported ph {ph!r}")
    print(f"Chrome trace: {len(events)} events, "
          f"{len(tid_names)} named threads, {len(spans)} distinct spans"
          + (f", {len(jobs)} tagged jobs" if jobs else "")
          + f", {dropped} dropped events")
    if spans:
        print(f"  {'span':<24} {'count':>8} {'total ms':>12} {'threads':>8}")
        for name in sorted(spans, key=lambda n: -spans[n][1]):
            count, us, tids = spans[name]
            print(f"  {name:<24} {count:>8} {us / 1e3:>12.3f} {len(tids):>8}")
    for job in sorted(jobs):
        per = jobs[job]
        print(f"  job {job}: {sum(c for c, _ in per.values())} spans")
        print(f"    {'span':<24} {'count':>8} {'total ms':>12}")
        for name in sorted(per, key=lambda n: -per[n][1]):
            count, us = per[name]
            print(f"    {name:<24} {count:>8} {us / 1e3:>12.3f}")
    return dropped


# ---- pt-step-v1 JSONL ------------------------------------------------------

def check_step_jsonl(lines, path):
    phases = {}  # name -> [sec, calls]
    last_step = None
    n = 0
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise Malformed(f"{path}:{lineno}: invalid JSON: {e}")
        _require(isinstance(obj, dict), f"{path}:{lineno}: not an object")
        _require(obj.get("schema") == "pt-step-v1",
                 f"{path}:{lineno}: schema must be 'pt-step-v1'")
        _require(isinstance(obj.get("step"), int),
                 f"{path}:{lineno}: 'step' must be an integer")
        if last_step is not None:
            _require(obj["step"] > last_step,
                     f"{path}:{lineno}: step numbers must increase")
        last_step = obj["step"]
        _require(isinstance(obj.get("phases"), dict),
                 f"{path}:{lineno}: 'phases' must be an object")
        for name, ph in obj["phases"].items():
            _require(isinstance(ph, dict) and _is_num(ph.get("sec"))
                     and isinstance(ph.get("calls"), int),
                     f"{path}:{lineno}: phase {name!r} needs sec/calls")
            _require(ph["sec"] >= -1e-9 and ph["calls"] >= 0,
                     f"{path}:{lineno}: phase {name!r} has negative delta")
            acc = phases.setdefault(name, [0.0, 0])
            acc[0] += ph["sec"]
            acc[1] += ph["calls"]
        _require(isinstance(obj.get("counters"), dict),
                 f"{path}:{lineno}: 'counters' must be an object")
        for name, v in obj["counters"].items():
            _require(isinstance(v, int),
                     f"{path}:{lineno}: counter {name!r} must be an integer")
        for section in ("gauges", "ranks"):
            if section in obj:
                _require(isinstance(obj[section], dict),
                         f"{path}:{lineno}: '{section}' must be an object")
        if "ranks" in obj:
            for name, rs in obj["ranks"].items():
                for key in ("min", "max", "mean", "imbalance"):
                    _require(_is_num(rs.get(key)),
                             f"{path}:{lineno}: ranks.{name} missing '{key}'")
                _require(rs["min"] <= rs["mean"] + 1e-12 <= rs["max"] + 1e-12,
                         f"{path}:{lineno}: ranks.{name} min/mean/max order")
        n += 1
    _require(n > 0, f"{path}: no step records")
    print(f"Step report: {n} steps (last step {last_step}), "
          f"{len(phases)} phases")
    print(f"  {'phase':<24} {'calls':>8} {'total s':>12}")
    for name in sorted(phases, key=lambda p: -phases[p][0]):
        sec, calls = phases[name]
        print(f"  {name:<24} {calls:>8} {sec:>12.4f}")
    return True


# ---- pt-bench-v1 -----------------------------------------------------------

def check_bench(doc, path):
    _require(doc.get("schema") == "pt-bench-v1",
             f"{path}: schema must be 'pt-bench-v1'")
    _require(isinstance(doc.get("bench"), str),
             f"{path}: 'bench' must be a string")
    _require(isinstance(doc.get("configs"), list) and doc["configs"],
             f"{path}: 'configs' must be a non-empty list")
    if "info" in doc:
        _require(isinstance(doc["info"], dict)
                 and all(isinstance(v, str) for v in doc["info"].values()),
                 f"{path}: 'info' must map strings to strings")
    print(f"Bench report: {doc['bench']} ({len(doc['configs'])} configs)")
    for c in doc["configs"]:
        _require(isinstance(c, dict) and isinstance(c.get("name"), str),
                 f"{path}: every config needs a string 'name'")
        _require(isinstance(c.get("metrics"), dict),
                 f"{path}: config {c.get('name')!r} missing 'metrics'")
        for k, v in c["metrics"].items():
            _require(_is_num(v),
                     f"{path}: metric {c['name']}.{k} must be a number")
        for k, ph in c.get("phases", {}).items():
            _require(isinstance(ph, dict) and _is_num(ph.get("sec"))
                     and isinstance(ph.get("calls"), int),
                     f"{path}: phase {c['name']}.{k} needs sec/calls")
        for k, v in c.get("counters", {}).items():
            _require(isinstance(v, int),
                     f"{path}: counter {c['name']}.{k} must be an integer")
        for k, v in c.get("series", {}).items():
            _require(isinstance(v, list) and all(_is_num(x) for x in v),
                     f"{path}: series {c['name']}.{k} must be numbers")
        print(f"  config {c['name']}")
        for k in sorted(c["metrics"]):
            print(f"    {k:<32} {c['metrics'][k]:>14.6g}")
        if c.get("phases"):
            print(f"    {'phase':<24} {'calls':>8} {'total s':>12}")
            for k in sorted(c["phases"], key=lambda p: -c['phases'][p]['sec']):
                ph = c["phases"][k]
                print(f"    {k:<24} {ph['calls']:>8} {ph['sec']:>12.4f}")
    if "derived" in doc:
        _require(isinstance(doc["derived"], dict)
                 and all(_is_num(v) for v in doc["derived"].values()),
                 f"{path}: 'derived' must map strings to numbers")
        print("  derived")
        for k in sorted(doc["derived"]):
            print(f"    {k:<32} {doc['derived'][k]:>14.6g}")
    return True


# ---- Driver ----------------------------------------------------------------

def check_file(path, no_drops=False):
    with open(path, "r", encoding="utf-8") as f:
        body = f.read()
    _require(body.strip(), f"{path}: empty file")
    stripped = body.lstrip()
    # JSONL step reports have one object per line; whole-file JSON docs
    # (trace, bench) parse as a single value.
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        doc = None
    if doc is not None and isinstance(doc, dict):
        if "traceEvents" in doc:
            dropped = check_chrome_trace(doc)
            if dropped:
                msg = (f"{dropped} events were overwritten in the "
                       "per-thread rings")
                if no_drops:
                    raise Truncated(msg)
                print(f"{path}: WARNING: trace is truncated: {msg}",
                      file=sys.stderr)
            return True
        if doc.get("schema") == "pt-bench-v1":
            return check_bench(doc, path)
        if doc.get("schema") == "pt-step-v1":
            return check_step_jsonl(body.splitlines(), path)
        raise Malformed(f"{path}: unrecognized JSON document "
                        "(no traceEvents / known schema)")
    if stripped.startswith("{"):
        return check_step_jsonl(body.splitlines(), path)
    raise Malformed(f"{path}: not a JSON document or JSONL stream")


def main(argv):
    no_drops = "--no-drops" in argv[1:]
    paths = [a for a in argv[1:] if a != "--no-drops"]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            check_file(path, no_drops)
            print(f"{path}: OK")
        except Malformed as e:
            print(f"{path}: MALFORMED: {e}", file=sys.stderr)
            status = 1
        except Truncated as e:
            print(f"{path}: TRUNCATED: {e}", file=sys.stderr)
            status = 1
        except OSError as e:
            print(f"{path}: {e}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

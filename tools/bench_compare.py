#!/usr/bin/env python3
"""Compare two pt-bench-v1 reports and flag performance regressions.

Usage: bench_compare.py BASELINE.json NEW.json [--threshold FRAC]

Configs are matched by name; within each config every metric ending in
"_sec" is compared higher-is-worse, and every top-level derived entry
starting with "speedup" is compared lower-is-worse. A relative change past
the threshold (default 0.10 = 10%) in the bad direction is a regression;
the exit status is nonzero if any regression is found, or if a config or
compared metric present in the baseline disappeared from the new report
(schema drift hides regressions, so it fails loudly).

A bench that stopped producing a config or derived key on purpose lists it
in the new report's info["retired"], a comma-separated string of config
names and derived keys. Those entries are printed as retired and do not
fail the comparison; any other missing entry still does.

Timing metrics on loaded CI machines are noisy; the threshold is the knob.
Counters are compared exactly and reported (not failed) when they drift —
a changed mesh_rebuilds count is a behavior change to investigate, but
this tool's contract is performance.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "pt-bench-v1":
        raise SystemExit(f"{path}: not a pt-bench-v1 report")
    return doc


def rel_change(old, new):
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / abs(old)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative regression threshold (default 0.10)")
    args = ap.parse_args(argv[1:])

    base = load(args.baseline)
    new = load(args.new)
    if base.get("bench") != new.get("bench"):
        print(f"warning: comparing different benches "
              f"({base.get('bench')} vs {new.get('bench')})", file=sys.stderr)

    regressions = []
    notes = []
    retired = {name.strip()
               for name in new.get("info", {}).get("retired", "").split(",")
               if name.strip()}
    gone = []

    new_cfgs = {c["name"]: c for c in new.get("configs", [])}
    for bc in base.get("configs", []):
        name = bc["name"]
        nc = new_cfgs.get(name)
        if nc is None:
            if name in retired:
                gone.append(f"config {name!r}")
            else:
                regressions.append(f"config {name!r} missing from new report")
            continue
        for key, old_v in bc.get("metrics", {}).items():
            if not key.endswith("_sec"):
                continue
            if key not in nc.get("metrics", {}):
                regressions.append(f"{name}.{key} missing from new report")
                continue
            new_v = nc["metrics"][key]
            change = rel_change(old_v, new_v)
            line = (f"{name}.{key}: {old_v:.6g} -> {new_v:.6g} "
                    f"({change:+.1%})")
            if change > args.threshold:
                regressions.append(line)
            else:
                notes.append(line)
        for key, old_v in bc.get("counters", {}).items():
            new_v = nc.get("counters", {}).get(key)
            if new_v is not None and new_v != old_v:
                notes.append(f"{name}.{key} (counter): {old_v} -> {new_v}")

    for key, old_v in base.get("derived", {}).items():
        if not key.startswith("speedup"):
            continue
        if key not in new.get("derived", {}):
            if key in retired:
                gone.append(f"derived.{key}")
            else:
                regressions.append(f"derived.{key} missing from new report")
            continue
        new_v = new["derived"][key]
        change = rel_change(old_v, new_v)
        line = f"derived.{key}: {old_v:.3f}x -> {new_v:.3f}x ({change:+.1%})"
        if change < -args.threshold:
            regressions.append(line)
        else:
            notes.append(line)

    for line in notes:
        print(f"  ok  {line}")
    for line in gone:
        print(f"  retired  {line}")
    for line in regressions:
        print(f"  REGRESSION  {line}")
    if regressions:
        print(f"\n{len(regressions)} regression(s) past "
              f"{args.threshold:.0%} threshold")
        return 1
    print(f"\nno regressions past {args.threshold:.0%} threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Arithmetic of the PhaseTree benchmark: turns the driver's raw record into
end-to-end and per-layer metrics. Pure functions, tested by test_stats.py."""

import statistics

# Per-step layer values the driver records; reported as means per step, so
# the chns family adds up to the mean step.
STEP_LAYERS = [
    "chns.ch_s", "chns.ch_pc_s", "chns.ns_s", "chns.pp_s", "chns.vu_s",
    "chns.remesh_s", "la.ch_newton_iters", "la.ch_krylov_iters",
    "la.ns_krylov_iters", "la.pp_krylov_iters", "la.vu_krylov_iters",
    "la.gmg_coarse_iters", "sim.msgs_per_step", "sim.bytes_per_step",
    "sim.collectives_per_step", "sim.modeled_s",
]

# Layer probes the driver samples between steps; reported as medians.
PROBE_LAYERS = [
    "la.vcycle_s", "fem.matvec_s", "fem.batched_matvec_s",
    "fem.melems_per_s", "fem.bytes_per_elem", "mesh.build_s",
    "mesh.ghost_exchange_s", "localcahn.identify_s", "amr.remesh_s",
    "intergrid.transfer_s", "intergrid.mass_delta", "farm.busy_frac",
    "farm.cache_hit_ratio", "io.ck_write_s", "io.ck_bytes",
    "io.ck_restore_s", "support.thread_speedup", "support.threads_bitwise",
    "bench.trace_overhead_frac",
]


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). With n samples sorted
    ascending, the value at 0-based index n - 11 has exactly ten samples
    above it, and it is the (n - 10) / n quantile. Fewer than eleven samples
    have no such percentile: ValueError.
    """
    n = len(samples)
    if n < 11:
        raise ValueError("step_s.tail needs at least 11 samples, got %d" % n)
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def elem_steps_per_s(elem_counts, seconds):
    """Sum over timesteps of the global element count each step ran on,
    divided by the stepping wall time."""
    if seconds <= 0:
        raise ValueError("stepping wall time must be positive")
    return float(sum(elem_counts)) / seconds


def fail_frac(failed, attempted):
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return float(failed) / attempted


def self_times(spans):
    """Self time per span name: each span's duration minus the part of its
    interval covered by its direct children (overlaps between children are
    counted once). Returns {name: (total duration, total self time)}."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = {}
    for i, s in enumerate(spans):
        covered, end = 0.0, s["t0"]
        kids = sorted((max(spans[c]["t0"], s["t0"]),
                       min(spans[c]["t1"], s["t1"]))
                      for c in children.get(i, []))
        for a, b in kids:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        dur = s["t1"] - s["t0"]
        tot, own = out.get(s["name"], (0.0, 0.0))
        out[s["name"]] = (tot + dur, own + dur - covered)
    return out


def end_to_end(rec):
    """The end-to-end metrics of a timed (untraced) record."""
    walls = [s["wall"] for s in rec["steps"]]
    tail_value, pct, n = tail(walls)
    campaign_s = sum(rec["campaign_walls"])
    metrics = {
        "setup_s": (statistics.median(rec["setup_s"]), "s"),
        "step_s.p50": (statistics.median(walls), "s"),
        "step_s.tail": (tail_value, "s"),
        "wall_s": (statistics.median(rec["campaign_walls"]), "s"),
        "elem_steps_per_s": (elem_steps_per_s(rec["elem_steps"],
                                              campaign_s), "1/s"),
        "scenarios_per_hour": (3600.0 * rec["scenarios"] / campaign_s, "1/h"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }
    return metrics, {"step_s.tail": {"percentile": pct, "samples": n}}


def per_layer(rec, workload, units):
    """The per-layer metrics of a traced record. Returns (metrics, notes):
    a layer the workload does not exercise reads 0 and is named in notes."""
    steps = rec["traced"]
    values, notes = {}, {}
    for k in STEP_LAYERS:
        values[k] = statistics.fmean(s["layer"].get(k, 0.0) for s in steps)
    for k in PROBE_LAYERS:
        v = rec["layers"].get(k)
        if v:
            values[k] = statistics.median(v)
    jobs = rec["layers"].get("farm.job_s")
    if jobs:
        values["farm.job_s.p50"] = statistics.median(jobs)
    failed = sum(1 for s in steps if s["fail"])
    values["la.unconverged"] = float(failed)
    values["bench.fail_frac"] = fail_frac(rec["failed"], rec["attempted"])
    if "mass_drift" in rec["info"]:
        values["chns.mass_drift"] = rec["info"]["mass_drift"]
    values["chns.energy_rise_steps"] = float(
        sum(s["layer"].get("chns.energy_rise", 0.0) for s in steps))
    st = self_times(rec["spans"]).get("step")
    if st and st[0] > 0:
        values["bench.step_coverage_frac"] = 1.0 - st[1] / st[0]
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = (values[name], unit)
        else:
            metrics[name] = (0.0, unit)
            notes[name] = "not exercised by the %s workload" % workload
    return metrics, notes

// Fig 4a reproduction: MATVEC strong scaling, blocking vs split-phase.
//
// Paper setup: adaptive mesh of ~13M elements / 13.7M DOFs, linear basis,
// 224 -> 28,672 processes on Frontera; 2.87 s -> 0.027 s = 81% parallel
// efficiency at a 128-fold process increase. Footnote 1 notes the ghost
// exchange is overlapped with computation — the property this bench now
// isolates by sweeping both charge schedules.
//
// Here: (a) the per-element MATVEC kernel cost is *measured* on this
// machine; (b) a SimComm run at small rank counts executes the real
// distributed MATVEC twice — blocking and split-phase (SimComm overlap) — and
// asserts the outputs are bitwise identical while the virtual clocks
// diverge only by the hidden exchange time; (c) the paper-scale series is
// projected to 114,688 ranks with the explicit blocking and overlap
// models (bench/scaling_model.hpp), reporting where each series' parallel
// efficiency rolls off. Absolute times differ from Frontera; the *shape*
// (efficiency roll-off, and its shift under overlap) is the reproduction
// target.
//
// Emits BENCH_scaling.json ("pt-bench-v1", obs/report.hpp): one config per
// schedule with per-point series (procs, time, efficiency, boundary
// fraction, exposed comm), validated by tools/trace_summary.py and diffed
// by tools/bench_compare.py via bench/run_scaling_bench.sh.
#include <cstdio>
#include <cstdlib>

#include "obs/report.hpp"
#include "scaling_model.hpp"
#include "support/buildinfo.hpp"
#include "support/csv.hpp"

using namespace pt;

namespace {

/// Deterministic left-to-right fingerprint for bitwise comparison.
Real fingerprint(const Field& f, int nRanks) {
  Real s = 0;
  for (int r = 0; r < nRanks; ++r)
    for (Real v : f[r]) s += v;
  return s;
}

}  // namespace

int main() {
  support::requireReleaseBuild("fig4a_matvec_strong");
  const double perElem = bench::measureMatvecPerElem3d();
  std::printf("calibration: measured 3D MATVEC cost = %.1f ns/element\n\n",
              perElem * 1e9);
  sim::Machine machine = sim::Machine::frontera();
  // Calibrate the simulated compute rate so SimComm's per-element charges
  // reproduce the measured kernel cost.
  machine.computeRate = fem::matvecWorkPerElem<3>(1) / perElem;

  // --- Validation: real distributed MATVEC over simulated ranks -----------
  // The same mesh and field run through both engine schedules; the outputs
  // must agree bitwise (the overlap path reorders nothing observable), and
  // the split-phase clock must come in at or under the blocking clock with
  // the difference accounted by the overlapHidden stat.
  {
    OctList<3> tree = uniformTree<3>(4);  // 4096 elements
    Table t({"ranks", "blocking[s]", "overlap[s]", "hidden[s]", "model[s]"});
    for (int p : {1, 2, 4, 8, 16}) {
      sim::SimComm comm(p, machine);
      auto dist = DistTree<3>::fromGlobal(comm, tree);
      auto mesh = Mesh<3>::build(comm, dist);
      Field x = mesh.makeField(1), y = mesh.makeField(1);
      fem::setByPosition<3>(mesh, x, 1, [](const VecN<3>& q, Real* v) {
        v[0] = q[0] * q[1] + q[2];
      });

      comm.setOverlapEnabled(false);
      comm.resetClocks();
      fem::massMatvec(mesh, x, y);
      const double tBlock = comm.time();
      const Real fpBlock = fingerprint(y, p);

      comm.setOverlapEnabled(true);
      comm.resetClocks();
      const double hidden0 = comm.stats().overlapHidden;
      fem::massMatvec(mesh, x, y);
      const double tOver = comm.time();
      const double hidden = comm.stats().overlapHidden - hidden0;
      const Real fpOver = fingerprint(y, p);

      if (fpBlock != fpOver) {
        std::fprintf(stderr,
                     "FAIL: overlap changed the MATVEC result at p=%d "
                     "(%.17g vs %.17g)\n",
                     p, fpBlock, fpOver);
        return 1;
      }
      if (tOver > tBlock * (1.0 + 1e-12)) {
        std::fprintf(stderr,
                     "FAIL: split-phase clock above blocking at p=%d "
                     "(%.6g s vs %.6g s)\n",
                     p, tOver, tBlock);
        return 1;
      }
      const double modT =
          bench::modelMatvecTime(double(tree.size()), p, machine, perElem);
      t.addRow(p, tBlock, tOver, hidden, modT);
    }
    t.print(std::cout,
            "validation: blocking vs split-phase engine, bitwise-identical "
            "outputs (4096-element 3D mesh)");
  }

  // --- Paper-scale projection (Fig 4a), blocking vs overlap ----------------
  obs::BenchReport rep("fig4a_matvec_strong");
  rep.info["workload"] = "13M-element adaptive 3D mesh, 1-dof MATVEC";
  rep.info["machine"] = "frontera alpha-beta model, measured kernel cost";
  rep.info["outputs_identical"] = "true";
  {
    const double N = 13.0e6;  // 13M elements as in the paper
    const std::vector<double> procs = {224.,   448.,   896.,   1792.,
                                       3584.,  7168.,  14336., 28672.,
                                       57344., 114688.};
    Table t({"procs", "block[s]", "block_eff[%]", "ovl[s]", "ovl_eff[%]",
             "boundary[%]"});
    obs::BenchConfig blockCfg{"blocking", {}, {}, {}, {}};
    obs::BenchConfig ovlCfg{"overlap", {}, {}, {}, {}};
    const bench::MatvecModelPoint p0 =
        bench::modelMatvecPoint(N, procs.front(), machine, perElem);
    double rolloffBlock = 0, rolloffOvl = 0;  // first p with eff < 70%
    for (double p : procs) {
      const bench::MatvecModelPoint mp =
          bench::modelMatvecPoint(N, p, machine, perElem);
      const double scale = p / procs.front();
      const double effB = 100.0 * (p0.blocking / mp.blocking) / scale;
      const double effO = 100.0 * (p0.overlap / mp.overlap) / scale;
      if (rolloffBlock == 0 && effB < 70.0) rolloffBlock = p;
      if (rolloffOvl == 0 && effO < 70.0) rolloffOvl = p;
      for (auto* cfg : {&blockCfg, &ovlCfg}) {
        cfg->series["procs"].push_back(p);
        cfg->series["local_elems"].push_back(mp.local);
        cfg->series["boundary_frac"].push_back(mp.boundaryFrac);
        cfg->series["compute_sec"].push_back(mp.compute);
        cfg->series["comm_alpha_sec"].push_back(mp.commAlpha);
        cfg->series["comm_beta_sec"].push_back(mp.commBeta);
      }
      blockCfg.series["time_sec"].push_back(mp.blocking);
      blockCfg.series["efficiency_pct"].push_back(effB);
      ovlCfg.series["time_sec"].push_back(mp.overlap);
      ovlCfg.series["efficiency_pct"].push_back(effO);
      t.addRow(long(p), mp.blocking, effB, mp.overlap, effO,
               100.0 * mp.boundaryFrac);
    }
    t.print(std::cout,
            "Fig 4a — MATVEC strong scaling to 114,688 ranks, blocking vs "
            "split-phase overlap");

    const bench::MatvecModelPoint p128 =
        bench::modelMatvecPoint(N, 28672, machine, perElem);
    std::printf("\npaper:    224 -> 28672 procs: 2.87 s -> 0.027 s, "
                "81%% efficiency at 128x\n");
    std::printf("blocking: 224 -> 28672 procs: %.3g s -> %.3g s, "
                "%.0f%% efficiency at 128x\n",
                p0.blocking, p128.blocking,
                100.0 * (p0.blocking / p128.blocking) / 128.0);
    std::printf("overlap:  224 -> 28672 procs: %.3g s -> %.3g s, "
                "%.0f%% efficiency at 128x\n",
                p0.overlap, p128.overlap,
                100.0 * (p0.overlap / p128.overlap) / 128.0);
    std::printf("efficiency rolls below 70%% at: blocking %s, overlap %s\n",
                rolloffBlock ? std::to_string(long(rolloffBlock)).c_str()
                             : ">114688",
                rolloffOvl ? std::to_string(long(rolloffOvl)).c_str()
                           : ">114688");

    blockCfg.metrics["t224_sec"] = p0.blocking;
    blockCfg.metrics["t28672_sec"] = p128.blocking;
    ovlCfg.metrics["t224_sec"] = p0.overlap;
    ovlCfg.metrics["t28672_sec"] = p128.overlap;
    rep.configs.push_back(std::move(blockCfg));
    rep.configs.push_back(std::move(ovlCfg));
    rep.derived["speedup_overlap_28672"] = p128.blocking / p128.overlap;
    rep.derived["speedup_overlap_114688"] =
        bench::modelMatvecTimeBlocking(N, 114688, machine, perElem) /
        bench::modelMatvecTimeOverlap(N, 114688, machine, perElem);
    rep.derived["eff128x_blocking_pct"] =
        100.0 * (p0.blocking / p128.blocking) / 128.0;
    rep.derived["eff128x_overlap_pct"] =
        100.0 * (p0.overlap / p128.overlap) / 128.0;
    rep.derived["rolloff70_blocking_procs"] = rolloffBlock;
    rep.derived["rolloff70_overlap_procs"] = rolloffOvl;
  }

  if (!rep.write("BENCH_scaling.json")) {
    std::fprintf(stderr, "FAIL: could not write BENCH_scaling.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_scaling.json\n");
  return 0;
}

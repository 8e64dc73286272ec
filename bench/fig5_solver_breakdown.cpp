// Fig 5 companion (single node): per-solve wall-time breakdown of one CHNS
// time step:
//
//   gmg-serial       matrix-free GMG V-cycles preconditioning the CH
//                    Newton, NS momentum and pressure-Poisson solves,
//                    1 thread.
//   gmg-2t           same, thread pool at 2 threads.
//
// The workload (2D drop, uniform level-6 mesh, 3 time steps) deliberately
// stays below the kVecThreadMin / kSpmvThreadMin thresholds, so both
// configurations run the serial reduction path. They are held to (a)
// bitwise identity between gmg-serial and gmg-2t — the V-cycle is
// thread-count invariant; the bench aborts if any iteration count,
// residual, or field fingerprint differs — and (b) gmg-serial's solution
// fingerprints matching, to solver tolerance, those of the pooled
// block-Jacobi path (kPooledFingerprints, recorded from that path before
// it was removed).
// Same-host reference reports: bench/baselines/<host-id>/BENCH_solver.json.
// The configs and derived keys this bench no longer produces are listed in
// the report's info["retired"], so tools/bench_compare.py reports them as
// retired rather than missing.
//
// A second section measures the blocked BSR SpMV microkernel against the
// generic runtime-block-size loop at bs=4 (the DIM+2 coupled-system size)
// on an FEM-like sparsity, asserting bitwise-equal products.
//
// Emits BENCH_solver.json in the unified "pt-bench-v1" schema
// (obs/report.hpp; validated by tools/trace_summary.py, diffed by
// tools/bench_compare.py). Wrapped by bench/run_solver_bench.sh, which
// builds the release preset first; a debug build aborts in
// requireReleaseBuild before any number is produced.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/fields.hpp"
#include "chns/solver.hpp"
#include "la/seqmat.hpp"
#include "obs/report.hpp"
#include "support/buildinfo.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

using namespace pt;

namespace {

constexpr int kSteps = 3;
constexpr int kLevel = 6;

const char* const kPhaseNames[] = {"vec", "op", "pc", "assemble"};
const char* const kSolveNames[] = {"ch", "ns", "pp", "vu"};

/// Per-step (phi, vel) fingerprints of the pooled block-Jacobi path
/// (1 thread) on this workload, recorded from its last run.
constexpr Real kPooledFingerprints[kSteps][2] = {
    {2578.4051069256516, 8.0845215677629739e-17},
    {2578.4050705950644, -1.3801995889084562e-16},
    {2578.4050557975534, 1.2110856526342469e-17}};

/// Report entries of configs this bench no longer runs: the allocate-per-
/// call and pooled block-Jacobi solver paths, and the figures derived from
/// them. Their last numbers are in the committed baselines.
constexpr const char* kRetired =
    "baseline-serial,pooled-serial,pooled-2t,speedup_pooled_serial,"
    "speedup_pooled_2t,speedup_gmg_serial,speedup_gmg_2t,"
    "ch_ksp_iter_ratio_gmg";

struct StepRecord {
  // Convergence history — must be identical across configurations.
  int chNewton = 0, chLin = 0, ns = 0, pp = 0, vu = 0;
  Real chRes = 0, nsRes = 0, ppRes = 0;
  Real phiSum = 0, velSum = 0;
  // Wall time — the quantity under test.
  double solveSec = 0;                     // ch+ns+pp+vu totals
  std::map<std::string, double> timers;    // per-solve and per-phase deltas
};

struct ConfigResult {
  std::string name;
  std::vector<StepRecord> steps;
  double medianStepSec = 0;
  std::map<std::string, obs::PhaseStat> phases;  ///< cumulative, watched only
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Left-to-right sum of every entry of a field — a deterministic, bitwise
/// comparable fingerprint of the solution state.
Real fingerprint(const Field& f, int nRanks) {
  Real s = 0;
  for (int r = 0; r < nRanks; ++r)
    for (Real v : f[r]) s += v;
  return s;
}

ConfigResult runConfig(const std::string& name, int threads) {
  support::ThreadPool::instance().setThreads(threads);
  sim::SimComm comm(1, sim::Machine::loopback());
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 2;
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(kLevel));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });

  std::vector<std::string> watched;
  for (const char* sv : kSolveNames) {
    watched.push_back(std::string(sv) + "-solve");
    for (const char* ph : kPhaseNames)
      watched.push_back(std::string(sv) + "-" + ph);
  }

  ConfigResult res;
  res.name = name;
  std::map<std::string, double> prev;
  for (const auto& w : watched) prev[w] = 0;
  for (int st = 0; st < kSteps; ++st) {
    s.step();
    StepRecord rec;
    rec.chNewton = s.lastChNewton_.iterations;
    rec.chLin = s.lastChNewton_.totalLinearIterations;
    rec.chRes = s.lastChNewton_.residualNorm;
    rec.ns = s.lastNs_.iterations;
    rec.nsRes = s.lastNs_.relResidual;
    rec.pp = s.lastPp_.iterations;
    rec.ppRes = s.lastPp_.relResidual;
    rec.vu = s.lastVuIterations_;
    rec.phiSum = fingerprint(s.phi(), s.mesh().nRanks());
    rec.velSum = fingerprint(s.velocity(), s.mesh().nRanks());
    for (const auto& w : watched) {
      const double now = s.timers()[w].seconds();
      rec.timers[w] = now - prev[w];
      prev[w] = now;
    }
    for (const char* sv : kSolveNames)
      rec.solveSec += rec.timers[std::string(sv) + "-solve"];
    res.steps.push_back(std::move(rec));
  }
  std::vector<double> stepSecs;
  for (const auto& r : res.steps) stepSecs.push_back(r.solveSec);
  res.medianStepSec = median(stepSecs);
  for (auto& [name2, stat] : s.timers().all())
    if (std::find(watched.begin(), watched.end(), name2) != watched.end())
      res.phases.emplace(name2, stat);
  support::ThreadPool::instance().setThreads(1);
  return res;
}

bool sameHistory(const StepRecord& a, const StepRecord& b) {
  return a.chNewton == b.chNewton && a.chLin == b.chLin && a.ns == b.ns &&
         a.pp == b.pp && a.vu == b.vu && a.chRes == b.chRes &&
         a.nsRes == b.nsRes && a.ppRes == b.ppRes && a.phiSum == b.phiSum &&
         a.velSum == b.velSum;
}

/// FEM-like 5-point block sparsity, identical to the abl4 generator.
void buildBsr(int nb, int bs, la::BsrMatrix& B) {
  const int side = static_cast<int>(std::sqrt(double(nb)));
  Rng rng(17);
  for (int r = 0; r < nb; ++r) {
    const int x = r % side, y = r / side;
    auto link = [&](int c) {
      if (c < 0 || c >= nb) return;
      for (int oi = 0; oi < bs; ++oi)
        for (int oj = 0; oj < bs; ++oj)
          B.setValue(r * bs + oi, c * bs + oj,
                     rng.uniform(-1, 1) + (r == c && oi == oj ? 8.0 : 0));
    };
    link(r);
    if (x > 0) link(r - 1);
    if (x < side - 1) link(r + 1);
    if (y > 0) link(r - side);
    if (y < side - 1) link(r + side);
  }
  B.assemblyEnd();
}

struct BsrResult {
  double genericSec = 0, blockedSec = 0, speedup = 0;
  bool bitwiseEqual = false;
};

BsrResult benchBsr() {
  const int nb = 16384, bs = 4, reps = 50, trials = 9;
  la::BsrMatrix B(nb, nb, bs);
  buildBsr(nb, bs, B);
  std::vector<Real> x(std::size_t(nb) * bs);
  Rng rng(23);
  for (Real& v : x) v = rng.uniform(-1, 1);
  std::vector<Real> yg, yb;
  B.multiplyGeneric(x, yg);
  B.multiply(x, yb);
  BsrResult res;
  res.bitwiseEqual = yg == yb;
  auto time = [&](auto&& fn) {
    std::vector<double> ts;
    for (int t = 0; t < trials; ++t) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < reps; ++i) fn();
      const auto t1 = std::chrono::steady_clock::now();
      ts.push_back(std::chrono::duration<double>(t1 - t0).count() / reps);
    }
    return median(ts);
  };
  res.genericSec = time([&] { B.multiplyGeneric(x, yg); });
  res.blockedSec = time([&] { B.multiply(x, yb); });
  res.speedup = res.genericSec / res.blockedSec;
  return res;
}

void writeJson(const std::vector<ConfigResult>& cfgs, const BsrResult& bsr) {
  obs::BenchReport rep("fig5_solver_breakdown");
  rep.info["build_type"] = support::buildType();
  rep.info["workload"] = "2D drop, uniform level-" + std::to_string(kLevel) +
                         ", " + std::to_string(kSteps) +
                         " steps, dt=1e-3, Cn=0.03";
  rep.info["histories_identical"] = "true";
  rep.info["retired"] = kRetired;
  for (const auto& cfg : cfgs) {
    obs::BenchConfig c;
    c.name = cfg.name;
    c.metrics["median_step_solver_sec"] = cfg.medianStepSec;
    c.phases = cfg.phases;
    long long chNewton = 0, chLin = 0, ns = 0, pp = 0, vu = 0;
    for (const auto& r : cfg.steps) {
      c.series["solver_sec"].push_back(r.solveSec);
      chNewton += r.chNewton;
      chLin += r.chLin;
      ns += r.ns;
      pp += r.pp;
      vu += r.vu;
    }
    c.counters["ch_newton_iters"] = chNewton;
    c.counters["ch_ksp_iters"] = chLin;
    c.counters["ns_ksp_iters"] = ns;
    c.counters["pp_ksp_iters"] = pp;
    c.counters["vu_ksp_iters"] = vu;
    rep.configs.push_back(std::move(c));
  }
  rep.derived["bsr_bs4_generic_sec"] = bsr.genericSec;
  rep.derived["bsr_bs4_blocked_sec"] = bsr.blockedSec;
  rep.derived["bsr_bs4_speedup"] = bsr.speedup;
  if (!rep.write("BENCH_solver.json")) {
    std::perror("BENCH_solver.json");
    std::exit(1);
  }
}

}  // namespace

int main() {
  support::requireReleaseBuild("fig5_solver_breakdown");

  std::vector<ConfigResult> cfgs;
  cfgs.push_back(runConfig("gmg-serial", /*threads=*/1));
  cfgs.push_back(runConfig("gmg-2t", /*threads=*/2));

  // Correctness gate 1: the V-cycle is thread-count invariant, so the two
  // configs must agree bitwise with each other, step by step...
  for (int st = 0; st < kSteps; ++st)
    if (!sameHistory(cfgs[0].steps[st], cfgs[1].steps[st])) {
      std::fprintf(stderr,
                   "FAIL: gmg-2t step %d diverged from gmg-serial "
                   "(V-cycle must be thread-count invariant)\n",
                   st);
      return 1;
    }
  // ...and converge to the same solution as the pooled block-Jacobi path
  // within solver tolerance (different preconditioner => different Krylov
  // path, same fixed point; outer tolerances are 1e-8, give the
  // fingerprints 1e-6).
  for (int st = 0; st < kSteps; ++st) {
    const Real aPhi = kPooledFingerprints[st][0];
    const Real aVel = kPooledFingerprints[st][1];
    const StepRecord& g = cfgs[0].steps[st];
    const Real tolPhi = 1e-6 * std::max<Real>(std::abs(aPhi), 1.0);
    const Real tolVel = 1e-6 * std::max<Real>(std::abs(aVel), 1.0);
    if (std::abs(aPhi - g.phiSum) > tolPhi ||
        std::abs(aVel - g.velSum) > tolVel) {
      std::fprintf(stderr,
                   "FAIL: gmg-serial step %d solution fingerprint off "
                   "the pooled path beyond solver tolerance "
                   "(phi %.17g vs %.17g, vel %.17g vs %.17g)\n",
                   st, aPhi, g.phiSum, aVel, g.velSum);
      return 1;
    }
  }
  std::printf(
      "histories: gmg thread-invariant and on the pooled path's "
      "fingerprints to tolerance (%d steps)\n\n",
      kSteps);

  for (const auto& cfg : cfgs) {
    std::printf("%-16s median step solver time %8.3f s\n", cfg.name.c_str(),
                cfg.medianStepSec);
    const auto& last = cfg.steps.back().timers;
    for (const char* sv : kSolveNames) {
      std::printf("  %s-solve %7.3f s  (", sv,
                  last.at(std::string(sv) + "-solve"));
      for (const char* ph : kPhaseNames)
        std::printf("%s %.3f%s", ph, last.at(std::string(sv) + "-" + ph),
                    std::string(ph) == "assemble" ? "" : ", ");
      std::printf(")\n");
    }
  }

  BsrResult bsr = benchBsr();
  if (!bsr.bitwiseEqual) {
    std::fprintf(stderr, "FAIL: blocked BSR SpMV differs from generic\n");
    return 1;
  }
  std::printf("BSR bs=4 SpMV: generic %.3f ms, blocked %.3f ms -> %.2fx "
              "(target >= 1.3x), products bitwise equal\n",
              bsr.genericSec * 1e3, bsr.blockedSec * 1e3, bsr.speedup);

  writeJson(cfgs, bsr);
  std::printf("\nwrote BENCH_solver.json\n");
  return 0;
}

// Split-phase communication (DESIGN.md §15): exchange clock-credit
// semantics, ghost/accumulate epoch edge cases, bitwise identity of the
// overlap MATVEC engines and async transfer epoch against the blocking
// paths, and solver-history identity with the solver's comm switched back
// to the blocking schedule.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "apps/fields.hpp"
#include "chns/solver.hpp"
#include "fem/matvec.hpp"
#include "fem/matvec_batched.hpp"
#include "intergrid/transfer.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"
#include "support/thread_pool.hpp"

namespace pt {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) { support::ThreadPool::instance().setThreads(n); }
  ~ThreadGuard() { support::ThreadPool::instance().setThreads(1); }
};

/// A balanced adaptive tree refined around a spherical interface — its
/// level jumps guarantee hanging corners.
template <int DIM>
OctList<DIM> interfaceTree(Level coarse, Level fine) {
  OctList<DIM> tree;
  buildTree<DIM>(
      Octant<DIM>::root(),
      [=](const Octant<DIM>& o) {
        auto c = o.centerCoords();
        Real r2 = 0;
        for (int d = 0; d < DIM; ++d) r2 += (c[d] - 0.5) * (c[d] - 0.5);
        const Real dist = std::abs(std::sqrt(r2) - 0.3);
        return dist < 2.0 * o.physSize() ? fine : coarse;
      },
      tree);
  return balanceTree(tree);
}

template <int DIM>
Mesh<DIM> makeMesh(sim::SimComm& comm, Level coarse, Level fine) {
  auto dt = DistTree<DIM>::fromGlobal(comm, interfaceTree<DIM>(coarse, fine));
  return Mesh<DIM>::build(comm, dt);
}

template <int DIM>
Field smoothInput(const Mesh<DIM>& mesh, int ndof) {
  Field x = mesh.makeField(ndof);
  fem::setByPosition<DIM>(mesh, x, ndof,
                          [ndof](const VecN<DIM>& pos, Real* out) {
    Real s = 0;
    for (int d = 0; d < DIM; ++d) s += (d + 1.0) * pos[d];
    for (int d = 0; d < ndof; ++d) out[d] = std::sin(3.0 * s + d) + 0.25 * d;
  });
  return x;
}

/// Helmholtz-type elemental kernel, dof-blocked. Engine contract: `out`
/// arrives zeroed and the kernel accumulates into it; applyMass and
/// applyStiffness likewise add into their output.
template <int DIM>
void helmholtzKernel(const Octant<DIM>& oct, const Real* in, Real* out,
                     int ndof) {
  constexpr int kC = kNumChildren<DIM>;
  Real tin[kC], tm[kC], tk[kC];
  for (int d = 0; d < ndof; ++d) {
    for (int c = 0; c < kC; ++c) {
      tin[c] = in[c * ndof + d];
      tm[c] = 0.0;
      tk[c] = 0.0;
    }
    fem::applyMass<DIM>(oct.physSize(), tin, tm);
    fem::applyStiffness<DIM>(oct.physSize(), tin, tk);
    for (int c = 0; c < kC; ++c)
      out[c * ndof + d] += tm[c] + (1.0 + 0.5 * d) * tk[c];
  }
}

void expectFieldsEq(const Field& a, const Field& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t r = 0; r < a.size(); ++r)
    EXPECT_EQ(a[r], b[r]) << what << " rank " << r;
}

// ---- Split-phase exchange clock semantics -----------------------------------

sim::SparseSends<Real> ringSends(int p, int n) {
  sim::SparseSends<Real> sends(p);
  for (int r = 0; r < p; ++r)
    sends[r].emplace_back((r + 1) % p, std::vector<Real>(n, Real(r)));
  return sends;
}

TEST(SplitPhaseComm, BlockingEqualsStartFinishBackToBack) {
  sim::Machine m;
  m.alpha = 1e-6;
  m.beta = 1e-9;
  m.computeRate = 1e9;
  const auto sends = ringSends(4, 16);

  sim::SimComm c1(4, m);
  c1.sparseExchange(sends);
  const double tBlocking = c1.time();

  sim::SimComm c2(4, m);
  auto h = c2.exchangeStart(sends);
  c2.exchangeFinish(h);
  EXPECT_DOUBLE_EQ(c2.time(), tBlocking);
  EXPECT_FALSE(h.open());
  // Both paths complete collectively exactly once.
  EXPECT_EQ(c1.stats().collectives, c2.stats().collectives);
}

TEST(SplitPhaseComm, ComputeChargedInFlightHidesUnderExchange) {
  sim::Machine m;
  m.alpha = 1e-6;
  m.beta = 1e-9;
  m.computeRate = 1e9;
  const int p = 4;
  const auto sends = ringSends(p, 16);
  // Ring of 16 doubles: alpha*(1 dest + 1 src + 2*log2(4)) + beta*256 B.
  const double cost = m.alpha * 6.0 + m.beta * 256.0;

  sim::SimComm comm(p, m);
  auto h1 = comm.exchangeStart(sends);
  for (int r = 0; r < p; ++r) comm.chargeWork(r, 3000.0);  // 3 us < cost
  comm.exchangeFinish(h1);
  EXPECT_DOUBLE_EQ(comm.time(), cost);  // fully hidden
  EXPECT_DOUBLE_EQ(comm.stats().overlapHidden, 3000.0 / m.computeRate);

  const double t1 = comm.time();
  auto h2 = comm.exchangeStart(sends);
  for (int r = 0; r < p; ++r) comm.chargeWork(r, 10000.0);  // 10 us > cost
  comm.exchangeFinish(h2);
  // Compute dominates: the exchange is free, its full cost was hidden.
  EXPECT_DOUBLE_EQ(comm.time(), t1 + 10000.0 / m.computeRate);
  EXPECT_DOUBLE_EQ(comm.stats().overlapHidden,
                   3000.0 / m.computeRate + cost);
  EXPECT_EQ(comm.stats().splitExchanges, 2);
}

TEST(SplitPhaseComm, PayloadsIdenticalToBlocking) {
  const auto sends = ringSends(3, 8);
  sim::SimComm c1(3, sim::Machine::loopback());
  sim::SimComm c2(3, sim::Machine::loopback());
  auto blocking = c1.sparseExchange(sends);
  auto h = c2.exchangeStart(sends);
  auto split = c2.exchangeFinish(h);
  ASSERT_EQ(blocking.size(), split.size());
  for (std::size_t r = 0; r < blocking.size(); ++r)
    EXPECT_EQ(blocking[r], split[r]);
}

// ---- Ghost-read / accumulate epochs -----------------------------------------

template <int DIM>
void checkGhostEpochs(sim::SimComm& comm, const Mesh<DIM>& mesh, int ndof) {
  // Distinct deterministic per-entry values so interleaving mistakes show.
  Field f0 = smoothInput(mesh, ndof);
  Field f1 = f0;
  mesh.ghostRead(f0, ndof);
  auto hg = mesh.ghostReadStart(f1, ndof);
  mesh.ghostReadFinish(hg, f1, ndof);
  expectFieldsEq(f0, f1, "ghostRead split vs blocking");

  Field a0 = smoothInput(mesh, ndof);
  Field a1 = a0;
  mesh.accumulate(a0, ndof);
  auto ha = mesh.accumulateStart(a1, ndof);
  mesh.accumulateFinish(ha, a1, ndof);
  expectFieldsEq(a0, a1, "accumulate split vs blocking");
  (void)comm;
}

TEST(GhostSplitPhase, SingleRankMeshNoNeighbors) {
  sim::SimComm comm(1, sim::Machine::loopback());
  auto mesh = makeMesh<2>(comm, 2, 4);
  checkGhostEpochs(comm, mesh, 1);
  checkGhostEpochs(comm, mesh, 3);
}

TEST(GhostSplitPhase, MultiRankInterleavedDofs) {
  for (int threads : {1, 4}) {
    ThreadGuard tg(threads);
    sim::SimComm comm(4, sim::Machine::loopback());
    auto mesh = makeMesh<2>(comm, 2, 5);
    checkGhostEpochs(comm, mesh, 1);
    checkGhostEpochs(comm, mesh, 3);
  }
}

TEST(GhostSplitPhase, EmptyRankHasZeroGhosts) {
  // More ranks than elements: the tail ranks own nothing and exchange
  // nothing; the split-phase epoch must pass through them untouched.
  sim::SimComm comm(5, sim::Machine::loopback());
  auto dt = DistTree<2>::fromGlobal(comm, uniformTree<2>(1));  // 4 elements
  auto mesh = Mesh<2>::build(comm, dt);
  bool sawEmpty = false;
  for (int r = 0; r < comm.size(); ++r)
    sawEmpty = sawEmpty || mesh.rank(r).nElems() == 0;
  EXPECT_TRUE(sawEmpty);
  checkGhostEpochs(comm, mesh, 1);
  checkGhostEpochs(comm, mesh, 2);
}

// ---- MATVEC engines: overlap on/off bitwise identity ------------------------

template <int DIM>
void checkIndexedOverlap(int p, int ndof) {
  sim::SimComm comm(p, sim::Machine::loopback());
  auto mesh = makeMesh<DIM>(comm, 2, 5);
  Field x = smoothInput(mesh, ndof);
  auto kernel = [ndof](const Octant<DIM>& oct, const Real* in, Real* out) {
    helmholtzKernel<DIM>(oct, in, out, ndof);
  };

  comm.setOverlapEnabled(false);
  comm.resetClocks();
  const long collBefore = comm.stats().collectives;
  Field y0 = mesh.makeField(ndof);
  fem::matvec<DIM>(mesh, x, y0, ndof, kernel);
  const double tBlocking = comm.time();
  const long collBlocking = comm.stats().collectives - collBefore;

  comm.setOverlapEnabled(true);
  comm.resetClocks();
  const long collMid = comm.stats().collectives;
  Field y1 = mesh.makeField(ndof);
  fem::matvec<DIM>(mesh, x, y1, ndof, kernel);
  const double tOverlap = comm.time();
  const long collOverlap = comm.stats().collectives - collMid;

  expectFieldsEq(y0, y1, "matvecIndexed overlap vs blocking");
  EXPECT_LE(tOverlap, tBlocking * (1.0 + 1e-12));
  // Same number of collective completions either way (split accumulate =
  // finish + ghostRead, blocking = exchange + ghostRead).
  EXPECT_EQ(collOverlap, collBlocking);
  if (p > 1) EXPECT_GT(comm.stats().overlapHidden, 0.0);
}

TEST(MatvecOverlap, IndexedBitwiseAcrossThreads2D) {
  for (int threads : {1, 4}) {
    ThreadGuard tg(threads);
    checkIndexedOverlap<2>(4, 1);
    checkIndexedOverlap<2>(4, 3);
  }
}

TEST(MatvecOverlap, IndexedBitwise3DAndSingleRank) {
  checkIndexedOverlap<3>(3, 1);
  checkIndexedOverlap<2>(1, 2);  // p=1: overlap path must degrade cleanly
}

template <int DIM>
void checkCoefBlocksOverlap(int p, int ndof) {
  sim::SimComm comm(p, sim::Machine::loopback());
  auto mesh = makeMesh<DIM>(comm, 2, 5);
  const int nd2 = ndof * ndof;
  sim::PerRank<std::vector<Real>> cM(comm.size()), cK(comm.size());
  std::mt19937 gen(23);
  std::uniform_real_distribution<Real> dist(0.1, 1.0);
  for (int r = 0; r < comm.size(); ++r) {
    cM[r].resize(mesh.rank(r).nElems() * std::size_t(nd2));
    cK[r].resize(mesh.rank(r).nElems() * std::size_t(nd2));
    for (Real& v : cM[r]) v = dist(gen);
    for (Real& v : cK[r]) v = dist(gen);
  }
  Field x = smoothInput(mesh, ndof);

  comm.setOverlapEnabled(false);
  comm.resetClocks();
  Field y0 = mesh.makeField(ndof);
  fem::matvecCoefBlocks<DIM>(mesh, x, y0, ndof, cM, cK);
  const double tBlocking = comm.time();

  comm.setOverlapEnabled(true);
  comm.resetClocks();
  Field y1 = mesh.makeField(ndof);
  fem::matvecCoefBlocks<DIM>(mesh, x, y1, ndof, cM, cK);
  const double tOverlap = comm.time();

  expectFieldsEq(y0, y1, "matvecCoefBlocks overlap vs blocking");
  EXPECT_LE(tOverlap, tBlocking * (1.0 + 1e-12));
}

TEST(MatvecOverlap, CoefBlocksBitwiseAcrossThreads) {
  for (int threads : {1, 4}) {
    ThreadGuard tg(threads);
    checkCoefBlocksOverlap<2>(4, 1);
    checkCoefBlocksOverlap<2>(4, 2);
    checkCoefBlocksOverlap<3>(3, 1);
  }
}

TEST(MatvecOverlap, BoundaryPlanInvariants) {
  sim::SimComm comm(4, sim::Machine::loopback());
  auto mesh = makeMesh<2>(comm, 2, 5);
  for (int r = 0; r < comm.size(); ++r) {
    const RankMesh<2>& rm = mesh.rank(r);
    ASSERT_EQ(rm.plan.elemBoundary.size(), rm.nElems());
    ASSERT_EQ(rm.plan.nodeShared.size(), rm.nNodes());
    std::size_t nb = 0;
    for (std::size_t e = 0; e < rm.nElems(); ++e) {
      // An element is boundary iff any support node is shared.
      bool shared = false;
      const std::uint32_t lo = rm.cornerOffset[e * kNumChildren<2>];
      const std::uint32_t hi = rm.cornerOffset[e * kNumChildren<2> + 4];
      for (std::uint32_t s = lo; s < hi; ++s)
        shared = shared || rm.plan.nodeShared[rm.supports[s].node] != 0;
      EXPECT_EQ(rm.plan.elemBoundary[e] != 0, shared) << "rank " << r;
      if (rm.plan.elemBoundary[e]) ++nb;
    }
    EXPECT_EQ(nb, rm.plan.nBoundaryElems);
    // A 4-way partition of a connected mesh has both classes on each rank.
    EXPECT_GT(rm.plan.nBoundaryElems, 0u);
    EXPECT_LT(rm.plan.nBoundaryElems, rm.nElems());
  }
}

// ---- Async transfer epoch ---------------------------------------------------

TEST(TransferOverlap, NodalManyMatchesSequential) {
  sim::SimComm c1(3, sim::Machine::loopback());
  sim::SimComm c2(3, sim::Machine::loopback());
  auto oldDt1 = DistTree<2>::fromGlobal(c1, interfaceTree<2>(3, 5));
  auto oldM1 = Mesh<2>::build(c1, oldDt1);
  auto newDt1 = DistTree<2>::fromGlobal(c1, interfaceTree<2>(4, 6));
  auto newM1 = Mesh<2>::build(c1, newDt1);
  auto oldDt2 = DistTree<2>::fromGlobal(c2, interfaceTree<2>(3, 5));
  auto oldM2 = Mesh<2>::build(c2, oldDt2);
  auto newDt2 = DistTree<2>::fromGlobal(c2, interfaceTree<2>(4, 6));
  auto newM2 = Mesh<2>::build(c2, newDt2);

  Field a1 = smoothInput(oldM1, 1), b1 = smoothInput(oldM1, 2);
  Field a2 = smoothInput(oldM2, 1), b2 = smoothInput(oldM2, 2);

  for (bool useTables : {false, true}) {
    intergrid::TransferTables<2> t1, t2;
    if (useTables) {
      t1 = intergrid::gatherTransferTables(oldDt1);
      t2 = intergrid::gatherTransferTables(oldDt2);
    }
    c1.setOverlapEnabled(false);
    const long coll1Before = c1.stats().collectives;
    Field sa = intergrid::transferNodal(oldM1, a1, newM1, 1,
                                        useTables ? &t1 : nullptr);
    Field sb = intergrid::transferNodal(oldM1, b1, newM1, 2,
                                        useTables ? &t1 : nullptr);
    const long coll1 = c1.stats().collectives - coll1Before;

    c2.setOverlapEnabled(true);
    const long coll2Before = c2.stats().collectives;
    auto many = intergrid::transferNodalMany<2>(
        oldM2, {{&a2, 1}, {&b2, 2}}, newM2, useTables ? &t2 : nullptr);
    const long coll2 = c2.stats().collectives - coll2Before;
    ASSERT_EQ(many.size(), 2u);
    expectFieldsEq(sa, many[0], "transferNodalMany field a");
    expectFieldsEq(sb, many[1], "transferNodalMany field b");
    // The async epoch must not change the collective count: 2 exchanges
    // per field (+1 allgather per field without tables).
    EXPECT_EQ(coll2, coll1);
  }
}

// ---- Solver histories: overlap vs blocking schedule ---------------------------

template <int DIM>
chns::ChnsSolver<DIM> makeDropSolver(sim::SimComm& comm) {
  chns::ChnsOptions<DIM> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 1;
  opt.remeshEvery = 1;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 5;
  opt.featureLevel = 5;
  opt.referenceLevel = 5;
  auto tree = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(4));
  chns::ChnsSolver<DIM> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<DIM>& x) {
    return apps::dropPhi<DIM>(x, VecN<DIM>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  return s;
}

TEST(SolverOverlap, HistoriesIdenticalOverlapVsBlocking) {
  sim::SimComm c1(2, sim::Machine::loopback());
  sim::SimComm c2(2, sim::Machine::loopback());
  auto block = makeDropSolver<2>(c1);
  auto over = makeDropSolver<2>(c2);
  // The solver enables overlap on its comm; the blocking schedule stays
  // reachable by clearing the gate afterwards.
  c1.setOverlapEnabled(false);
  EXPECT_FALSE(c1.overlapEnabled());
  EXPECT_TRUE(c2.overlapEnabled());
  for (int step = 0; step < 3; ++step) {
    block.step();
    over.step();
    EXPECT_EQ(block.lastChNewton_.totalLinearIterations,
              over.lastChNewton_.totalLinearIterations);
    EXPECT_EQ(block.lastNs_.iterations, over.lastNs_.iterations);
    EXPECT_EQ(block.lastPp_.iterations, over.lastPp_.iterations);
    EXPECT_EQ(block.lastVuIterations_, over.lastVuIterations_);
    for (int r = 0; r < block.mesh().nRanks(); ++r) {
      EXPECT_EQ(block.tree().localOf(r), over.tree().localOf(r))
          << "step " << step << " rank " << r;
      EXPECT_EQ(block.phi()[r], over.phi()[r]) << "step " << step;
      EXPECT_EQ(block.velocity()[r], over.velocity()[r]) << "step " << step;
      EXPECT_EQ(block.pressure()[r], over.pressure()[r]) << "step " << step;
      EXPECT_EQ(block.elemCn()[r], over.elemCn()[r]) << "step " << step;
    }
  }
  // No-op remesh detection must have behaved the same under both schedules.
  EXPECT_EQ(block.noopRemeshes(), over.noopRemeshes());
  // Only clock charges differ between the schedules, never the traffic.
  EXPECT_EQ(c1.stats().collectives, c2.stats().collectives);
}

#ifdef PT_MATVEC_TIMERS
TEST(SolverOverlap, MatvecPhasesRouteToSolverTelemetry) {
  // The solver installs a MatvecPhaseScope per step, so engine phase laps
  // land in ITS telemetry (job-separable), not the process-global static.
  sim::SimComm comm(2, sim::Machine::loopback());
  auto s = makeDropSolver<2>(comm);
  const long globalBefore = fem::matvecPhases()["kernel"].calls();
  const long ownBefore = s.timers()["kernel"].calls();
  s.step();
  EXPECT_GT(s.timers()["kernel"].calls(), ownBefore);
  EXPECT_EQ(fem::matvecPhases()["kernel"].calls(), globalBefore);
}
#endif

TEST(SolverOverlap, ThreadedOverlapMatchesSerial) {
  sim::SimComm c1(2, sim::Machine::loopback());
  auto serial = makeDropSolver<2>(c1);
  serial.step();
  serial.step();

  sim::SimComm c2(2, sim::Machine::loopback());
  ThreadGuard tg(4);
  auto threaded = makeDropSolver<2>(c2);
  threaded.step();
  threaded.step();

  EXPECT_EQ(serial.lastChNewton_.totalLinearIterations,
            threaded.lastChNewton_.totalLinearIterations);
  for (int r = 0; r < serial.mesh().nRanks(); ++r) {
    EXPECT_EQ(serial.tree().localOf(r), threaded.tree().localOf(r));
    EXPECT_EQ(serial.phi()[r], threaded.phi()[r]);
    EXPECT_EQ(serial.velocity()[r], threaded.velocity()[r]);
  }
}

}  // namespace
}  // namespace pt

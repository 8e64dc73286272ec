// Solver hot path (DESIGN.md §9): threaded vector kernels, pooled KSP
// workspaces, blocked BSR SpMV, factored block-Jacobi. The contracts under
// test are exact-equality contracts:
//   - pointwise vector ops are bit-identical at any thread count;
//   - reductions are deterministic at a fixed thread count;
//   - pooled workspaces reproduce fresh-allocation solves bitwise, steady
//     state allocates nothing, and clear() survives a remesh;
//   - blocked BSR SpMV and factored block-Jacobi match their generic /
//     per-node denseSolve references bitwise;
//   - warm solver resources (pooled workspaces, cached preconditioners and
//     GMG) are bitwise-neutral: a checkpoint restored into an already-stepped
//     solver steps exactly like the same checkpoint restored cold, including
//     across remeshes.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "apps/fields.hpp"
#include "chns/checkpoint.hpp"
#include "chns/solver.hpp"
#include "la/ksp.hpp"
#include "la/pc.hpp"
#include "la/seqmat.hpp"
#include "la/space.hpp"
#include "mesh/mesh.hpp"
#include "octree/balance.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

// Global allocation counter for the zero-steady-state-allocation test.
// Counting is toggled only around the measured call on the main thread.
// new/delete below are a matched malloc/free pair; GCC's pairing heuristic
// can't see that through the replaced globals.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<long> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_countAllocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pt {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) { support::ThreadPool::instance().setThreads(n); }
  ~ThreadGuard() { support::ThreadPool::instance().setThreads(1); }
};

/// Uniform mesh big enough that a single rank crosses kVecThreadMin even at
/// ndof = 1 (level 7 in 2D: 16641 nodes).
template <int DIM>
Mesh<DIM> bigMesh(sim::SimComm& comm, Level level = 7) {
  auto dt = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(level));
  return Mesh<DIM>::build(comm, dt);
}

Field randomField(const Mesh<2>& mesh, int ndof, unsigned seed) {
  Field f = mesh.makeField(ndof);
  Rng rng(seed);
  for (auto& rank : f)
    for (auto& v : rank) v = rng.uniform(-1, 1);
  return f;
}

// ---- Threaded vector kernels ------------------------------------------------

TEST(ThreadedVectorOps, PointwiseBitwiseIdenticalAcrossThreadCounts) {
  sim::SimComm comm(1, sim::Machine::loopback());
  Mesh<2> mesh = bigMesh<2>(comm);
  la::FieldSpace<2> S(mesh, 1);
  const Field a = randomField(mesh, 1, 11);
  const Field b = randomField(mesh, 1, 12);

  auto runAll = [&](int threads) {
    ThreadGuard tg(threads);
    Field y = a, s = S.zeros(), pw = S.zeros(), c = S.zeros();
    S.axpy(y, 0.37, b);
    S.aypx(y, -1.25, a);
    S.scale(y, 3.0);
    S.sub(a, b, s);
    S.pointwiseMult(a, b, pw);
    S.copy(y, c);
    Field z = y;
    S.setZero(z);
    for (std::size_t i = 0; i < z[0].size(); ++i) EXPECT_EQ(z[0][i], 0.0);
    return std::make_pair(std::move(y), std::make_pair(std::move(s),
                                                       std::move(pw)));
  };
  auto r1 = runAll(1);
  auto r4 = runAll(4);
  EXPECT_EQ(r1.first[0], r4.first[0]);
  EXPECT_EQ(r1.second.first[0], r4.second.first[0]);
  EXPECT_EQ(r1.second.second[0], r4.second.second[0]);
}

TEST(ThreadedVectorOps, ReductionsDeterministicAtFixedThreadCount) {
  sim::SimComm comm(1, sim::Machine::loopback());
  Mesh<2> mesh = bigMesh<2>(comm);
  la::FieldSpace<2> S(mesh, 1);
  const Field a = randomField(mesh, 1, 21);
  const Field b = randomField(mesh, 1, 22);

  const Real serial = S.dot(a, b);
  Real t4a, t4b;
  {
    ThreadGuard tg(4);
    t4a = S.dot(a, b);
    t4b = S.dot(a, b);
  }
  // Deterministic: same thread count -> identical bits, every time.
  EXPECT_EQ(t4a, t4b);
  // Partition-ordered combination may legitimately differ from the serial
  // association, but only at rounding level.
  EXPECT_NEAR(t4a, serial, 1e-12 * std::abs(serial) + 1e-14);
  // Ranks below the threshold always take the serial path: bit-identical.
  Mesh<2> small = bigMesh<2>(comm, 4);
  la::FieldSpace<2> Ss(small, 1);
  const Field sa = randomField(small, 1, 23);
  const Real ds = Ss.dot(sa, sa);
  {
    ThreadGuard tg(4);
    EXPECT_EQ(Ss.dot(sa, sa), ds);
  }
}

TEST(ThreadedVectorOps, OwnedSumMatchesDotWithOnes) {
  sim::SimComm comm(2, sim::Machine::loopback());
  Mesh<2> mesh = bigMesh<2>(comm, 5);
  la::FieldSpace<2> S(mesh, 2);
  const Field f = randomField(mesh, 2, 31);
  Field ones = mesh.makeField(2);
  for (auto& rank : ones)
    for (auto& v : rank) v = 1.0;
  EXPECT_EQ(S.ownedSum(f), S.dot(ones, f));
}

TEST(ThreadedVectorOps, AxpyNorm2MatchesTwoPass) {
  sim::SimComm comm(2, sim::Machine::loopback());
  Mesh<2> mesh = bigMesh<2>(comm, 5);
  la::FieldSpace<2> S(mesh, 2);
  const Field x = randomField(mesh, 2, 41);
  Field y1 = randomField(mesh, 2, 42);
  Field y2 = y1;
  const Real fused = S.axpyNorm2(y1, -0.7, x);
  S.axpy(y2, -0.7, x);
  const Real twoPass = S.dot(y2, y2);
  EXPECT_EQ(fused, twoPass);
  EXPECT_EQ(y1[0], y2[0]);
  EXPECT_EQ(y1[1], y2[1]);
}

// ---- KSP workspace pooling --------------------------------------------------

/// SPD diagonal operator for workspace tests: y_i = d_i x_i, d_i in [1, 2].
la::LinOp<Field> diagOp(const la::FieldSpace<2>& S, const Mesh<2>& mesh) {
  Field d = mesh.makeField(S.ndof());
  Rng rng(7);
  for (auto& rank : d)
    for (auto& v : rank) v = 1.0 + rng.uniform(0, 1);
  return [&S, d = std::move(d)](const Field& x, Field& y) {
    S.reshape(y);
    S.pointwiseMult(d, x, y);
  };
}

TEST(KspWorkspace, CgPooledMatchesFreshBitwise) {
  sim::SimComm comm(1, sim::Machine::loopback());
  Mesh<2> mesh = bigMesh<2>(comm, 5);
  la::FieldSpace<2> S(mesh, 1);
  auto A = diagOp(S, mesh);
  const Field b = randomField(mesh, 1, 51);
  la::KspOptions opt;
  opt.rtol = 1e-10;

  Field xFresh = S.zeros();
  auto resFresh = la::cg(S, A, b, xFresh, opt);

  la::KspWorkspace<Field> ws;
  Field xWarm = S.zeros();
  la::cg(S, A, b, xWarm, opt, nullptr, &ws);  // warm the pools
  Field xPooled = S.zeros();
  auto resPooled = la::cg(S, A, b, xPooled, opt, nullptr, &ws);

  EXPECT_EQ(resFresh.iterations, resPooled.iterations);
  EXPECT_EQ(resFresh.relResidual, resPooled.relResidual);
  EXPECT_EQ(xFresh[0], xPooled[0]);
}

TEST(KspWorkspace, GmresAndBicgstabPooledMatchFreshBitwise) {
  sim::SimComm comm(1, sim::Machine::loopback());
  Mesh<2> mesh = bigMesh<2>(comm, 5);
  la::FieldSpace<2> S(mesh, 1);
  auto A = diagOp(S, mesh);
  const Field b = randomField(mesh, 1, 61);
  la::KspOptions opt;
  opt.rtol = 1e-10;
  opt.gmresRestart = 5;  // force restarts so basis reuse is exercised

  la::KspWorkspace<Field> ws;
  Field x1 = S.zeros(), x2 = S.zeros(), x3 = S.zeros();
  auto f1 = la::gmres(S, A, b, x1, opt);
  la::gmres(S, A, b, x2, opt, nullptr, &ws);
  S.setZero(x2);
  auto p1 = la::gmres(S, A, b, x2, opt, nullptr, &ws);
  EXPECT_EQ(f1.iterations, p1.iterations);
  EXPECT_EQ(f1.relResidual, p1.relResidual);
  EXPECT_EQ(x1[0], x2[0]);

  // The same workspace then serves BiCGStab (pool high-water sizing).
  auto f2 = la::bicgstab(S, A, b, x3, opt);
  Field x4 = S.zeros();
  auto p2 = la::bicgstab(S, A, b, x4, opt, nullptr, &ws);
  EXPECT_EQ(f2.iterations, p2.iterations);
  EXPECT_EQ(x3[0], x4[0]);
}

TEST(KspWorkspace, CgSteadyStateAllocatesNothing) {
  sim::SimComm comm(1, sim::Machine::loopback());
  Mesh<2> mesh = bigMesh<2>(comm, 5);
  la::FieldSpace<2> S(mesh, 1);
  auto A = diagOp(S, mesh);
  const Field b = randomField(mesh, 1, 71);
  la::KspOptions opt;
  opt.rtol = 1e-10;
  la::KspWorkspace<Field> ws;
  Field x = S.zeros();
  la::cg(S, A, b, x, opt, nullptr, &ws);  // warm: pools + space scratch
  S.setZero(x);
  g_allocs.store(0);
  g_countAllocs.store(true);
  auto res = la::cg(S, A, b, x, opt, nullptr, &ws);
  g_countAllocs.store(false);
  EXPECT_GT(res.iterations, 1);
  EXPECT_EQ(g_allocs.load(), 0)
      << "steady-state CG with a warm workspace must not allocate";
}

TEST(KspWorkspace, ClearSurvivesRemesh) {
  sim::SimComm comm(1, sim::Machine::loopback());
  Mesh<2> meshA = bigMesh<2>(comm, 4);
  Mesh<2> meshB = bigMesh<2>(comm, 5);
  la::KspOptions opt;
  opt.rtol = 1e-10;
  la::KspWorkspace<Field> ws;
  {
    la::FieldSpace<2> S(meshA, 1);
    auto A = diagOp(S, meshA);
    const Field b = randomField(meshA, 1, 81);
    Field x = S.zeros();
    la::cg(S, A, b, x, opt, nullptr, &ws);
  }
  ws.clear();  // "remesh"
  la::FieldSpace<2> S(meshB, 1);
  auto A = diagOp(S, meshB);
  const Field b = randomField(meshB, 1, 82);
  Field xPooled = S.zeros(), xFresh = S.zeros();
  auto pooled = la::cg(S, A, b, xPooled, opt, nullptr, &ws);
  auto fresh = la::cg(S, A, b, xFresh, opt);
  EXPECT_EQ(pooled.iterations, fresh.iterations);
  EXPECT_EQ(xPooled[0], xFresh[0]);
}

// ---- Blocked BSR SpMV and factored block Jacobi -----------------------------

la::BsrMatrix randomBsr(int nb, int bs, unsigned seed) {
  la::BsrMatrix B(nb, nb, bs);
  Rng rng(seed);
  for (int r = 0; r < nb; ++r) {
    auto link = [&](int c) {
      if (c < 0 || c >= nb) return;
      for (int oi = 0; oi < bs; ++oi)
        for (int oj = 0; oj < bs; ++oj)
          B.setValue(r * bs + oi, c * bs + oj,
                     rng.uniform(-1, 1) + (r == c && oi == oj ? 6.0 : 0.0));
    };
    link(r - 1);
    link(r);
    link(r + 1);
  }
  B.assemblyEnd();
  return B;
}

TEST(BsrMatrix, BlockedSpmvMatchesGenericBitwise) {
  for (int bs : {1, 2, 3, 4, 5, 6}) {  // 1..5 unrolled, 6 generic dispatch
    la::BsrMatrix B = randomBsr(97, bs, 100 + bs);
    Rng rng(200 + bs);
    std::vector<Real> x(std::size_t(97) * bs);
    for (auto& v : x) v = rng.uniform(-1, 1);
    std::vector<Real> yBlocked, yGeneric;
    B.multiply(x, yBlocked);
    B.multiplyGeneric(x, yGeneric);
    EXPECT_EQ(yBlocked, yGeneric) << "bs=" << bs;
  }
}

TEST(BsrMatrix, AddBlockAssembledUpdatesInPlace) {
  la::BsrMatrix B = randomBsr(5, 2, 300);
  std::vector<Real> x(10, 1.0), y0, y1;
  B.multiply(x, y0);
  const Real blk[4] = {1.0, 0.0, 0.0, 1.0};
  B.addBlockAssembled(2, 2, blk);
  B.addValueAssembled(4, 4, 0.5);
  B.multiply(x, y1);
  EXPECT_EQ(y1[4], y0[4] + 1.0 + 0.5);
  EXPECT_EQ(y1[5], y0[5] + 1.0);
  EXPECT_EQ(y1[0], y0[0]);
  EXPECT_THROW(B.addValueAssembled(0, 8, 1.0), CheckError);  // off pattern
}

TEST(DenseFactor, FactoredSolveMatchesDenseSolveBitwise) {
  constexpr int n = 5;
  Rng rng(400);
  std::vector<Real> A(n * n);
  for (auto& v : A) v = rng.uniform(-1, 1);
  for (int d = 0; d < n; ++d) A[d * n + d] += 4.0;
  std::vector<Real> x0(n), x1(n);
  for (int i = 0; i < n; ++i) x0[i] = x1[i] = rng.uniform(-1, 1);
  la::denseSolve(n, A, x0.data());  // copies A internally
  std::vector<Real> F = A;
  int piv[n];
  la::denseFactor(n, F.data(), piv);
  la::denseSolveFactored(n, F.data(), piv, x1.data());
  EXPECT_EQ(x0, x1);
}

/// Reference node-block Jacobi: a fresh pivoted elimination (denseSolve)
/// per node, with the same tiny-diagonal guard as makeBlockJacobi.
Field blockJacobiReference(const Mesh<2>& mesh, int ndof, const Field& diag,
                           const Field& r) {
  Field z = mesh.makeField(ndof);
  std::vector<Real> blk(ndof * ndof);
  for (int rank = 0; rank < mesh.nRanks(); ++rank)
    for (std::size_t i = 0; i < mesh.rank(rank).nNodes(); ++i) {
      std::copy(diag[rank].begin() + i * ndof * ndof,
                diag[rank].begin() + (i + 1) * ndof * ndof, blk.begin());
      for (int d = 0; d < ndof; ++d) {
        z[rank][i * ndof + d] = r[rank][i * ndof + d];
        if (std::abs(blk[d * ndof + d]) < 1e-300) blk[d * ndof + d] = 1.0;
      }
      la::denseSolve(ndof, blk, &z[rank][i * ndof]);
    }
  return z;
}

TEST(BlockJacobi, FactoredMatchesUnfactoredBitwise) {
  sim::SimComm comm(2, sim::Machine::loopback());
  Mesh<2> mesh = bigMesh<2>(comm, 4);
  const int ndof = 3;
  Field diag = mesh.makeField(ndof * ndof);
  Rng rng(500);
  for (int r = 0; r < mesh.nRanks(); ++r)
    for (std::size_t i = 0; i < mesh.rank(r).nNodes(); ++i)
      for (int a = 0; a < ndof; ++a)
        for (int b = 0; b < ndof; ++b)
          diag[r][i * ndof * ndof + a * ndof + b] =
              rng.uniform(-1, 1) + (a == b ? 5.0 : 0.0);
  auto factored = la::makeBlockJacobi(mesh, ndof, diag);
  const Field r = randomField(mesh, ndof, 501);
  Field z1 = mesh.makeField(ndof);
  factored(r, z1);
  const Field z2 = blockJacobiReference(mesh, ndof, diag, r);
  for (int rank = 0; rank < mesh.nRanks(); ++rank)
    EXPECT_EQ(z1[rank], z2[rank]) << "rank " << rank;
}

// ---- CHNS end-to-end: warm resources are bitwise-neutral --------------------

template <int DIM>
chns::ChnsSolver<DIM> makeDropSolver(sim::SimComm& comm, int remeshEvery,
                                     Level level) {
  chns::ChnsOptions<DIM> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 1;
  opt.remeshEvery = remeshEvery;
  opt.coarseLevel = 3;
  opt.interfaceLevel = opt.featureLevel = opt.referenceLevel = 5;
  auto tree = DistTree<DIM>::fromGlobal(comm, uniformTree<DIM>(level));
  chns::ChnsSolver<DIM> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<DIM>& x) {
    return apps::dropPhi<DIM>(x, VecN<DIM>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  return s;
}

/// Overwrites the state of an already-stepped solver with `ck`, keeping its
/// warm workspaces, cached preconditioners, GMG hierarchy and no-op memo.
/// The solver must sit on the checkpoint's tree.
void restoreInto(chns::ChnsSolver<2>& s, sim::SimComm& comm,
                 const io::Checkpoint<2>& ck) {
  auto restored = io::restoreCheckpoint<2>(comm, ck);
  for (int r = 0; r < comm.size(); ++r)
    ASSERT_EQ(restored.tree.localOf(r), s.tree().localOf(r)) << "rank " << r;
  for (auto& [name, field] : restored.nodal) {
    if (name == "phi") s.phi() = std::move(field);
    else if (name == "mu") s.mu() = std::move(field);
    else if (name == "vel") s.velocity() = std::move(field);
    else if (name == "p") s.pressure() = std::move(field);
  }
  for (auto& [name, vals] : restored.cell)
    if (name == "cn") s.elemCn() = std::move(vals);
  s.setStepsTaken(static_cast<int>(ck.metaOr("steps", 0)));
}

void expectSameStep(chns::ChnsSolver<2>& a, chns::ChnsSolver<2>& b,
                    int step) {
  EXPECT_EQ(a.lastChNewton_.iterations, b.lastChNewton_.iterations);
  EXPECT_EQ(a.lastChNewton_.totalLinearIterations,
            b.lastChNewton_.totalLinearIterations);
  EXPECT_EQ(a.lastChNewton_.residualNorm, b.lastChNewton_.residualNorm);
  EXPECT_EQ(a.lastNs_.iterations, b.lastNs_.iterations);
  EXPECT_EQ(a.lastNs_.relResidual, b.lastNs_.relResidual);
  EXPECT_EQ(a.lastPp_.iterations, b.lastPp_.iterations);
  EXPECT_EQ(a.lastPp_.relResidual, b.lastPp_.relResidual);
  EXPECT_EQ(a.lastVuIterations_, b.lastVuIterations_);
  ASSERT_EQ(a.mesh().nRanks(), b.mesh().nRanks());
  for (int r = 0; r < a.mesh().nRanks(); ++r) {
    EXPECT_EQ(a.tree().localOf(r), b.tree().localOf(r)) << "step " << step;
    EXPECT_EQ(a.phi()[r], b.phi()[r]) << "step " << step;
    EXPECT_EQ(a.mu()[r], b.mu()[r]) << "step " << step;
    EXPECT_EQ(a.velocity()[r], b.velocity()[r]) << "step " << step;
    EXPECT_EQ(a.pressure()[r], b.pressure()[r]) << "step " << step;
    EXPECT_EQ(a.elemCn()[r], b.elemCn()[r]) << "step " << step;
  }
}

/// Steps a solver once, checkpoints it in memory, steps it twice more
/// (warming every pooled resource), restores the checkpoint into it, and
/// restores the same checkpoint into a fresh solver. The two must then step
/// bitwise identically for `steps` steps. With remeshEvery > 0 the mesh is
/// first adapted until a remesh changes nothing; the two warming steps then
/// remesh as no-ops, so the warm solver is still on the checkpoint's tree.
void checkWarmVsCold(int remeshEvery, Level level, int steps) {
  sim::SimComm cw(1, sim::Machine::loopback());
  auto warm = makeDropSolver<2>(cw, remeshEvery, level);
  if (remeshEvery > 0) {
    for (int call = 0; call < 8 && warm.noopRemeshes() == 0; ++call)
      warm.remeshNow();
    ASSERT_EQ(warm.noopRemeshes(), 1);
  }
  warm.step();
  const auto ck = chns::makeSolverCheckpoint(warm);
  warm.step();
  warm.step();
  restoreInto(warm, cw, ck);
  if (::testing::Test::HasFatalFailure()) return;

  sim::SimComm cc(1, sim::Machine::loopback());
  auto cold = chns::restoreSolverState<2>(cc, ck, warm.options());
  const long rebuilds = warm.meshRebuilds();
  for (int step = 0; step < steps; ++step) {
    warm.step();
    cold.step();
    expectSameStep(warm, cold, step);
  }
  if (remeshEvery > 0)
    EXPECT_GT(warm.meshRebuilds(), rebuilds) << "no real remesh compared";
}

TEST(ChnsSolverReuse, WarmRestoreMatchesColdRestore) {
  checkWarmVsCold(/*remeshEvery=*/0, /*level=*/5, /*steps=*/2);
}

TEST(ChnsSolverReuse, WarmRestoreMatchesColdRestoreRemeshingEveryStep) {
  // remeshEvery=1: the warm solver answers the first remeshes from its
  // no-op memo with every cache kept, the cold one re-derives the verdict;
  // the fourth step's remesh is real (the far field starts to coarsen), so
  // stale or mis-shaped cached resources would crash or perturb it.
  checkWarmVsCold(/*remeshEvery=*/1, /*level=*/4, /*steps=*/4);
}

TEST(ChnsSolverReuse, ThreadedStepMatchesSerialBelowThreshold) {
  // The drop workload at level 5 stays below kVecThreadMin, so a 4-thread
  // run must be bitwise identical to serial (threaded pointwise ops are
  // exact; reductions take the serial path below the threshold).
  sim::SimComm c1(1, sim::Machine::loopback());
  auto serial = makeDropSolver<2>(c1, 0, 5);
  serial.step();
  sim::SimComm c2(1, sim::Machine::loopback());
  ThreadGuard tg(4);
  auto threaded = makeDropSolver<2>(c2, 0, 5);
  threaded.step();
  EXPECT_EQ(serial.lastChNewton_.totalLinearIterations,
            threaded.lastChNewton_.totalLinearIterations);
  for (int r = 0; r < serial.mesh().nRanks(); ++r)
    EXPECT_EQ(serial.phi()[r], threaded.phi()[r]);
}

}  // namespace
}  // namespace pt

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>

#include "apps/fields.hpp"
#include "chns/params.hpp"
#include "chns/solver.hpp"
#include "fem/bc.hpp"
#include "fem/matvec.hpp"
#include "la/gmg.hpp"
#include "la/ksp.hpp"
#include "la/pc.hpp"
#include "octree/balance.hpp"
#include "support/thread_pool.hpp"

namespace pt {
namespace {

/// Dirichlet Poisson factory: each level discretizes -Laplace with the
/// boundary rows replaced by (scaled) identity.
template <int DIM>
la::GmgOpFactory<DIM> poissonFactory(std::deque<Field>& masks) {
  return [&masks](const Mesh<DIM>& mesh, int level) -> la::GmgLevelOps<DIM> {
    if (static_cast<int>(masks.size()) <= level) masks.resize(level + 1);
    masks[level] = fem::boundaryMask(mesh);
    const Field& mask = masks[level];
    la::LinOp<Field> K = [&mesh](const Field& x, Field& y) {
      fem::stiffnessMatvec(mesh, x, y);
    };
    la::GmgLevelOps<DIM> ops;
    ops.op = fem::dirichletOp(mesh, mask, K);
    ops.diag = la::assembleDiagonalBlocks<DIM>(
        mesh, 1, [](const Octant<DIM>& oct, Real* Ae) {
          const auto& refK = fem::refStiffness<DIM>();
          const Real kscale = (DIM == 2) ? 1.0 : oct.physSize();
          for (std::size_t k = 0; k < refK.size(); ++k)
            Ae[k] = refK[k] * kscale;
        });
    // Boundary rows act as identity; use unit diagonal there.
    for (int r = 0; r < mesh.nRanks(); ++r)
      for (std::size_t i = 0; i < mesh.rank(r).nNodes(); ++i)
        if (mask[r][i] != 0.0) ops.diag[r][i] = 1.0;
    return ops;
  };
}

TEST(Gmg, HierarchyShrinksByLevel) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(5));
  std::deque<Field> masks;
  la::Gmg<2> gmg(comm, tree, poissonFactory<2>(masks), {.levels = 4});
  ASSERT_GE(gmg.numLevels(), 3);
  for (int l = 1; l < gmg.numLevels(); ++l)
    EXPECT_LT(gmg.meshAt(l).globalElemCount(),
              gmg.meshAt(l - 1).globalElemCount());
  // Uniform 2D coarsening shrinks by ~4x per level.
  EXPECT_EQ(gmg.meshAt(1).globalElemCount(),
            gmg.meshAt(0).globalElemCount() / 4);
}

TEST(Gmg, VcycleReducesPoissonResidual) {
  sim::SimComm comm(1, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(5));
  std::deque<Field> masks;
  la::Gmg<2> gmg(comm, tree, poissonFactory<2>(masks), {.levels = 4});
  const Mesh<2>& mesh = gmg.meshAt(0);
  la::FieldSpace<2> S(mesh, 1);
  la::LinOp<Field> K = [&mesh](const Field& x, Field& y) {
    fem::stiffnessMatvec(mesh, x, y);
  };
  la::LinOp<Field> A = fem::dirichletOp(mesh, masks[0], K);
  Field f = mesh.makeField(), fw = mesh.makeField();
  fem::setByPosition<2>(mesh, f, 1, [](const VecN<2>& p, Real* v) {
    v[0] = std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]);
  });
  fem::massMatvec(mesh, f, fw);
  fem::zeroMasked(mesh, masks[0], fw);
  // A few stationary V-cycle iterations must contract the residual hard.
  auto M = gmg.preconditioner();
  Field x = mesh.makeField(), r = mesh.makeField(), z = mesh.makeField(),
        Ax = mesh.makeField();
  A(x, Ax);
  S.sub(fw, Ax, r);
  const Real r0 = S.norm(r);
  for (int it = 0; it < 6; ++it) {
    M(r, z);
    S.axpy(x, 1.0, z);
    A(x, Ax);
    S.sub(fw, Ax, r);
  }
  EXPECT_LT(S.norm(r), 1e-3 * r0);  // > x1000 reduction in 6 cycles
}

TEST(Gmg, PreconditionerBeatsJacobiIterationCount) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(6));
  std::deque<Field> masks;
  la::Gmg<2> gmg(comm, tree, poissonFactory<2>(masks), {.levels = 5});
  const Mesh<2>& mesh = gmg.meshAt(0);
  la::FieldSpace<2> S(mesh, 1);
  la::LinOp<Field> K = [&mesh](const Field& x, Field& y) {
    fem::stiffnessMatvec(mesh, x, y);
  };
  la::LinOp<Field> A = fem::dirichletOp(mesh, masks[0], K);
  Field fw = mesh.makeField();
  {
    Field f = mesh.makeField();
    fem::setByPosition<2>(mesh, f, 1, [](const VecN<2>& p, Real* v) {
      v[0] = std::exp(p[0]) * (1 - p[1]);
    });
    fem::massMatvec(mesh, f, fw);
    fem::zeroMasked(mesh, masks[0], fw);
  }
  la::KspOptions opt{.rtol = 1e-9, .maxIterations = 600, .gmresRestart = 60};
  // Jacobi-preconditioned GMRES.
  Field diag = la::assembleDiagonalBlocks<2>(
      mesh, 1, [](const Octant<2>& oct, Real* Ae) {
        (void)oct;
        const auto& refK = fem::refStiffness<2>();
        for (std::size_t k = 0; k < refK.size(); ++k) Ae[k] = refK[k];
      });
  la::LinOp<Field> Mj = la::makeJacobi(mesh, 1, std::move(diag));
  Field xj = mesh.makeField();
  auto resJ = la::gmres(S, A, fw, xj, opt, &Mj);
  // GMG-preconditioned GMRES.
  la::Pc<Field> Mg = gmg.preconditioner();
  Field xg = mesh.makeField();
  auto resG = la::gmres(S, A, fw, xg, opt, Mg);
  EXPECT_TRUE(resJ.converged);
  EXPECT_TRUE(resG.converged);
  EXPECT_LT(resG.iterations, resJ.iterations / 3);  // level-independent-ish
  // Same solution.
  Field d = mesh.makeField();
  S.sub(xj, xg, d);
  EXPECT_LT(S.norm(d), 1e-6 * std::max(S.norm(xj), Real(1e-300)));
}

TEST(Gmg, VariableCoefficientPoissonOnAdaptiveMesh) {
  // The paper's actual target: the variable-density pressure Poisson
  // operator div( (1/rho(phi)) grad p ) on an adaptive interface mesh.
  sim::SimComm comm(2, sim::Machine::loopback());
  OctList<2> tree;
  buildTree<2>(
      Octant<2>::root(),
      [](const Octant<2>& o) {
        auto c = o.centerCoords();
        const Real d = std::abs(std::hypot(c[0] - 0.5, c[1] - 0.5) - 0.3);
        return d < 3.0 * o.physSize() ? Level(6) : Level(4);
      },
      tree);
  tree = balanceTree(tree);
  auto dist = DistTree<2>::fromGlobal(comm, tree);

  chns::Params P;
  P.rhoMinus = 0.1;  // 10x density contrast across the interface
  auto phiAt = [&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.3, 0.03);
  };
  std::deque<Field> masks;
  auto factory = [&](const Mesh<2>& mesh, int level) -> la::GmgLevelOps<2> {
    if (static_cast<int>(masks.size()) <= level) masks.resize(level + 1);
    masks[level] = fem::boundaryMask(mesh);
    const Field& mask = masks[level];
    la::LinOp<Field> W = [&mesh, &P, phiAt](const Field& x, Field& y) {
      fem::matvec<2>(mesh, x, y, 1,
                     [&](const Octant<2>& oct, const Real* in, Real* out) {
                       const Real coef =
                           1.0 / P.rho(phiAt(oct.centerCoords()));
                       Real tmp[4] = {};
                       fem::applyStiffness<2>(oct.physSize(), in, tmp);
                       for (int i = 0; i < 4; ++i) out[i] += coef * tmp[i];
                     });
    };
    la::GmgLevelOps<2> ops;
    ops.op = fem::dirichletOp(mesh, mask, W);
    ops.diag = la::assembleDiagonalBlocks<2>(
        mesh, 1, [&](const Octant<2>& oct, Real* Ae) {
          const Real coef = 1.0 / P.rho(phiAt(oct.centerCoords()));
          const auto& refK = fem::refStiffness<2>();
          for (std::size_t k = 0; k < refK.size(); ++k)
            Ae[k] = refK[k] * coef;
        });
    for (int r = 0; r < mesh.nRanks(); ++r)
      for (std::size_t i = 0; i < mesh.rank(r).nNodes(); ++i)
        if (mask[r][i] != 0.0) ops.diag[r][i] = 1.0;
    return ops;
  };
  la::Gmg<2> gmg(comm, dist, factory, {.levels = 3, .minLevel = 2});
  ASSERT_GE(gmg.numLevels(), 2);
  const Mesh<2>& mesh = gmg.meshAt(0);
  la::FieldSpace<2> S(mesh, 1);
  auto ops0 = factory(mesh, 0);
  Field b = mesh.makeField();
  fem::setByPosition<2>(mesh, b, 1, [](const VecN<2>& p, Real* v) {
    v[0] = p[0] - p[1];
  });
  fem::zeroMasked(mesh, masks[0], b);
  la::Pc<Field> Mg = gmg.preconditioner();
  Field x = mesh.makeField();
  auto res = la::gmres(
      S, ops0.op, b, x, {.rtol = 1e-8, .maxIterations = 300}, Mg);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 40);  // strong preconditioning despite 10x jump
}

/// 3D variable-coefficient factory on an adaptive (hanging-node) mesh:
/// div( (1/rho(phi)) grad p ) with Dirichlet boundary rows.
la::GmgOpFactory<3> rho3dFactory(const chns::Params& P,
                                 std::deque<Field>& masks) {
  auto phiAt = [](const VecN<3>& x) {
    return apps::dropPhi<3>(x, VecN<3>{{0.5, 0.5, 0.5}}, 0.3, 0.06);
  };
  return [&P, &masks, phiAt](const Mesh<3>& mesh,
                             int level) -> la::GmgLevelOps<3> {
    if (static_cast<int>(masks.size()) <= level) masks.resize(level + 1);
    masks[level] = fem::boundaryMask(mesh);
    const Field& mask = masks[level];
    la::LinOp<Field> W = [&mesh, &P, phiAt](const Field& x, Field& y) {
      fem::matvec<3>(mesh, x, y, 1,
                     [&](const Octant<3>& oct, const Real* in, Real* out) {
                       const Real coef =
                           1.0 / P.rho(phiAt(oct.centerCoords()));
                       Real tmp[8] = {};
                       fem::applyStiffness<3>(oct.physSize(), in, tmp);
                       for (int i = 0; i < 8; ++i) out[i] += coef * tmp[i];
                     });
    };
    la::GmgLevelOps<3> ops;
    ops.op = fem::dirichletOp(mesh, mask, W);
    ops.diag = la::assembleDiagonalBlocks<3>(
        mesh, 1, [&](const Octant<3>& oct, Real* Ae) {
          const Real coef = 1.0 / P.rho(phiAt(oct.centerCoords()));
          const auto& refK = fem::refStiffness<3>();
          for (std::size_t k = 0; k < refK.size(); ++k)
            Ae[k] = refK[k] * oct.physSize() * coef;
        });
    for (int r = 0; r < mesh.nRanks(); ++r)
      for (std::size_t i = 0; i < mesh.rank(r).nNodes(); ++i)
        if (mask[r][i] != 0.0) ops.diag[r][i] = 1.0;
    return ops;
  };
}

DistTree<3> adaptiveSphereTree(sim::SimComm& comm) {
  OctList<3> tree;
  buildTree<3>(
      Octant<3>::root(),
      [](const Octant<3>& o) {
        auto c = o.centerCoords();
        const Real d = std::abs(
            std::hypot(c[0] - 0.5, c[1] - 0.5, c[2] - 0.5) - 0.3);
        return d < 2.0 * o.physSize() ? Level(4) : Level(2);
      },
      tree);
  tree = balanceTree(tree);
  return DistTree<3>::fromGlobal(comm, tree);
}

TEST(Gmg, VariableCoefficientPoisson3DWithHangingNodes) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto dist = adaptiveSphereTree(comm);
  chns::Params P;
  P.rhoMinus = 0.1;  // 10x density contrast
  std::deque<Field> masks;
  auto factory = rho3dFactory(P, masks);
  la::Gmg<3> gmg(comm, dist, factory, {.levels = 3, .minLevel = 1});
  ASSERT_GE(gmg.numLevels(), 2);
  const Mesh<3>& mesh = gmg.meshAt(0);
  la::FieldSpace<3> S(mesh, 1);
  auto ops0 = factory(mesh, 0);
  Field b = mesh.makeField();
  fem::setByPosition<3>(mesh, b, 1, [](const VecN<3>& p, Real* v) {
    v[0] = p[0] - p[1] + 0.5 * p[2];
  });
  fem::zeroMasked(mesh, masks[0], b);
  la::Pc<Field> Mg = gmg.preconditioner();
  Field x = mesh.makeField();
  auto res = la::gmres(
      S, ops0.op, b, x, {.rtol = 1e-8, .maxIterations = 300}, Mg);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 40);
}

/// 2D variable-coefficient Dirichlet Poisson factory with a density jump
/// across a circular interface (the pressure-Poisson shape).
la::GmgOpFactory<2> rho2dFactory(const chns::Params& P,
                                 std::deque<Field>& masks) {
  auto phiAt = [](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.3, 0.03);
  };
  return [&P, &masks, phiAt](const Mesh<2>& mesh,
                             int level) -> la::GmgLevelOps<2> {
    if (static_cast<int>(masks.size()) <= level) masks.resize(level + 1);
    masks[level] = fem::boundaryMask(mesh);
    const Field& mask = masks[level];
    la::LinOp<Field> W = [&mesh, &P, phiAt](const Field& x, Field& y) {
      fem::matvec<2>(mesh, x, y, 1,
                     [&](const Octant<2>& oct, const Real* in, Real* out) {
                       const Real coef =
                           1.0 / P.rho(phiAt(oct.centerCoords()));
                       Real tmp[4] = {};
                       fem::applyStiffness<2>(oct.physSize(), in, tmp);
                       for (int i = 0; i < 4; ++i) out[i] += coef * tmp[i];
                     });
    };
    la::GmgLevelOps<2> ops;
    ops.op = fem::dirichletOp(mesh, mask, W);
    ops.diag = la::assembleDiagonalBlocks<2>(
        mesh, 1, [&](const Octant<2>& oct, Real* Ae) {
          const Real coef = 1.0 / P.rho(phiAt(oct.centerCoords()));
          const auto& refK = fem::refStiffness<2>();
          for (std::size_t k = 0; k < refK.size(); ++k)
            Ae[k] = refK[k] * coef;
        });
    for (int r = 0; r < mesh.nRanks(); ++r)
      for (std::size_t i = 0; i < mesh.rank(r).nNodes(); ++i)
        if (mask[r][i] != 0.0) ops.diag[r][i] = 1.0;
    return ops;
  };
}

TEST(Gmg, ChebyshevVsJacobiIterationComparison) {
  // Same operator + hierarchy, only the smoother differs. On the hard
  // interface problem (100x density contrast, level-7 adaptive mesh) the
  // fixed-omega Jacobi damping is mistuned for some levels while the
  // Chebyshev interval adapts to each level's estimated spectrum, so
  // Chebyshev must not lose on outer Krylov iterations. Everything here is
  // deterministic (simulated comm, serial reductions), so the comparison
  // is exact and reproducible.
  sim::SimComm comm(1, sim::Machine::loopback());
  OctList<2> t;
  buildTree<2>(
      Octant<2>::root(),
      [](const Octant<2>& o) {
        auto c = o.centerCoords();
        const Real d = std::abs(std::hypot(c[0] - 0.5, c[1] - 0.5) - 0.3);
        return d < 3.0 * o.physSize() ? Level(7) : Level(4);
      },
      t);
  t = balanceTree(t);
  auto dist = DistTree<2>::fromGlobal(comm, t);
  chns::Params P;
  P.rhoMinus = 0.01;  // 100x density contrast
  auto runSmoother = [&](la::GmgSmoother sm, Field& x) {
    std::deque<Field> masks;
    auto fac = rho2dFactory(P, masks);
    la::Gmg<2> gmg(comm, dist, fac,
                   {.levels = 4, .smoother = sm, .minLevel = 2});
    const Mesh<2>& mesh = gmg.meshAt(0);
    la::FieldSpace<2> S(mesh, 1);
    auto ops0 = fac(mesh, 0);
    Field b = mesh.makeField();
    fem::setByPosition<2>(mesh, b, 1, [](const VecN<2>& p, Real* v) {
      v[0] = p[0] - p[1];
    });
    fem::zeroMasked(mesh, masks[0], b);
    la::Pc<Field> M = gmg.preconditioner();
    x = mesh.makeField();
    return la::gmres(S, ops0.op, b, x,
                     {.rtol = 1e-9, .maxIterations = 300}, M);
  };
  Field xj, xc;
  auto resJ = runSmoother(la::GmgSmoother::kJacobi, xj);
  auto resC = runSmoother(la::GmgSmoother::kChebyshev, xc);
  EXPECT_TRUE(resJ.converged);
  EXPECT_TRUE(resC.converged);
  EXPECT_LE(resC.iterations, resJ.iterations);
  EXPECT_LT(resC.iterations, 40);
  EXPECT_LT(resJ.iterations, 40);
}

/// ndof=1 mass+stiffness coefficient-block factory routed through the
/// batched panel-GEMM engine (fem::matvecCoefBlocks) — the level-operator
/// path the CHNS solver uses.
template <int DIM>
la::GmgOpFactory<DIM> unitCoefBlockFactory() {
  return [](const Mesh<DIM>& mesh, int) -> la::GmgLevelOps<DIM> {
    auto cM =
        std::make_shared<sim::PerRank<std::vector<Real>>>(mesh.nRanks());
    auto cK =
        std::make_shared<sim::PerRank<std::vector<Real>>>(mesh.nRanks());
    for (int r = 0; r < mesh.nRanks(); ++r) {
      const std::size_t ne = mesh.rank(r).nElems();
      (*cM)[r].assign(ne, 1.0);
      (*cK)[r].assign(ne, 1.0);
    }
    return la::makeCoefBlockLevelOps<DIM>(mesh, 1, std::move(cM),
                                          std::move(cK));
  };
}

struct ThreadGuard {
  explicit ThreadGuard(int n) {
    support::ThreadPool::instance().setThreads(n);
  }
  ~ThreadGuard() { support::ThreadPool::instance().setThreads(1); }
};

TEST(Gmg, VcycleBitwiseDeterministicAcrossThreads) {
  sim::SimComm comm(2, sim::Machine::loopback());
  OctList<2> tree;
  buildTree<2>(
      Octant<2>::root(),
      [](const Octant<2>& o) {
        auto c = o.centerCoords();
        return std::hypot(c[0] - 0.4, c[1] - 0.6) < 0.3 ? Level(6)
                                                        : Level(4);
      },
      tree);
  tree = balanceTree(tree);
  auto dist = DistTree<2>::fromGlobal(comm, tree);
  auto hier = la::GmgHierarchy<2>::build(comm, dist, nullptr, 3, 1);
  Field r = hier->meshAt(0).makeField();
  fem::setByPosition<2>(hier->meshAt(0), r, 1,
                        [](const VecN<2>& p, Real* v) {
                          v[0] = std::sin(7 * p[0]) + std::cos(5 * p[1]);
                        });
  auto apply = [&](int threads) {
    ThreadGuard tg(threads);
    la::Gmg<2> gmg(comm, hier, unitCoefBlockFactory<2>(), {.levels = 3});
    Field z;
    gmg.apply(r, z);
    return z;
  };
  const Field z1 = apply(1);
  const Field z4 = apply(4);
  for (int rk = 0; rk < comm.size(); ++rk)
    EXPECT_EQ(z1[rk], z4[rk]) << "V-cycle not bitwise thread-invariant";
}

TEST(Gmg, TransferPlansBuiltWithHierarchyAndReusedAcrossGmgRebuilds) {
  sim::SimComm comm(3, sim::Machine::loopback());
  OctList<2> tree;
  buildTree<2>(
      Octant<2>::root(),
      [](const Octant<2>& o) {
        auto c = o.centerCoords();
        return std::hypot(c[0] - 0.3, c[1] - 0.5) < 0.25 ? Level(6)
                                                         : Level(3);
      },
      tree);
  auto dist = DistTree<2>::fromGlobal(comm, balanceTree(tree));
  const long g0 = comm.stats().allgathers;
  auto hier = la::GmgHierarchy<2>::build(comm, dist, nullptr, 3, 1);
  const int hops = hier->numLevels() - 1;
  ASSERT_EQ(hops, 2);
  ASSERT_EQ(static_cast<int>(hier->restrictPlans.size()), hops);
  ASSERT_EQ(static_cast<int>(hier->prolongPlans.size()), hops);
  ASSERT_EQ(static_cast<int>(hier->cellPlans.size()), hops);
  // Each hop's plans gather their routing tables once, at build time.
  EXPECT_GE(comm.stats().allgathers - g0, 3 * hops);
  Field r = hier->meshAt(0).makeField();
  fem::setByPosition<2>(hier->meshAt(0), r, 1,
                        [](const VecN<2>& p, Real* v) {
                          v[0] = std::sin(7 * p[0]) + std::cos(5 * p[1]);
                        });
  const auto* plans = hier->prolongPlans.data();
  Field zPrev;
  for (int k = 0; k < 3; ++k) {
    // A per-solve rebuild (new discretization on the cached hierarchy) and
    // its V-cycles locate no points: no routing-table gather anywhere.
    const long a0 = comm.stats().allgathers;
    la::Gmg<2> gmg(comm, hier, unitCoefBlockFactory<2>(), {.levels = 3});
    Field z;
    gmg.apply(r, z);
    gmg.apply(r, z);
    EXPECT_EQ(comm.stats().allgathers - a0, 0)
        << "Gmg rebuild or V-cycle rebuilt transfer plans";
    EXPECT_EQ(gmg.hierarchy()->prolongPlans.data(), plans);
    if (k > 0) {
      EXPECT_EQ(z, zPrev) << "rebuild " << k;
    }
    zPrev = z;
  }
}

TEST(Gmg, CoarseSolveFailureThrowsTypedError) {
  sim::SimComm comm(1, sim::Machine::loopback());
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(5));
  std::deque<Field> masks;
  obs::Registry reg;
  la::Gmg<2> gmg(comm, tree, poissonFactory<2>(masks),
                 {.levels = 3,
                  .coarseSolve = {.rtol = 1e-14, .maxIterations = 1}},
                 &reg);
  Field r = gmg.meshAt(0).makeField(), z;
  fem::setByPosition<2>(gmg.meshAt(0), r, 1, [](const VecN<2>& p, Real* v) {
    v[0] = p[0] * (1 - p[1]);
  });
  fem::zeroMasked(gmg.meshAt(0), masks[0], r);
  EXPECT_THROW(gmg.apply(r, z), la::GmgCoarseSolveError);
  EXPECT_GE(reg.counter("gmg.coarse_fail").value(), 1);
}

// ---- CHNS hierarchy caching -------------------------------------------------

TEST(GmgChns, HierarchyPreservedAcrossNoopRemeshes) {
  sim::SimComm comm(2, sim::Machine::loopback());
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 1;
  // Every element already sits at the target level -> remeshNow is a no-op.
  opt.coarseLevel = opt.interfaceLevel = opt.featureLevel = 4;
  opt.referenceLevel = 4;
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  auto builds = [&] {
    return s.telemetry().metrics.counter("gmgHierarchyBuilds").value();
  };
  EXPECT_EQ(builds(), 0);  // lazy: nothing until the first solve
  s.step();
  EXPECT_EQ(builds(), 1);  // one hierarchy shared by CH/NS/PP
  s.remeshNow();
  s.remeshNow();
  EXPECT_EQ(s.noopRemeshes(), 2);
  s.step();
  EXPECT_EQ(builds(), 1) << "no-op remesh dropped the GMG hierarchy";
}

TEST(GmgChns, HierarchyRebuiltOnRealRemesh) {
  sim::SimComm comm(2, sim::Machine::loopback());
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 1;
  opt.remeshEvery = 1;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 5;
  opt.featureLevel = 5;
  opt.referenceLevel = 5;
  auto tree = DistTree<2>::fromGlobal(comm, uniformTree<2>(4));
  chns::ChnsSolver<2> s(comm, std::move(tree), opt);
  s.setInitialCondition([&](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{0.5, 0.5}}, 0.25, opt.params.Cn);
  });
  const long r0 = s.meshRebuilds();
  s.step();
  s.step();
  ASSERT_GT(s.meshRebuilds(), r0);  // the drop forces a real remesh
  const auto builds =
      s.telemetry().metrics.counter("gmgHierarchyBuilds").value();
  // One build per mesh epoch that ran solves: the real remeshes dropped
  // the cached hierarchy, and it came back exactly once per new mesh.
  EXPECT_GT(builds, 1) << "real remesh did not invalidate the hierarchy";
  EXPECT_LE(builds, s.meshRebuilds() - r0 + 1)
      << "hierarchy rebuilt more than once per mesh";
}

// ---- CHNS graceful GMG degradation ------------------------------------------
//
// A two-rank drop adapted to levels 3..5. Each test squeezes one solve cap
// (or poisons the state) so the V-cycle family under test degrades; the
// counter values are the ones the solver has produced since degradation
// landed, pinned so a restructuring of the lifecycle cannot shift them.

chns::ChnsOptions<2> degradationOptions() {
  chns::ChnsOptions<2> opt;
  opt.params.Cn = 0.03;
  opt.dt = 1e-3;
  opt.blocksPerStep = 1;
  opt.coarseLevel = 3;
  opt.interfaceLevel = 5;
  opt.featureLevel = 5;
  opt.referenceLevel = 5;
  return opt;
}

std::function<Real(const VecN<2>&)> dropAt(Real cx, Real cn) {
  return [=](const VecN<2>& x) {
    return apps::dropPhi<2>(x, VecN<2>{{cx, 0.5}}, 0.25, cn);
  };
}

/// A solver on the drop's adapted mesh, with the drop re-sampled there.
std::unique_ptr<chns::ChnsSolver<2>> adaptedDropSolver(
    sim::SimComm& comm, const chns::ChnsOptions<2>& opt) {
  auto s = std::make_unique<chns::ChnsSolver<2>>(
      comm, DistTree<2>::fromGlobal(comm, uniformTree<2>(4)), opt);
  s->setInitialCondition(dropAt(0.5, opt.params.Cn));
  s->remeshNow();
  s->setInitialCondition(dropAt(0.5, opt.params.Cn));
  return s;
}

long counterOf(chns::ChnsSolver<2>& s, const char* name) {
  return s.telemetry().metrics.counter(name).value();
}

/// Runs one step and returns the number of PP operator applies it made
/// (one coefficient refresh + the initial residual + one per CG iteration,
/// two per BiCGStab iteration).
long stepPpOpCalls(chns::ChnsSolver<2>& s) {
  const long c0 = s.timers()["pp-op"].calls();
  s.step();
  return s.timers()["pp-op"].calls() - c0;
}

TEST(ChnsGmgDegradation, ChRetiresAtItsCapUntilTheNextRealRemesh) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto opt = degradationOptions();
  opt.chNewton.maxIterations = 4;
  opt.chNewton.linear.maxIterations = 1;
  auto s = adaptedDropSolver(comm, opt);
  const long rebuilds = s->meshRebuilds();
  s->step();
  // Every inner GMRES stopped at its cap and Newton missed its tolerance:
  // the CH V-cycle retires.
  EXPECT_FALSE(s->lastChNewton_.converged);
  EXPECT_EQ(s->lastChNewton_.iterations, 4);
  EXPECT_EQ(s->lastChNewton_.totalLinearIterations, 4);
  EXPECT_EQ(counterOf(*s, "gmgRetirements"), 1);
  // A no-op remesh keeps the mesh, so the family stays retired: the next
  // capped CH solve runs block-Jacobi and retires nothing.
  s->remeshNow();
  ASSERT_EQ(s->noopRemeshes(), 1);
  ASSERT_EQ(s->meshRebuilds(), rebuilds);
  s->step();
  EXPECT_FALSE(s->lastChNewton_.converged);
  EXPECT_EQ(counterOf(*s, "gmgRetirements"), 1);
  // A real remesh re-arms it, and the capped solve retires it again.
  s->setInitialCondition(dropAt(0.3, opt.params.Cn));
  s->remeshNow();
  ASSERT_GT(s->meshRebuilds(), rebuilds);
  s->step();
  EXPECT_EQ(counterOf(*s, "gmgRetirements"), 2);
  EXPECT_EQ(counterOf(*s, "gmgPcFallbacks"), 0);
}

TEST(ChnsGmgDegradation, NsRetiresWhenItsSolveMissesTolerance) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto opt = degradationOptions();
  opt.nsKsp.maxIterations = 1;
  auto s = adaptedDropSolver(comm, opt);
  s->step();
  EXPECT_FALSE(s->lastNs_.converged);
  EXPECT_EQ(s->lastNs_.iterations, 1);
  EXPECT_EQ(counterOf(*s, "gmgRetirements"), 1);
  s->remeshNow();
  ASSERT_EQ(s->noopRemeshes(), 1);
  s->step();
  EXPECT_FALSE(s->lastNs_.converged);
  EXPECT_EQ(counterOf(*s, "gmgRetirements"), 1);  // still retired
  EXPECT_EQ(counterOf(*s, "gmgPcFallbacks"), 0);
}

TEST(ChnsGmgDegradation, PpRetiresAndSwitchesToCg) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto opt = degradationOptions();
  opt.ppKsp.maxIterations = 1;
  auto s = adaptedDropSolver(comm, opt);
  // GMG-preconditioned PP runs BiCGStab: 1 + 1 + 2 applies.
  EXPECT_EQ(stepPpOpCalls(*s), 4);
  EXPECT_FALSE(s->lastPp_.converged);
  EXPECT_EQ(s->lastPp_.iterations, 1);
  EXPECT_EQ(counterOf(*s, "gmgRetirements"), 1);
  s->remeshNow();
  ASSERT_EQ(s->noopRemeshes(), 1);
  // Retired, it runs CG on the pooled Jacobi: 1 + 1 + 1 applies.
  EXPECT_EQ(stepPpOpCalls(*s), 3);
  EXPECT_FALSE(s->lastPp_.converged);
  EXPECT_EQ(counterOf(*s, "gmgRetirements"), 1);
  EXPECT_EQ(counterOf(*s, "gmgPcFallbacks"), 0);
}

TEST(ChnsGmgDegradation, NonFiniteStateIsNeverPublished) {
  sim::SimComm comm(2, sim::Machine::loopback());
  auto opt = degradationOptions();
  auto s = adaptedDropSolver(comm, opt);
  s->phi()[0][5] = std::numeric_limits<Real>::quiet_NaN();
  const Field phi0 = s->phi(), mu0 = s->mu(), vel0 = s->velocity(),
              p0 = s->pressure();
  // The step returns normally. The NaN defeats the CH V-cycle (guarded
  // fallback to block-Jacobi), CH and NS cap out and retire, their
  // iterates fail the publish-time sanity check, and the pressure
  // increment is zero.
  ASSERT_NO_THROW(s->step());
  EXPECT_FALSE(s->lastChNewton_.converged);
  EXPECT_EQ(s->lastChNewton_.iterations, 12);
  EXPECT_EQ(s->lastChNewton_.totalLinearIterations, 2400);
  EXPECT_FALSE(s->lastNs_.converged);
  EXPECT_EQ(s->lastNs_.iterations, 400);
  EXPECT_EQ(s->lastPp_.iterations, 0);
  EXPECT_EQ(counterOf(*s, "gmgRetirements"), 2);
  EXPECT_EQ(counterOf(*s, "gmgPcFallbacks"), 3);
  // Every field keeps its pre-step value: phi still carries the one NaN,
  // nothing else turned non-finite.
  auto sameBits = [](const Field& a, const Field& b) {
    for (std::size_t r = 0; r < a.size(); ++r)
      for (std::size_t i = 0; i < a[r].size(); ++i)
        if (std::memcmp(&a[r][i], &b[r][i], sizeof(Real)) != 0) return false;
    return true;
  };
  EXPECT_TRUE(sameBits(s->phi(), phi0));
  EXPECT_TRUE(sameBits(s->mu(), mu0));
  EXPECT_TRUE(sameBits(s->velocity(), vel0));
  EXPECT_TRUE(sameBits(s->pressure(), p0));
  EXPECT_TRUE(std::isnan(s->phi()[0][5]));
}

}  // namespace
}  // namespace pt

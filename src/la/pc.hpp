// Preconditioners for the matrix-free solver path: point Jacobi and
// node-block Jacobi, with diagonals assembled element-by-element through the
// same gather/scatter machinery as the MATVEC (so hanging-node constraints
// are treated consistently: D = diag(P^T A_e P) accumulated over elements).
#pragma once

#include <functional>
#include <vector>

#include "fem/elem_ops.hpp"
#include "fem/matvec.hpp"
#include "la/seqmat.hpp"
#include "la/space.hpp"
#include "mesh/mesh.hpp"

namespace pt::la {

/// Elemental-matrix provider: fills the (kNodes*ndof)^2 row-major elemental
/// matrix for one octant.
template <int DIM>
using ElemMatFn = std::function<void(const Octant<DIM>&, Real* /*A_e*/)>;

/// Indexed variant: also receives (rank, local element index) so callers
/// with per-element coefficient tables (GMG level operators) can look the
/// element up without re-deriving its position from the octant.
template <int DIM>
using ElemMatIdxFn =
    std::function<void(int /*rank*/, std::size_t /*e*/, const Octant<DIM>&,
                       Real* /*A_e*/)>;

/// Assembles the (block-)diagonal of the global operator defined by an
/// elemental matrix callback: out[node] = bs x bs diagonal block per node.
/// Returned per rank: nNodes * bs * bs values, ghost-consistent.
template <int DIM>
Field assembleDiagonalBlocks(const Mesh<DIM>& mesh, int ndof,
                             const ElemMatIdxFn<DIM>& elemMat) {
  constexpr int kC = kNumChildren<DIM>;
  const int n = kC * ndof;
  Field diag = mesh.makeField(ndof * ndof);
  std::vector<Real> Ae(n * n);
  for (int r = 0; r < mesh.nRanks(); ++r) {
    const RankMesh<DIM>& rm = mesh.rank(r);
    const ElemPlan& plan = rm.plan;
    const bool havePlan = plan.isPure.size() == rm.nElems();
    for (std::size_t e = 0; e < rm.nElems(); ++e) {
      std::fill(Ae.begin(), Ae.end(), 0.0);
      elemMat(r, e, rm.elems[e], Ae.data());
      // Pure elements (one support per corner, weight exactly 1): the
      // support scan collapses to the plan's direct node indices and the
      // w = 1 * 1 multiply drops out — bitwise identical to the general
      // walk below, which this fast path replays with hi - lo == 1.
      if (havePlan && plan.isPure[e]) {
        const std::uint32_t* nodes =
            &plan.pureNodes[std::size_t(plan.slot[e]) * kC];
        for (int c1 = 0; c1 < kC; ++c1)
          for (int c2 = 0; c2 < kC; ++c2) {
            if (nodes[c1] != nodes[c2]) continue;
            for (int d1 = 0; d1 < ndof; ++d1)
              for (int d2 = 0; d2 < ndof; ++d2)
                diag[r][nodes[c1] * ndof * ndof + d1 * ndof + d2] +=
                    Ae[(c1 * ndof + d1) * n + (c2 * ndof + d2)];
          }
        continue;
      }
      // diag contribution of node v from corners c1, c2 sharing support v:
      // sum over (c1,c2) pairs w1 * A_e[c1,c2] * w2.
      for (int c1 = 0; c1 < kC; ++c1) {
        const std::uint32_t lo1 = rm.cornerOffset[e * kC + c1];
        const std::uint32_t hi1 = rm.cornerOffset[e * kC + c1 + 1];
        for (int c2 = 0; c2 < kC; ++c2) {
          const std::uint32_t lo2 = rm.cornerOffset[e * kC + c2];
          const std::uint32_t hi2 = rm.cornerOffset[e * kC + c2 + 1];
          for (std::uint32_t s1 = lo1; s1 < hi1; ++s1)
            for (std::uint32_t s2 = lo2; s2 < hi2; ++s2) {
              if (rm.supports[s1].node != rm.supports[s2].node) continue;
              const Real w = rm.supports[s1].weight * rm.supports[s2].weight;
              for (int d1 = 0; d1 < ndof; ++d1)
                for (int d2 = 0; d2 < ndof; ++d2)
                  diag[r][rm.supports[s1].node * ndof * ndof + d1 * ndof +
                          d2] +=
                      w * Ae[(c1 * ndof + d1) * n + (c2 * ndof + d2)];
            }
        }
      }
    }
    mesh.comm().chargeWork(r, 4.0 * n * n * rm.nElems());
  }
  mesh.accumulate(diag, ndof * ndof);
  return diag;
}

template <int DIM>
Field assembleDiagonalBlocks(const Mesh<DIM>& mesh, int ndof,
                             const ElemMatFn<DIM>& elemMat) {
  return assembleDiagonalBlocks<DIM>(
      mesh, ndof,
      ElemMatIdxFn<DIM>([&elemMat](int, std::size_t, const Octant<DIM>& oct,
                                   Real* Ae) { elemMat(oct, Ae); }));
}

/// Point-Jacobi preconditioner: z = D^-1 r using only the (d,d) entries of
/// the per-node blocks. Every output entry is written, so z is conformed
/// without zero-filling (no allocation once z has the right shape).
template <int DIM>
LinOp<Field> makeJacobi(const Mesh<DIM>& mesh, int ndof, Field diagBlocks) {
  return [&mesh, ndof, diag = std::move(diagBlocks)](const Field& r,
                                                     Field& z) {
    for (int rank = 0; rank < mesh.nRanks(); ++rank) {
      const std::size_t nn = mesh.rank(rank).nNodes();
      if (z[rank].size() != nn * ndof) z[rank].resize(nn * ndof);
      for (std::size_t i = 0; i < nn; ++i)
        for (int d = 0; d < ndof; ++d) {
          const Real dv = diag[rank][i * ndof * ndof + d * ndof + d];
          z[rank][i * ndof + d] =
              (std::abs(dv) > 1e-300) ? r[rank][i * ndof + d] / dv
                                      : r[rank][i * ndof + d];
        }
      mesh.comm().chargeWork(rank, 2.0 * nn * ndof);
    }
  };
}

/// Node-block Jacobi: z_i = B_i^-1 r_i with B_i the per-node ndof x ndof
/// diagonal block (the natural block preconditioner for BAIJ storage).
/// The blocks are LU-factorized once at construction and every apply is a
/// pivot/substitution sweep — O(ndof^2) per node instead of a fresh
/// O(ndof^3) elimination, with zero per-apply allocations. Applies are
/// bitwise identical to a per-node denseSolve (denseSolveFactored replays
/// it exactly), so caching across Krylov and Newton iterations cannot
/// perturb convergence histories.
template <int DIM>
LinOp<Field> makeBlockJacobi(const Mesh<DIM>& mesh, int ndof,
                             Field diagBlocks) {
  const int nd2 = ndof * ndof;
  // Factor every node block up front (tiny-diagonal guard first).
  Field fac = std::move(diagBlocks);
  std::vector<std::vector<int>> piv(mesh.nRanks());
  for (int rank = 0; rank < mesh.nRanks(); ++rank) {
    const std::size_t nn = mesh.rank(rank).nNodes();
    piv[rank].resize(nn * ndof);
    for (std::size_t i = 0; i < nn; ++i) {
      Real* blk = fac[rank].data() + i * nd2;
      for (int d = 0; d < ndof; ++d)
        if (std::abs(blk[d * ndof + d]) < 1e-300) blk[d * ndof + d] = 1.0;
      denseFactor(ndof, blk, piv[rank].data() + i * ndof);
    }
  }
  return [&mesh, ndof, nd2, fac = std::move(fac),
          piv = std::move(piv)](const Field& r, Field& z) {
    for (int rank = 0; rank < mesh.nRanks(); ++rank) {
      const std::size_t nn = mesh.rank(rank).nNodes();
      if (z[rank].size() != nn * ndof) z[rank].resize(nn * ndof);
      for (std::size_t i = 0; i < nn; ++i) {
        for (int d = 0; d < ndof; ++d)
          z[rank][i * ndof + d] = r[rank][i * ndof + d];
        denseSolveFactored(ndof, fac[rank].data() + i * nd2,
                           piv[rank].data() + i * ndof,
                           &z[rank][i * ndof]);
      }
      // Charged like a per-apply elimination so the simulated machine model
      // (and therefore every calibrated run) is unchanged.
      mesh.comm().chargeWork(rank, 2.0 * nn * ndof * ndof * ndof);
    }
  };
}

}  // namespace pt::la

// Distributed multi-level inter-grid transfer (paper Sec II-C2).
//
// Entry points:
//  - transferNodal:      query-based transfer of node-centered data between
//                        two meshes differing by arbitrarily many levels in
//                        both directions at once (the remeshing workhorse:
//                        coarse-to-fine interpolation and fine-to-coarse
//                        injection are both "evaluate the old field at the
//                        new node position").
//  - transferNodalPush:  the paper's four-step push structure for the
//                        refinement direction: ⊑ searches over the splitter
//                        endpoint tables find grid-grid partition overlaps,
//                        coarse element nodes are *detached* with the
//                        flag-gather trick (no per-element duplication) and
//                        sent to the fine partition, which runs the serial
//                        SFC-merge interpolation locally.
//  - transferCell*:      cell-centered copy (coarse->fine) and volume-
//                        weighted averaging (fine->coarse).
//  - NodalPlan/CellPlan: transferNodal / transferCell between a fixed mesh
//                        pair (GMG levels) resolved once, then applied
//                        bitwise-identically with one values-only exchange.
#pragma once

#include <algorithm>
#include <map>
#include <vector>

#include "fem/matvec.hpp"
#include "intergrid/overlap.hpp"
#include "mesh/mesh.hpp"
#include "octree/distributed.hpp"
#include "support/check.hpp"

namespace pt::intergrid {

namespace detail {

/// Clamped cell-location point for a node key (vertices on the far domain
/// face belong to the last cell).
template <int DIM>
std::array<std::uint32_t, DIM> cellPointForKey(
    const std::type_identity_t<NodeKey<DIM>>& k) {
  std::array<std::uint32_t, DIM> p;
  for (int d = 0; d < DIM; ++d) p[d] = std::min(k[d], kMaxCoord - 1);
  return p;
}

/// Shape-function weights (kNodes of them) of element `oct` at integer
/// position `k`, which must lie inside or on the closure of the element.
template <int DIM>
void shapeWeights(const Octant<DIM>& oct,
                  const std::type_identity_t<NodeKey<DIM>>& k, Real* w) {
  VecN<DIM> xi;
  for (int d = 0; d < DIM; ++d) {
    xi[d] = static_cast<Real>(k[d] - oct.x[d]) / static_cast<Real>(oct.size());
    PT_CHECK(xi[d] >= -1e-12 && xi[d] <= 1.0 + 1e-12);
  }
  for (int i = 0; i < kNumChildren<DIM>; ++i) w[i] = fem::shape<DIM>(i, xi);
}

/// out = sum_i w[i] * vals[i] per dof, summed in corner order from 0.0:
/// the one interpolation sum every nodal transfer path evaluates.
template <int DIM>
void weightedSum(const Real* w, const Real* vals, int ndof, Real* out) {
  for (int d = 0; d < ndof; ++d) out[d] = 0.0;
  for (int i = 0; i < kNumChildren<DIM>; ++i)
    for (int d = 0; d < ndof; ++d) out[d] += w[i] * vals[i * ndof + d];
}

/// Evaluates the (gathered, hanging-consistent) elemental interpolant of
/// element `e` at integer position `k` (which must lie inside or on the
/// closure of the element). `vals` = kNodes*ndof gathered corner values.
template <int DIM>
void evalInElement(const Octant<DIM>& oct, const Real* vals, int ndof,
                   const std::type_identity_t<NodeKey<DIM>>& k, Real* out) {
  Real w[kNumChildren<DIM>];
  shapeWeights<DIM>(oct, k, w);
  weightedSum<DIM>(w, vals, ndof, out);
}

/// The old-mesh element a nodal query key evaluates in.
template <int DIM>
std::size_t locateNodalQuery(const RankMesh<DIM>& orm,
                             const std::type_identity_t<NodeKey<DIM>>& k) {
  const std::int64_t e = locatePoint(orm.elems, cellPointForKey<DIM>(k));
  PT_CHECK_MSG(e >= 0, "old grid does not cover query point");
  return static_cast<std::size_t>(e);
}

/// Query key i of a packed nodal query batch.
template <int DIM>
NodeKey<DIM> queryKey(const std::vector<std::uint32_t>& buf, std::size_t i) {
  NodeKey<DIM> k;
  for (int d = 0; d < DIM; ++d) k[d] = buf[i * DIM + d];
  return k;
}

/// New cell i of a packed cell query batch ((x[DIM], level) per cell).
template <int DIM>
Octant<DIM> queryCell(const std::vector<std::uint32_t>& buf, std::size_t i) {
  Octant<DIM> nc;
  for (int d = 0; d < DIM; ++d) nc.x[d] = buf[i * (DIM + 1) + d];
  nc.level = static_cast<Level>(buf[i * (DIM + 1) + DIM]);
  return nc;
}

template <int DIM>
std::array<std::uint32_t, DIM> cellCenter(const Octant<DIM>& o) {
  std::array<std::uint32_t, DIM> c;
  for (int d = 0; d < DIM; ++d) c[d] = o.x[d] + o.size() / 2;
  return c;
}

template <int DIM>
Real cellVolume(const Octant<DIM>& o) {
  Real vol = 1.0;
  for (int d = 0; d < DIM; ++d) vol *= o.physSize();
  return vol;
}

/// The terms of the partial volume-weighted sum an old rank answers for
/// new cell `nc`, in summation order: fn(old leaf, weight volume). The
/// center owner (round 1) copies from a covering old leaf when there is
/// one (weighted by nc's volume); otherwise, and in round 2, the rank's
/// own leaves inside nc contribute with their volumes.
template <int DIM, typename Fn>
void forEachCellTerm(const OctList<DIM>& elems, const Octant<DIM>& nc,
                     bool centerOwner, Fn&& fn) {
  if (centerOwner) {
    const std::int64_t e0 = locatePoint(elems, cellCenter(nc));
    if (e0 >= 0 && elems[e0].level <= nc.level) {
      fn(static_cast<std::size_t>(e0), cellVolume(nc));
      return;
    }
  }
  auto [i0, i1] = overlappedLocalRange(elems, nc, nc);
  for (std::size_t e = i0; e < i1; ++e)
    if (nc.isAncestorOf(elems[e])) fn(e, cellVolume(elems[e]));
}

/// transferCell's round-1 destination for new cell `nc`: the old rank that
/// owns its center point.
template <int DIM>
int cellCenterOwner(const Splitters<DIM>& spl, const Octant<DIM>& nc) {
  const int owner = spl.ownerOfPoint(cellCenter(nc));
  PT_CHECK(owner >= 0);
  return owner;
}

/// transferCell's round-2 routing for new cell `nc` whose round-1 replies
/// covered volume `covered`: unless nc is (up to 1e-9 relative) fully
/// covered, fn(q) for every old rank q overlapping nc except the center
/// owner, ascending.
template <int DIM, typename Fn>
void forEachRound2Rank(const Splitters<DIM>& spl,
                       const PartitionEndpoints<DIM>& oldEnds,
                       const Octant<DIM>& nc, Real covered, Fn&& fn) {
  if (covered >= cellVolume(nc) * (1.0 - 1e-9)) return;
  const int centerOwner = cellCenterOwner(spl, nc);
  for (int q : overlappedRanks(oldEnds, nc, nc))
    if (q != centerOwner) fn(q);
}

}  // namespace detail

/// Old-grid routing tables for one remesh epoch: the splitter table (query
/// routing by point owner) and the partition endpoint table (⊑ overlap
/// searches). Both derive from the same per-rank (first, last) octants, so
/// one allgather serves every field transferred against the same old tree —
/// gather once per epoch with gatherTransferTables() and pass to each
/// transferNodal / transferCell call instead of re-charging the collective
/// per field.
template <int DIM>
struct TransferTables {
  Splitters<DIM> spl;
  PartitionEndpoints<DIM> oldEnds;
};

template <int DIM>
TransferTables<DIM> gatherTransferTables(const DistTree<DIM>& oldTree) {
  sim::SimComm& comm = oldTree.comm();
  const int p = comm.size();
  TransferTables<DIM> t;
  t.spl.first.resize(p);
  t.spl.hasData.resize(p);
  for (int r = 0; r < p; ++r) {
    const OctList<DIM>& leaves = oldTree.localOf(r);
    t.spl.hasData[r] = !leaves.empty();
    if (t.spl.hasData[r]) t.spl.first[r] = leaves.front();
  }
  t.oldEnds = PartitionEndpoints<DIM>::fromLocals(
      p, [&](int r) -> const OctList<DIM>& { return oldTree.localOf(r); });
  // One combined (first, last) table gather covers the whole epoch.
  comm.allgather(sim::PerRank<std::array<Octant<DIM>, 2>>(p));
  return t;
}

namespace detail {

/// Charges the per-field splitter allgather and returns local splitters
/// when no epoch tables were passed (the historical per-call path).
template <int DIM>
Splitters<DIM> localSplitters(const Mesh<DIM>& oldMesh) {
  sim::SimComm& comm = oldMesh.comm();
  const int p = comm.size();
  Splitters<DIM> spl;
  spl.first.resize(p);
  spl.hasData.resize(p);
  for (int r = 0; r < p; ++r) {
    spl.hasData[r] = !oldMesh.rank(r).elems.empty();
    if (spl.hasData[r]) spl.first[r] = oldMesh.rank(r).elems.front();
  }
  comm.allgather(sim::PerRank<Octant<DIM>>(p));  // charge the table gather
  return spl;
}

/// Per-destination query batches for every new-mesh node, plus the
/// requester-side record of where each answer lands. Charges the query
/// build (the transferNodal historical charge). Depends only on the two
/// meshes, so one build serves every nodal field of an epoch.
template <int DIM>
struct NodalQueries {
  sim::SparseSends<std::uint32_t> sends;
  sim::PerRank<std::vector<std::vector<std::int32_t>>> pending;
};

template <int DIM>
NodalQueries<DIM> buildNodalQueries(const Mesh<DIM>& newMesh,
                                    const Splitters<DIM>& spl) {
  sim::SimComm& comm = newMesh.comm();
  const int p = comm.size();
  NodalQueries<DIM> q;
  q.sends.resize(p);
  q.pending.resize(p);
  for (int r = 0; r < p; ++r) q.pending[r].resize(p);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& nrm = newMesh.rank(r);
    std::vector<std::vector<std::uint32_t>> buf(p);
    for (std::size_t li = 0; li < nrm.nNodes(); ++li) {
      const auto cell = detail::cellPointForKey<DIM>(nrm.nodeKeys[li]);
      int owner = spl.ownerOfPoint(cell);
      PT_CHECK_MSG(owner >= 0, "query point outside old grid");
      if (owner == r) {
        q.pending[r][r].push_back(static_cast<std::int32_t>(li));
        for (int d = 0; d < DIM; ++d) buf[r].push_back(nrm.nodeKeys[li][d]);
      } else {
        q.pending[r][owner].push_back(static_cast<std::int32_t>(li));
        for (int d = 0; d < DIM; ++d)
          buf[owner].push_back(nrm.nodeKeys[li][d]);
      }
    }
    for (int dst = 0; dst < p; ++dst)
      if (!buf[dst].empty()) q.sends[r].emplace_back(dst, std::move(buf[dst]));
    comm.chargeWork(r, 40.0 * nrm.nNodes());
  }
  return q;
}

/// Evaluates the old field at every queried key (with the historical
/// answer-compute charge) and builds the reply batches.
template <int DIM>
sim::SparseSends<Real> answerNodalQueries(
    const Mesh<DIM>& oldMesh, const Field& oldF, int ndof,
    const sim::SparseSends<std::uint32_t>& qRecv) {
  sim::SimComm& comm = oldMesh.comm();
  const int p = comm.size();
  constexpr int kC = kNumChildren<DIM>;
  sim::SparseSends<Real> aSends(p);
  std::vector<Real> vals(kC * ndof);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& orm = oldMesh.rank(r);
    for (const auto& [src, buf] : qRecv[r]) {
      const std::size_t nq = buf.size() / DIM;
      std::vector<Real> ans(nq * ndof);
      for (std::size_t i = 0; i < nq; ++i) {
        const NodeKey<DIM> k = queryKey<DIM>(buf, i);
        const std::size_t e = locateNodalQuery(orm, k);
        fem::gatherElem(orm, e, oldF[r], ndof, vals.data());
        evalInElement<DIM>(orm.elems[e], vals.data(), ndof, k,
                           &ans[i * ndof]);
      }
      comm.chargeWork(r, 60.0 * nq * ndof);
      aSends[r].emplace_back(src, std::move(ans));
    }
  }
  return aSends;
}

/// Lands answer payloads into the output field through the pending lists.
template <int DIM>
void scatterNodalAnswers(const sim::SparseSends<Real>& aRecv,
                         const NodalQueries<DIM>& q, int ndof, Field& out) {
  for (std::size_t r = 0; r < aRecv.size(); ++r) {
    for (const auto& [src, ans] : aRecv[r]) {
      const auto& idxs = q.pending[r][src];
      PT_CHECK(ans.size() == idxs.size() * static_cast<std::size_t>(ndof));
      for (std::size_t i = 0; i < idxs.size(); ++i)
        for (int d = 0; d < ndof; ++d)
          out[r][idxs[i] * ndof + d] = ans[i * ndof + d];
    }
  }
}

}  // namespace detail

/// Query-based nodal transfer: for every node of `newMesh`, evaluate the
/// old field at that position. Exact for positions coinciding with old
/// nodes (injection); interpolating otherwise. Handles mixed refinement
/// and coarsening with arbitrary level jumps. Pass `tables` (gathered once
/// per remesh epoch) to skip the per-field splitter allgather.
template <int DIM>
Field transferNodal(const Mesh<DIM>& oldMesh, const Field& oldF,
                    const Mesh<DIM>& newMesh, int ndof,
                    const TransferTables<DIM>* tables = nullptr) {
  sim::SimComm& comm = oldMesh.comm();

  // Old-grid splitters for routing point queries.
  Splitters<DIM> splLocal;
  if (!tables) splLocal = detail::localSplitters(oldMesh);
  const Splitters<DIM>& spl = tables ? tables->spl : splLocal;

  Field out = newMesh.makeField(ndof);
  detail::NodalQueries<DIM> q = detail::buildNodalQueries(newMesh, spl);
  auto qRecv = comm.sparseExchange(q.sends);
  auto aSends = detail::answerNodalQueries(oldMesh, oldF, ndof, qRecv);
  auto aRecv = comm.sparseExchange(aSends);
  detail::scatterNodalAnswers(aRecv, q, ndof, out);
  return out;
}

/// One nodal field of a multi-field transfer epoch.
template <int DIM>
struct NodalTransfer {
  const Field* oldF = nullptr;
  int ndof = 1;
};

/// Asynchronous multi-field nodal transfer epoch (DESIGN.md §15): all
/// fields' query exchanges are posted before any is finished, and each
/// field's answer compute is charged while the previous fields' answer
/// exchanges are still in flight; finishes happen in field order, so the
/// epoch is deterministic. Exchange structure (one query + one answer
/// exchange per field — the collective count the fault-injection tests
/// pin) and every output value are identical to calling transferNodal once
/// per field; only the virtual-clock charge credits the overlap. Falls
/// back to exactly that sequential path when overlap is disabled on the
/// communicator.
template <int DIM>
std::vector<Field> transferNodalMany(const Mesh<DIM>& oldMesh,
                                     const std::vector<NodalTransfer<DIM>>& fs,
                                     const Mesh<DIM>& newMesh,
                                     const TransferTables<DIM>* tables =
                                         nullptr) {
  sim::SimComm& comm = oldMesh.comm();
  const std::size_t nf = fs.size();
  std::vector<Field> out(nf);

  if (!comm.overlapEnabled()) {
    for (std::size_t f = 0; f < nf; ++f)
      out[f] =
          transferNodal(oldMesh, *fs[f].oldF, newMesh, fs[f].ndof, tables);
    return out;
  }

  // The per-field splitter gathers the blocking path would have charged.
  std::vector<Splitters<DIM>> splLocal;
  if (!tables)
    for (std::size_t f = 0; f < nf; ++f)
      splLocal.push_back(detail::localSplitters(oldMesh));
  const Splitters<DIM>& spl = tables ? tables->spl : splLocal.front();

  // Round 1: post every field's query exchange, then finish in order.
  // The queries (and their build charge) are per field, as in the blocking
  // path, but the exchange latencies overlap each other.
  std::vector<detail::NodalQueries<DIM>> qs;
  std::vector<sim::ExchangeHandle<std::uint32_t>> qh(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    qs.push_back(detail::buildNodalQueries(newMesh, spl));
    qh[f] = comm.exchangeStart(qs[f].sends);
  }
  std::vector<sim::SparseSends<std::uint32_t>> qRecv(nf);
  for (std::size_t f = 0; f < nf; ++f) qRecv[f] = comm.exchangeFinish(qh[f]);

  // Round 2: pipeline answer compute against answer exchanges — field f's
  // evaluation work hides under fields 0..f-1's in-flight replies.
  std::vector<sim::ExchangeHandle<Real>> ah(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    auto aSends =
        detail::answerNodalQueries(oldMesh, *fs[f].oldF, fs[f].ndof, qRecv[f]);
    ah[f] = comm.exchangeStart(aSends);
  }
  for (std::size_t f = 0; f < nf; ++f) {
    auto aRecv = comm.exchangeFinish(ah[f]);
    out[f] = newMesh.makeField(fs[f].ndof);
    detail::scatterNodalAnswers(aRecv, qs[f], fs[f].ndof, out[f]);
  }
  return out;
}

/// Push-based coarse-to-fine transfer (the paper's four-step structure).
/// Requires every new leaf to be a descendant-or-equal of an old leaf
/// (pure refinement). Steps: (1) ⊑ search of grid-grid overlaps in the
/// endpoint tables, (2) detach coarse element nodes per destination with
/// shared-node flags, (3) serial interpolation on the fine partition.
template <int DIM>
Field transferNodalPush(const Mesh<DIM>& oldMesh, const Field& oldF,
                        const Mesh<DIM>& newMesh, int ndof) {
  sim::SimComm& comm = oldMesh.comm();
  const int p = comm.size();
  constexpr int kC = kNumChildren<DIM>;

  auto newEnds = PartitionEndpoints<DIM>::fromLocals(
      p, [&](int r) -> const OctList<DIM>& { return newMesh.rank(r).elems; });
  comm.allgather(sim::PerRank<Octant<DIM>>(p));  // endpoint table gather

  // Step 1+2: each old rank routes (octant, corner-values) data to the new
  // ranks its interval overlaps; nodes are detached once per destination
  // via flag-gather (a node shared by many destined elements is packed once).
  struct Packet {
    std::vector<std::uint32_t> octs;   // (x[DIM], level) per element
    std::vector<std::uint32_t> keys;   // DIM per node
    std::vector<Real> vals;            // ndof per node
  };
  sim::PerRank<std::vector<std::pair<int, Packet>>> packets(p);
  std::vector<Real> gath(kC * ndof);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& orm = oldMesh.rank(r);
    if (orm.elems.empty()) continue;
    auto dsts = overlappedRanks(newEnds, orm.elems.front(), orm.elems.back());
    for (int q : dsts) {
      auto [i0, i1] = overlappedLocalRange(orm.elems, newEnds.first[q],
                                           newEnds.last[q]);
      if (i0 >= i1) continue;
      Packet pkt;
      // Flags over local nodes: set once per destination process, then
      // gather flagged nodes contiguously (Sec II-C2e).
      std::vector<char> flag(orm.nNodes(), 0);
      std::vector<std::pair<NodeKey<DIM>, std::array<Real, 8>>> packed;
      for (std::size_t e = i0; e < i1; ++e) {
        const Octant<DIM>& oct = orm.elems[e];
        for (int d = 0; d < DIM; ++d) pkt.octs.push_back(oct.x[d]);
        pkt.octs.push_back(oct.level);
        fem::gatherElem(orm, e, oldF[r], ndof, gath.data());
        for (int c = 0; c < kC; ++c) {
          // Flag the corner by its first support node (corner identity is
          // the vertex key; hanging corners carry their interpolated value).
          const NodeKey<DIM> k = cornerKey(oct, c);
          // Dedup via a map from key; the flag array covers real nodes,
          // hanging corners dedup through the map.
          (void)flag;
          std::array<Real, 8> v{};
          for (int d = 0; d < ndof; ++d) v[d] = gath[c * ndof + d];
          packed.emplace_back(k, v);
        }
      }
      std::sort(packed.begin(), packed.end(),
                [](const auto& a, const auto& b) {
                  return NodeKeyLess<DIM>{}(a.first, b.first);
                });
      packed.erase(std::unique(packed.begin(), packed.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first == b.first;
                               }),
                   packed.end());
      for (const auto& [k, v] : packed) {
        for (int d = 0; d < DIM; ++d) pkt.keys.push_back(k[d]);
        for (int d = 0; d < ndof; ++d) pkt.vals.push_back(v[d]);
      }
      packets[r].emplace_back(q, std::move(pkt));
    }
    comm.chargeWork(r, 30.0 * kC * orm.nElems());
  }
  // Ship (charged as one sparse exchange; payload = octs + keys + vals).
  sim::SparseSends<Real> wire(p);
  for (int r = 0; r < p; ++r)
    for (auto& [q, pkt] : packets[r]) {
      std::vector<Real> flat;
      flat.push_back(static_cast<Real>(pkt.octs.size()));
      flat.push_back(static_cast<Real>(pkt.keys.size()));
      for (auto v : pkt.octs) flat.push_back(static_cast<Real>(v));
      for (auto v : pkt.keys) flat.push_back(static_cast<Real>(v));
      flat.insert(flat.end(), pkt.vals.begin(), pkt.vals.end());
      wire[r].emplace_back(q, std::move(flat));
    }
  auto recv = comm.sparseExchange(wire);

  // Step 3: serial interpolation on the new (fine) partition.
  Field out = newMesh.makeField(ndof);
  for (int r = 0; r < p; ++r) {
    OctList<DIM> oldOcts;
    std::map<NodeKey<DIM>, std::vector<Real>, NodeKeyLess<DIM>> nodeVals;
    for (const auto& [src, flat] : recv[r]) {
      std::size_t at = 0;
      const std::size_t nOct = static_cast<std::size_t>(flat[at++]);
      const std::size_t nKey = static_cast<std::size_t>(flat[at++]);
      for (std::size_t i = 0; i < nOct; i += DIM + 1) {
        Octant<DIM> o;
        for (int d = 0; d < DIM; ++d)
          o.x[d] = static_cast<std::uint32_t>(flat[at++]);
        o.level = static_cast<Level>(flat[at++]);
        oldOcts.push_back(o);
      }
      std::vector<NodeKey<DIM>> keys(nKey / DIM);
      for (auto& k : keys)
        for (int d = 0; d < DIM; ++d)
          k[d] = static_cast<std::uint32_t>(flat[at++]);
      for (const auto& k : keys) {
        std::vector<Real> v(ndof);
        for (int d = 0; d < ndof; ++d) v[d] = flat[at++];
        nodeVals[k] = std::move(v);
      }
    }
    sortOctants(oldOcts);
    const RankMesh<DIM>& nrm = newMesh.rank(r);
    if (nrm.nNodes() == 0) continue;
    PT_CHECK_MSG(!oldOcts.empty() || nrm.nElems() == 0,
                 "fine rank received no coarse data");
    std::vector<Real> corner(kC * ndof);
    for (std::size_t li = 0; li < nrm.nNodes(); ++li) {
      const auto cell = detail::cellPointForKey<DIM>(nrm.nodeKeys[li]);
      const std::int64_t e = locatePoint(oldOcts, cell);
      PT_CHECK_MSG(e >= 0, "received coarse octants do not cover new node");
      const Octant<DIM>& oct = oldOcts[e];
      for (int c = 0; c < kC; ++c) {
        auto it = nodeVals.find(cornerKey(oct, c));
        PT_CHECK_MSG(it != nodeVals.end(), "missing detached corner node");
        for (int d = 0; d < ndof; ++d) corner[c * ndof + d] = it->second[d];
      }
      detail::evalInElement<DIM>(oct, corner.data(), ndof, nrm.nodeKeys[li],
                                 &out[r][li * ndof]);
    }
    comm.chargeWork(r, 80.0 * nrm.nNodes() * ndof);
  }
  return out;
}

/// Per-element (cell-centered) transfer. Copy semantics where the new cell
/// is finer-or-equal than the old cell; volume-weighted averaging where the
/// new cell is coarser (paper: "Cell-centered values might be averaged").
template <int DIM>
sim::PerRank<std::vector<Real>> transferCell(
    const DistTree<DIM>& oldTree,
    const sim::PerRank<std::vector<Real>>& oldVals,
    const DistTree<DIM>& newTree,
    const TransferTables<DIM>* tables = nullptr) {
  sim::SimComm& comm = oldTree.comm();
  const int p = comm.size();
  const Splitters<DIM> spl = tables ? tables->spl : oldTree.splitters();

  sim::PerRank<std::vector<Real>> out(p);
  // Round 1: center query per new cell -> (old level, value).
  sim::SparseSends<std::uint32_t> sends(p);
  sim::PerRank<std::vector<std::vector<std::size_t>>> pending(p);
  for (int r = 0; r < p; ++r) pending[r].resize(p);
  for (int r = 0; r < p; ++r) {
    const auto& elems = newTree.localOf(r);
    out[r].assign(elems.size(), 0.0);
    std::vector<std::vector<std::uint32_t>> buf(p);
    for (std::size_t e = 0; e < elems.size(); ++e) {
      const int owner = detail::cellCenterOwner(spl, elems[e]);
      pending[r][owner].push_back(e);
      for (int d = 0; d < DIM; ++d) buf[owner].push_back(elems[e].x[d]);
      buf[owner].push_back(elems[e].level);
    }
    for (int dst = 0; dst < p; ++dst)
      if (!buf[dst].empty()) sends[r].emplace_back(dst, std::move(buf[dst]));
  }
  auto qRecv = comm.sparseExchange(sends);
  // Old side: for each queried new cell, either copy (old covers new) or
  // compute the partial volume average over old leaves inside the new cell.
  // Partial sums from multiple old ranks are combined by the requester.
  sim::SparseSends<Real> aSends(p);
  for (int r = 0; r < p; ++r) {
    const auto& elems = oldTree.localOf(r);
    for (const auto& [src, buf] : qRecv[r]) {
      const std::size_t nq = buf.size() / (DIM + 1);
      std::vector<Real> ans(nq * 2, 0.0);  // (weightedSum, volume) per query
      for (std::size_t i = 0; i < nq; ++i)
        detail::forEachCellTerm(elems, detail::queryCell<DIM>(buf, i),
                                /*centerOwner=*/true,
                                [&](std::size_t e, Real vol) {
                                  ans[i * 2] += oldVals[r][e] * vol;
                                  ans[i * 2 + 1] += vol;
                                });
      comm.chargeWork(r, 30.0 * nq);
      aSends[r].emplace_back(src, std::move(ans));
    }
  }
  auto aRecv = comm.sparseExchange(aSends);
  // Combine partials. NOTE: center-owner answers cover the copy case fully;
  // for averaging, leaves of nc may spill onto neighbor old ranks of the
  // center owner. Handle by a second round against those ranks.
  sim::PerRank<std::vector<Real>> wsum(p), vsum(p);
  for (int r = 0; r < p; ++r) {
    wsum[r].assign(newTree.localOf(r).size(), 0.0);
    vsum[r].assign(newTree.localOf(r).size(), 0.0);
    for (const auto& [src, ans] : aRecv[r]) {
      const auto& idxs = pending[r][src];
      for (std::size_t i = 0; i < idxs.size(); ++i) {
        wsum[r][idxs[i]] += ans[i * 2];
        vsum[r][idxs[i]] += ans[i * 2 + 1];
      }
    }
  }
  // Round 2: queries whose covered volume is incomplete go to the full
  // overlapped rank range (excluding the already-answered center owner).
  PartitionEndpoints<DIM> endsLocal;
  if (!tables) {
    endsLocal = PartitionEndpoints<DIM>::fromLocals(
        p, [&](int r) -> const OctList<DIM>& { return oldTree.localOf(r); });
    comm.allgather(sim::PerRank<Octant<DIM>>(p));
  }
  const PartitionEndpoints<DIM>& oldEnds = tables ? tables->oldEnds : endsLocal;
  sim::SparseSends<std::uint32_t> sends2(p);
  sim::PerRank<std::vector<std::vector<std::size_t>>> pending2(p);
  for (int r = 0; r < p; ++r) pending2[r].resize(p);
  for (int r = 0; r < p; ++r) {
    const auto& elems = newTree.localOf(r);
    std::vector<std::vector<std::uint32_t>> buf(p);
    for (std::size_t e = 0; e < elems.size(); ++e)
      detail::forEachRound2Rank(spl, oldEnds, elems[e], vsum[r][e],
                                [&](int q) {
                                  pending2[r][q].push_back(e);
                                  for (int d = 0; d < DIM; ++d)
                                    buf[q].push_back(elems[e].x[d]);
                                  buf[q].push_back(elems[e].level);
                                });
    for (int dst = 0; dst < p; ++dst)
      if (!buf[dst].empty()) sends2[r].emplace_back(dst, std::move(buf[dst]));
  }
  auto qRecv2 = comm.sparseExchange(sends2);
  sim::SparseSends<Real> aSends2(p);
  for (int r = 0; r < p; ++r) {
    const auto& elems = oldTree.localOf(r);
    for (const auto& [src, buf] : qRecv2[r]) {
      const std::size_t nq = buf.size() / (DIM + 1);
      std::vector<Real> ans(nq * 2, 0.0);
      for (std::size_t i = 0; i < nq; ++i)
        detail::forEachCellTerm(elems, detail::queryCell<DIM>(buf, i),
                                /*centerOwner=*/false,
                                [&](std::size_t e, Real vol) {
                                  ans[i * 2] += oldVals[r][e] * vol;
                                  ans[i * 2 + 1] += vol;
                                });
      aSends2[r].emplace_back(src, std::move(ans));
    }
  }
  auto aRecv2 = comm.sparseExchange(aSends2);
  for (int r = 0; r < p; ++r) {
    for (const auto& [src, ans] : aRecv2[r]) {
      const auto& idxs = pending2[r][src];
      for (std::size_t i = 0; i < idxs.size(); ++i) {
        wsum[r][idxs[i]] += ans[i * 2];
        vsum[r][idxs[i]] += ans[i * 2 + 1];
      }
    }
    for (std::size_t e = 0; e < out[r].size(); ++e) {
      PT_CHECK_MSG(vsum[r][e] > 0, "new cell not covered by old grid");
      out[r][e] = wsum[r][e] / vsum[r][e];
    }
  }
  return out;
}

// ---- Transfer plans between fixed mesh pairs -------------------------------
//
// GMG restricts and prolongs between the same two meshes on every V-cycle
// until the next remesh. A plan resolves once what transferNodal /
// transferCell recompute per call — splitter routing, the query exchange,
// point location, shape weights, covered volumes — so an apply is the local
// arithmetic plus ONE values-only sparse exchange (charged through
// SimComm::chargeSparseExchange with the answer payload sizes; the values
// land directly in the caller's output) and no allgather. Applies evaluate
// the same expressions in the same order as the per-call transfers, so
// they are bitwise identical to them.

/// Nodal transfer plan: one entry per new-mesh node, holding the old-mesh
/// element it evaluates in, its kNodes shape weights and its landing node.
/// Entries are grouped by answering (old-mesh) rank and, within it, by
/// requesting (new-mesh) rank in ascending order — the batch order of
/// transferNodal.
template <int DIM>
struct NodalPlan {
  /// Per answering rank: (requesting rank, entry count), ascending.
  sim::PerRank<std::vector<std::pair<int, std::size_t>>> batches;
  /// Per answering rank, per entry: source element (answering rank's local
  /// index) and landing node (requesting rank's local index).
  sim::PerRank<std::vector<std::uint32_t>> elem, land;
  /// Per answering rank: kNodes shape weights per entry.
  sim::PerRank<std::vector<Real>> weights;
};

/// Builds the plan of transferNodal(oldMesh, ., newMesh, .) with the same
/// query helpers: charges its splitter gather, query build, query exchange
/// and point location once.
template <int DIM>
NodalPlan<DIM> buildNodalPlan(const Mesh<DIM>& oldMesh,
                              const Mesh<DIM>& newMesh) {
  sim::SimComm& comm = oldMesh.comm();
  const int p = comm.size();
  constexpr int kC = kNumChildren<DIM>;
  detail::NodalQueries<DIM> q =
      detail::buildNodalQueries(newMesh, detail::localSplitters(oldMesh));
  auto qRecv = comm.sparseExchange(q.sends);
  NodalPlan<DIM> plan;
  plan.batches.resize(p);
  plan.elem.resize(p);
  plan.land.resize(p);
  plan.weights.resize(p);
  for (int r = 0; r < p; ++r) {
    const RankMesh<DIM>& orm = oldMesh.rank(r);
    std::size_t n = 0;  // exact sizes: plans live as long as the hierarchy
    for (const auto& [src, buf] : qRecv[r]) n += buf.size() / DIM;
    plan.elem[r].reserve(n);
    plan.land[r].reserve(n);
    plan.weights[r].reserve(n * kC);
    for (const auto& [src, buf] : qRecv[r]) {
      const std::size_t nq = buf.size() / DIM;
      const auto& idxs = q.pending[src][r];
      PT_CHECK(idxs.size() == nq);
      plan.batches[r].emplace_back(src, nq);
      for (std::size_t i = 0; i < nq; ++i) {
        const NodeKey<DIM> k = detail::queryKey<DIM>(buf, i);
        const std::size_t e = detail::locateNodalQuery(orm, k);
        plan.elem[r].push_back(static_cast<std::uint32_t>(e));
        plan.land[r].push_back(static_cast<std::uint32_t>(idxs[i]));
        plan.weights[r].resize(plan.weights[r].size() + kC);
        detail::shapeWeights<DIM>(orm.elems[e], k,
                                  plan.weights[r].data() +
                                      plan.weights[r].size() - kC);
      }
      comm.chargeWork(r, 40.0 * nq);
    }
  }
  return plan;
}

/// Applies a nodal plan: out (a new-mesh field of `ndof`, sized by the
/// caller) receives oldF evaluated at every new node — bitwise what
/// transferNodal returns. Allocates no field storage.
template <int DIM>
void applyNodalPlan(const NodalPlan<DIM>& plan, const Mesh<DIM>& oldMesh,
                    const Field& oldF, int ndof, Field& out) {
  constexpr int kC = kNumChildren<DIM>;
  constexpr int kMaxNdof = 8;
  PT_CHECK(ndof >= 1 && ndof <= kMaxNdof);
  sim::SimComm& comm = oldMesh.comm();
  Real vals[kC * kMaxNdof];
  for (int r = 0; r < comm.size(); ++r) {
    const RankMesh<DIM>& orm = oldMesh.rank(r);
    const std::uint32_t* elem = plan.elem[r].data();
    const std::uint32_t* land = plan.land[r].data();
    const Real* w = plan.weights[r].data();
    std::size_t i = 0;
    for (const auto& [dst, n] : plan.batches[r]) {
      Real* o = out[dst].data();
      for (const std::size_t end = i + n; i < end; ++i) {
        fem::gatherElem(orm, elem[i], oldF[r], ndof, vals);
        detail::weightedSum<DIM>(w + i * kC, vals, ndof,
                                 o + std::size_t(land[i]) * ndof);
      }
    }
    comm.chargeWork(r, 2.0 * kC * ndof * static_cast<double>(i));
  }
  comm.chargeSparseExchange(plan.batches, sizeof(Real) * ndof);
}

/// Cell (volume-average) transfer plan. Each answered query of
/// transferCell — round 1 (center owner) or round 2 (the other overlapped
/// old ranks) — becomes one partial weighted sum of old-leaf terms on its
/// answering rank; each new cell sums its partials in transferCell's
/// combine order and divides by its covered volume.
template <int DIM>
struct CellPlan {
  /// Per answering (old-tree) rank: (requesting rank, partial count),
  /// ascending; a requester's round-1 partials precede its round-2 ones.
  sim::PerRank<std::vector<std::pair<int, std::size_t>>> batches;
  /// Per answering rank: CSR over partials of their (old leaf, volume)
  /// terms, in summation order.
  sim::PerRank<std::vector<std::size_t>> termStart;
  sim::PerRank<std::vector<std::uint32_t>> termLeaf;
  sim::PerRank<std::vector<Real>> termVol;
  /// Per requesting (new-tree) rank: CSR over new cells of the partials
  /// they sum, as (answering rank, partial index): the center owner's
  /// first, then the other overlapped ranks ascending.
  sim::PerRank<std::vector<std::size_t>> partStart;
  sim::PerRank<std::vector<std::pair<int, std::uint32_t>>> parts;
  /// Per requesting rank, per new cell: the covered volume (the divisor).
  sim::PerRank<std::vector<Real>> vol;
};

/// Builds the plan of transferCell(oldTree, ., newTree): charges the
/// routing-table gather and both rounds' query and (volume) reply
/// exchanges once.
template <int DIM>
CellPlan<DIM> buildCellPlan(const DistTree<DIM>& oldTree,
                            const DistTree<DIM>& newTree) {
  sim::SimComm& comm = oldTree.comm();
  const int p = comm.size();
  const TransferTables<DIM> tables = gatherTransferTables(oldTree);
  // One partial as recorded by its answering rank.
  struct Partial {
    std::size_t cell;  ///< new cell (requesting rank's local index)
    std::vector<std::pair<std::uint32_t, Real>> terms;
  };
  // [round][answering rank][requesting rank] -> partials in query order.
  std::vector<sim::PerRank<std::vector<std::vector<Partial>>>> recs(
      2, sim::PerRank<std::vector<std::vector<Partial>>>(
             p, std::vector<std::vector<Partial>>(p)));
  sim::PerRank<std::vector<Real>> vsum(p);
  for (int r = 0; r < p; ++r) vsum[r].assign(newTree.localOf(r).size(), 0.0);

  // One round: route each selected new cell to its ranks, record the
  // answering terms, and accumulate the replied partial volumes.
  auto round = [&](int rd, auto&& routeCell) {
    sim::SparseSends<std::uint32_t> sends(p);
    sim::PerRank<std::vector<std::vector<std::size_t>>> pending(p);
    for (int r = 0; r < p; ++r) {
      pending[r].resize(p);
      const auto& elems = newTree.localOf(r);
      std::vector<std::vector<std::uint32_t>> buf(p);
      for (std::size_t e = 0; e < elems.size(); ++e)
        routeCell(r, e, [&](int q) {
          pending[r][q].push_back(e);
          for (int d = 0; d < DIM; ++d) buf[q].push_back(elems[e].x[d]);
          buf[q].push_back(elems[e].level);
        });
      for (int dst = 0; dst < p; ++dst)
        if (!buf[dst].empty())
          sends[r].emplace_back(dst, std::move(buf[dst]));
    }
    auto qRecv = comm.sparseExchange(sends);
    sim::SparseSends<Real> aSends(p);
    for (int q = 0; q < p; ++q) {
      const auto& elems = oldTree.localOf(q);
      for (const auto& [src, buf] : qRecv[q]) {
        const std::size_t nq = buf.size() / (DIM + 1);
        std::vector<Real> vols(nq, 0.0);
        auto& out = recs[rd][q][src];
        for (std::size_t i = 0; i < nq; ++i) {
          Partial part{pending[src][q][i], {}};
          detail::forEachCellTerm(elems, detail::queryCell<DIM>(buf, i),
                                  rd == 0, [&](std::size_t e, Real v) {
                                    part.terms.emplace_back(e, v);
                                    vols[i] += v;
                                  });
          out.push_back(std::move(part));
        }
        aSends[q].emplace_back(src, std::move(vols));
      }
    }
    auto aRecv = comm.sparseExchange(aSends);
    for (int r = 0; r < p; ++r)
      for (const auto& [src, vols] : aRecv[r])
        for (std::size_t i = 0; i < vols.size(); ++i)
          vsum[r][pending[r][src][i]] += vols[i];
  };
  round(0, [&](int r, std::size_t e, auto&& to) {
    to(detail::cellCenterOwner(tables.spl, newTree.localOf(r)[e]));
  });
  round(1, [&](int r, std::size_t e, auto&& to) {
    detail::forEachRound2Rank(tables.spl, tables.oldEnds, newTree.localOf(r)[e],
                              vsum[r][e], to);
  });

  CellPlan<DIM> plan;
  plan.batches.resize(p);
  plan.termStart.resize(p);
  plan.termLeaf.resize(p);
  plan.termVol.resize(p);
  plan.partStart.resize(p);
  plan.parts.resize(p);
  plan.vol = std::move(vsum);
  // Requester side, per round and new cell: the partials it sums, round 2's
  // in ascending answering rank (the loop order below).
  using PartRefs = std::vector<std::pair<int, std::uint32_t>>;
  std::vector<sim::PerRank<std::vector<PartRefs>>> by(
      2, sim::PerRank<std::vector<PartRefs>>(p));
  for (int rd = 0; rd < 2; ++rd)
    for (int r = 0; r < p; ++r) by[rd][r].resize(newTree.localOf(r).size());
  for (int q = 0; q < p; ++q) {
    std::size_t nParts = 0, nTerms = 0;
    for (int rd = 0; rd < 2; ++rd)
      for (int dst = 0; dst < p; ++dst)
        for (const Partial& part : recs[rd][q][dst]) {
          ++nParts;
          nTerms += part.terms.size();
        }
    plan.termStart[q].reserve(nParts + 1);
    plan.termLeaf[q].reserve(nTerms);
    plan.termVol[q].reserve(nTerms);
    plan.termStart[q].push_back(0);
    for (int dst = 0; dst < p; ++dst) {
      std::size_t n = 0;
      for (int rd = 0; rd < 2; ++rd)
        for (const Partial& part : recs[rd][q][dst]) {
          by[rd][dst][part.cell].emplace_back(
              q, static_cast<std::uint32_t>(plan.termStart[q].size() - 1));
          for (const auto& [e, v] : part.terms) {
            plan.termLeaf[q].push_back(e);
            plan.termVol[q].push_back(v);
          }
          plan.termStart[q].push_back(plan.termLeaf[q].size());
          ++n;
        }
      if (n) plan.batches[q].emplace_back(dst, n);
    }
  }
  for (int r = 0; r < p; ++r) {
    std::size_t nRefs = 0;
    for (int rd = 0; rd < 2; ++rd)
      for (const PartRefs& refs : by[rd][r]) nRefs += refs.size();
    plan.partStart[r].reserve(plan.vol[r].size() + 1);
    plan.parts[r].reserve(nRefs);
    plan.partStart[r].push_back(0);
    for (std::size_t e = 0; e < plan.vol[r].size(); ++e) {
      PT_CHECK_MSG(plan.vol[r][e] > 0, "new cell not covered by old grid");
      for (int rd = 0; rd < 2; ++rd)
        plan.parts[r].insert(plan.parts[r].end(), by[rd][r][e].begin(),
                             by[rd][r][e].end());
      plan.partStart[r].push_back(plan.parts[r].size());
    }
  }
  return plan;
}

/// Applies a cell plan to per-element old values — bitwise what
/// transferCell returns.
template <int DIM>
sim::PerRank<std::vector<Real>> applyCellPlan(
    sim::SimComm& comm, const CellPlan<DIM>& plan,
    const sim::PerRank<std::vector<Real>>& oldVals) {
  const int p = comm.size();
  sim::PerRank<std::vector<Real>> partial(p), out(p);
  for (int q = 0; q < p; ++q) {
    const std::size_t np = plan.termStart[q].size() - 1;
    partial[q].resize(np);
    for (std::size_t i = 0; i < np; ++i) {
      Real acc = 0.0;
      for (std::size_t t = plan.termStart[q][i]; t < plan.termStart[q][i + 1];
           ++t)
        acc += oldVals[q][plan.termLeaf[q][t]] * plan.termVol[q][t];
      partial[q][i] = acc;
    }
    comm.chargeWork(q, 2.0 * static_cast<double>(plan.termLeaf[q].size()));
  }
  comm.chargeSparseExchange(plan.batches, sizeof(Real));
  for (int r = 0; r < p; ++r) {
    const std::size_t nc = plan.vol[r].size();
    out[r].resize(nc);
    for (std::size_t e = 0; e < nc; ++e) {
      Real wsum = 0.0;
      for (std::size_t k = plan.partStart[r][e]; k < plan.partStart[r][e + 1];
           ++k)
        wsum += partial[plan.parts[r][k].first][plan.parts[r][k].second];
      out[r][e] = wsum / plan.vol[r][e];
    }
  }
  return out;
}

}  // namespace pt::intergrid

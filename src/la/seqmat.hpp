// Sequential sparse matrices: AIJ (CSR) and block BAIJ (BSR) storage with
// MatSetValues / AssemblyBegin / AssemblyEnd semantics mirroring the PETSc
// interface the paper builds on (Sec II-D). The paper stores global
// matrices as MATMPIBAIJ because the block format "has been demonstrated to
// be much more efficient than the non-block version MATMPIAIJ, specifically
// for the multi-dof system" — the abl4 benchmark measures exactly that on
// these two implementations.
#pragma once

#include <algorithm>
#include <map>
#include <vector>

#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "support/types.hpp"

namespace pt::la {

enum class InsertMode { kAdd, kInsert };

/// Scalar-nnz count below which SpMV stays serial (fork-join overhead is
/// not worth it, and small solves remain bit-identical to the historical
/// loops — though row-partitioned SpMV is bit-identical at any thread count
/// anyway, since each row is written by exactly one partition).
inline constexpr std::size_t kSpmvThreadMin = 16384;

namespace seqdetail {

/// Runs body(rowBegin, rowEnd) over [0, nRows), threaded over contiguous
/// row ranges when the matrix is big enough. Rows must be independent.
template <typename Body>
inline void forRows(GlobalIdx nRows, std::size_t scalarNnz, Body&& body) {
  auto& pool = support::ThreadPool::instance();
  if (pool.threads() <= 1 || scalarNnz < kSpmvThreadMin) {
    body(GlobalIdx{0}, nRows);
    return;
  }
  pool.parallelFor(static_cast<std::size_t>(nRows),
                   [&](int, std::size_t b, std::size_t e) {
                     body(static_cast<GlobalIdx>(b),
                          static_cast<GlobalIdx>(e));
                   });
}

}  // namespace seqdetail

/// Compressed sparse row matrix (PETSc MATAIJ analogue).
class CsrMatrix {
 public:
  explicit CsrMatrix(GlobalIdx rows = 0, GlobalIdx cols = 0)
      : rows_(rows), cols_(cols) {}

  GlobalIdx rows() const { return rows_; }
  GlobalIdx cols() const { return cols_; }
  bool assembled() const { return assembled_; }
  std::size_t nnz() const { return val_.size(); }

  /// Accumulates (or inserts) a value; legal only before assemblyEnd().
  void setValue(GlobalIdx i, GlobalIdx j, Real v,
                InsertMode mode = InsertMode::kAdd) {
    PT_CHECK_MSG(!assembled_, "matrix already assembled");
    PT_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    auto [it, inserted] = coo_.try_emplace({i, j}, v);
    if (!inserted) {
      if (mode == InsertMode::kAdd)
        it->second += v;
      else
        it->second = v;
    }
  }

  /// MatAssemblyBegin/End analogue: freezes the pattern and builds CSR.
  void assemblyEnd() {
    PT_CHECK(!assembled_);
    rowPtr_.assign(rows_ + 1, 0);
    colIdx_.resize(coo_.size());
    val_.resize(coo_.size());
    for (const auto& [ij, v] : coo_) ++rowPtr_[ij.first + 1];
    for (GlobalIdx i = 0; i < rows_; ++i) rowPtr_[i + 1] += rowPtr_[i];
    std::vector<GlobalIdx> cursor(rowPtr_.begin(), rowPtr_.end() - 1);
    for (const auto& [ij, v] : coo_) {
      const GlobalIdx at = cursor[ij.first]++;
      colIdx_[at] = ij.second;
      val_[at] = v;
    }
    coo_.clear();
    assembled_ = true;
  }

  /// Re-opens assembly while keeping the structure: values may be updated
  /// in place (the paper's matrix-reuse remark for VU-solve).
  void zeroRetainPattern() {
    PT_CHECK(assembled_);
    std::fill(val_.begin(), val_.end(), 0.0);
  }

  /// Adds into an existing (assembled) slot; the slot must exist. colIdx_
  /// is sorted within each row (assemblyEnd drains an ordered map), so the
  /// slot is found by binary search instead of a linear row scan.
  void addValueAssembled(GlobalIdx i, GlobalIdx j, Real v) {
    PT_CHECK(assembled_);
    const auto first = colIdx_.begin() + rowPtr_[i];
    const auto last = colIdx_.begin() + rowPtr_[i + 1];
    const auto it = std::lower_bound(first, last, j);
    PT_CHECK_MSG(it != last && *it == j,
                 "addValueAssembled: entry outside pattern");
    val_[it - colIdx_.begin()] += v;
  }

  /// y = A x, threaded over contiguous row ranges (each row written by
  /// exactly one partition — bit-identical to the serial loop).
  void multiply(const std::vector<Real>& x, std::vector<Real>& y) const {
    PT_CHECK(assembled_);
    PT_CHECK(static_cast<GlobalIdx>(x.size()) == cols_);
    y.assign(rows_, 0.0);
    seqdetail::forRows(rows_, val_.size(), [&](GlobalIdx rb, GlobalIdx re) {
      for (GlobalIdx i = rb; i < re; ++i) {
        Real acc = 0;
        for (GlobalIdx k = rowPtr_[i]; k < rowPtr_[i + 1]; ++k)
          acc += val_[k] * x[colIdx_[k]];
        y[i] = acc;
      }
    });
  }

  Real diagonal(GlobalIdx i) const {
    for (GlobalIdx k = rowPtr_[i]; k < rowPtr_[i + 1]; ++k)
      if (colIdx_[k] == i) return val_[k];
    return 0.0;
  }

  const std::vector<Real>& values() const { return val_; }

 private:
  GlobalIdx rows_, cols_;
  bool assembled_ = false;
  std::map<std::pair<GlobalIdx, GlobalIdx>, Real> coo_;
  std::vector<GlobalIdx> rowPtr_, colIdx_;
  std::vector<Real> val_;
};

/// Block CSR matrix (PETSc MATBAIJ analogue). The block size is the number
/// of DOFs per node; block row i covers scalar rows [i*bs, (i+1)*bs).
class BsrMatrix {
 public:
  BsrMatrix(GlobalIdx blockRows, GlobalIdx blockCols, int bs)
      : brows_(blockRows), bcols_(blockCols), bs_(bs) {}

  GlobalIdx blockRows() const { return brows_; }
  bool assembled() const { return assembled_; }
  std::size_t nnzBlocks() const { return colIdx_.size(); }

  /// Adds into scalar entry (i, j) — routed to the containing block.
  void setValue(GlobalIdx i, GlobalIdx j, Real v,
                InsertMode mode = InsertMode::kAdd) {
    PT_CHECK_MSG(!assembled_, "matrix already assembled");
    const GlobalIdx bi = i / bs_, bj = j / bs_;
    const int oi = static_cast<int>(i % bs_), oj = static_cast<int>(j % bs_);
    auto [it, inserted] =
        coo_.try_emplace({bi, bj}, std::vector<Real>(bs_ * bs_, 0.0));
    Real& slot = it->second[oi * bs_ + oj];
    if (mode == InsertMode::kAdd)
      slot += v;
    else
      slot = v;
  }

  /// Adds a full bs x bs block at block position (bi, bj), row-major.
  void addBlock(GlobalIdx bi, GlobalIdx bj, const Real* block) {
    PT_CHECK(!assembled_);
    auto [it, inserted] =
        coo_.try_emplace({bi, bj}, std::vector<Real>(bs_ * bs_, 0.0));
    for (int k = 0; k < bs_ * bs_; ++k) it->second[k] += block[k];
  }

  void assemblyEnd() {
    PT_CHECK(!assembled_);
    rowPtr_.assign(brows_ + 1, 0);
    colIdx_.resize(coo_.size());
    val_.resize(coo_.size() * bs_ * bs_);
    for (const auto& [ij, blk] : coo_) ++rowPtr_[ij.first + 1];
    for (GlobalIdx i = 0; i < brows_; ++i) rowPtr_[i + 1] += rowPtr_[i];
    std::vector<GlobalIdx> cursor(rowPtr_.begin(), rowPtr_.end() - 1);
    for (const auto& [ij, blk] : coo_) {
      const GlobalIdx at = cursor[ij.first]++;
      colIdx_[at] = ij.second;
      std::copy(blk.begin(), blk.end(), val_.begin() + at * bs_ * bs_);
    }
    coo_.clear();
    assembled_ = true;
  }

  void zeroRetainPattern() {
    PT_CHECK(assembled_);
    std::fill(val_.begin(), val_.end(), 0.0);
  }

  /// Adds into an existing (assembled) block slot via binary search on the
  /// sorted block-column index (the BAIJ analogue of the CSR fast path).
  void addBlockAssembled(GlobalIdx bi, GlobalIdx bj, const Real* block) {
    Real* dst = blockSlot(bi, bj);
    for (int k = 0; k < bs_ * bs_; ++k) dst[k] += block[k];
  }

  /// Adds into an assembled scalar entry (i, j); the containing block must
  /// exist in the pattern.
  void addValueAssembled(GlobalIdx i, GlobalIdx j, Real v) {
    Real* dst = blockSlot(i / bs_, j / bs_);
    dst[(i % bs_) * bs_ + (j % bs_)] += v;
  }

  /// y = A x on scalar vectors of length blockCols*bs / blockRows*bs.
  /// Dispatches to a block-size-templated microkernel (bs = 1..5 covers
  /// scalar systems through DIM+2 coupled CHNS blocks) and threads over
  /// contiguous block-row ranges; falls back to the generic loop for other
  /// block sizes. Bit-identical to multiplyGeneric: per-block inner
  /// products associate in the same order, row accumulators add block
  /// contributions in column order, and each block row is written by
  /// exactly one partition.
  void multiply(const std::vector<Real>& x, std::vector<Real>& y) const {
    PT_CHECK(assembled_);
    PT_CHECK(static_cast<GlobalIdx>(x.size()) == bcols_ * bs_);
    y.assign(brows_ * bs_, 0.0);
    switch (bs_) {
      case 1: multiplyBlocked<1>(x, y); break;
      case 2: multiplyBlocked<2>(x, y); break;
      case 3: multiplyBlocked<3>(x, y); break;
      case 4: multiplyBlocked<4>(x, y); break;
      case 5: multiplyBlocked<5>(x, y); break;
      default: multiplyCore(0, brows_, x, y); break;
    }
  }

  /// The pre-microkernel runtime-bs serial loop, kept as the measured
  /// baseline for the blocked path (bench abl4 / fig5 BSR section).
  void multiplyGeneric(const std::vector<Real>& x,
                       std::vector<Real>& y) const {
    PT_CHECK(assembled_);
    PT_CHECK(static_cast<GlobalIdx>(x.size()) == bcols_ * bs_);
    y.assign(brows_ * bs_, 0.0);
    multiplyCore(0, brows_, x, y);
  }

  /// Copies the diagonal block of block-row bi (bs x bs, row-major).
  void diagonalBlock(GlobalIdx bi, Real* out) const {
    std::fill(out, out + bs_ * bs_, 0.0);
    for (GlobalIdx k = rowPtr_[bi]; k < rowPtr_[bi + 1]; ++k)
      if (colIdx_[k] == bi) {
        std::copy(val_.begin() + k * bs_ * bs_,
                  val_.begin() + (k + 1) * bs_ * bs_, out);
        return;
      }
  }

 private:
  Real* blockSlot(GlobalIdx bi, GlobalIdx bj) {
    PT_CHECK(assembled_);
    const auto first = colIdx_.begin() + rowPtr_[bi];
    const auto last = colIdx_.begin() + rowPtr_[bi + 1];
    const auto it = std::lower_bound(first, last, bj);
    PT_CHECK_MSG(it != last && *it == bj,
                 "addBlockAssembled: block outside pattern");
    return val_.data() + (it - colIdx_.begin()) * bs_ * bs_;
  }

  // Runtime-bs row-range kernel (generic baseline and default dispatch).
  void multiplyCore(GlobalIdx rb, GlobalIdx re, const std::vector<Real>& x,
                    std::vector<Real>& y) const {
    const int bs2 = bs_ * bs_;
    for (GlobalIdx bi = rb; bi < re; ++bi) {
      Real* yb = y.data() + bi * bs_;
      for (GlobalIdx k = rowPtr_[bi]; k < rowPtr_[bi + 1]; ++k) {
        const Real* blk = val_.data() + k * bs2;
        const Real* xb = x.data() + colIdx_[k] * bs_;
        for (int oi = 0; oi < bs_; ++oi) {
          Real acc = 0;
          for (int oj = 0; oj < bs_; ++oj) acc += blk[oi * bs_ + oj] * xb[oj];
          yb[oi] += acc;
        }
      }
    }
  }

  // Compile-time-bs microkernel: the row's accumulators live in registers
  // across its blocks (one store per scalar row instead of one per block),
  // and the fully unrolled BS x BS inner product lets the compiler schedule
  // loads. Same association order as multiplyCore, so bitwise equal.
  template <int BS>
  void multiplyBlocked(const std::vector<Real>& x,
                       std::vector<Real>& y) const {
    seqdetail::forRows(
        brows_, val_.size(), [&](GlobalIdx rb, GlobalIdx re) {
          constexpr int kBs2 = BS * BS;
          for (GlobalIdx bi = rb; bi < re; ++bi) {
            Real acc[BS] = {};
            for (GlobalIdx k = rowPtr_[bi]; k < rowPtr_[bi + 1]; ++k) {
              const Real* blk = val_.data() + k * kBs2;
              const Real* xb = x.data() + colIdx_[k] * BS;
              for (int oi = 0; oi < BS; ++oi) {
                Real t = 0;
                for (int oj = 0; oj < BS; ++oj) t += blk[oi * BS + oj] * xb[oj];
                acc[oi] += t;
              }
            }
            Real* yb = y.data() + bi * BS;
            for (int oi = 0; oi < BS; ++oi) yb[oi] = acc[oi];
          }
        });
  }

  GlobalIdx brows_, bcols_;
  int bs_;
  bool assembled_ = false;
  std::map<std::pair<GlobalIdx, GlobalIdx>, std::vector<Real>> coo_;
  std::vector<GlobalIdx> rowPtr_, colIdx_;
  std::vector<Real> val_;
};

/// Solves the small dense system L x = b in place (Gaussian elimination
/// with partial pivoting); used by block-Jacobi preconditioners.
inline void denseSolve(int n, std::vector<Real> A, Real* x) {
  std::vector<int> piv(n);
  for (int i = 0; i < n; ++i) piv[i] = i;
  for (int c = 0; c < n; ++c) {
    int best = c;
    for (int r = c + 1; r < n; ++r)
      if (std::abs(A[r * n + c]) > std::abs(A[best * n + c])) best = r;
    if (best != c) {
      for (int j = 0; j < n; ++j) std::swap(A[c * n + j], A[best * n + j]);
      std::swap(x[c], x[best]);
    }
    const Real d = A[c * n + c];
    PT_CHECK_MSG(std::abs(d) > 1e-300, "singular block in denseSolve");
    for (int r = c + 1; r < n; ++r) {
      const Real f = A[r * n + c] / d;
      if (f == 0.0) continue;
      for (int j = c; j < n; ++j) A[r * n + j] -= f * A[c * n + j];
      x[r] -= f * x[c];
    }
  }
  for (int r = n - 1; r >= 0; --r) {
    Real s = x[r];
    for (int j = r + 1; j < n; ++j) s -= A[r * n + j] * x[j];
    x[r] = s / A[r * n + r];
  }
}

/// In-place LU factorization with partial pivoting (LAPACK getrf layout:
/// U on and above the diagonal, multipliers below, piv[c] = pivot row of
/// step c). The elimination performs the same arithmetic in the same order
/// as denseSolve, so denseSolveFactored on the result reproduces
/// denseSolve(n, A, x) bitwise — which is what lets block-Jacobi cache
/// factorizations across Krylov/Newton iterations without perturbing
/// convergence histories.
inline void denseFactor(int n, Real* A, int* piv) {
  for (int c = 0; c < n; ++c) {
    int best = c;
    for (int r = c + 1; r < n; ++r)
      if (std::abs(A[r * n + c]) > std::abs(A[best * n + c])) best = r;
    piv[c] = best;
    if (best != c)
      for (int j = 0; j < n; ++j) std::swap(A[c * n + j], A[best * n + j]);
    const Real d = A[c * n + c];
    PT_CHECK_MSG(std::abs(d) > 1e-300, "singular block in denseFactor");
    for (int r = c + 1; r < n; ++r) {
      const Real f = A[r * n + c] / d;
      if (f != 0.0)
        for (int j = c + 1; j < n; ++j) A[r * n + j] -= f * A[c * n + j];
      A[r * n + c] = f;
    }
  }
}

/// Solves L U x = P x using a denseFactor result; bitwise identical to
/// denseSolve with the same input matrix (multipliers equal the f values
/// denseSolve computes, applied to x in the same order, f == 0 skipped the
/// same way to preserve signed zeros).
inline void denseSolveFactored(int n, const Real* A, const int* piv,
                               Real* x) {
  for (int c = 0; c < n; ++c) {
    if (piv[c] != c) std::swap(x[c], x[piv[c]]);
    for (int r = c + 1; r < n; ++r) {
      const Real f = A[r * n + c];
      if (f != 0.0) x[r] -= f * x[c];
    }
  }
  for (int r = n - 1; r >= 0; --r) {
    Real s = x[r];
    for (int j = r + 1; j < n; ++j) s -= A[r * n + j] * x[j];
    x[r] = s / A[r * n + r];
  }
}

}  // namespace pt::la

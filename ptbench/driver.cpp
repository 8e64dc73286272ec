// PhaseTree benchmark driver: runs one named workload as a closed loop from
// one process and writes a raw JSON record (per-step samples, setup times,
// correctness checks, field fingerprints, and — in the traced run — spans
// and layer probes). run.py builds this file, runs it, turns the record
// into the end-to-end and per-layer metrics, and checks the fingerprints
// against reference.json.
//
//   ptbench --workload drop|bubble|adapt|farm --seed N --seconds S
//           --trace 0|1 --out record.json [--workdir DIR]
//
// Each workload issues its next timestep (or adapt cycle, or farm round)
// only after the previous one returns. Every run covers all kVariants
// drop-centre/radius jitters (the farm: all eight scenarios); the seed sets
// the order. The library sees only the generated inputs.
//
// Timing rules. A campaign is a fixed number of operations (timesteps, or
// adapt cycles) from a fresh set-up; its final state is fingerprinted. A
// timed run measures whole cycles of campaigns, one per variant, until
// --seconds of operation time have been measured (the farm: whole rounds of
// all jobs). Every set-up is timed. Nothing else runs inside an operation
// timer: per-step diagnostics (mass, energy, finiteness, counters) are read
// between operations. The traced run (--trace 1) repeats the cycle with
// spans and the layer probes between operations, and each traced campaign
// must end bitwise equal to its untraced twin.
// Spans are recorded here, around public calls into each module; the
// library's own PT_TRACE ring is not used.
#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "amr/remesh.hpp"
#include "apps/fields.hpp"
#include "chns/checkpoint.hpp"
#include "chns/solver.hpp"
#include "farm/farm.hpp"
#include "fem/matvec_batched.hpp"
#include "intergrid/transfer.hpp"
#include "la/gmg.hpp"
#include "la/pc.hpp"
#include "localcahn/identifier.hpp"
#include "support/buildinfo.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace pt;

constexpr int kFarmSetups = 3;  // timed farm set-up repetitions per run
constexpr int kVariants = 4;  // distinct seeded inputs (see reference.json)

/// A pool width, never above the host's cores.
int poolThreads(unsigned want) {
  return static_cast<int>(std::clamp(
      want, 1u, std::max(1u, std::thread::hardware_concurrency())));
}

// The farm's pool, and the thread count the 1-thread solver workloads are
// checked against.
const int kMaxThreads = poolThreads(4);

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- JSON output ----------------------------------------------------------

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char b[40];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    o += c;
  }
  return o + "\"";
}

/// Builds one JSON object from raw (already serialized) values.
class Obj {
 public:
  Obj& raw(const std::string& k, const std::string& v) {
    s_ += (s_.size() > 1 ? "," : "") + jstr(k) + ":" + v;
    return *this;
  }
  Obj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  Obj& str(const std::string& k, const std::string& v) {
    return raw(k, jstr(v));
  }
  std::string done() const { return s_ + "}"; }

 private:
  std::string s_ = "{";
};

std::string jnums(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) o += (i ? "," : "") + jnum(v[i]);
  return o + "]";
}

std::string jmap(const std::map<std::string, double>& m) {
  Obj o;
  for (const auto& [k, v] : m) o.num(k, v);
  return o.done();
}

// ---- Spans ----------------------------------------------------------------

/// One closed span. `parent` indexes the enclosing span (-1 = none);
/// `program` marks spans synthesized from the library's own phase timers
/// (laid out back to back inside their parent — the timers give durations,
/// not start times).
struct Span {
  std::string name;
  double t0 = 0, t1 = 0;
  int parent = -1;
  bool program = false;
};

/// In-memory span store; written out with the record when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int open(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back({name, now(), 0, cur_, false});
    cur_ = static_cast<int>(spans_.size()) - 1;
    return cur_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].t1 = now();
    cur_ = spans_[id].parent;
  }
  int program(const std::string& name, double t0, double dur, int parent) {
    if (!on_) return -1;
    spans_.push_back({name, t0, t0 + dur, parent, true});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  int cur_ = -1;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name) : t_(t), id_(t.open(name)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// ---- Record -----------------------------------------------------------------

struct StepSample {
  double wall = 0;   ///< seconds inside the step call(s)
  double elems = 0;  ///< global element count the step ran on
  std::string fail;  ///< empty = ok, else the failed checks
  std::map<std::string, double> layer;  ///< per-step per-layer values
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct Record {
  std::vector<double> setup;
  std::vector<StepSample> steps;   ///< timed (or untraced) operations
  std::vector<StepSample> traced;  ///< the same operations, traced
  /// Time to solution: wall time of each campaign (farm: of each round).
  std::vector<double> campaignWalls;
  long scenarios = 0;  ///< completed campaigns (farm: completed jobs)
  /// Per timed step, the global element count it ran on (farm: per job
  /// step, summed per round).
  std::vector<double> elemSteps;
  long attempted = 0, failed = 0;
  std::map<std::string, std::map<std::string, double>> fingerprints;
  std::map<std::string, std::vector<double>> layers;  ///< probe samples
  std::map<std::string, double> info;
  std::map<std::string, std::string> sinfo;
  std::vector<Check> checks;

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
  void layer(const std::string& k, double v) { layers[k].push_back(v); }
};

// ---- Shared helpers --------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The order in which a run visits the input variants.
std::vector<int> variantOrder(std::uint64_t seed) {
  std::vector<int> order(kVariants);
  for (int v = 0; v < kVariants; ++v) order[v] = v;
  std::mt19937_64 g(splitmix64(seed));
  std::shuffle(order.begin(), order.end(), g);
  return order;
}

/// Drop-centre offset and radius offset of each seeded variant. Kept small:
/// the variants change the inputs, not the size of the problem.
struct Jitter {
  Real dx, dy, dz, dr;
};
Jitter jitterOf(int variant) {
  static const Jitter kTable[kVariants] = {{0.0, 0.0, 0.0, 0.0},
                                           {0.004, -0.003, 0.002, 0.003},
                                           {-0.003, 0.004, -0.002, -0.003},
                                           {0.002, 0.002, -0.003, 0.0015}};
  return kTable[variant];
}

std::map<std::string, double> fingerprint(const Field& f) {
  double sum = 0, l1 = 0, l2 = 0;
  for (const auto& rk : f)
    for (Real v : rk) {
      sum += v;
      l1 += std::abs(v);
      l2 += v * v;
    }
  return {{"sum", sum}, {"l1", l1}, {"l2sq", l2}};
}

bool finite(const Field& f) {
  for (const auto& rk : f)
    for (Real v : rk)
      if (!std::isfinite(v)) return false;
  return true;
}

template <int DIM>
Real integral(const Mesh<DIM>& m, const Field& f) {
  Field Mf = m.makeField(1);
  fem::massMatvec(m, f, Mf);
  Field ones = m.makeField(1);
  for (auto& rk : ones) std::fill(rk.begin(), rk.end(), 1.0);
  return m.dot(ones, Mf, 1);
}

/// CPU brand string and nominal MHz from CPUID (no file reads).
std::pair<std::string, double> cpuModel() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  std::string brand;
  if (__get_cpuid(0x80000000u, &a, &b, &c, &d) && a >= 0x80000004u) {
    for (unsigned leaf = 0x80000002u; leaf <= 0x80000004u; ++leaf) {
      unsigned r[4] = {};
      __get_cpuid(leaf, &r[0], &r[1], &r[2], &r[3]);
      brand.append(reinterpret_cast<const char*>(r), sizeof r);
    }
    brand = brand.c_str();  // drop the NUL padding
  }
  double mhz = 0;
  if (__get_cpuid_max(0, nullptr) >= 0x16u &&
      __get_cpuid(0x16u, &a, &b, &c, &d))
    mhz = a;
  return {brand, mhz};
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

template <int DIM>
struct Sim {
  std::unique_ptr<sim::SimComm> comm;
  std::unique_ptr<chns::ChnsSolver<DIM>> s;
};

/// Snapshot of the program-reported counters a step moves.
template <int DIM>
struct Counters {
  std::map<std::string, double> v;

  static Counters read(chns::ChnsSolver<DIM>& s, const sim::SimComm& comm) {
    Counters c;
    for (const auto& [k, t] : s.timers().all()) c.v["t:" + k] = t.seconds();
    for (const auto& [k, n] : s.telemetry().metrics.counters())
      c.v["c:" + k] = static_cast<double>(n.value);
    const auto hs = s.telemetry().metrics.histograms();
    if (auto it = hs.find("gmg.coarse_iters"); it != hs.end())
      c.v["gmg.coarse_iters"] = it->second.sum;
    const sim::CommStats& st = comm.stats();
    c.v["msgs"] = static_cast<double>(st.messages);
    c.v["bytes"] = st.bytes;
    c.v["collectives"] = static_cast<double>(st.collectives);
    c.v["modeled"] = comm.time();
    return c;
  }
  double delta(const Counters& before, const std::string& k) const {
    auto a = v.find(k);
    auto b = before.v.find(k);
    return (a == v.end() ? 0.0 : a->second) -
           (b == before.v.end() ? 0.0 : b->second);
  }
};

/// The per-layer values one step moved: chns phase times, la iteration
/// counts, sim communication — all deltas of program-reported counters.
template <int DIM>
std::map<std::string, double> stepLayers(const Counters<DIM>& a,
                                         const Counters<DIM>& b) {
  return {
      {"chns.ch_s", b.delta(a, "t:ch-solve")},
      {"chns.ch_pc_s", b.delta(a, "t:ch-pc")},
      {"chns.ns_s", b.delta(a, "t:ns-solve")},
      {"chns.pp_s", b.delta(a, "t:pp-solve")},
      {"chns.vu_s", b.delta(a, "t:vu-solve")},
      {"chns.remesh_s", b.delta(a, "t:remesh")},
      {"la.ch_newton_iters", b.delta(a, "c:ch-newton-iters")},
      {"la.ch_krylov_iters", b.delta(a, "c:ch-ksp-iters")},
      {"la.ns_krylov_iters", b.delta(a, "c:ns-ksp-iters")},
      {"la.pp_krylov_iters", b.delta(a, "c:pp-ksp-iters")},
      {"la.vu_krylov_iters", b.delta(a, "c:vu-ksp-iters")},
      {"la.gmg_coarse_iters", b.delta(a, "gmg.coarse_iters")},
      {"sim.msgs_per_step", b.delta(a, "msgs")},
      {"sim.bytes_per_step", b.delta(a, "bytes")},
      {"sim.collectives_per_step", b.delta(a, "collectives")},
      {"sim.modeled_s", b.delta(a, "modeled")},
  };
}

/// Failure test for one CHNS step: a solve reported unconverged, a solve at
/// its iteration cap, or a non-finite field. lastChNewton_/lastNs_/lastPp_
/// describe only the last block of the step, so the earlier blocks are
/// judged by the step's counter delta minus the last block's iterations
/// against the per-solve cap. With the default two blocks that is exactly
/// the first block's count; with more blocks the test is conservative
/// (several uncapped blocks can sum to the cap). VU iterations are summed
/// over the DIM directions of a block, so its test is conservative too. A
/// solve that converges exactly at its cap counts as capped.
template <int DIM>
std::string stepFailure(chns::ChnsSolver<DIM>& s,
                        const std::map<std::string, double>& d) {
  const auto& o = s.options();
  std::string why;
  auto flag = [&](bool bad, const char* what) {
    if (bad) why += std::string(why.empty() ? "" : ",") + what;
  };
  flag(!s.lastChNewton_.converged, "ch-unconverged");
  flag(!s.lastNs_.converged, "ns-unconverged");
  flag(!s.lastPp_.converged, "pp-unconverged");
  // The earlier blocks: the step's counter delta minus the last block.
  flag(d.at("la.ch_newton_iters") - s.lastChNewton_.iterations >=
           o.chNewton.maxIterations,
       "ch-newton-cap");
  flag(d.at("la.ns_krylov_iters") - s.lastNs_.iterations >=
           o.nsKsp.maxIterations,
       "ns-cap");
  flag(d.at("la.pp_krylov_iters") - s.lastPp_.iterations >=
           o.ppKsp.maxIterations,
       "pp-cap");
  flag(d.at("la.vu_krylov_iters") - s.lastVuIterations_ >=
           o.vuKsp.maxIterations,
       "vu-cap");
  flag(!(finite(s.phi()) && finite(s.mu()) && finite(s.velocity()) &&
         finite(s.pressure())),
       "non-finite");
  return why;
}

/// Synthesizes the program-reported chns spans inside a driver step span.
void programSpans(Tracer& tr, int stepSpan,
                  const std::map<std::string, double>& d) {
  if (stepSpan < 0) return;
  double t = tr.spans()[stepSpan].t0;
  for (const char* k :
       {"chns.ch_s", "chns.ns_s", "chns.pp_s", "chns.vu_s", "chns.remesh_s"}) {
    const double dur = d.at(k);
    if (dur <= 0) continue;
    const int id = tr.program(k, t, dur, stepSpan);
    if (std::string(k) == "chns.ch_s" && d.at("chns.ch_pc_s") > 0)
      tr.program("chns.ch_pc_s", t, d.at("chns.ch_pc_s"), id);
    t += dur;
  }
}

template <int DIM>
std::vector<Field> stateOf(chns::ChnsSolver<DIM>& s) {
  return {s.phi(), s.mu(), s.velocity(), s.pressure()};
}

template <int DIM>
bool sameState(chns::ChnsSolver<DIM>& s, const std::vector<Field>& ref) {
  const std::vector<Field> cur = stateOf(s);
  return cur == ref;
}

// ---- Layer probes (traced run only, between steps) -------------------------

/// Times the fine-level and the batched panel MATVEC on the solver's mesh.
template <int DIM>
void probeFem(chns::ChnsSolver<DIM>& s, Tracer& tr, Record& rec) {
  const Mesh<DIM>& m = s.mesh();
  const Field& x = s.phi();
  Field y = m.makeField(1);
  const double ne = static_cast<double>(m.globalElemCount());
  double t0 = now();
  {
    SpanScope sp(tr, "fem.matvec");
    fem::matvec<DIM>(m, x, y, 1,
                     [](const Octant<DIM>& oct, const Real* in, Real* out) {
                       fem::applyMass<DIM>(oct.physSize(), in, out);
                       fem::applyStiffness<DIM>(oct.physSize(), in, out);
                     });
  }
  rec.layer("fem.matvec_s", now() - t0);
  t0 = now();
  {
    SpanScope sp(tr, "fem.batched_matvec");
    fem::matvecUniform<DIM>(m, x, y, 1, 1.0, 1.0);
  }
  const double tb = now() - t0;
  rec.layer("fem.batched_matvec_s", tb);
  rec.layer("fem.melems_per_s", ne / tb / 1e6);
  // Computed traffic of one scalar element apply: gather x (8 B), scatter-
  // add y (read + write, 16 B) and one 4-byte corner index per node; the
  // element matrix is shared per level and not counted.
  rec.layer("fem.bytes_per_elem", fem::kNodes<DIM> * (8.0 + 16.0 + 4.0));
}

/// One GMG V-cycle apply on the solver's mesh, built from outside the
/// solver the way bench/abl5_gmg_pressure does (variable-density Poisson
/// level operators, Dirichlet boundary, 3 levels).
template <int DIM>
void probeVcycle(chns::ChnsSolver<DIM>& s, Tracer& tr, Record& rec) {
  const chns::Params P = s.options().params;
  const Field& phi0 = s.phi();
  const Mesh<DIM>& fine = s.mesh();
  // The fine-level coefficient is the element-mean phi; coarser levels use
  // a constant density (the probe times the cycle, not its quality).
  std::vector<std::vector<Real>> coefFine(fine.nRanks());
  std::vector<Real> u(kNumChildren<DIM>);
  for (int r = 0; r < fine.nRanks(); ++r) {
    const auto& rm = fine.rank(r);
    coefFine[r].resize(rm.nElems());
    for (std::size_t e = 0; e < rm.nElems(); ++e) {
      fem::gatherElem(rm, e, phi0[r], 1, u.data());
      Real mean = 0;
      for (Real v : u) mean += v;
      coefFine[r][e] = 1.0 / P.rho(mean / kNumChildren<DIM>);
    }
  }
  std::vector<std::unique_ptr<Field>> masks;
  auto factory = [&](const Mesh<DIM>& mesh, int level) -> la::GmgLevelOps<DIM> {
    const bool isFine = level == 0;
    auto coef = [&, isFine](int r, std::size_t e) {
      return isFine ? coefFine[r][e] : 1.0;
    };
    masks.push_back(std::make_unique<Field>(fem::boundaryMask(mesh)));
    const Field& mask = *masks.back();
    la::LinOp<Field> W = [&mesh, coef](const Field& x, Field& y) {
      fem::matvecIndexed<DIM>(
          mesh, x, y, 1,
          [&](int r, std::size_t e, const Octant<DIM>& oct, const Real* in,
              Real* out) {
            Real tmp[kNumChildren<DIM>] = {};
            fem::applyStiffness<DIM>(oct.physSize(), in, tmp);
            const Real c = coef(r, e);
            for (int i = 0; i < kNumChildren<DIM>; ++i) out[i] += c * tmp[i];
          });
    };
    la::GmgLevelOps<DIM> ops;
    ops.op = fem::dirichletOp(mesh, mask, W);
    ops.diag = la::assembleDiagonalBlocks<DIM>(
        mesh, 1, [&](const Octant<DIM>& oct, Real* Ae) {
          const auto& refK = fem::refStiffness<DIM>();
          Real h = 1;
          for (int d = 0; d + 2 < DIM; ++d) h *= oct.physSize();
          for (std::size_t k = 0; k < refK.size(); ++k) Ae[k] = refK[k] * h;
        });
    for (int r = 0; r < mesh.nRanks(); ++r)
      for (std::size_t i = 0; i < mesh.rank(r).nNodes(); ++i)
        if (mask[r][i] != 0.0) ops.diag[r][i] = 1.0;
    return ops;
  };
  la::Gmg<DIM> gmg(fine.comm(), s.tree(), factory,
                   {.levels = 3, .minLevel = 1});
  Field rhs = phi0;
  Field z;
  gmg.setup();
  std::vector<double> t;
  for (int k = 0; k < 3; ++k) {
    SpanScope sp(tr, "la.vcycle");
    const double t0 = now();
    gmg.apply(rhs, z);
    t.push_back(now() - t0);
  }
  std::sort(t.begin(), t.end());
  rec.layer("la.vcycle_s", t[1]);
}

/// The adaptivity pipeline of ChnsSolver::remeshNow, called module by module
/// from outside on the solver's current state: ghost exchange, mesh build,
/// local-Cahn identification, remesh, and the 4-field nodal transfer.
template <int DIM>
void probeAdapt(chns::ChnsSolver<DIM>& s, Tracer& tr, Record& rec) {
  const Mesh<DIM>& m = s.mesh();
  sim::SimComm& comm = m.comm();
  const auto& o = s.options();
  Field g = s.phi();
  double t0 = now();
  {
    SpanScope sp(tr, "mesh.ghost_exchange");
    m.ghostRead(g, 1);
  }
  rec.layer("mesh.ghost_exchange_s", now() - t0);
  t0 = now();
  {
    SpanScope sp(tr, "mesh.build");
    Mesh<DIM> rebuilt = Mesh<DIM>::build(comm, s.tree());
  }
  rec.layer("mesh.build_s", now() - t0);
  const std::vector<localcahn::CnStage<DIM>> stages{
      {o.identify, o.identify.cnFine}};
  t0 = now();
  sim::PerRank<std::vector<int>> st;
  {
    SpanScope sp(tr, "localcahn.identify");
    st = localcahn::identifyMultiLevelCahn<DIM>(m, s.phi(), o.referenceLevel,
                                                stages);
  }
  rec.layer("localcahn.identify_s", now() - t0);
  const auto cn = localcahn::cnFromStages<DIM>(m, st, o.params.Cn, stages);
  const auto want = localcahn::interfaceRefineLevels<DIM>(
      m, s.phi(), cn, o.identify.cnFine, o.deltaStar, o.coarseLevel,
      o.interfaceLevel, o.featureLevel);
  t0 = now();
  std::unique_ptr<DistTree<DIM>> nt;
  {
    SpanScope sp(tr, "amr.remesh");
    nt = std::make_unique<DistTree<DIM>>(remesh(s.tree(), want));
  }
  rec.layer("amr.remesh_s", now() - t0);
  const Mesh<DIM> nm = Mesh<DIM>::build(comm, *nt);
  t0 = now();
  std::vector<Field> out;
  {
    SpanScope sp(tr, "intergrid.transfer");
    out = intergrid::transferNodalMany<DIM>(
        m,
        {{&s.phi(), 1}, {&s.mu(), 1}, {&s.velocity(), DIM},
         {&s.pressure(), 1}},
        nm);
  }
  rec.layer("intergrid.transfer_s", now() - t0);
  const Real before = integral(m, s.phi());
  const Real after = integral(nm, out[0]);
  const Real rel =
      std::abs(after - before) / std::max<Real>(std::abs(before), 1e-300);
  rec.layer("intergrid.mass_delta", rel);
}

/// Checkpoint write + restore of the solver's state (io layer).
template <int DIM>
void probeIo(chns::ChnsSolver<DIM>& s, Tracer& tr, Record& rec,
             const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/probe_ck.bin";
  double t0 = now();
  {
    SpanScope sp(tr, "io.save");
    chns::saveSolverState(path, s, /*specHash=*/1);
  }
  rec.layer("io.ck_write_s", now() - t0);
  rec.layer("io.ck_bytes",
            static_cast<double>(std::filesystem::file_size(path)));
  sim::SimComm comm(s.mesh().nRanks(), sim::Machine::loopback());
  t0 = now();
  {
    SpanScope sp(tr, "io.restore");
    chns::ChnsSolver<DIM> r =
        chns::restoreSolverState<DIM>(comm, path, s.options(), 1);
    rec.check("io.restore-roundtrip", r.phi() == s.phi(),
              "restored phi bitwise equal to the saved solver's");
  }
  rec.layer("io.ck_restore_s", now() - t0);
  std::filesystem::remove(path);
}

// ---- Solver workloads (drop, bubble, adapt) --------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string workdir = ".";
};

/// A solver workload: how to set up one solver and how to run one timed
/// operation (a timestep, or an adapt cycle) on it.
template <int DIM>
struct SolverWorkload {
  int ranks = 1;
  int campaign = 1;     ///< operations per campaign (final state checked)
  int probeEvery = 1;   ///< traced run: layer probes after every n-th step
  bool solves = true;   ///< CHNS solves run (drop, bubble)
  std::function<DistTree<DIM>(sim::SimComm&)> tree;
  std::function<chns::ChnsOptions<DIM>()> options;
  std::function<void(chns::ChnsSolver<DIM>&)> init;  ///< IC + initial remesh
  /// Optional timed first half of operation k (adapt: move the drop); the
  /// phase-mass integral is read between it and `step`, off the clock.
  std::function<void(chns::ChnsSolver<DIM>&, int k)> prepare;
  std::function<void(chns::ChnsSolver<DIM>&, int k)> step;
};

template <int DIM>
void operate(const SolverWorkload<DIM>& w, chns::ChnsSolver<DIM>& s, int k) {
  if (w.prepare) w.prepare(s, k);
  w.step(s, k);
}

template <int DIM>
Sim<DIM> setUp(const SolverWorkload<DIM>& w) {
  Sim<DIM> sm;
  sm.comm = std::make_unique<sim::SimComm>(w.ranks, sim::Machine::loopback());
  sm.s = std::make_unique<chns::ChnsSolver<DIM>>(*sm.comm, w.tree(*sm.comm),
                                                 w.options());
  w.init(*sm.s);
  operate(w, *sm.s, 0);  // warm-up: GMG hierarchy, pools, caches
  return sm;
}

struct LoopResult {
  std::vector<StepSample> steps;
  std::vector<Field> firstState;  ///< state after operation 1
  double massDrift = 0;  ///< solves: |d int phi| start to end; adapt: max
};

/// Runs one campaign (w.campaign operations) on a set-up solver.
template <int DIM>
LoopResult runCampaign(const SolverWorkload<DIM>& w, Sim<DIM>& sm, Tracer& tr,
                       Record& rec, const std::string& workdir) {
  chns::ChnsSolver<DIM>& s = *sm.s;
  LoopResult out;
  const Real mass0 = s.phiIntegral();
  Real energy = w.solves ? s.freeEnergy() : 0;
  for (int k = 1; k <= w.campaign; ++k) {
    const auto before = Counters<DIM>::read(s, *sm.comm);
    StepSample smp;
    smp.elems = static_cast<double>(s.mesh().globalElemCount());
    Real preMass = 0;
    int span = -1;
    {
      SpanScope sp(tr, "step");
      span = sp.id();
      double ts = now();
      if (w.prepare) {
        w.prepare(s, k);
        smp.wall += now() - ts;
        SpanScope mc(tr, "bench.mass_check");
        preMass = s.phiIntegral();
      }
      ts = now();
      w.step(s, k);
      smp.wall += now() - ts;
    }
    const auto after = Counters<DIM>::read(s, *sm.comm);
    smp.layer = stepLayers(before, after);
    programSpans(tr, span, smp.layer);
    if (w.solves) {
      smp.fail = stepFailure(s, smp.layer);
      const Real e = s.freeEnergy();
      smp.layer["chns.energy_rise"] =
          e > energy + 1e-10 * std::abs(energy) ? 1.0 : 0.0;
      energy = e;
    } else {
      // Adapt cycle: phase mass across the remesh, and the distributed
      // invariants of the new mesh and fields.
      const Real postMass = s.phiIntegral();
      const double d = std::abs(postMass - preMass) /
                       std::max<Real>(std::abs(preMass), 1e-300);
      out.massDrift = std::max(out.massDrift, d);
      try {
        s.validateNow("adapt cycle " + std::to_string(k));
      } catch (const std::exception& e) {
        smp.fail = std::string("validate: ") + e.what();
      }
    }
    out.steps.push_back(std::move(smp));
    if (k == 1) out.firstState = stateOf(s);
    if (tr.on() && (k - 1) % w.probeEvery == 0) {
      SpanScope sp(tr, "probes");
      if (k == 1) {
        probeVcycle(s, tr, rec);
        probeIo(s, tr, rec, workdir);
      }
      probeFem(s, tr, rec);
      probeAdapt(s, tr, rec);
    }
  }
  if (w.solves)
    out.massDrift = std::abs(s.phiIntegral() - mass0) /
                    std::max<Real>(std::abs(mass0), 1e-300);
  return out;
}

double sumWall(const std::vector<StepSample>& v) {
  double t = 0;
  for (const auto& s : v) t += s.wall;
  return t;
}

/// Relative L1 distance between two states (largest over the fields).
double stateDistance(const std::vector<Field>& a, const std::vector<Field>& b) {
  double worst = 0;
  for (std::size_t f = 0; f < a.size(); ++f) {
    double diff = 0, norm = 0;
    for (std::size_t r = 0; r < a[f].size(); ++r)
      for (std::size_t i = 0; i < a[f][r].size(); ++i) {
        diff += std::abs(a[f][r][i] - b[f][r][i]);
        norm += std::abs(b[f][r][i]);
      }
    worst = std::max(worst, diff / std::max(norm, 1e-300));
  }
  return worst;
}

/// Timed runs: whole cycles of campaigns — one per input variant, each from
/// a fresh set-up, in the seed's order — until --seconds of campaign time
/// have been measured; every set-up is timed. The traced run adds one
/// traced cycle and ends with the thread-count check.
template <int DIM>
void runSolverWorkload(
    const std::function<SolverWorkload<DIM>(const Jitter&)>& make,
    const Args& a, Record& rec, Tracer& tr) {
  std::vector<SolverWorkload<DIM>> ws;
  for (int v = 0; v < kVariants; ++v) ws.push_back(make(jitterOf(v)));
  const std::vector<int> order = variantOrder(a.seed);
  support::ThreadPool::instance().setThreads(1);
  rec.info["threads"] = 1;
  auto timedSetUp = [&](int v) {
    const double t0 = now();
    Sim<DIM> sm = setUp(ws[v]);
    rec.setup.push_back(now() - t0);
    return sm;
  };
  Tracer off(false);
  std::map<int, std::vector<Field>> finals;
  std::vector<Field> first;  // order[0] after its operation 1
  std::vector<StepSample> cycleSteps;  // the first cycle's operations
  double massDrift = 0;
  bool same = true;
  int c = 0;
  for (double measured = 0; c % kVariants != 0 || measured < a.seconds; ++c) {
    const int v = order[c % kVariants];
    Sim<DIM> sm = timedSetUp(v);
    LoopResult r = runCampaign(ws[v], sm, off, rec, a.workdir);
    const double opWall = sumWall(r.steps);
    measured += opWall;
    rec.campaignWalls.push_back(opWall);
    rec.steps.insert(rec.steps.end(), r.steps.begin(), r.steps.end());
    for (const auto& smp : r.steps) rec.elemSteps.push_back(smp.elems);
    if (c < kVariants)
      cycleSteps.insert(cycleSteps.end(), r.steps.begin(), r.steps.end());
    if (c == 0) first = r.firstState;
    if (finals.count(v)) {
      same = same && sameState(*sm.s, finals[v]);
      continue;
    }
    finals[v] = stateOf(*sm.s);
    const std::string key = "v" + std::to_string(v);
    rec.fingerprints[key + ".phi"] = fingerprint(sm.s->phi());
    rec.fingerprints[key + ".vel"] = fingerprint(sm.s->velocity());
    rec.info[key + ".final_elems"] =
        static_cast<double>(sm.s->mesh().globalElemCount());
    rec.info[key + ".mass_drift"] = r.massDrift;
    massDrift = std::max(massDrift, r.massDrift);
  }
  if (c > kVariants)
    rec.check("campaigns-bitwise", same,
              "repeated campaigns of a variant end bitwise equal");
  rec.info["mass_drift"] = massDrift;
  rec.scenarios = c;
  rec.attempted = static_cast<long>(rec.steps.size());
  for (const auto& smp : rec.steps) rec.failed += smp.fail.empty() ? 0 : 1;

  if (a.trace) {
    bool tracedSame = true;
    for (int v : order) {
      Sim<DIM> sm = timedSetUp(v);
      LoopResult r = runCampaign(ws[v], sm, tr, rec, a.workdir);
      tracedSame = tracedSame && sameState(*sm.s, finals[v]);
      rec.traced.insert(rec.traced.end(), r.steps.begin(), r.steps.end());
    }
    rec.check("traced-equals-untraced", tracedSame,
              "every traced campaign ends bitwise equal to its untraced run");
    rec.layer("bench.trace_overhead_frac",
              sumWall(rec.traced) / sumWall(cycleSteps) - 1.0);
  }

  if (!a.trace) return;

  // Thread-count check (traced runs): operation 1 of the first variant from
  // a fresh set-up on kMaxThreads threads. The library promises bitwise
  // equality across thread counts except where FieldSpace reductions run
  // threaded (vectors of la::kVecThreadMin entries or more), which are
  // deterministic per thread count only; there the two must agree to 1e-9
  // (relative L1).
  const SolverWorkload<DIM>& w = ws[order[0]];
  Sim<DIM> twin = timedSetUp(order[0]);
  bool threadedVectors = false;
  for (int r = 0; r < twin.s->mesh().nRanks(); ++r)
    threadedVectors = threadedVectors ||
                      twin.s->mesh().rank(r).nNodes() * std::max(2, DIM) >=
                          la::kVecThreadMin;
  support::ThreadPool::instance().setThreads(kMaxThreads);
  const double t0 = now();
  operate(w, *twin.s, 1);
  const double tThreaded = now() - t0;
  support::ThreadPool::instance().setThreads(1);
  const bool bitwise = sameState(*twin.s, first);
  const double dist = stateDistance(stateOf(*twin.s), first);
  rec.check("thread-count", bitwise || (threadedVectors && dist <= 1e-9),
            "operation 1 at " + std::to_string(kMaxThreads) +
                " vs 1 thread: bitwise " +
                (bitwise ? "yes" : "no") + ", relative L1 distance " +
                jnum(dist) +
                (threadedVectors ? " (threaded vector reductions)" : ""));
  rec.layer("support.threads_bitwise", bitwise ? 1.0 : 0.0);
  rec.layer("support.thread_speedup", rec.steps.front().wall / tThreaded);
  rec.info["thread_check_threads"] = kMaxThreads;
}

/// Cn 0.03 resolves the interface at level 7 and dt 5e-4 keeps a campaign
/// (t <= 2e-3) where the CH Newton converges: at the default Cn 0.02 it hits
/// its cap from step 4, and at these settings from t ~ 6.5e-3.
///
/// Timed on one thread, like every solver workload: the solves synchronize
/// the pool many times per step, and on a shared 4-vCPU VM under CPU steal a
/// 2-thread step ran 4x slower than when idle, a 1-thread step 2x. The
/// threaded step runs in the thread-count check (support.thread_speedup).
SolverWorkload<2> dropWorkload(const Jitter& j) {
  SolverWorkload<2> w;
  w.ranks = 1;
  w.campaign = 3;
  w.probeEvery = 3;
  w.tree = [](sim::SimComm& c) {
    return DistTree<2>::fromGlobal(c, uniformTree<2>(7));
  };
  w.options = [] {
    chns::ChnsOptions<2> opt;
    opt.params.Cn = 0.03;
    opt.dt = 5e-4;
    return opt;
  };
  w.init = [j](chns::ChnsSolver<2>& s) {
    const Real cn = s.options().params.Cn;
    s.setInitialCondition([&](const VecN<2>& x) {
      return apps::dropPhi<2>(x, VecN<2>{{0.5 + j.dx, 0.5 + j.dy}},
                              0.25 + j.dr, cn);
    });
  };
  w.step = [](chns::ChnsSolver<2>& s, int) { s.step(); };
  return w;
}

/// examples/rising_bubble physics without its checkpointing.
SolverWorkload<2> bubbleWorkload(const Jitter& j) {
  SolverWorkload<2> w;
  w.ranks = 4;
  w.campaign = 12;
  w.probeEvery = 4;
  w.tree = [](sim::SimComm& c) {
    return DistTree<2>::fromGlobal(c, uniformTree<2>(5));
  };
  w.options = [] {
    chns::ChnsOptions<2> opt;
    opt.params.Re = 35;
    opt.params.We = 10;
    opt.params.Pe = 100;
    opt.params.Cn = 0.03;
    opt.params.rhoMinus = 0.1;
    opt.params.etaMinus = 0.1;
    opt.params.Fr = 0.4;
    opt.params.gravityDir = 1;
    opt.dt = 2e-3;
    opt.remeshEvery = 4;
    opt.coarseLevel = 3;
    opt.interfaceLevel = 6;
    opt.featureLevel = 6;
    opt.referenceLevel = 6;
    opt.identify.cnCoarse = opt.params.Cn;
    opt.identify.cnFine = opt.params.Cn / 2;
    return opt;
  };
  w.init = [j](chns::ChnsSolver<2>& s) {
    const Real cn = s.options().params.Cn;
    s.setInitialCondition([&](const VecN<2>& x) {
      return apps::dropPhi<2>(x, VecN<2>{{0.5 + j.dx, 0.3 + j.dy}},
                              0.15 + j.dr, cn);
    });
    s.remeshNow();
  };
  w.step = [](chns::ChnsSolver<2>& s, int) { s.step(); };
  return w;
}

/// 3D adaptivity without solves: each cycle moves the drop by about one
/// interface-level element along x and remeshes to follow it.
SolverWorkload<3> adaptWorkload(const Jitter& j) {
  constexpr Level kInterface = 6;
  const Real h = 1.0 / (1 << kInterface);
  SolverWorkload<3> w;
  w.ranks = 8;
  w.campaign = 3;
  w.probeEvery = 3;
  w.solves = false;
  w.tree = [](sim::SimComm& c) {
    return DistTree<3>::fromGlobal(c, uniformTree<3>(3));
  };
  w.options = [] {
    chns::ChnsOptions<3> opt;
    opt.params.Cn = 0.03;
    opt.coarseLevel = 2;
    opt.interfaceLevel = kInterface;
    opt.featureLevel = kInterface;
    opt.referenceLevel = kInterface;
    opt.identify.cnCoarse = opt.params.Cn;
    opt.identify.cnFine = opt.params.Cn / 2;
    return opt;
  };
  auto setDrop = [j, h](chns::ChnsSolver<3>& s, int k) {
    const Real cn = s.options().params.Cn;
    const VecN<3> c{{0.3 + j.dx + k * h, 0.5 + j.dy, 0.5 + j.dz}};
    s.setInitialCondition([&](const VecN<3>& x) {
      return apps::dropPhi<3>(x, c, 0.2 + j.dr, cn);
    });
  };
  w.init = [setDrop](chns::ChnsSolver<3>& s) {
    setDrop(s, 0);
    s.remeshNow();
  };
  w.prepare = setDrop;
  w.step = [](chns::ChnsSolver<3>& s, int) { s.remeshNow(); };
  return w;
}

// ---- Farm workload ----------------------------------------------------------

constexpr int kFarmSteps = 8;      // per job; fig9 runs 4
constexpr int kFarmMinRounds = 2;

/// The fig9 sweep: 4 physics points (Cn x density ratio) x 2 replicas, in
/// a seeded order.
std::vector<farm::ScenarioSpec> farmSpecs(std::uint64_t seed) {
  std::vector<farm::ScenarioSpec> specs;
  for (int rep = 0; rep < 2; ++rep)
    for (Real cn : {0.06, 0.05})
      for (Real rho : {0.1, 0.2}) {
        farm::ScenarioSpec s;
        char buf[64];
        std::snprintf(buf, sizeof buf, "cn%g_rho%g_r%d", cn, rho, rep);
        s.name = buf;
        s.Cn = cn;
        s.rhoMinus = rho;
        s.dropR = 0.2;
        s.seedLevel = 3;
        s.coarseLevel = 2;
        s.interfaceLevel = 5;
        s.remeshEvery = 2;
        s.steps = kFarmSteps;
        s.ranks = 2;
        specs.push_back(std::move(s));
      }
  std::mt19937_64 g(splitmix64(seed));
  std::shuffle(specs.begin(), specs.end(), g);
  return specs;
}

struct FarmRound {
  double wall = 0;
  std::vector<StepSample> steps;  ///< per-job step intervals, steps 2..N
  std::map<std::string, std::map<std::string, double>> finals;
  std::vector<double> jobWalls;
  double elemSteps = 0;  ///< sum over all job steps of their element count
  long hits = 0, misses = 0;
  int done = 0;
  std::string failures;
};

/// One farm round: every scenario as a concurrent job on the pool. A job's
/// step sample is the interval between its consecutive post-step hooks
/// (the step plus the farm's per-step bookkeeping and checkpoint writes).
FarmRound runFarmRound(const std::vector<farm::ScenarioSpec>& specs,
                       const std::string& root) {
  std::filesystem::remove_all(root);
  struct Track {
    sim::SimComm* comm = nullptr;
    double last = 0, elems = 0;
    bool started = false;
    Counters<2> prev;
  };
  std::vector<Track> track(specs.size());
  std::mutex mu;  // guards out.steps and out.finals
  FarmRound out;
  farm::ScenarioFarm::Options fo;
  fo.rootDir = root;
  fo.ckEvery = 2;
  fo.ckKeep = 2;
  fo.commHook = [&](int id, sim::SimComm& c) { track[id].comm = &c; };
  fo.postStepHook = [&](int id, chns::ChnsSolver<2>& s) {
    const double t = now();
    Track& jt = track[id];
    Counters<2> cur = Counters<2>::read(s, *jt.comm);
    // Elements the step ran on: the count after the previous step; for the
    // first step the count now (the farm remeshes only after even steps).
    const double ran = jt.started
                           ? jt.elems
                           : static_cast<double>(s.mesh().globalElemCount());
    if (jt.started) {
      StepSample smp;
      smp.wall = t - jt.last;
      smp.elems = jt.elems;
      smp.layer = stepLayers(jt.prev, cur);
      smp.fail = stepFailure(s, smp.layer);
      std::lock_guard<std::mutex> lock(mu);
      out.steps.push_back(std::move(smp));
    }
    jt.prev = std::move(cur);
    jt.elems = static_cast<double>(s.mesh().globalElemCount());
    jt.started = true;
    {
      std::lock_guard<std::mutex> lock(mu);
      out.elemSteps += ran;
    }
    if (s.stepsTaken() == specs[id].steps) {
      std::lock_guard<std::mutex> lock(mu);
      out.finals[specs[id].name + ".phi"] = fingerprint(s.phi());
      out.finals[specs[id].name + ".vel"] = fingerprint(s.velocity());
    }
    jt.last = now();
  };
  farm::ScenarioFarm f(fo);
  for (const auto& spec : specs) f.addJob(spec);
  const double t0 = now();
  f.run();
  out.wall = now() - t0;
  for (int i = 0; i < f.jobCount(); ++i) {
    const farm::JobRecord& r = f.job(i);
    out.jobWalls.push_back(r.wallSec);
    if (r.state == farm::JobState::kDone)
      ++out.done;
    else
      out.failures += r.spec.name + ":" + farm::jobStateName(r.state) + " " +
                      r.error + "; ";
  }
  out.hits = f.initCacheHits();
  out.misses = f.initCacheMisses();
  std::filesystem::remove_all(root);
  return out;
}

void runFarmWorkload(const Args& a, Record& rec, Tracer& tr) {
  rec.info["threads"] = kMaxThreads;
  const std::string root = a.workdir + "/farm";
  std::vector<farm::ScenarioSpec> specs;
  // Set-up: pool start, the sweep, and one 1-step warm-up job through a
  // farm, so process-level lazy set-up is paid before the timed rounds.
  for (int i = 0; i < kFarmSetups; ++i) {
    const double t0 = now();
    support::ThreadPool::instance().setThreads(kMaxThreads);
    specs = farmSpecs(a.seed);
    farm::ScenarioSpec warm = specs.front();
    warm.name = "warmup";
    warm.steps = 1;
    runFarmRound({warm}, root);
    rec.setup.push_back(now() - t0);
  }

  std::vector<FarmRound> rounds;
  const double t0 = now();
  while (static_cast<int>(rounds.size()) < kFarmMinRounds ||
         now() - t0 < a.seconds)
    rounds.push_back(runFarmRound(specs, root));
  bool same = true;
  for (const FarmRound& r : rounds) {
    rec.campaignWalls.push_back(r.wall);
    rec.elemSteps.push_back(r.elemSteps);
    rec.steps.insert(rec.steps.end(), r.steps.begin(), r.steps.end());
    rec.scenarios += r.done;
    rec.attempted += static_cast<long>(specs.size());
    rec.failed += static_cast<long>(specs.size()) - r.done;
    same = same && r.finals == rounds.front().finals;
    if (!r.failures.empty()) rec.sinfo["job_failures"] += r.failures;
  }
  rec.check("rounds-bitwise", same,
            "every round's final fields equal the first round's");
  rec.fingerprints = rounds.front().finals;

  if (!a.trace) return;
  double tracedWall = 0, untracedWall = 0;
  for (const FarmRound& u : rounds) {
    FarmRound r;
    {
      SpanScope sp(tr, "farm.round");
      r = runFarmRound(specs, root);
    }
    tracedWall += r.wall;
    untracedWall += u.wall;
    rec.check("traced-equals-untraced", r.finals == u.finals,
              "traced round's final fields equal the untraced round's");
    rec.traced.insert(rec.traced.end(), r.steps.begin(), r.steps.end());
    double busy = 0;
    for (double w : r.jobWalls) {
      rec.layer("farm.job_s", w);
      busy += w;
    }
    rec.layer("farm.busy_frac", busy / (kMaxThreads * r.wall));
    rec.layer("farm.cache_hit_ratio",
              static_cast<double>(r.hits) / std::max(1L, r.hits + r.misses));
  }
  rec.layer("bench.trace_overhead_frac", tracedWall / untracedWall - 1.0);

  // Module probes on one job's solver, stepped outside the farm.
  support::ThreadPool::instance().setThreads(1);
  sim::SimComm comm(specs.front().ranks, sim::Machine::loopback());
  chns::ChnsSolver<2> s = farm::buildScenario(comm, specs.front());
  s.step();
  s.step();
  {
    SpanScope sp(tr, "probes");
    probeVcycle(s, tr, rec);
    probeIo(s, tr, rec, a.workdir);
    probeFem(s, tr, rec);
    probeAdapt(s, tr, rec);
  }
  support::ThreadPool::instance().setThreads(kMaxThreads);
}

// ---- Output ----------------------------------------------------------------

std::string jsteps(const std::vector<StepSample>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    o += (i ? "," : "") + Obj()
                              .num("wall", v[i].wall)
                              .num("elems", v[i].elems)
                              .str("fail", v[i].fail)
                              .raw("layer", jmap(v[i].layer))
                              .done();
  return o + "]";
}

std::string jrecord(const Record& r, const Tracer& tr) {
  Obj fp;
  for (const auto& [k, m] : r.fingerprints) fp.raw(k, jmap(m));
  Obj layers;
  for (const auto& [k, v] : r.layers) layers.raw(k, jnums(v));
  Obj sinfo;
  for (const auto& [k, v] : r.sinfo) sinfo.str(k, v);
  std::string checks = "[";
  for (std::size_t i = 0; i < r.checks.size(); ++i)
    checks += (i ? "," : "") + Obj()
                                   .str("name", r.checks[i].name)
                                   .raw("ok", r.checks[i].ok ? "true" : "false")
                                   .str("detail", r.checks[i].detail)
                                   .done();
  checks += "]";
  std::string spans = "[";
  const auto& sp = tr.spans();
  for (std::size_t i = 0; i < sp.size(); ++i)
    spans += (i ? "," : "") + Obj()
                                  .str("name", sp[i].name)
                                  .num("t0", sp[i].t0)
                                  .num("t1", sp[i].t1)
                                  .num("parent", sp[i].parent)
                                  .raw("program",
                                       sp[i].program ? "true" : "false")
                                  .done();
  spans += "]";
  return Obj()
      .raw("setup_s", jnums(r.setup))
      .raw("steps", jsteps(r.steps))
      .raw("traced", jsteps(r.traced))
      .raw("campaign_walls", jnums(r.campaignWalls))
      .raw("elem_steps", jnums(r.elemSteps))
      .num("scenarios", static_cast<double>(r.scenarios))
      .num("attempted", static_cast<double>(r.attempted))
      .num("failed", static_cast<double>(r.failed))
      .raw("fingerprints", fp.done())
      .raw("layers", layers.done())
      .raw("info", jmap(r.info))
      .raw("sinfo", sinfo.done())
      .raw("checks", checks)
      .raw("spans", spans)
      .num("peak_rss_mb", peakRssMb())
      .done();
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--workdir") a.workdir = v;
    else return false;
  }
  return !a.out.empty() && a.seconds > 0 &&
         (a.workload == "drop" || a.workload == "bubble" ||
          a.workload == "adapt" || a.workload == "farm");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: ptbench --workload drop|bubble|adapt|farm --seed N "
                 "--seconds S --trace 0|1 --out FILE [--workdir DIR]\n");
    return 2;
  }
  support::requireReleaseBuild("ptbench");
  std::filesystem::create_directories(a.workdir);

  Record rec;
  Tracer tr(a.trace);
  std::string order;
  for (int v : variantOrder(a.seed)) order += std::to_string(v);
  rec.sinfo["variant_order"] = order;
  rec.info["cores"] = std::thread::hardware_concurrency();
  rec.sinfo["simd"] = support::simdIsaName();
  rec.sinfo["build_type"] = support::buildType();
  const auto [model, mhz] = cpuModel();
  rec.sinfo["cpu"] = model;
  rec.info["cpu_mhz"] = mhz;
  try {
    if (a.workload == "drop")
      runSolverWorkload<2>(dropWorkload, a, rec, tr);
    else if (a.workload == "bubble")
      runSolverWorkload<2>(bubbleWorkload, a, rec, tr);
    else if (a.workload == "adapt")
      runSolverWorkload<3>(adaptWorkload, a, rec, tr);
    else
      runFarmWorkload(a, rec, tr);
  } catch (const std::exception& e) {
    rec.check("no-exception", false, e.what());
  }
  support::ThreadPool::instance().setThreads(1);

  std::ofstream out(a.out);
  out << jrecord(rec, tr) << "\n";
  if (!out) {
    std::perror(a.out.c_str());
    return 1;
  }
  return 0;
}

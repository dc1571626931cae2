// nbody_perfbench — the repository's benchmark: step throughput and force
// accuracy of the six {octree, bvh} x {dfs, group, dual} configurations on
// one workload, plus tree-maintenance throughput at 2^21 bodies, in one
// process. See README.md in this directory for the workloads, every metric
// and the layer -> metric -> workload map.
//
//   nbody_perfbench --workload galaxy|cube --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--source ID]
//
// --trace 0 measures the end-to-end metrics with every library sink off.
// --trace 1 is a separate run that records spans (name, start, end, parent)
// around the calls this file makes into each layer, reads the counters the
// library already exposes (Simulation::phases(), MetricsRegistry through
// set_observability, thread_pool::stats()), and prints the per-layer
// metrics. Spans live in memory and are written to --out-dir at the end.
//
// Every run checks its answers: a sampled force error against a direct sum
// for each configuration, and the structural validators on the maintained
// trees. The last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 1 when any check failed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bvh/strategy.hpp"
#include "core/bbox.hpp"
#include "core/diagnostics.hpp"
#include "core/guard.hpp"
#include "core/simulation.hpp"
#include "exec/algorithms.hpp"
#include "exec/thread_pool.hpp"
#include "math/gravity.hpp"
#include "obs/metrics.hpp"
#include "octree/strategy.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace nbody;
using Sys = core::System<double, 3>;
using Cfg = core::SimConfig<double>;
using vec3 = math::vec3d;
using Octree = octree::ConcurrentOctree<double, 3>;
using Bvh = bvh::HilbertBVH<double, 3>;
using OctreeStrategy = octree::OctreeStrategy<double, 3>;
using BvhStrategy = bvh::BVHStrategy<double, 3>;

/// Bodies in the stepped system and in the maintenance system.
constexpr std::size_t kStepN = 65536;
constexpr std::size_t kMaintN = std::size_t{1} << 21;
constexpr double kTheta = 0.5;
/// test_sweeps' accuracy ceilings: 0.12 theta^2 + 2e-3 (0.032 here) for the
/// octree, three times that for the BVH, whose elongated boxes admit about
/// 3x the error at one theta (paper Sec. IV-B).
constexpr double kOctreeErrorCeiling = 0.12 * kTheta * kTheta + 2e-3;
constexpr double kBvhErrorCeiling = 3.0 * kOctreeErrorCeiling;
/// Targets per configuration in the sampled direct-sum error check.
constexpr std::size_t kErrorSample = 4096;
/// Setup repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Traced run: timed steps per configuration pass, maintenance iterations.
constexpr int kTracedSteps = 2;
constexpr int kTracedMaintIters = 3;
/// Reconciliation tolerances of the traced run.
/// Step time outside the library's phases: the strategies' per-build
/// statistics in traced runs take 2-5% of an octree step.
constexpr double kUnattributedTol = 0.10;
constexpr double kFillTol = 0.02;          // walk+kernel vs force x threads

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. Spans open and close around calls this file
/// makes into the library; `phase` records import durations the library
/// measured itself (Simulation::phases(), a strategy's PhaseTimer) under
/// the span that enclosed them, since those carry no timestamps. A null
/// Tracer* records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  struct Phase {
    std::string name;
    int parent;
    double dur_s;
  };

  /// RAII span on an optional tracer.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, int parent)
        : t_(t), id_(t != nullptr ? t->open(std::move(name), parent) : -1) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->close(id_);
    }
    [[nodiscard]] int id() const { return id_; }

   private:
    Tracer* t_;
    int id_;
  };

  Tracer() : t0_(std::chrono::steady_clock::now()) {}

  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, now(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = now(); }
  void phase(std::string name, int parent, double dur_s) {
    phases_.push_back({std::move(name), parent, dur_s});
  }

  [[nodiscard]] double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  }

  /// Span duration minus the child spans and imported phases under it.
  [[nodiscard]] double self_time(int id) const {
    double covered = 0.0;
    for (const Span& s : spans_)
      if (s.parent == id) covered += s.end_s - s.start_s;
    for (const Phase& p : phases_)
      if (p.parent == id) covered += p.dur_s;
    return duration(id) - covered;
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream o;
    o << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      o << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
        << json_escape(s.name) << "\", \"parent\": " << s.parent
        << ", \"start_s\": " << num(s.start_s) << ", \"end_s\": " << num(s.end_s)
        << ", \"self_s\": " << num(self_time(static_cast<int>(i))) << "}";
    }
    o << "],\n\"phases\": [";
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      const Phase& p = phases_[i];
      o << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << json_escape(p.name)
        << "\", \"parent\": " << p.parent << ", \"dur_s\": " << num(p.dur_s) << "}";
    }
    o << "]}";
    return o.str();
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<Phase> phases_;
};

/// Runs f() inside an optional span and returns its wall seconds.
template <class F>
double timed(Tracer* tr, const char* name, int parent, F&& f) {
  Tracer::Scope scope(tr, name, parent);
  support::Stopwatch w;
  f();
  return w.seconds();
}

// ------------------------------------------------------ run bookkeeping

/// Attempted/failed tally over steps, tree operations and checks.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }

  /// Runs op(); an exception counts as a failure of `what`.
  template <class F>
  void attempt(const std::string& what, F&& op) {
    try {
      op();
      record(true, what);
    } catch (const std::exception& e) {
      record(false, what + ": " + e.what());
    }
  }
};

/// Output metrics in emission order, each with its unit.
class MetricSet {
 public:
  void set(std::string name, double value, const char* unit) {
    items_.push_back({std::move(name), value, unit});
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream o;
    o << "{";
    for (std::size_t i = 0; i < items_.size(); ++i)
      o << (i ? ", " : "") << "\"" << items_[i].name << "\": {\"value\": "
        << num(items_[i].value) << ", \"unit\": \"" << items_[i].unit << "\"}";
    o << "}";
    return o.str();
  }

  void print_table() const {
    for (const auto& m : items_)
      std::printf("  %-48s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

// ------------------------------------------------------------ workloads

struct Workload {
  const char* name;
  Sys (*generate)(std::size_t n, std::uint64_t seed);
  /// Tree-update policy of the six stepped configurations.
  core::TreeUpdateMode step_mode;
  /// Sample counts of an end-to-end run: rounds at --seconds 30, each of
  /// one step per configuration plus the octree and BVH maintenance
  /// iterations per path, then one checked round of steps. Other --seconds
  /// scale the rounds linearly; on the reference host (README.md) a run then
  /// measures about --seconds. Counts, not a clock, end the run, so every
  /// run with the same --seconds does the same work.
  int rounds_at_30;
  int octree_per_round;
  int bvh_per_round;
};

Sys generate_galaxy(std::size_t n, std::uint64_t seed) {
  return workloads::galaxy_collision(n, seed);
}
/// workloads::uniform_cube (half-width 10, bodies at rest) given the
/// drifting cluster's bulk velocity: a bounded input whose bodies move
/// coherently, so incremental maintenance does update work, not rebuilds.
Sys generate_cube(std::size_t n, std::uint64_t seed) {
  Sys sys = workloads::uniform_cube(n, seed, 10.0);
  const workloads::DriftingClusterParams p{};
  const vec3 drift = vec3{{2.0, 1.0, 0.5}} * (p.drift_speed / std::sqrt(5.25));
  for (auto& v : sys.v) v = drift;
  return sys;
}

const Workload kWorkloads[] = {
    {"galaxy", generate_galaxy, core::TreeUpdateMode::rebuild, 4, 1, 2},
    {"cube", generate_cube, core::TreeUpdateMode::incremental, 5, 1, 2},
};

/// Rounds of an end-to-end run.
int rounds_for(const Workload& w, double seconds) {
  return std::max(3, static_cast<int>(std::lround(w.rounds_at_30 * seconds / 30.0)));
}

core::TreeUpdatePolicy update_policy(core::TreeUpdateMode mode) {
  core::TreeUpdatePolicy p;
  p.mode = mode;
  p.interval = mode == core::TreeUpdateMode::incremental ? 0 : 1;
  return p;
}

/// The paper's evaluation configuration (theta = 0.5, FP64).
Cfg base_config() {
  Cfg cfg;
  cfg.theta = kTheta;
  cfg.dt = 1e-3;
  cfg.softening = 0.05;
  return cfg;
}

struct StepConfig {
  const char* strategy;
  core::TraversalMode traversal;

  [[nodiscard]] std::string name() const {
    return std::string(strategy) + "." + core::traversal_mode_name(traversal);
  }
  [[nodiscard]] bool is_octree() const { return std::strcmp(strategy, "octree") == 0; }
  [[nodiscard]] double error_ceiling() const {
    return is_octree() ? kOctreeErrorCeiling : kBvhErrorCeiling;
  }
};

const StepConfig kConfigs[] = {
    {"octree", core::TraversalMode::dfs},  {"octree", core::TraversalMode::group},
    {"octree", core::TraversalMode::dual}, {"bvh", core::TraversalMode::dfs},
    {"bvh", core::TraversalMode::group},   {"bvh", core::TraversalMode::dual},
};
constexpr std::size_t kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);

/// RMS relative error of after.a, the accelerations one step evaluated at
/// the positions in `before`, on `kErrorSample` seed-drawn targets against
/// a direct O(N) sum per target. A strategy may reorder the bodies during
/// the step (the BVH sorts them), so targets are matched by stable id.
double step_force_error(const Sys& before, const Sys& after, const Cfg& cfg,
                        std::uint64_t seed) {
  const std::size_t n = before.size();
  if (after.size() != n) throw std::runtime_error("body count changed during a step");
  const std::uint32_t max_id = *std::max_element(before.id.begin(), before.id.end());
  std::vector<std::uint32_t> slot(std::size_t{max_id} + 1);
  for (std::size_t j = 0; j < n; ++j) slot[before.id[j]] = static_cast<std::uint32_t>(j);
  const std::size_t k = std::min(kErrorSample, n);
  support::Xoshiro256ss rng(seed);
  std::vector<std::size_t> idx(k);
  for (auto& i : idx) i = static_cast<std::size_t>(rng.next() % n);
  std::vector<vec3> got(k), ref(k);
  const double G = cfg.G;
  const double eps2 = cfg.eps2();
  exec::for_each_index(exec::par, k, [&](std::size_t t) {
    const std::size_t i = idx[t];
    const std::size_t self = slot[after.id[i]];
    const vec3 xi = before.x[self];
    vec3 acc = vec3::zero();
    for (std::size_t j = 0; j < n; ++j)
      if (j != self) acc += math::gravity_accel(xi, before.x[j], before.m[j], G, eps2);
    ref[t] = acc;
    got[t] = after.a[i];
  });
  return core::rms_relative_error(got, ref);
}

/// One configuration's Simulation behind a type-erased handle, so the six
/// configurations can be stepped round-robin.
class StepRunner {
 public:
  explicit StepRunner(std::string name) : name_(std::move(name)) {}
  virtual ~StepRunner() = default;
  StepRunner(const StepRunner&) = delete;
  StepRunner& operator=(const StepRunner&) = delete;
  StepRunner(StepRunner&&) = delete;
  StepRunner& operator=(StepRunner&&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  virtual void step_par() = 0;
  virtual void step_seq() = 0;
  [[nodiscard]] virtual const support::PhaseTimer& phases() = 0;
  virtual void set_metrics(obs::MetricsRegistry* metrics) = 0;
  /// One parallel step, timed into `step_s`, whose accelerations are then
  /// checked: returns their sampled error (step_force_error).
  virtual double checked_step(std::uint64_t seed, double& step_s) = 0;

 private:
  std::string name_;
};

template <class Strategy>
class SimRunner final : public StepRunner {
 public:
  SimRunner(std::string name, const Sys& initial, const Cfg& cfg,
            typename Strategy::Options opts)
      : StepRunner(std::move(name)), sim_(initial, cfg, Strategy(opts)) {}

  void step_par() override { sim_.run(exec::par, 1); }
  void step_seq() override { sim_.run(exec::seq, 1); }
  const support::PhaseTimer& phases() override { return sim_.phases(); }
  void set_metrics(obs::MetricsRegistry* metrics) override {
    sim_.set_observability(metrics, nullptr);
  }
  double checked_step(std::uint64_t seed, double& step_s) override {
    const Sys before = sim_.system();
    support::Stopwatch w;
    sim_.run(exec::par, 1);
    step_s = w.seconds();
    return step_force_error(before, sim_.system(), sim_.config(), seed);
  }

 private:
  core::Simulation<double, 3, Strategy> sim_;
};

std::unique_ptr<StepRunner> make_runner(const StepConfig& c, const Sys& initial,
                                        core::TreeUpdateMode mode) {
  Cfg cfg = base_config();
  cfg.traversal = c.traversal;
  if (c.is_octree()) {
    OctreeStrategy::Options o;
    o.update = update_policy(mode);
    return std::make_unique<SimRunner<OctreeStrategy>>(c.name(), initial, cfg, o);
  }
  BvhStrategy::Options o;
  o.update = update_policy(mode);
  return std::make_unique<SimRunner<BvhStrategy>>(c.name(), initial, cfg, o);
}

using PhaseMap = std::map<std::string, double>;

PhaseMap phase_totals(const support::PhaseTimer& t) {
  PhaseMap m;
  for (const auto& n : t.names()) m[n] = t.seconds(n);
  return m;
}

PhaseMap phase_delta(const PhaseMap& after, const PhaseMap& before) {
  PhaseMap d;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    d[k] = v - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

/// Pool counters around a region of interest (exec layer).
struct PoolSnap {
  exec::thread_pool::Stats st;
  std::vector<std::uint64_t> busy;

  static PoolSnap take() {
    const auto& p = exec::thread_pool::global();
    PoolSnap s{p.stats(), {}};
    for (unsigned r = 0; r < p.concurrency(); ++r) s.busy.push_back(p.rank_busy_ns(r));
    return s;
  }
};

struct PoolDelta {
  double regions = 0;
  double wall_ns = 0;
  std::vector<double> busy_ns;

  void add(const PoolSnap& a, const PoolSnap& b) {
    regions += static_cast<double>(b.st.regions - a.st.regions);
    wall_ns += static_cast<double>(b.st.region_wall_ns - a.st.region_wall_ns);
    busy_ns.resize(a.busy.size(), 0.0);
    for (std::size_t r = 0; r < a.busy.size(); ++r)
      busy_ns[r] += static_cast<double>(b.busy[r] - a.busy[r]);
  }
  [[nodiscard]] double utilization() const {
    return wall_ns > 0 ? sum(busy_ns) / (wall_ns * static_cast<double>(busy_ns.size())) : 0.0;
  }
  [[nodiscard]] double imbalance() const {
    const double m = mean(busy_ns);
    return m > 0 ? *std::max_element(busy_ns.begin(), busy_ns.end()) / m : 0.0;
  }
};

// ------------------------------------------------------ tree maintenance

/// Per-iteration samples of the tree-maintenance paths, one strategy.
struct MaintSamples {
  std::vector<double> rebuild_s;  // full rebuild path, seconds
  std::vector<double> update_s;   // incremental prepare() + moment pass
  std::map<std::string, std::vector<double>> layer_s;  // per-call seconds
  std::vector<double> moved_frac;                      // octree gauge
  std::vector<double> unattributed;                    // traced rebuild spans
  int fell_back = 0;  // incremental iterations that rebuilt
  // Octree rebuild-tree counts (last build).
  double nodes = 0;
  double max_depth = 0;
  double lock_retries = 0;
  double memory_bytes = 0;  // node arrays, computed from their sizes
};

void drift(Sys& sys, double dt) {
  exec::for_each_index(exec::par, sys.size(), [&](std::size_t i) { sys.x[i] += sys.v[i] * dt; });
}

bool root_mass_ok(double root, const Sys& sys) {
  double total = 0;
  for (double m : sys.m) total += m;
  return std::abs(root - total) <= 1e-9 * std::abs(total);
}

/// Records the share of a traced rebuild span its child spans do not cover.
void note_unattributed(Tracer* tr, int id, MaintSamples& out) {
  if (tr == nullptr) return;
  out.unattributed.push_back(tr->self_time(id) / tr->duration(id));
}

/// One incremental prepare(): its action, its wall seconds, and the phases
/// the strategy timed inside it, imported under the prepare span.
struct Prepared {
  core::TreeAction act;
  double seconds;
  PhaseMap phases;
};

template <class Strategy>
Prepared traced_prepare(Strategy& strategy, core::StepContext<double, 3>& ctx, Tracer* tr,
                        const char* name, int parent) {
  const PhaseMap before = phase_totals(*ctx.timer);
  Tracer::Scope span(tr, name, parent);
  support::Stopwatch w;
  const core::TreeAction act = strategy.prepare(exec::par, ctx);
  const double seconds = w.seconds();
  PhaseMap phases = phase_delta(phase_totals(*ctx.timer), before);
  if (tr != nullptr)
    for (const auto& [k, v] : phases) tr->phase(k, span.id(), v);
  return {act, seconds, std::move(phases)};
}

/// Seconds of phase `name` in `m`, 0 when it did not run.
double phase_s(const PhaseMap& m, const char* name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

/// Where a maintenance lane reports: an optional tracer and parent span, an
/// optional metrics registry for the strategies, and the run's ledger.
struct LaneEnv {
  Tracer* tr;
  int parent;
  obs::MetricsRegistry* reg;
  Ledger* ledger;
};

/// One tree-maintenance path at the workload's large N, on its own copy of
/// the bodies. iteration(it) drifts them by one dt (from it = 1 on) and
/// maintains the tree once; iteration 0, the first build, is not sampled.
/// check() validates the tree, outside every timed region.
class MaintLane {
 public:
  MaintLane(const Sys& base, const LaneEnv& env, MaintSamples& out)
      : sys_(base), env_(env), out_(out) {}
  MaintLane(const MaintLane&) = delete;
  MaintLane& operator=(const MaintLane&) = delete;
  virtual ~MaintLane() = default;

  void iteration(int it) {
    if (it > 0) drift(sys_, cfg_.dt);
    maintain(it);
  }
  virtual void check() = 0;

 protected:
  virtual void maintain(int it) = 0;

  Sys sys_;
  LaneEnv env_;
  MaintSamples& out_;
  const Cfg cfg_ = base_config();
};

/// Octree full rebuild through the tree API: bbox -> build -> multipole.
class OctreeRebuildLane final : public MaintLane {
 public:
  using MaintLane::MaintLane;

  void check() override {
    Ledger& ledger = *env_.ledger;
    ledger.record(core::validate_octree(tree_, sys_.size()).ok, "validate_octree(rebuild tree)");
    ledger.record(root_mass_ok(tree_.node_mass(0), sys_), "octree rebuild root mass");
    const auto st = tree_.stats();
    out_.nodes = static_cast<double>(st.nodes);
    out_.max_depth = static_cast<double>(st.max_depth);
    out_.lock_retries = static_cast<double>(tree_.lock_retries());
    // Topology arrays (stats()) plus each node's mass and centre of mass.
    out_.memory_bytes =
        static_cast<double>(st.memory_bytes) +
        static_cast<double>(tree_.node_index_end()) * (sizeof(double) + sizeof(vec3));
  }

 private:
  void maintain(int it) override {
    Tracer* tr = env_.tr;
    env_.ledger->attempt("octree.rebuild", [&] {
      int span_id = -1;
      double bbox_s = 0, build_s = 0, mp_s = 0;
      {
        Tracer::Scope span(tr, "octree.rebuild", env_.parent);
        span_id = span.id();
        math::aabb<double, 3> box;
        bbox_s = timed(tr, "core.bbox", span_id,
                       [&] { box = core::compute_root_cube(exec::par, sys_.x); });
        build_s = timed(tr, "octree.build", span_id, [&] { tree_.build(exec::par, sys_.x, box); });
        mp_s = timed(tr, "octree.multipole", span_id,
                     [&] { tree_.compute_multipoles(exec::par, sys_.m, sys_.x); });
      }
      if (it == 0) return;
      note_unattributed(tr, span_id, out_);
      out_.rebuild_s.push_back(bbox_s + build_s + mp_s);
      out_.layer_s["core.bbox"].push_back(bbox_s);
      out_.layer_s["octree.build"].push_back(build_s);
      out_.layer_s["octree.multipole"].push_back(mp_s);
    });
  }

  Octree tree_;
};

OctreeStrategy::Options incremental_octree() {
  OctreeStrategy::Options o;
  o.update = update_policy(core::TreeUpdateMode::incremental);
  return o;
}

/// Octree incremental lifecycle: OctreeStrategy::prepare() (quality monitor,
/// relocation or fallback rebuild) plus the moment pass accelerations()
/// runs next.
class OctreeUpdateLane final : public MaintLane {
 public:
  using MaintLane::MaintLane;

  void check() override {
    Ledger& ledger = *env_.ledger;
    ledger.record(core::validate_octree(inc_.tree(), sys_.size()).ok,
                  "validate_octree(incremental tree)");
    ledger.record(root_mass_ok(inc_.tree().node_mass(0), sys_), "octree incremental root mass");
  }

 private:
  void maintain(int it) override {
    Tracer* tr = env_.tr;
    // The strategy exposes its tree read-only; the moment pass mutates it
    // exactly as accelerations() does right after prepare(). `inc_` is not
    // const, so the cast is well-defined.
    Octree& inc_tree = const_cast<Octree&>(inc_.tree());
    env_.ledger->attempt("octree.update", [&] {
      Tracer::Scope span(tr, "octree.update", env_.parent);
      core::StepContext<double, 3> ctx{sys_, cfg_, &phases_, env_.reg, nullptr};
      const Prepared p = traced_prepare(inc_, ctx, tr, "octree.prepare", span.id());
      const double mp_s = timed(tr, "octree.multipole", span.id(), [&] {
        inc_tree.compute_multipoles(exec::par, sys_.m, sys_.x);
      });
      if (it == 0) return;
      out_.update_s.push_back(p.seconds + mp_s);
      if (p.act == core::TreeAction::Rebuilt) ++out_.fell_back;
      out_.layer_s["octree.plan_update"].push_back(phase_s(p.phases, "quality"));
      out_.layer_s["octree.apply_update"].push_back(phase_s(p.phases, "update"));
      if (env_.reg != nullptr)
        out_.moved_frac.push_back(env_.reg->gauge_value("octree.quality.moved_fraction"));
    });
  }

  OctreeStrategy inc_{incremental_octree()};
  support::PhaseTimer phases_;
};

/// BVH full rebuild through the tree API: bbox -> Hilbert sort -> build
/// (boxes and moments).
class BvhRebuildLane final : public MaintLane {
 public:
  using MaintLane::MaintLane;

  void check() override {
    Ledger& ledger = *env_.ledger;
    ledger.record(core::validate_bvh(tree_, sys_.x, true).ok, "validate_bvh(rebuild tree)");
    ledger.record(root_mass_ok(tree_.node_mass(1), sys_), "bvh rebuild root mass");
  }

 private:
  void maintain(int it) override {
    Tracer* tr = env_.tr;
    env_.ledger->attempt("bvh.rebuild", [&] {
      int span_id = -1;
      double bbox_s = 0, sort_s = 0, build_s = 0;
      {
        Tracer::Scope span(tr, "bvh.rebuild", env_.parent);
        span_id = span.id();
        math::aabb<double, 3> box;
        bbox_s = timed(tr, "core.bbox", span_id, [&] {
          box = core::compute_bounding_box(exec::par, sys_.x);
          if (box.empty()) box = box.inflated_cube();
        });
        sort_s = timed(tr, "bvh.sort", span_id, [&] { tree_.sort_bodies(exec::par, sys_, box); });
        build_s = timed(tr, "bvh.build", span_id, [&] { tree_.build(exec::par, sys_.m, sys_.x); });
      }
      if (it == 0) return;
      note_unattributed(tr, span_id, out_);
      out_.rebuild_s.push_back(bbox_s + sort_s + build_s);
      out_.layer_s["core.bbox"].push_back(bbox_s);
      out_.layer_s["bvh.sort"].push_back(sort_s);
      out_.layer_s["bvh.build"].push_back(build_s);
    });
  }

  Bvh tree_;
};

BvhStrategy::Options incremental_bvh() {
  BvhStrategy::Options o;
  o.update = update_policy(core::TreeUpdateMode::incremental);
  return o;
}

/// BVH incremental lifecycle: BVHStrategy::prepare(), whose build() is the
/// moment pass.
class BvhUpdateLane final : public MaintLane {
 public:
  using MaintLane::MaintLane;

  void check() override {
    Ledger& ledger = *env_.ledger;
    ledger.record(core::validate_bvh(inc_.tree(), sys_.x, true).ok,
                  "validate_bvh(incremental tree)");
    ledger.record(root_mass_ok(inc_.tree().node_mass(1), sys_), "bvh incremental root mass");
  }

 private:
  void maintain(int it) override {
    Tracer* tr = env_.tr;
    env_.ledger->attempt("bvh.update", [&] {
      Tracer::Scope span(tr, "bvh.update", env_.parent);
      core::StepContext<double, 3> ctx{sys_, cfg_, &phases_, env_.reg, nullptr};
      const Prepared p = traced_prepare(inc_, ctx, tr, "bvh.prepare", span.id());
      if (it == 0) return;
      out_.update_s.push_back(p.seconds);
      if (p.act == core::TreeAction::Rebuilt) ++out_.fell_back;
      out_.layer_s["bvh.quality"].push_back(phase_s(p.phases, "quality"));
    });
  }

  BvhStrategy inc_{incremental_bvh()};
  support::PhaseTimer phases_;
};

/// Runs one lane alone: its first build, `iters` sampled iterations, its
/// checks. Only this lane's tree is alive meanwhile.
template <class Lane>
void run_lane(const Sys& base, int iters, const LaneEnv& env, MaintSamples& out) {
  Lane lane(base, env, out);
  for (int it = 0; it <= iters; ++it) lane.iteration(it);
  lane.check();
}

/// Octree then BVH maintenance, each path alone: rebuild, then update.
void maint_sequential(const Sys& base, int iters, const LaneEnv& env, MaintSamples& mo,
                      MaintSamples& mb) {
  run_lane<OctreeRebuildLane>(base, iters, env, mo);
  run_lane<OctreeUpdateLane>(base, iters, env, mo);
  run_lane<BvhRebuildLane>(base, iters, env, mb);
  run_lane<BvhUpdateLane>(base, iters, env, mb);
}

// ------------------------------------------------------------- the run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string source = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nbody_perfbench: %s\nusage: nbody_perfbench --workload galaxy|cube --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--source ID]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out-dir") a.out_dir = v;
      else if (k == "--source") a.source = v;
      else usage(("unknown option " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0)
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string fingerprint(const Args& a, const Workload& w) {
#ifdef NBODY_CHAOS
  const char* chaos = "ON";
#else
  const char* chaos = "OFF";
#endif
  std::ostringstream o;
  o << "{\"workload\": \"" << w.name << "\", \"seed\": " << a.seed
    << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"step_n\": " << kStepN
    << ", \"maint_n\": " << kMaintN << ", \"theta\": " << kTheta
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"threads\": " << exec::thread_pool::global().concurrency() << ", \"backend\": \""
    << exec::backend_name(exec::default_backend()) << "\", \"policy\": \"par\""
    << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
    << json_escape(PERFBENCH_COMPILER) << " (" << json_escape(__VERSION__) << ")\""
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"cxx_flags\": \""
    << json_escape(PERFBENCH_CXX_FLAGS) << "\", \"NBODY_CHAOS\": \"" << chaos
    << "\", \"source\": \"" << json_escape(a.source) << "\"}";
  return o.str();
}

/// The inputs and primed simulations one run measures.
struct State {
  Sys step_initial;
  Sys maint_base;
  std::vector<std::unique_ptr<StepRunner>> runners;
  double gen_s = 0;
};

/// One set-up: generate both systems, then build each strategy's first tree
/// over the step system (a fresh strategy's prepare(), the build every
/// simulation's first step pays). Returns its wall seconds.
double set_up(const Args& a, const Workload& w, State& s, Ledger& ledger) {
  support::Stopwatch total;
  s.step_initial = w.generate(kStepN, a.seed);
  s.maint_base = w.generate(kMaintN, a.seed);
  s.gen_s = total.seconds();
  ledger.attempt("first builds", [&] {
    const Cfg cfg = base_config();
    Sys sys = s.step_initial;
    core::StepContext<double, 3> ctx{sys, cfg, nullptr, nullptr, nullptr};
    OctreeStrategy::Options oo;
    oo.update = update_policy(w.step_mode);
    OctreeStrategy octree_first(oo);
    octree_first.prepare(exec::par, ctx);
    BvhStrategy::Options bo;
    bo.update = update_policy(w.step_mode);
    BvhStrategy bvh_first(bo);
    bvh_first.prepare(exec::par, ctx);
  });
  return total.seconds();
}

/// Constructs the six simulations and runs each one's first step (first
/// tree build, leapfrog priming). Warm-up: never sampled.
void prime(State& s, const Workload& w, Ledger& ledger) {
  s.runners.clear();
  for (const StepConfig& c : kConfigs) {
    s.runners.push_back(make_runner(c, s.step_initial, w.step_mode));
    ledger.attempt(c.name() + " first step", [&] { s.runners.back()->step_par(); });
  }
}

/// One checked step of `r`, its wall seconds appended to `step_s` when
/// given. A sampled force error above the ceiling counts as a failure.
/// Returns the error.
double check_step(StepRunner& r, double ceiling, std::uint64_t seed, Ledger& ledger,
                  std::vector<double>* step_s) {
  double err = 0;
  ledger.attempt(r.name() + " checked step", [&] {
    double t = 0;
    err = r.checked_step(seed, t);
    if (step_s != nullptr) step_s->push_back(t);
    if (!(err <= ceiling))
      throw std::runtime_error("force error " + num(err) + " above ceiling " + num(ceiling));
  });
  return err;
}

/// Seed of the force-check sample of configuration i.
std::uint64_t check_seed(const Args& a, std::size_t i) { return a.seed * 1000003u + i; }

// ---------------------------------------------------- end-to-end run

using SampleMap = std::map<std::string, std::vector<double>>;

void run_end_to_end(const Args& a, const Workload& w, Ledger& ledger, MetricSet& out,
                    SampleMap& samples) {
  std::vector<double> setup_s;
  State s;
  for (int r = 0; r < kSetupReps; ++r) setup_s.push_back(set_up(a, w, s, ledger));
  prime(s, w, ledger);

  // Maintenance lanes at the large N, all four alive at once (the run peaks
  // near 2.8 GB at 2^21) so their iterations interleave with the steps:
  // every metric then samples the whole run, not one stretch of it, and the
  // host's slow phases, which last tens of seconds, weigh on all alike.
  MaintSamples mo, mb;
  const LaneEnv env{nullptr, -1, nullptr, &ledger};
  OctreeRebuildLane octree_rebuild(s.maint_base, env, mo);
  OctreeUpdateLane octree_update(s.maint_base, env, mo);
  BvhRebuildLane bvh_rebuild(s.maint_base, env, mb);
  BvhUpdateLane bvh_update(s.maint_base, env, mb);
  s.maint_base = Sys{};
  struct Lane {
    MaintLane* lane;
    int per_round;
    int done = 0;
  };
  Lane lanes[] = {{&octree_rebuild, w.octree_per_round},
                  {&octree_update, w.octree_per_round},
                  {&bvh_rebuild, w.bvh_per_round},
                  {&bvh_update, w.bvh_per_round}};
  for (Lane& l : lanes) l.lane->iteration(l.done++);  // first builds, unsampled

  // Rounds: one step of each configuration, round-robin, then each lane's
  // maintenance iterations.
  const int rounds = rounds_for(w, a.seconds);
  std::vector<std::vector<double>> step_s(s.runners.size());
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < s.runners.size(); ++i)
      ledger.attempt(s.runners[i]->name() + " step", [&] {
        support::Stopwatch sw;
        s.runners[i]->step_par();
        step_s[i].push_back(sw.seconds());
      });
    for (Lane& l : lanes)
      for (int k = 0; k < l.per_round; ++k) l.lane->iteration(l.done++);
  }
  // Final round: every configuration's last step is checked, and sampled.
  std::vector<double> err(s.runners.size());
  for (std::size_t i = 0; i < s.runners.size(); ++i)
    err[i] = check_step(*s.runners[i], kConfigs[i].error_ceiling(), check_seed(a, i), ledger,
                        &step_s[i]);

  for (Lane& l : lanes) l.lane->check();

  const double n = static_cast<double>(kStepN);
  const double nm = static_cast<double>(kMaintN);
  for (std::size_t i = 0; i < s.runners.size(); ++i)
    out.set(s.runners[i]->name() + ".bsps", n / median(step_s[i]), "body-steps/s");
  out.set("octree.rebuild.bps", nm / median(mo.rebuild_s), "bodies/s");
  out.set("bvh.rebuild.bps", nm / median(mb.rebuild_s), "bodies/s");
  // Incremental maintenance alternates cheap updates with fallback
  // rebuilds, so its throughput is amortized over the whole window.
  out.set("octree.update.bps", nm * mo.update_s.size() / sum(mo.update_s), "bodies/s");
  out.set("bvh.update.bps", nm * mb.update_s.size() / sum(mb.update_s), "bodies/s");
  out.set("force_err_rms", *std::max_element(err.begin(), err.end()), "1");
  out.set("setup_s", median(setup_s), "s");

  for (std::size_t i = 0; i < s.runners.size(); ++i) {
    samples[s.runners[i]->name() + ".step_s"] = step_s[i];
    samples[s.runners[i]->name() + ".force_err_rms"] = {err[i]};
  }
  samples["octree.rebuild_s"] = mo.rebuild_s;
  samples["bvh.rebuild_s"] = mb.rebuild_s;
  samples["octree.update_s"] = mo.update_s;
  samples["bvh.update_s"] = mb.update_s;
  samples["setup_s"] = setup_s;

  std::printf("samples: steps per config:");
  for (const auto& v : step_s) std::printf(" %zu", v.size());
  std::printf("; maintenance iterations: octree %zu, bvh %zu; setup reps %d\n",
              mo.rebuild_s.size(), mb.rebuild_s.size(), kSetupReps);
}

// ------------------------------------------------------- traced run

/// Interaction and tree counts of one traced pass, for the repeat check.
using Counts = std::map<std::string, double>;

struct TracedPass {
  Counts counts;
  std::vector<double> step_s;
  double force_s = 0;  // force phase seconds over every counted step
  double counted_steps = 0;
};

double counter(const obs::MetricsRegistry& reg, const std::string& name) {
  return static_cast<double>(reg.counter_value(name));
}

/// Interactions per target body and tree sizes of one configuration from
/// the registry it ran with. Group and dual lists are per block of
/// effective_group_size() targets, so list entries are scaled by it
/// (exact when N is a multiple of the group size).
Counts read_counts(const StepConfig& c, const obs::MetricsRegistry& reg, double body_steps) {
  const std::string s = c.strategy;
  Counts k;
  const double g = static_cast<double>(base_config().effective_group_size());
  switch (c.traversal) {
    case core::TraversalMode::dfs:
      k["p2p_per_body"] = counter(reg, s + ".traversal.p2p") / body_steps;
      k["m2p_per_body"] = counter(reg, s + ".traversal.m2p") / body_steps;
      break;
    case core::TraversalMode::group:
      k["p2p_per_body"] = counter(reg, s + ".group.p2p") * g / body_steps;
      k["m2p_per_body"] = counter(reg, s + ".group.m2p") * g / body_steps;
      break;
    case core::TraversalMode::dual:
      k["p2p_per_body"] = counter(reg, s + ".dual.p2p") * g / body_steps;
      k["m2p_per_body"] = counter(reg, s + ".dual.m2p") * g / body_steps;
      k["m2l_per_body"] = counter(reg, s + ".dual.m2l") / body_steps;
      break;
  }
  if (c.is_octree()) {
    k["tree_nodes"] = reg.gauge_value("octree.nodes");
    k["tree_depth"] = reg.gauge_value("octree.max_depth");
  } else {
    k["tree_nodes"] = reg.gauge_value("bvh.nodes");
    k["tree_depth"] = reg.gauge_value("bvh.levels");
  }
  return k;
}

/// Writes one repeat-check group {"count": {"a": .., "b": .., "class": ..}}
/// and tallies exact and varying counts.
void classify(std::ostringstream& cj, const std::map<std::string, std::pair<double, double>>& rows,
              int& exact, int& varying) {
  cj << "{";
  bool first = true;
  for (const auto& [k, ab] : rows) {
    const bool same = ab.first == ab.second;
    (same ? exact : varying) += 1;
    cj << (first ? "" : ", ") << "\"" << k << "\": {\"a\": " << num(ab.first)
       << ", \"b\": " << num(ab.second) << ", \"class\": \"" << (same ? "exact" : "varying")
       << "\"}";
    first = false;
  }
  cj << "}";
}

void run_traced(const Args& a, const Workload& w, Ledger& ledger, MetricSet& out,
                Tracer& tr, std::string& counts_json) {
  const int root = tr.open(std::string("run ") + w.name, -1);
  State s;
  {
    Tracer::Scope span(&tr, "setup", root);
    set_up(a, w, s, ledger);
    tr.phase("workloads.generate", span.id(), s.gen_s);
  }
  out.set("workloads.gen_ms", 1e3 * s.gen_s, "ms");

  const double n = static_cast<double>(kStepN);
  const unsigned threads = exec::thread_pool::global().concurrency();
  std::vector<double> untraced_total, traced_total;
  double regions = 0, region_steps = 0;
  double worst_unattributed = 0, worst_fill = 0;
  double dfs_par_s = 0;
  int exact = 0, varying = 0;
  std::ostringstream cj;
  cj << "{";

  for (std::size_t ci = 0; ci < kNumConfigs; ++ci) {
    const StepConfig& c = kConfigs[ci];
    const std::string name = c.name();
    Tracer::Scope cspan(&tr, "config " + name, root);
    // U: untraced reference; A and B: traced passes from the same input.
    auto u = make_runner(c, s.step_initial, w.step_mode);
    auto pa = make_runner(c, s.step_initial, w.step_mode);
    auto pb = make_runner(c, s.step_initial, w.step_mode);
    obs::MetricsRegistry ra, rb;
    pa->set_metrics(&ra);
    pb->set_metrics(&rb);
    TracedPass A, B;
    std::vector<double> u_s;
    PoolDelta pool;
    ledger.attempt(name + " traced steps", [&] {
      u->step_par();
      pa->step_par();
      pb->step_par();
      for (int k = 0; k < kTracedSteps; ++k) {
        support::Stopwatch uw;
        u->step_par();
        u_s.push_back(uw.seconds());

        const PhaseMap before = phase_totals(pa->phases());
        const PoolSnap p0 = PoolSnap::take();
        int sid = -1;
        double step = 0;
        {
          Tracer::Scope span(&tr, "step", cspan.id());
          sid = span.id();
          support::Stopwatch sw;
          pa->step_par();
          step = sw.seconds();
        }
        pool.add(p0, PoolSnap::take());
        for (const auto& [ph, v] : phase_delta(phase_totals(pa->phases()), before))
          tr.phase(ph, sid, v);
        A.step_s.push_back(step);
        worst_unattributed =
            std::max(worst_unattributed, std::abs(tr.self_time(sid)) / tr.duration(sid));
      }
      for (int k = 0; k < kTracedSteps; ++k) pb->step_par();
    });
    A.counted_steps = kTracedSteps + 1;
    A.force_s = pa->phases().seconds("force");
    A.counts = read_counts(c, ra, n * A.counted_steps);
    B.counts = read_counts(c, rb, n * A.counted_steps);
    untraced_total.push_back(median(u_s));
    traced_total.push_back(median(A.step_s));
    regions += pool.regions;
    region_steps += kTracedSteps;
    {
      Tracer::Scope span(&tr, "checked step", cspan.id());
      const double err = check_step(*u, c.error_ceiling(), check_seed(a, ci), ledger, nullptr);
      out.set(name + ".force_err_rms", err, "1");
    }
    if (ci == 0) dfs_par_s = median(u_s);
    if (ci == 0) {
      // One sequential baseline per workload, on the paper's algorithm.
      ledger.attempt(name + " seq step", [&] {
        const double seq_s = timed(&tr, "seq step", cspan.id(), [&] { u->step_seq(); });
        out.set("exec.speedup_vs_seq", seq_s / dfs_par_s, "x");
      });
    }

    // Per-configuration layer metrics.
    const PhaseMap ph = phase_totals(pa->phases());
    double tree_s = 0;
    for (const auto& [k, v] : ph)
      if (k != "force") tree_s += v;
    const double steps_all = A.counted_steps;
    out.set(name + ".force_ms", 1e3 * A.force_s / steps_all, "ms");
    out.set(name + ".tree_ms", 1e3 * tree_s / steps_all, "ms");
    out.set(name + ".p2p_per_body", A.counts["p2p_per_body"], "count");
    out.set(name + ".m2p_per_body", A.counts["m2p_per_body"], "count");
    if (c.traversal == core::TraversalMode::dual)
      out.set(name + ".m2l_per_body", A.counts["m2l_per_body"], "count");
    const double body_steps = n * steps_all;
    double interactions = (A.counts["p2p_per_body"] + A.counts["m2p_per_body"]) * body_steps;
    double kernel_thread_s = A.force_s * threads;  // dfs: walk and kernel are fused
    if (c.traversal != core::TraversalMode::dfs) {
      const double walk_ns = counter(ra, name + ".walk_ns");
      const double kernel_ns = counter(ra, name + ".kernel_ns");
      if (c.traversal == core::TraversalMode::dual) interactions += body_steps;  // L2P
      out.set(name + ".walk_ns_per_body", walk_ns / body_steps, "ns");
      out.set(name + ".kernel_ns_per_body", kernel_ns / body_steps, "ns");
      kernel_thread_s = kernel_ns * 1e-9;
      const double fill = (walk_ns + kernel_ns) * 1e-9 / (A.force_s * threads);
      worst_fill = std::max(worst_fill, fill);
    }
    out.set("math." + name + ".interactions_per_s_per_thread",
            kernel_thread_s > 0 ? interactions / kernel_thread_s : 0.0, "1/s");
    out.set("exec." + name + ".utilization", pool.utilization(), "frac");
    out.set("exec." + name + ".imbalance", pool.imbalance(), "ratio");

    // Repeat check: the same seed twice, count by count.
    std::map<std::string, std::pair<double, double>> rows;
    for (const auto& [k, v] : A.counts) rows[k] = {v, B.counts[k]};
    cj << (ci ? ", " : "") << "\"" << name << "\": ";
    classify(cj, rows, exact, varying);
  }

  // Tree maintenance at the large N, traced, fixed iteration count. Two
  // builds of the same positions first, for the node/depth repeat check.
  MaintSamples mo, mb;
  {
    Tracer::Scope span(&tr, "maintenance", root);
    ledger.attempt("octree repeat builds", [&] {
      Octree t1, t2;
      const auto box = core::compute_root_cube(exec::par, s.maint_base.x);
      t1.build(exec::par, s.maint_base.x, box);
      t2.build(exec::par, s.maint_base.x, box);
      const auto s1 = t1.stats();
      const auto s2 = t2.stats();
      cj << ", \"octree.maint_build\": ";
      classify(cj,
               {{"nodes", {double(s1.nodes), double(s2.nodes)}},
                {"max_depth", {double(s1.max_depth), double(s2.max_depth)}},
                {"lock_retries", {double(t1.lock_retries()), double(t2.lock_retries())}}},
               exact, varying);
    });
    obs::MetricsRegistry reg;
    maint_sequential(s.maint_base, kTracedMaintIters, {&tr, span.id(), &reg, &ledger}, mo, mb);
  }
  cj << "}";
  counts_json = cj.str();

  const double nm = static_cast<double>(kMaintN);
  auto ms = [](const std::vector<double>& v) { return 1e3 * median(v); };
  out.set("core.bbox_ms", ms(mo.layer_s["core.bbox"]), "ms");
  out.set("bvh.sort_ms", ms(mb.layer_s["bvh.sort"]), "ms");
  out.set("bvh.build_ms", ms(mb.layer_s["bvh.build"]), "ms");
  out.set("octree.build_ms", ms(mo.layer_s["octree.build"]), "ms");
  out.set("octree.multipole_ms", ms(mo.layer_s["octree.multipole"]), "ms");
  out.set("octree.lock_retries_per_body", mo.lock_retries / nm, "count");
  out.set("octree.nodes", mo.nodes, "count");
  out.set("octree.max_depth", mo.max_depth, "count");
  // Working set of the maintenance paths, computed from array sizes, to set
  // against the last-level cache (README.md).
  constexpr double kBodyBytes = sizeof(double) + 3 * sizeof(vec3) + sizeof(std::uint32_t);
  out.set("maint.bodies_mib", nm * kBodyBytes / (1 << 20), "MiB");
  out.set("octree.tree_mib", mo.memory_bytes / (1 << 20), "MiB");
  out.set("octree.plan_update_ms", ms(mo.layer_s["octree.plan_update"]), "ms");
  out.set("octree.apply_update_ms", ms(mo.layer_s["octree.apply_update"]), "ms");
  out.set("bvh.quality_ms", ms(mb.layer_s["bvh.quality"]), "ms");
  auto rebuild_frac = [](const MaintSamples& m) {
    return m.update_s.empty() ? 0.0 : double(m.fell_back) / double(m.update_s.size());
  };
  out.set("maint.octree.rebuild_frac", rebuild_frac(mo), "frac");
  out.set("maint.bvh.rebuild_frac", rebuild_frac(mb), "frac");
  out.set("octree.moved_frac", mean(mo.moved_frac), "frac");
  out.set("exec.regions_per_step", region_steps > 0 ? regions / region_steps : 0.0, "count");
  double ut = 0, tt = 0;
  for (std::size_t i = 0; i < untraced_total.size(); ++i) {
    ut += untraced_total[i];
    tt += traced_total[i];
  }
  out.set("obs.trace_overhead", ut > 0 ? tt / ut : 0.0, "ratio");
  std::vector<double> mu = mo.unattributed;
  mu.insert(mu.end(), mb.unattributed.begin(), mb.unattributed.end());
  const double maint_unattributed = mu.empty() ? 0.0 : *std::max_element(mu.begin(), mu.end());
  out.set("recon.step_unattributed_frac", worst_unattributed, "frac");
  out.set("recon.maint_unattributed_frac", maint_unattributed, "frac");
  out.set("recon.force_fill", worst_fill, "frac");
  out.set("counts.exact", exact, "count");
  out.set("counts.varying", varying, "count");

  // Reconciliation checks of the traced run.
  ledger.record(worst_unattributed <= kUnattributedTol,
                "step phases cover the step wall time within " + num(kUnattributedTol) +
                    " (worst " + num(worst_unattributed) + ")");
  ledger.record(maint_unattributed <= kUnattributedTol,
                "rebuild layer spans cover the rebuild span within " + num(kUnattributedTol) +
                    " (worst " + num(maint_unattributed) + ")");
  ledger.record(worst_fill <= 1.0 + kFillTol,
                "walk_ns + kernel_ns fits in force wall x threads (worst fill " +
                    num(worst_fill) + ")");
  tr.close(root);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (a.workload == cand.name) w = &cand;
  if (w == nullptr) usage(("unknown workload '" + a.workload + "'").c_str());
  exec::set_default_backend(exec::backend::static_chunk);

  const std::string fp = fingerprint(a, *w);
  std::printf("fingerprint: %s\n", fp.c_str());
  std::fflush(stdout);

  Ledger ledger;
  MetricSet out;
  Tracer tracer;
  std::string counts_json = "{}";
  SampleMap samples;
  try {
    if (a.trace)
      run_traced(a, *w, ledger, out, tracer, counts_json);
    else
      run_end_to_end(a, *w, ledger, out, samples);
  } catch (const std::exception& e) {
    ledger.record(false, std::string("run aborted: ") + e.what());
  }
  const bool correct = ledger.failed == 0;

  if (!a.out_dir.empty()) {
    const std::string path = a.out_dir + "/" + w->name + "_seed" + std::to_string(a.seed) +
                             "_trace" + (a.trace ? "1" : "0") + ".json";
    std::ofstream f(path);
    f << "{\"fingerprint\": " << fp << ",\n\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted << ", \"failed\": " << ledger.failed
      << ",\n\"failures\": [";
    for (std::size_t i = 0; i < ledger.failures.size(); ++i)
      f << (i ? ", " : "") << "\"" << json_escape(ledger.failures[i]) << "\"";
    f << "],\n\"samples\": {";
    bool first = true;
    for (const auto& [k, v] : samples) {
      f << (first ? "" : ", ") << "\"" << k << "\": [";
      for (std::size_t i = 0; i < v.size(); ++i) f << (i ? ", " : "") << num(v[i]);
      f << "]";
      first = false;
    }
    f << "},\n\"metrics\": " << out.to_json() << ",\n\"counts\": " << counts_json
      << ",\n\"trace\": " << (a.trace ? tracer.to_json() : std::string("null")) << "}\n";
    if (!f) std::fprintf(stderr, "nbody_perfbench: cannot write %s\n", path.c_str());
    else std::printf("result file: %s\n", path.c_str());
  }

  std::printf("%s seed %llu, %s run: %llu attempted, %llu failed (failed_frac %.6g)\n",
              w->name, static_cast<unsigned long long>(a.seed),
              a.trace ? "traced" : "end-to-end",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              ledger.attempted ? double(ledger.failed) / double(ledger.attempted) : 0.0);
  out.print_table();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed), out.to_json().c_str());
  return correct ? 0 : 1;
}

// The serving benchmark's workloads. One benchmark thread generates the
// load and collects the steps; the manager runs its own shard workers.
// Only public edgedrift API is called, and per-layer figures come from the
// library's existing hooks: obs::Snapshot / ShardSnapshot counters and
// histograms, the Pipeline stage timer (the paper's Table 6 stages) and
// PipelineStats.
//
// A run is a number of independent rounds. Each round builds a fresh
// manager (timed: that is setup_s), warms it, runs the open-loop and
// closed-loop phases, checks the outputs and tears the manager down. Timing
// metrics are medians, so one round that lands on a slow moment of a shared
// host does not move the result.
//
// Time-boxed workloads run WorkloadSpec::rounds rounds that share
// --seconds. Work-boxed workloads (WorkloadSpec::quality_rows) give every
// round the same rows per stream, so each run covers the same drift and
// recovery positions, and --seconds sets the number of rounds instead.
#include "workloads.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "alloc_hook.hpp"
#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "edgedrift/data/scenario.hpp"
#include "edgedrift/eval/paper_configs.hpp"
#include "edgedrift/eval/scenario_metrics.hpp"
#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/util/rng.hpp"
#include "edgedrift/util/stage_timer.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace edgedrift;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::uint64_t kSecondNs = 1'000'000'000ULL;
/// Share of each time-boxed round's time in the open-loop phase; the rest
/// is closed-loop.
constexpr double kOpenShare = 0.6;
/// Timed manager set-ups per round; setup_s is their median over the run.
constexpr std::size_t kSetupsPerRound = 2;
/// Seconds of --seconds per round of a work-boxed workload (about what one
/// round takes on a 4-vCPU host).
constexpr double kWorkRoundSeconds = 2.0;
/// Share of a work-boxed round's rows per stream offered open-loop; the
/// rest run closed-loop.
constexpr double kOpenRowShare = 0.1;
/// Closed-loop segment length; the traced run alternates untraced and
/// traced segments.
constexpr double kSegmentSeconds = 0.25;
/// Rows per stream in one segment of a quality_rows workload.
constexpr std::size_t kWorkSegmentRows = 2000;
/// Segments per round of a closed_rows_per_s workload.
constexpr std::size_t kClosedSegments = 10;
/// Largest block any client submits.
constexpr std::size_t kMaxBlock = 16;
/// The traced run keeps the submit_batch / take_steps spans of every
/// kSpanEvery-th request (all stats and evict calls are kept).
constexpr std::uint64_t kSpanEvery = 16;
/// Client id of blocks no closed-loop client waits for.
constexpr std::uint32_t kNoClient = ~std::uint32_t{0};
constexpr std::size_t kShards = 2;
/// The Table-6 stages a Pipeline stage timer records.
constexpr std::array<const char*, 6> kStages = {
    core::Pipeline::kStagePredict,        core::Pipeline::kStageDistance,
    core::Pipeline::kStageRetrainNearest, core::Pipeline::kStageRetrainPredict,
    core::Pipeline::kStageInitCoord,      core::Pipeline::kStageUpdateCoord};
/// Seed of the fleet's fixed parts (see Bench::setup).
constexpr std::uint64_t kFleetSeed = 1000;
/// Repetitions of the stats() call at one stats point (see timed_stats).
constexpr std::size_t kStatsPointCalls = 8;
constexpr std::uint64_t kStatsPointNs = 2'000'000;
/// Fewest rows a latency window needs for its percentiles to count.
constexpr std::size_t kMinWindowRows = 500;
/// Most threads the untimed replay check runs on.
constexpr std::size_t kReplayThreads = 2;

// --------------------------------------------------------- workload specs

enum class Source {
  kTemplate,  ///< One fitted NSL-KDD-like template, stationary rows.
  kScenario,  ///< Per-stream recurrent ScenarioSpec compile, drifting rows.
};

struct WorkloadSpec {
  std::string name;
  Source source = Source::kTemplate;
  std::size_t streams = 0;
  std::size_t hot_budget = 0;  ///< Per shard; 0 = no eviction.
  std::optional<linalg::NumericsTier> tier;
  double open_rows_per_s = 0.0;  ///< Offered rate of the open-loop phase.
  double zipf_s = 0.0;           ///< Popularity skew; 0 = uniform.
  std::size_t clients = 0;       ///< Closed-loop clients; 0 = one per stream.
  /// Rows each closed-loop client keeps outstanding (blocks of at most
  /// kMaxBlock). A client that draws a new stream per request (clients > 0)
  /// submits one block of this size.
  std::size_t window = 4;
  std::size_t warm_streams = 0;  ///< Streams touched in warm-up; 0 = all.
  /// Rows per stream per round, all scored for quality; 0 scores the
  /// warm-up and open-loop rows instead. When set, the round is a fixed
  /// amount of work instead of a fixed time: the open loop offers about
  /// kOpenRowShare of these rows per stream at open_rows_per_s, and the
  /// closed loop runs every stream up to the full count, so throughput and
  /// latency are taken over the same stream positions in every run.
  std::size_t quality_rows = 0;
  /// When set on a time-boxed workload, its closed loop is work-boxed
  /// instead: each round submits this rate times the closed loop's share
  /// of the round's time, in kClosedSegments equal segments. So every run
  /// at a given --seconds does the same requests, and touches the same
  /// number of streams, whatever the host's speed.
  double closed_rows_per_s = 0.0;
  /// Manager lifetimes per run of a time-boxed workload.
  std::size_t rounds = 3;
};

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec steady;
    steady.name = "steady-fleet";
    steady.source = Source::kTemplate;
    steady.streams = 64;
    steady.open_rows_per_s = 60000.0;
    // With 4 rows per stream outstanding the shard workers park between the
    // load thread's polls, and the closed-loop rate swung with the host's
    // wake-up latency (0.38M to 0.8M rows/s on the same code).
    steady.window = 64;
    // Short rounds spread the closed loop over the whole run, so the median
    // samples more of the host's slow and fast spells.
    steady.rounds = 6;
    v.push_back(steady);

    WorkloadSpec drift;
    drift.name = "drift-recovery";
    drift.source = Source::kScenario;
    drift.streams = 16;
    drift.tier = linalg::NumericsTier::kQuantI8;
    drift.open_rows_per_s = 60000.0;
    drift.quality_rows = 24000;
    // Few streams: a small window leaves the shard workers parking between
    // the load thread's polls, and the closed-loop rate then follows the
    // host's wake-up latency instead of the serving path.
    drift.window = 64;
    v.push_back(drift);

    WorkloadSpec churn;
    churn.name = "cold-churn";
    churn.source = Source::kTemplate;
    churn.streams = 100000;
    churn.hot_budget = 32;
    churn.open_rows_per_s = 3000.0;
    churn.zipf_s = 1.1;
    churn.clients = 64;
    churn.warm_streams = 64;
    churn.closed_rows_per_s = 40000.0;
    v.push_back(churn);
    return v;
  }();
  return all;
}

// ------------------------------------------------------------ load model

/// Where every stream's rows come from: a fixed pool of rows per concept
/// (part of the fleet's definition), and row k of stream s is pool row
/// mix(seed, s, k) of the concept stream s is in at k. So the rows are a pure function of
/// (seed, s, k) — the replay check regenerates them without the benchmark
/// storing them — and producing one costs a copy, not 38 Gaussian draws on
/// the load generator's thread.
class LoadModel {
 public:
  LoadModel(const WorkloadSpec& spec, std::uint64_t seed) : seed_(seed) {
    if (spec.source == Source::kTemplate) {
      const data::NslKddLike gen;
      util::Rng rng(kFleetSeed);
      PerStream one;
      one.train = gen.training(rng);
      one.pools.push_back(make_pool(0, gen.pre_concept(), kTemplatePool, 0));
      streams_.push_back(std::move(one));
      return;
    }
    for (std::size_t s = 0; s < spec.streams; ++s) {
      data::ScenarioSpec sc;
      sc.name = spec.name;
      sc.num_features = data::NslKddLike::kDim;
      sc.num_labels = 2;
      sc.train_size = 1000;
      sc.n_instances = kScenarioPeriod;
      sc.burn_in = kBurnIn;
      sc.shape = data::DriftShape::kRecurrent;
      sc.num_drift_points = 4;  // even: each period ends on concept 0
      sc.drift_magnitude_prior = 0.9;
      sc.divergence_window = 0;
      sc.seed = kFleetSeed + s;
      data::CompiledScenario compiled = data::compile_scenario(sc);
      PerStream ps;
      // Streams enter the period at staggered points of the concept-0
      // stretch around its wrap, so their edges (and the recoveries they
      // set off) are spread over time instead of landing at once.
      ps.offset = (kScenarioPeriod - kBurnIn +
                   s * 2 * kBurnIn / spec.streams) % kScenarioPeriod;
      ps.train = std::move(compiled.train);
      ps.annotations = compiled.annotations;
      ps.pools.push_back(
          make_pool(0, data::scenario_concept(sc, 0), kScenarioPool, s));
      for (const auto& a : ps.annotations) {
        if (ps.pool_of(a.to_concept) == nullptr) {
          ps.pools.push_back(make_pool(
              a.to_concept, data::scenario_concept(sc, a.to_concept),
              kScenarioPool, s));
        }
      }
      streams_.push_back(std::move(ps));
    }
  }

  bool per_stream() const { return streams_.size() > 1; }
  const data::Dataset& train(std::size_t s) const { return at(s).train; }

  int row(std::size_t s, std::uint64_t k, std::span<double> out) const {
    const PerStream& ps = at(s);
    std::size_t current = 0;
    const std::uint64_t pos =
        per_stream() ? (k + ps.offset) % kScenarioPeriod : 0;
    for (const auto& a : ps.annotations) {
      if (pos >= a.start) current = a.to_concept;
    }
    const Pool& pool = *ps.pool_of(current);
    const std::size_t i = mix_key(seed_, s, k) % pool.rows.size();
    const auto src = pool.rows.x.row(i);
    std::copy(src.begin(), src.end(), out.begin());
    return pool.rows.labels[i];
  }

  /// Ground-truth edges of stream s inside its first `rows` rows (the
  /// compiled period repeated, seen from the stream's entry point).
  std::vector<data::DriftAnnotation> annotations(std::size_t s,
                                                 std::size_t rows) const {
    std::vector<data::DriftAnnotation> out;
    if (!per_stream()) return out;
    const std::size_t offset = at(s).offset;
    for (std::size_t base = 0; base < rows + offset; base += kScenarioPeriod) {
      for (auto a : at(s).annotations) {
        if (a.start + base < offset) continue;
        a.start += base - offset;
        a.end += base - offset;
        if (a.start < rows) out.push_back(a);
      }
    }
    return out;
  }

 private:
  static constexpr std::size_t kScenarioPeriod = 10000;
  static constexpr std::size_t kBurnIn = 2000;
  static constexpr std::size_t kTemplatePool = 8192;
  static constexpr std::size_t kScenarioPool = 1024;

  struct Pool {
    std::size_t concept_index = 0;
    data::Dataset rows;
  };

  struct PerStream {
    std::size_t offset = 0;  ///< Period position of the stream's row 0.
    data::Dataset train;
    std::vector<data::DriftAnnotation> annotations;
    std::vector<Pool> pools;
    const Pool* pool_of(std::size_t index) const {
      for (const Pool& p : pools) {
        if (p.concept_index == index) return &p;
      }
      return nullptr;
    }
  };

  Pool make_pool(std::size_t index, const data::GaussianConcept& c,
                 std::size_t n, std::size_t stream) const {
    Pool pool;
    pool.concept_index = index;
    pool.rows.x = linalg::Matrix(n, c.dim());
    pool.rows.labels.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      pool.rows.labels[i] = sample_row(c, mix_key(kFleetSeed, index), stream,
                                       i, pool.rows.x.row(i));
    }
    return pool;
  }

  const PerStream& at(std::size_t s) const {
    return streams_[per_stream() ? s : 0];
  }

  std::uint64_t seed_;
  std::vector<PerStream> streams_;
};

// ------------------------------------------------------ obs aggregation

/// Fleet totals of one obs::Snapshot, reduced at once so that a 100k-stream
/// snapshot is not held longer than the call that made it.
struct ObsTotals {
  obs::CounterSnapshot counters;
  obs::HistogramSnapshot submit_to_drain, score, detect, reconstruct;
  obs::HistogramSnapshot evict_ns, restore_ns;
  std::uint64_t evictions = 0, restores = 0, restore_failures = 0;
  std::uint64_t worker_parks = 0, coalesced_gemms = 0, coalesced_rows = 0;
  std::uint64_t cold_bytes = 0, cold_streams = 0;

  static ObsTotals of(const obs::Snapshot& snap) {
    ObsTotals t;
    for (const auto& s : snap.streams) {
      t.counters += s.counters;
      t.submit_to_drain += s.submit_to_drain;
      t.score += s.score;
      t.detect += s.detect;
      t.reconstruct += s.reconstruct;
    }
    for (const auto& sh : snap.shards) {
      t.evict_ns += sh.evict_ns;
      t.restore_ns += sh.restore_ns;
      t.evictions += sh.evictions;
      t.restores += sh.restores;
      t.restore_failures += sh.restore_failures;
      t.worker_parks += sh.worker_parks;
      t.coalesced_gemms += sh.coalesced_gemms;
      t.coalesced_rows += sh.coalesced_rows;
      t.cold_bytes += sh.cold_bytes;
      t.cold_streams += sh.cold_streams;
    }
    return t;
  }
};

/// What changed between two ObsTotals of one round.
struct ObsDelta {
  const ObsTotals& later;
  const ObsTotals& earlier;
  std::uint64_t c(std::uint64_t obs::CounterSnapshot::*f) const {
    return later.counters.*f - earlier.counters.*f;
  }
  std::uint64_t u(std::uint64_t ObsTotals::*f) const {
    return later.*f - earlier.*f;
  }
  obs::HistogramSnapshot h(obs::HistogramSnapshot ObsTotals::*f) const {
    return hist_delta(later.*f, earlier.*f);
  }
};

double per_krow(std::uint64_t n, std::uint64_t rows) {
  return rows == 0 ? 0.0
                   : 1000.0 * static_cast<double>(n) /
                         static_cast<double>(rows);
}

double share(double part, double whole) {
  return whole <= 0.0 ? 0.0 : part / whole;
}

std::uint64_t rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void set_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Folds the fields the replay check compares into a per-stream digest.
std::uint64_t fold_step(std::uint64_t h, const core::PipelineStep& step) {
  const std::uint64_t label = step.prediction.label;
  const std::uint8_t drift = step.drift_detected ? 1 : 0;
  h = fnv(h, &label, sizeof label);
  h = fnv(h, &step.prediction.score, sizeof step.prediction.score);
  return fnv(h, &drift, sizeof drift);
}

// ------------------------------------------------------------- the run

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const RunOptions& opt)
      : spec_(spec), opt_(opt),
        popularity_(spec.streams, spec.zipf_s, opt.seed),
        tracer_(opt.trace ? (std::size_t{1} << 18) : 0) {
    tracer_.set_enabled(opt.trace);
  }

  RunResult run();

 private:
  struct StreamState {
    std::uint64_t hash = kFnvOffset;
    std::uint32_t submitted = 0;  ///< Accepted rows == next row index.
    std::uint32_t collected = 0;
    std::uint32_t scored = 0;  ///< Rows scored for quality.
    std::uint32_t scored_correct = 0;
    std::uint32_t outstanding = 0;
    std::int32_t head = -1, tail = -1;  ///< Pending-block FIFO.
    bool active = false;
  };

  struct Pending {
    std::uint64_t due_ns = 0;  ///< 0 = untimed.
    std::uint64_t request_id = 0;
    std::uint32_t rows = 0, done = 0, client = kNoClient;
    std::int32_t next = -1;
    std::array<std::int8_t, kMaxBlock> labels{};
  };

  struct Client {
    std::size_t stream = 0;
    std::uint32_t outstanding = 0;
  };

  /// Quality tallies summed over rounds.
  struct Quality {
    std::uint64_t rows = 0, correct = 0, outside = 0;
    std::size_t edges = 0, detected = 0, false_alarms = 0;
    double delay_sum = 0.0;
  };

  void round();
  void setup();
  void warm_up();
  void open_loop();
  void closed_loop();
  void checks();
  void score_quality();
  void per_layer();
  void report(RunResult& r);

  std::size_t submit(std::size_t s, std::size_t rows, std::uint64_t due_ns,
                     std::uint32_t client);
  std::size_t collect(bool record_latency);
  void consume(std::size_t s, std::uint64_t t_return, bool record_latency);
  void quiesce() {
    while (outstanding_ > 0) collect(false);
  }
  /// Whether the row a step answers is in the quality-scored set.
  bool scored_row(const StreamState& st) const {
    return spec_.quality_rows > 0 ? st.collected < spec_.quality_rows
                                  : scoring_open_;
  }
  ObsTotals timed_stats();
  /// Length of one round's open-loop phase.
  double open_seconds() const {
    if (spec_.quality_rows > 0) {
      return kOpenRowShare * static_cast<double>(spec_.quality_rows) *
             static_cast<double>(spec_.streams) / spec_.open_rows_per_s;
    }
    return opt_.seconds * kOpenShare / static_cast<double>(rounds_);
  }
  /// Closes one open-loop latency window (a second of offered load).
  void close_latency_window();
  void attach_stage_timers(bool on);
  double stage_seconds(std::initializer_list<const char*> names) const;
  double gemm_gflops(std::size_t rows) const;
  std::pair<double, double> checkpoint_us() const;
  void layer(const char* name, double value, const char* unit) {
    auto& slot = layers_[name];
    slot.first = unit;
    slot.second.push_back(value);
  }

  std::int32_t alloc_pending() {
    if (free_pending_ >= 0) {
      const std::int32_t i = free_pending_;
      free_pending_ = pool_[static_cast<std::size_t>(i)].next;
      return i;
    }
    pool_.emplace_back();
    return static_cast<std::int32_t>(pool_.size() - 1);
  }

  const WorkloadSpec& spec_;
  const RunOptions& opt_;
  std::optional<LoadModel> load_;  ///< Rebuilt from each round's seed.
  Popularity popularity_;
  Tracer tracer_;
  std::vector<int> cpus_;

  std::size_t rounds_ = 0;

  // Per round.
  std::size_t round_ = 0;
  std::uint64_t round_seed_ = 0;
  std::unique_ptr<core::PipelineManager> manager_;
  std::vector<std::string> blobs_;  ///< Post-fit checkpoints for replay.
  std::vector<StreamState> state_;
  std::vector<Pending> pool_;
  std::int32_t free_pending_ = -1;
  std::vector<std::uint32_t> active_;
  std::vector<Client> clients_;
  std::vector<linalg::Matrix> blocks_;  ///< blocks_[n] has n rows.
  std::vector<core::PipelineStep> steps_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> detections_;
  std::vector<util::StageTimer> timers_;
  std::vector<double> latency_us_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t last_stats_ns_ = 0;
  bool scoring_open_ = false;  ///< Warm-up and open loop are being scored.
  double traced_rows_ = 0.0, traced_s_ = 0.0;
  double untraced_rows_ = 0.0, untraced_s_ = 0.0;
  ObsTotals obs_open_start_, obs_open_end_, obs_closed_end_;
  core::PipelineStats totals_open_end_, totals_closed_end_;

  // Whole run.
  std::uint64_t next_request_ = 1;
  std::int64_t phase_span_ = -1;
  bool timing_calls_ = false;  ///< Traced open loop: time every call.
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<double> setup_s_, heap_per_stream_;
  std::vector<double> p50_us_, p90_us_, throughput_;
  std::vector<double> all_latency_us_, gen_lag_us_, stats_ms_;
  std::vector<double> submit_ns_, take_ns_, cold_submit_us_;
  double all_traced_rows_ = 0.0, all_traced_s_ = 0.0;
  double all_untraced_rows_ = 0.0, all_untraced_s_ = 0.0;
  double replayed_rows_ = 0.0, replay_s_ = 0.0;
  std::size_t replay_mismatched_ = 0;
  double peak_rss_mb_ = 0.0;
  Quality quality_;
  std::map<std::string, std::pair<std::string, std::vector<double>>> layers_;
  std::map<std::string, double> stage_totals_;  ///< Traced stage seconds.
  std::vector<std::string> failures_;
};

RunResult Bench::run() {
  // The load thread busy-polls. When the scheduler wakes a parked shard
  // worker onto the load thread's CPU, the worker waits out the spinner's
  // time slice, and rows see millisecond latencies in some runs but not in
  // others. So the managers are built (and their workers inherit a CPU
  // mask) without the last allowed core, and the load thread then moves
  // onto that core alone. The library's own pinning option stays off.
  cpus_ = allowed_cpus();
  rounds_ = spec_.quality_rows > 0
                ? static_cast<std::size_t>(std::max(
                      2.0, std::round(opt_.seconds / kWorkRoundSeconds)))
                : spec_.rounds;
  for (round_ = 0; round_ < rounds_; ++round_) round();
  if (!cpus_.empty()) set_cpus(cpus_);
  RunResult result;
  report(result);
  return result;
}

void Bench::round() {
  round_seed_ = mix_key(opt_.seed, round_, 0x20d);
  load_.emplace(spec_, round_seed_);
  setup();
  open_loop();
  closed_loop();
  checks();
  score_quality();
  if (opt_.trace) per_layer();
  manager_.reset();
}

void Bench::setup() {
  // The fleet itself (projections, templates, scenario geometry) is part
  // of the workload's definition and does not move with --seed; the seed
  // draws the traffic: rows, arrival times, popularity and block sizes.
  // The paper's NSL-KDD configuration (centroid detector, kReconstruct,
  // obs on, train_chunk 1 — the library's defaults for all of these).
  core::PipelineConfig config = eval::nsl_kdd_paper_config(100).pipeline;
  core::ManagerOptions options;
  options.shards = kShards;
  options.hot_stream_budget = spec_.hot_budget;
  options.numerics = spec_.tier;

  // Harness buffers are sized before the heap baseline so the allocator
  // count below sees only what the manager allocates.
  state_.assign(spec_.streams, StreamState{});
  pool_.clear();
  pool_.reserve(4096);
  free_pending_ = -1;
  active_.clear();
  active_.reserve(spec_.streams);
  clients_.clear();
  clients_.reserve(spec_.clients == 0 ? spec_.streams : spec_.clients);
  if (blocks_.empty()) {
    for (std::size_t n = 0; n <= kMaxBlock; ++n) {
      blocks_.emplace_back(n, data::NslKddLike::kDim);
    }
  }
  steps_.reserve(1024);
  detections_.clear();
  detections_.reserve(1 << 14);
  timers_.assign(spec_.hot_budget == 0 ? spec_.streams : 0,
                 util::StageTimer{});
  const auto open_rows = static_cast<std::size_t>(
      spec_.open_rows_per_s * open_seconds() * 1.2);
  latency_us_.clear();
  latency_us_.reserve(open_rows);
  all_latency_us_.reserve(open_rows * rounds_);
  gen_lag_us_.reserve(open_rows * rounds_);
  if (opt_.trace) {
    submit_ns_.reserve(open_rows * rounds_);
    take_ns_.reserve(open_rows * rounds_);
    cold_submit_us_.reserve(open_rows * rounds_);
  }
  blobs_.clear();
  traced_rows_ = traced_s_ = untraced_rows_ = untraced_s_ = 0.0;
  outstanding_ = 0;

  if (cpus_.size() >= 2) set_cpus({cpus_.begin(), cpus_.end() - 1});
  std::int64_t heap_base = 0;
  for (std::size_t rep = 0; rep < kSetupsPerRound; ++rep) {
    manager_.reset();
    heap_base = heap_live_bytes();
    const std::uint64_t t0 = now_ns();
    if (spec_.source == Source::kTemplate) {
      manager_ = std::make_unique<core::PipelineManager>(config, 1, options);
      manager_->fit(0, load_->train(0).x, load_->train(0).labels);
      manager_->seed_cold_from(0, spec_.streams - 1);
    } else {
      manager_ = std::make_unique<core::PipelineManager>(
          config, spec_.streams, options);
      for (std::size_t s = 0; s < spec_.streams; ++s) {
        manager_->fit(s, load_->train(s).x, load_->train(s).labels);
      }
    }
    setup_s_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  if (cpus_.size() >= 2) set_cpus({cpus_.back()});

  // Post-fit checkpoints: the replay check's starting state. Their bytes
  // are harness memory, so they are taken out of the heap count.
  const std::int64_t before_blobs = heap_live_bytes();
  const std::size_t fitted = load_->per_stream() ? spec_.streams : 1;
  blobs_.reserve(fitted);
  for (std::size_t s = 0; s < fitted; ++s) {
    std::ostringstream out;
    io::save_pipeline(out, manager_->stream(s));
    blobs_.push_back(std::move(out).str());
  }
  const std::int64_t blob_bytes = heap_live_bytes() - before_blobs;

  warm_up();
  heap_per_stream_.push_back(
      static_cast<double>(heap_live_bytes() - heap_base - blob_bytes) /
      static_cast<double>(spec_.streams));

  Rng rng(mix_key(round_seed_, 0xc11e));
  const std::size_t n_clients =
      spec_.clients == 0 ? spec_.streams : spec_.clients;
  for (std::size_t c = 0; c < n_clients; ++c) {
    clients_.push_back({spec_.clients == 0 ? c : popularity_.draw(rng), 0});
  }
}

void Bench::warm_up() {
  const std::uint64_t t0 = now_ns();
  phase_span_ = tracer_.add("warm_up", t0, t0);
  scoring_open_ = true;
  const std::size_t n =
      spec_.warm_streams == 0 ? spec_.streams : spec_.warm_streams;
  Rng rng(mix_key(round_seed_, 0x3a53));
  for (std::size_t i = 0; i < n; ++i) {
    // Uniform workloads touch every stream; skewed ones their most popular
    // streams (the hot set), drawn the way the load will draw them.
    const std::size_t s = spec_.warm_streams == 0 ? i : popularity_.draw(rng);
    submit(s, 1, 0, kNoClient);
  }
  manager_->drain();
  quiesce();
  tracer_.close(phase_span_, now_ns());
}

std::size_t Bench::submit(std::size_t s, std::size_t rows,
                          std::uint64_t due_ns, std::uint32_t client) {
  linalg::Matrix& block = blocks_[rows];
  std::array<int, kMaxBlock> labels{};
  StreamState& st = state_[s];
  for (std::size_t r = 0; r < rows; ++r) {
    labels[r] = load_->row(s, st.submitted + r, block.row(r));
  }
  const std::uint64_t request = next_request_++;
  const bool cold = timing_calls_ && !manager_->resident(s);
  const std::uint64_t t0 = timing_calls_ || tracer_.enabled() ? now_ns() : 0;
  // Rejections and typed errors (unknown stream, failed restore, ...) all
  // show as rows not accepted, which is what delivered_ratio counts.
  const std::size_t accepted = manager_->submit_batch(
      s, block, std::span<const int>(labels.data(), rows));
  if (t0 != 0) {
    const std::uint64_t t1 = now_ns();
    if (timing_calls_) {
      submit_ns_.push_back(static_cast<double>(t1 - t0));
      if (cold) cold_submit_us_.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    if (request % kSpanEvery == 0) {
      tracer_.add("submit_batch", t0, t1, phase_span_, request);
    }
  }
  attempted_ += rows;
  failed_ += rows - accepted;
  if (accepted == 0) return 0;

  const std::int32_t idx = alloc_pending();
  Pending& p = pool_[static_cast<std::size_t>(idx)];
  p = Pending{};
  p.due_ns = due_ns;
  p.request_id = request;
  p.rows = static_cast<std::uint32_t>(accepted);
  p.client = client;
  for (std::size_t r = 0; r < accepted; ++r) {
    p.labels[r] = static_cast<std::int8_t>(labels[r]);
  }
  if (st.tail >= 0) {
    pool_[static_cast<std::size_t>(st.tail)].next = idx;
  } else {
    st.head = idx;
  }
  st.tail = idx;
  st.submitted += static_cast<std::uint32_t>(accepted);
  st.outstanding += static_cast<std::uint32_t>(accepted);
  outstanding_ += accepted;
  if (!st.active) {
    st.active = true;
    active_.push_back(static_cast<std::uint32_t>(s));
  }
  return accepted;
}

std::size_t Bench::collect(bool record_latency) {
  std::size_t got = 0;
  for (std::size_t i = 0; i < active_.size();) {
    const std::size_t s = active_[i];
    steps_.clear();
    const std::uint64_t t0 = timing_calls_ || tracer_.enabled() ? now_ns() : 0;
    manager_->take_steps(s, steps_);
    const std::uint64_t t_return = now_ns();
    if (!steps_.empty()) {
      if (timing_calls_) take_ns_.push_back(static_cast<double>(t_return - t0));
      const StreamState& st = state_[s];
      const std::uint64_t request =
          st.head >= 0 ? pool_[static_cast<std::size_t>(st.head)].request_id
                       : 0;
      if (request % kSpanEvery == 0) {
        tracer_.add("take_steps", t0, t_return, phase_span_, request);
      }
      got += steps_.size();
      consume(s, t_return, record_latency);
    }
    StreamState& st = state_[s];
    if (st.outstanding == 0) {
      st.active = false;
      active_[i] = active_.back();
      active_.pop_back();
    } else {
      ++i;
    }
  }
  return got;
}

void Bench::consume(std::size_t s, std::uint64_t t_return,
                    bool record_latency) {
  StreamState& st = state_[s];
  for (const core::PipelineStep& step : steps_) {
    if (st.head < 0) {
      failures_.push_back("stream " + std::to_string(s) +
                          " returned a step for a row never accepted");
      continue;
    }
    Pending& p = pool_[static_cast<std::size_t>(st.head)];
    st.hash = fold_step(st.hash, step);
    if (scored_row(st)) {
      ++st.scored;
      if (static_cast<int>(step.prediction.label) == p.labels[p.done]) {
        ++st.scored_correct;
      }
      if (step.drift_detected) detections_.emplace_back(s, st.collected);
    }
    if (record_latency && p.due_ns != 0) {
      const double us = static_cast<double>(t_return - p.due_ns) * 1e-3;
      latency_us_.push_back(us);
      all_latency_us_.push_back(us);
    }
    ++st.collected;
    --st.outstanding;
    --outstanding_;
    if (++p.done == p.rows) {
      if (p.client != kNoClient) clients_[p.client].outstanding -= p.rows;
      const std::int32_t done = st.head;
      st.head = p.next;
      if (st.head < 0) st.tail = -1;
      pool_[static_cast<std::size_t>(done)].next = free_pending_;
      free_pending_ = done;
    }
  }
}

void Bench::close_latency_window() {
  // Windows too short to hold a stable percentile are folded into the next.
  if (latency_us_.size() < kMinWindowRows) return;
  p50_us_.push_back(percentile(latency_us_, 0.5));
  p90_us_.push_back(percentile(latency_us_, 0.9));
  latency_us_.clear();
}

ObsTotals Bench::timed_stats() {
  // A small fleet's snapshot takes tens of microseconds, so each stats
  // point repeats the call until kStatsPointNs has passed (at most
  // kStatsPointCalls times) and keeps the median call; a 100k-stream
  // snapshot takes one call. stats_ms is the mean over points: on a small
  // fleet a point's calls all run at about 18 us or all at about 29 us (on
  // a 4-vCPU VM), and a median over points flipped between the two.
  //
  // Before the first call the freed heap is handed back to the kernel
  // (untimed). A 100k-stream snapshot is one 120 MB block: on a fresh heap
  // the default allocator maps it anew each call and pays its page faults,
  // but after an earlier round freed a manager it may find a free region
  // of the heap whose pages are still resident. Whether it does is fixed
  // for a whole run, so without the trim stats_ms flipped between about
  // 35 and 100 ms from run to run; with it, every call pays what a call on
  // a fresh heap pays.
  malloc_trim(0);
  obs::Snapshot snap;
  std::array<double, kStatsPointCalls> calls_ms{};
  std::size_t calls = 0;
  const std::uint64_t begin = now_ns();
  for (std::size_t call = 0; call < kStatsPointCalls; ++call) {
    snap = obs::Snapshot{};  // never two snapshots held at once
    const std::uint64_t t0 = now_ns();
    snap = manager_->stats();
    const std::uint64_t t1 = now_ns();
    calls_ms[calls++] = static_cast<double>(t1 - t0) * 1e-6;
    tracer_.add("stats", t0, t1, phase_span_);
    last_stats_ns_ = t1;
    if (t1 - begin >= kStatsPointNs) break;
  }
  stats_ms_.push_back(
      median(std::vector<double>(calls_ms.begin(), calls_ms.begin() + calls)));
  // Sampled while the snapshot, the largest transient, is still held, and
  // after the trim above: live memory plus the snapshot, not what the
  // heap happened to keep from earlier rounds.
  peak_rss_mb_ =
      std::max(peak_rss_mb_, static_cast<double>(rss_kb()) / 1024.0);
  return ObsTotals::of(snap);
}

void Bench::open_loop() {
  const std::vector<Arrival> plan = make_arrivals(
      round_seed_, spec_.open_rows_per_s, open_seconds(), popularity_);
  obs_open_start_ = timed_stats();
  timing_calls_ = opt_.trace;
  const std::uint64_t t0 = now_ns();
  phase_span_ = tracer_.add("open_loop", t0, t0);
  std::uint64_t pause = 0;  // time spent quiescing for stats() calls
  std::uint64_t boundary = kSecondNs;
  std::size_t next = 0;
  while (true) {
    const std::uint64_t rel = now_ns() - t0 - pause;
    const std::uint64_t limit = std::min(rel, boundary);
    while (next < plan.size() && plan[next].due_ns <= limit) {
      const Arrival& a = plan[next++];
      const std::uint64_t due = t0 + pause + a.due_ns;
      gen_lag_us_.push_back(static_cast<double>(now_ns() - due) * 1e-3);
      submit(a.stream, a.rows, due, kNoClient);
    }
    collect(true);
    if (next == plan.size() && outstanding_ == 0) break;
    if (rel >= boundary && outstanding_ == 0) {
      // Once a second: stop offering load, let the fleet go idle, read the
      // stats, then resume the schedule where it stopped.
      close_latency_window();
      timed_stats();
      pause = now_ns() - t0 - boundary;
      boundary += kSecondNs;
    }
  }
  close_latency_window();
  tracer_.close(phase_span_, now_ns());
  timing_calls_ = false;
  scoring_open_ = false;
  manager_->drain();
  obs_open_end_ = timed_stats();
  totals_open_end_ = manager_->totals();
}

void Bench::closed_loop() {
  // Time-boxed segments, or work-boxed ones: with quality_rows set, each
  // adds kWorkSegmentRows rows per stream until every stream reaches
  // quality_rows; with closed_rows_per_s set, each submits seg_rows rows.
  // Throughput is the median over segments.
  const double seconds =
      opt_.seconds * (1.0 - kOpenShare) / static_cast<double>(rounds_);
  const bool counted = spec_.closed_rows_per_s > 0.0;
  const std::size_t timed_segments =
      counted ? kClosedSegments
              : static_cast<std::size_t>(
                    std::max(2.0, std::round(seconds / kSegmentSeconds)));
  const auto seg_ns = static_cast<std::uint64_t>(
      seconds * 1e9 / static_cast<double>(timed_segments));
  const auto seg_rows = static_cast<std::uint64_t>(
      spec_.closed_rows_per_s * seconds /
      static_cast<double>(timed_segments));
  const std::size_t work = spec_.quality_rows;
  const auto work_left = [&] {
    for (const StreamState& st : state_) {
      if (st.submitted < work) return true;
    }
    return false;
  };
  std::vector<std::size_t> target(work > 0 ? state_.size() : 0);

  const std::uint64_t t0 = now_ns();
  phase_span_ = tracer_.add("closed_loop", t0, t0);
  Rng rng(mix_key(round_seed_, 0xc105ed));
  for (std::size_t seg = 0; work > 0 ? work_left() : seg < timed_segments;
       ++seg) {
    // The traced run alternates untraced and traced segments, so the cost
    // of tracing is measured inside one process on the same fleet state.
    const bool traced = opt_.trace && seg % 2 == 1;
    tracer_.set_enabled(traced);
    if (traced) attach_stage_timers(true);
    std::uint64_t short_rows = 0;  // work-boxed: rows left to submit
    for (std::size_t s = 0; s < target.size(); ++s) {
      target[s] = std::min(work, state_[s].submitted + kWorkSegmentRows);
      short_rows += target[s] - state_[s].submitted;
    }
    const std::uint64_t start = now_ns();
    std::uint64_t rows = 0, sent = 0;
    while (work > 0   ? short_rows > 0
           : counted ? sent < seg_rows
                     : now_ns() - start < seg_ns) {
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        Client& cl = clients_[c];
        const auto id = static_cast<std::uint32_t>(c);
        if (spec_.clients == 0) {
          std::size_t want =
              spec_.window - std::min<std::size_t>(spec_.window,
                                                   cl.outstanding);
          if (work > 0) {
            want = std::min<std::size_t>(
                want, target[cl.stream] - state_[cl.stream].submitted);
          }
          while (want > 0) {
            const std::size_t n =
                submit(cl.stream, std::min(want, kMaxBlock), 0, id);
            if (n == 0) break;
            want -= n;
            cl.outstanding += static_cast<std::uint32_t>(n);
            if (work > 0) short_rows -= n;
          }
        } else if (cl.outstanding == 0 && (!counted || sent < seg_rows)) {
          cl.stream = popularity_.draw(rng);
          cl.outstanding += static_cast<std::uint32_t>(
              submit(cl.stream, spec_.window, 0, id));
          sent += spec_.window;  // attempted, so rejections cannot stall it
        }
      }
      rows += collect(false);
    }
    while (outstanding_ > 0) rows += collect(false);
    const double secs = static_cast<double>(now_ns() - start) * 1e-9;
    throughput_.push_back(static_cast<double>(rows) / secs);
    (traced ? traced_rows_ : untraced_rows_) += static_cast<double>(rows);
    (traced ? traced_s_ : untraced_s_) += secs;
    if (traced) attach_stage_timers(false);
    tracer_.set_enabled(opt_.trace);
    // stats() about once a second, at a quiescent point between segments.
    if (now_ns() - last_stats_ns_ >= kSecondNs) timed_stats();
  }
  tracer_.close(phase_span_, now_ns());
  manager_->drain();
  obs_closed_end_ = timed_stats();
  totals_closed_end_ = manager_->totals();
  all_traced_rows_ += traced_rows_;
  all_traced_s_ += traced_s_;
  all_untraced_rows_ += untraced_rows_;
  all_untraced_s_ += untraced_s_;
}

void Bench::attach_stage_timers(bool on) {
  // Only workloads without eviction keep every pipeline resident, so only
  // they can carry a stage timer through the whole segment.
  if (timers_.empty()) return;
  manager_->drain();
  for (std::size_t s = 0; s < timers_.size(); ++s) {
    manager_->stream(s).set_stage_timer(on ? &timers_[s] : nullptr);
  }
}

double Bench::stage_seconds(std::initializer_list<const char*> names) const {
  double total = 0.0;
  for (const util::StageTimer& t : timers_) {
    for (const char* n : names) total += t.seconds(n);
  }
  return total;
}

void Bench::checks() {
  const std::uint64_t t0 = now_ns();
  phase_span_ = tracer_.add("checks", t0, t0);

  // Untimed top-up to the scored length, so quality is always scored over
  // the same rows whatever the throughput was.
  const std::size_t q = spec_.quality_rows;
  for (bool short_of_q = q > 0; short_of_q;) {
    short_of_q = false;
    for (std::size_t s = 0; s < state_.size(); ++s) {
      const StreamState& st = state_[s];
      if (st.submitted >= q) continue;
      short_of_q = true;
      if (st.outstanding < 256) {
        submit(s, std::min<std::size_t>(kMaxBlock, q - st.submitted), 0,
               kNoClient);
      }
    }
    collect(false);
  }
  manager_->drain();
  quiesce();

  std::uint64_t accepted = 0;
  std::size_t short_streams = 0;
  for (std::size_t s = 0; s < state_.size(); ++s) {
    const StreamState& st = state_[s];
    accepted += st.submitted;
    steps_.clear();
    manager_->take_steps(s, steps_);
    if (st.collected != st.submitted || !steps_.empty()) ++short_streams;
  }
  if (short_streams > 0) {
    failures_.push_back("step count: " + std::to_string(short_streams) +
                        " streams returned a step count != accepted rows");
  }
  if (manager_->totals().samples != accepted) {
    failures_.push_back("manager processed " +
                        std::to_string(manager_->totals().samples) +
                        " samples for " + std::to_string(accepted) +
                        " accepted rows");
  }

  // Replay: the same rows through one plain Pipeline per stream, from the
  // post-fit checkpoint. Predictions, scores and drift flags must match the
  // served steps exactly on the f64 workloads; the replay's rows per
  // thread-second are also the single-threaded baseline, which on the other
  // tiers is all it is, so there it runs in the first round only. Streams
  // are independent, so they are split over threads on the shard workers'
  // cores (idle now), which keeps a fast closed loop from stretching the
  // run's wall time.
  const bool exact = !spec_.tier.has_value() ||
                     *spec_.tier == linalg::NumericsTier::kExactF64;
  const bool replay = exact || round_ == 0;
  struct ReplayPart {
    std::size_t mismatched = 0;
    std::optional<std::size_t> unloadable;  ///< Checkpoint did not load.
    double rows = 0.0, seconds = 0.0;
  };
  const std::size_t n_parts =
      cpus_.size() >= 2 ? std::min(kReplayThreads, cpus_.size() - 1) : 1;
  std::vector<ReplayPart> parts(replay ? n_parts : 0);
  const auto replay_part = [&](std::size_t part) {
    if (cpus_.size() >= 2) set_cpus({cpus_.begin(), cpus_.end() - 1});
    ReplayPart& out = parts[part];
    std::vector<double> row(data::NslKddLike::kDim);
    for (std::size_t s = part; s < state_.size(); s += parts.size()) {
      const StreamState& st = state_[s];
      if (st.submitted == 0) continue;
      std::istringstream in(blobs_[load_->per_stream() ? s : 0]);
      std::optional<core::Pipeline> p = io::load_pipeline(in);
      if (!p) {
        out.unloadable = s;
        return;
      }
      std::uint64_t h = kFnvOffset;
      const std::uint64_t r0 = now_ns();
      for (std::uint32_t k = 0; k < st.submitted; ++k) {
        const int label = load_->row(s, k, row);
        h = fold_step(h, p->process(row, label));
      }
      out.seconds += static_cast<double>(now_ns() - r0) * 1e-9;
      out.rows += st.submitted;
      if (h != st.hash) ++out.mismatched;
    }
  };
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      threads.emplace_back(replay_part, i);
    }
  }  // joined here
  std::size_t mismatched = 0;
  for (const ReplayPart& part : parts) {
    mismatched += part.mismatched;
    replay_s_ += part.seconds;
    replayed_rows_ += part.rows;
    if (part.unloadable) {
      failures_.push_back("replay: checkpoint of stream " +
                          std::to_string(*part.unloadable) + " does not load");
    }
  }
  replay_mismatched_ += mismatched;
  if (exact && mismatched > 0) {
    failures_.push_back("replay: " + std::to_string(mismatched) +
                        " streams' predictions/scores/drift flags differ "
                        "from a Pipeline::process replay");
  }

  if (spec_.hot_budget > 0) {
    // Explicit eviction of everything still resident: every stationary,
    // idle stream must be evictable, and the fleet ends fully cold.
    std::size_t refused = 0;
    for (std::size_t s = 0; s < state_.size(); ++s) {
      if (!manager_->resident(s)) continue;
      const std::uint64_t e0 = tracer_.enabled() ? now_ns() : 0;
      if (!manager_->evict(s)) ++refused;
      if (e0 != 0) tracer_.add("evict", e0, now_ns(), phase_span_, s);
    }
    if (refused > 0 || manager_->hot_streams() != 0) {
      failures_.push_back("evict: " + std::to_string(refused) +
                          " idle streams refused eviction");
    }
  }
  tracer_.close(phase_span_, now_ns());
}

void Bench::score_quality() {
  std::vector<std::vector<std::size_t>> dets(state_.size());
  for (const auto& [s, k] : detections_) dets[s].push_back(k);
  for (std::size_t s = 0; s < state_.size(); ++s) {
    const StreamState& st = state_[s];
    if (st.scored == 0) continue;
    quality_.rows += st.scored;
    quality_.correct += st.scored_correct;
    const eval::ScenarioMetrics m = eval::score_scenario(
        dets[s], load_->annotations(s, st.scored), st.scored);
    quality_.edges += m.drift_points;
    quality_.detected += m.detected;
    quality_.false_alarms += m.false_alarms;
    quality_.outside += st.scored - m.watched_samples;
    for (const long d : m.delays) {
      if (d >= 0) quality_.delay_sum += static_cast<double>(d);
    }
  }
}

double Bench::gemm_gflops(std::size_t rows) const {
  // The public GEMM the coalesced drain runs, on the projection's shape:
  // [rows x d] * [d x L].
  const std::size_t d = data::NslKddLike::kDim;
  const std::size_t l = eval::nsl_kdd_paper_config(100).pipeline.hidden_dim;
  linalg::Matrix a(rows, d), b(d, l), c(rows, l);
  Rng rng(mix_key(round_seed_, 0x9e33));
  for (std::size_t i = 0; i < rows; ++i) {
    for (double& v : a.row(i)) v = rng.gaussian();
  }
  for (std::size_t i = 0; i < d; ++i) {
    for (double& v : b.row(i)) v = rng.gaussian();
  }
  // B is packed once, as the coalesced drain packs alpha once per shard.
  linalg::PackedGemmB packed;
  linalg::pack_gemm_b(b, packed);
  const double flops = 2.0 * static_cast<double>(rows * d * l);
  const std::size_t reps =
      std::max<std::size_t>(1, static_cast<std::size_t>(2e6 / flops));
  std::vector<double> gflops;
  for (int sample = 0; sample < 7; ++sample) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) {
      linalg::matmul_packed_parallel_into(a, b, packed, c);
    }
    gflops.push_back(flops * static_cast<double>(reps) /
                     static_cast<double>(now_ns() - t0));
  }
  return median(gflops);
}

std::pair<double, double> Bench::checkpoint_us() const {
  std::istringstream first(blobs_.front());
  const std::optional<core::Pipeline> p = io::load_pipeline(first);
  if (!p) return {0.0, 0.0};
  constexpr int kReps = 51;
  std::vector<double> save, load;
  for (int i = 0; i < kReps; ++i) {
    std::ostringstream out;
    const std::uint64_t t0 = now_ns();
    io::save_pipeline(out, *p);
    save.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    std::istringstream in(blobs_.front());
    const std::uint64_t t1 = now_ns();
    const std::optional<core::Pipeline> q = io::load_pipeline(in);
    load.push_back(static_cast<double>(now_ns() - t1) * 1e-3);
  }
  return {median(save), median(load)};
}

void Bench::per_layer() {
  const ObsDelta open{obs_open_end_, obs_open_start_};
  const ObsDelta closed{obs_closed_end_, obs_open_end_};
  const std::uint64_t open_rows = open.c(&obs::CounterSnapshot::samples_out);
  const std::uint64_t closed_rows =
      closed.c(&obs::CounterSnapshot::samples_out);

  // Serving path, open-loop phase (moves latency_p50_us). The call
  // durations are pooled over rounds and summarized in report().
  layer("core.queue_wait_us_p50",
        hist_quantile_ns(open.h(&ObsTotals::submit_to_drain), 0.5) * 1e-3,
        "us");
  layer("core.worker_parks_per_krow",
        per_krow(open.u(&ObsTotals::worker_parks), open_rows), "1/krow");
  layer("core.ring_high_water",
        static_cast<double>(obs_closed_end_.counters.ring_high_water),
        "rows");

  // Projection and scoring, closed-loop phase (moves throughput).
  const auto gemms =
      static_cast<double>(closed.u(&ObsTotals::coalesced_gemms));
  const auto coalesced =
      static_cast<double>(closed.u(&ObsTotals::coalesced_rows));
  const double rows_per_gemm = share(coalesced, gemms);
  layer("core.coalesced_row_share",
        share(coalesced, static_cast<double>(closed_rows)), "ratio");
  layer("core.rows_per_gemm", rows_per_gemm, "rows");
  const core::PipelineStats& ta = totals_open_end_;
  const core::PipelineStats& tb = totals_closed_end_;
  // Without coalescing the projection runs per stream on its drain burst.
  const double burst_rows =
      share(static_cast<double>(tb.batch_rows - ta.batch_rows),
            static_cast<double>(tb.batch_chunks - ta.batch_chunks));
  const auto gemm_m = static_cast<std::size_t>(std::max(
      1.0, std::round(rows_per_gemm > 0.0 ? rows_per_gemm : burst_rows)));
  layer("linalg.gemm_gflops", gemm_gflops(gemm_m), "GFLOP/s");

  for (const char* stage : kStages) {
    stage_totals_[stage] += stage_seconds({stage});
  }
  const double wall = static_cast<double>(kShards) * traced_s_;
  const double predict = stage_seconds({core::Pipeline::kStagePredict});
  const double distance = stage_seconds({core::Pipeline::kStageDistance});
  const double retrain =
      stage_seconds({core::Pipeline::kStageRetrainNearest,
                     core::Pipeline::kStageRetrainPredict});
  const double coord = stage_seconds({core::Pipeline::kStageInitCoord,
                                      core::Pipeline::kStageUpdateCoord});
  // With eviction on no stage timer can stay attached, so nothing is
  // attributed there.
  layer("core.unattributed_share",
        timers_.empty()
            ? 1.0
            : 1.0 - share(predict + distance + retrain + coord, wall),
        "ratio");
  layer("model.score_ns_p50",
        hist_quantile_ns(closed.h(&ObsTotals::score), 0.5), "ns");
  layer("model.predict_share", share(predict, wall), "ratio");
  layer("drift.detect_ns_p50",
        hist_quantile_ns(closed.h(&ObsTotals::detect), 0.5), "ns");
  layer("drift.distance_share", share(distance, wall), "ratio");

  // Training and recovery (moves drift-recovery throughput and p90).
  layer("oselm.retrain_share", share(retrain, wall), "ratio");
  layer("oselm.recovery_row_share",
        share(static_cast<double>(tb.recovery_samples - ta.recovery_samples),
              static_cast<double>(tb.samples - ta.samples)),
        "ratio");
  layer("oselm.requants_saved",
        static_cast<double>(closed.c(&obs::CounterSnapshot::requants_saved)),
        "count");
  layer("drift.reconstruct_ns_p50",
        hist_quantile_ns(closed.h(&ObsTotals::reconstruct), 0.5), "ns");
  layer("cluster.coord_share", share(coord, wall), "ratio");
  layer("drift.windows_opened_per_krow",
        per_krow(closed.c(&obs::CounterSnapshot::windows_opened),
                 closed_rows),
        "1/krow");

  // Cold side, open-loop phase (moves cold-churn latency and throughput).
  layer("core.restores_per_krow",
        per_krow(open.u(&ObsTotals::restores), open_rows), "1/krow");
  layer("core.evictions_per_krow",
        per_krow(open.u(&ObsTotals::evictions), open_rows), "1/krow");
  layer("core.restore_us_p50",
        hist_quantile_ns(open.h(&ObsTotals::restore_ns), 0.5) * 1e-3, "us");
  layer("core.evict_us_p50",
        hist_quantile_ns(open.h(&ObsTotals::evict_ns), 0.5) * 1e-3, "us");
  const auto [save_us, load_us] = checkpoint_us();
  layer("io.save_us", save_us, "us");
  layer("io.load_us", load_us, "us");
  layer("core.restore_failures",
        static_cast<double>(obs_closed_end_.restore_failures), "count");
  layer("io.cold_bytes_per_stream",
        share(static_cast<double>(obs_closed_end_.cold_bytes),
              static_cast<double>(obs_closed_end_.cold_streams)),
        "B");

  // Snapshot export (moves stats_ms).
  const obs::Snapshot snap = manager_->stats();
  const std::uint64_t j0 = now_ns();
  const std::string json = snap.to_json("perfbench");
  layer("obs.to_json_ms", static_cast<double>(now_ns() - j0) * 1e-6, "ms");
}

void Bench::report(RunResult& r) {
  if (throughput_.empty() || p50_us_.empty()) {
    failures_.push_back("no closed-loop segment or no open-loop latency "
                        "window was measured");
  }
  const double p50 = median(p50_us_);
  const double lag_p99 = percentile(gen_lag_us_, 0.99);
  const double lag_p90 = percentile(gen_lag_us_, 0.9);
  if (!opt_.trace) {
    // Stationary workloads have no edges: their detection figures are
    // vacuous and read 1, so that no metric ever reads 0 (any detection on
    // them counts as a false alarm). The false-alarm rate carries a
    // one-alarm prior for the same reason: a clean run reads 1000 / scored
    // rows.
    const Quality& q = quality_;
    const eval::ScenarioMetricsConfig scoring;
    const double delay =
        q.edges == 0     ? 1.0
        : q.detected == 0 ? static_cast<double>(scoring.detection_horizon)
                          : q.delay_sum / static_cast<double>(q.detected);
    r.metrics = {
        {"setup_s", median(setup_s_), "s"},
        {"throughput_rows_per_s", median(throughput_), "1/s"},
        {"latency_p50_us", p50, "us"},
        {"delivered_ratio",
         share(static_cast<double>(attempted_ - failed_),
               static_cast<double>(attempted_)),
         "ratio"},
        {"accuracy",
         share(static_cast<double>(q.correct), static_cast<double>(q.rows)),
         "ratio"},
        {"detection_delay_rows", delay, "rows"},
        {"detected_ratio",
         q.edges == 0 ? 1.0
                      : static_cast<double>(q.detected) /
                            static_cast<double>(q.edges),
         "ratio"},
        {"false_alarms_per_1k",
         per_krow(q.false_alarms + 1, std::max<std::uint64_t>(q.outside, 1)),
         "1/krow"},
        {"heap_bytes_per_stream", median(heap_per_stream_), "B"},
        {"peak_rss_mb", peak_rss_mb_, "MB"},
        {"stats_ms", mean(stats_ms_), "ms"},
    };
  } else {
    layers_["core.submit_ns_p50"] = {"ns", {percentile(submit_ns_, 0.5)}};
    layers_["core.take_steps_ns_p50"] = {"ns", {percentile(take_ns_, 0.5)}};
    layers_["core.cold_submit_us_p50"] = {
        "us", {percentile(cold_submit_us_, 0.5)}};
    for (const auto& [name, slot] : layers_) {
      r.metrics.push_back({name, median(slot.second), slot.first});
    }
    r.diagnostics.push_back(
        {"trace.overhead_pct",
         100.0 * (share(share(all_untraced_rows_, all_untraced_s_),
                        share(all_traced_rows_, all_traced_s_)) -
                  1.0),
         "%"});
    r.diagnostics.push_back(
        {"trace.spans", static_cast<double>(tracer_.spans().size()),
         "count"});
    r.diagnostics.push_back({"trace.dropped_spans",
                             static_cast<double>(tracer_.dropped()),
                             "count"});
  }
  r.diagnostics.push_back({"bench.gen_lag_us_p99", lag_p99, "us"});
  r.diagnostics.push_back(
      {"bench.gen_lag_us_max",
       gen_lag_us_.empty()
           ? 0.0
           : *std::max_element(gen_lag_us_.begin(), gen_lag_us_.end()),
       "us"});
  r.diagnostics.push_back(
      {"bench.lag_flagged", lag_distorts_latency(lag_p90, p50) ? 1.0 : 0.0,
       "bool"});
  // p90 and above are dominated by the host: on a virtual machine whose
  // vCPUs lose time to steal, they move by more than any admissible bound
  // from run to run, so they are reported but not gated.
  r.diagnostics.push_back({"latency_samples",
                           static_cast<double>(all_latency_us_.size()),
                           "count"});
  r.diagnostics.push_back({"latency_p90_us", median(p90_us_), "us"});
  r.diagnostics.push_back(
      {"latency_p99_us", percentile(all_latency_us_, 0.99), "us"});
  r.diagnostics.push_back(
      {"latency_p999_us", percentile(all_latency_us_, 0.999), "us"});
  r.diagnostics.push_back({"baseline.single_thread_rows_per_s",
                           share(replayed_rows_, replay_s_), "1/s"});
  r.diagnostics.push_back({"replay.mismatched_streams",
                           static_cast<double>(replay_mismatched_), "count"});
  r.diagnostics.push_back(
      {"quality.scored_rows", static_cast<double>(quality_.rows), "rows"});
  r.diagnostics.push_back(
      {"quality.edges", static_cast<double>(quality_.edges), "count"});
  r.diagnostics.push_back({"quality.false_alarms",
                           static_cast<double>(quality_.false_alarms),
                           "count"});

  if (opt_.trace) {
    // Stage-timer totals become synthetic spans under one root.
    const std::uint64_t base = now_ns();
    const std::int64_t parent = tracer_.add("stage_totals", base, base);
    std::uint64_t end = base;
    for (const char* stage : kStages) {
      const auto ns =
          static_cast<std::uint64_t>(stage_totals_[stage] * 1e9);
      tracer_.add(stage, base, base + ns, parent);
      end = std::max(end, base + ns);
    }
    tracer_.close(parent, end);
    if (!opt_.trace_out.empty() && !tracer_.write_jsonl(opt_.trace_out)) {
      failures_.push_back("trace: cannot write " + opt_.trace_out);
    }
  }
  r.attempted = attempted_;
  r.failed = failed_;
  r.failures = failures_;
  r.correct = failures_.empty();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& s : specs()) v.push_back(s.name);
    return v;
  }();
  return names;
}

RunResult run_workload(const RunOptions& options) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name == options.workload) return Bench(spec, options).run();
  }
  RunResult r;
  r.correct = false;
  r.failures.push_back("unknown workload '" + options.workload + "'");
  return r;
}

}  // namespace perfbench

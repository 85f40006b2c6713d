// Shared machinery of the three workloads: results and checks, process
// measures, the open-loop request generator, the rate ladder, the
// publish-while-reading refresh phase and the answer verification passes.
#ifndef SDEA_PERFBENCH_BENCH_COMMON_H_
#define SDEA_PERFBENCH_BENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "bench_trace.h"
#include "eval/abstention.h"
#include "serve/server.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Scratch files (snapshots, update logs).
  std::string out_dir;   ///< Result and trace files.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one pass of a workload produced.
struct Outcome {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::vector<std::string> failures;  ///< Failed output checks.
  /// Measurements that are not trustworthy (printed, not failures).
  std::vector<std::string> warnings;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Wall seconds the trace overhead is judged on (workload-specific).
  double overhead_basis = 0.0;
  /// FNV-1a of the fit's decision vector, for the traced run's replay check.
  uint64_t decisions_hash = 0;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

double SecondsSince(Clock::time_point t0);
double ProcessCpuSeconds();
double PeakRssMb();

/// A served answer reduced to what the checks compare: status and the
/// ranked (id, similarity) list, similarities compared bitwise.
struct Answer {
  bool ok = false;
  std::vector<std::pair<int64_t, float>> nn;
};
Answer ToAnswer(const sdea::serve::AlignResult& r);
Answer ToAnswer(const std::vector<sdea::core::EmbeddingStore::Neighbor>& nn);
bool SameAnswer(const Answer& a, const Answer& b);

/// The server's answer rule re-applied by the benchmark: drop non-finite
/// similarities, then the abstain test on top-1 and the top-1/top-2 margin.
Answer ApplyServeRule(std::vector<sdea::core::EmbeddingStore::Neighbor> nn,
                      const sdea::eval::AbstainThreshold& rule);

/// One query of a workload's pool. `gold` is the correct store row,
/// eval::kGoldDangling when abstaining is correct, eval::kGoldSkip when
/// the query has no known answer (text queries).
struct Query {
  bool is_text = false;
  std::string text;
  sdea::Tensor emb;
  int64_t gold = -1;
};

/// Returns the query for a pool key; may be called from the generator
/// thread, so it must be thread-safe against the workload's own updates.
using QueryFn = std::function<Query(int64_t key)>;
/// Draws the key of the next request.
using KeyFn = std::function<int64_t(sdea::Rng* rng)>;

/// Uniform integer in [0, n), n >= 1.
inline int64_t UniformKey(sdea::Rng* rng, int64_t n) {
  return static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(n)));
}

/// One open-loop run against a server: requests are sent on a seeded
/// Poisson schedule whatever the server's progress.
struct LoopResult {
  std::vector<RequestTiming> timings;
  std::vector<int64_t> keys;
  std::vector<Answer> answers;
  int64_t backlog_max = 0;
};

/// Sends requests at `rate` for `duration_s`, or until `*stop` turns true
/// when `stop` is given (then the schedule is drawn for `duration_s` as an
/// upper bound). Latency is measured from each due time.
LoopResult RunOpenLoop(sdea::serve::AlignmentServer* server,
                       const QueryFn& query, const KeyFn& pick,
                       uint64_t seed, double rate, double duration_s,
                       const std::atomic<bool>* stop, int64_t k,
                       Tracer* tracer, int64_t* next_request_id);

struct LadderResult {
  /// rungs[r][p]: rate r in pass p.
  std::vector<std::vector<RungSummary>> rungs;
  std::vector<LoopResult> loops;
  /// The server's counters at the start and after each pass.
  std::vector<sdea::serve::StatsSnapshot> pass_stats;
};

/// Runs the fixed absolute `rates` in ascending order, `rung_s` each, and
/// repeats the sweep `passes` times, so each rate's p50 and tail are
/// medians over passes spread across the ladder's whole duration.
LadderResult RunLadder(sdea::serve::AlignmentServer* server,
                       const QueryFn& query, const KeyFn& pick,
                       uint64_t seed, const std::vector<double>& rates,
                       double rung_s, int passes, double limit_ms, int64_t k,
                       Tracer* tracer, int64_t* next_request_id);

/// The highest sustained rate of a server, searched on a fixed grid of
/// absolute rates.
struct CapacityResult {
  /// The achieved rate at the highest grid rate that was sustained; 0
  /// when not even the lowest rate was.
  double max_qps = 0.0;
  /// The answer was the grid's top rate (the grid is too low).
  bool at_top = false;
  std::vector<LoopResult> loops;
};

/// The grid is lo_qps * 2^(i / 12) (6% steps) up to hi_qps. The search
/// bisects it with `probe_s`-second open-loop probes, taking a rate as met
/// when SummarizeRung calls it sustained (tail within `limit_ms`, no
/// failure, no growing backlog).
CapacityResult FindMaxQps(sdea::serve::AlignmentServer* server,
                          const QueryFn& query, const KeyFn& pick,
                          uint64_t seed, double lo_qps, double hi_qps,
                          double probe_s, double limit_ms, int64_t k,
                          Tracer* tracer, int64_t* next_request_id);

/// Publishes repeatedly while an open-loop reader queries at `read_rate`.
/// `publish(i)` must swap a new snapshot in and return its version (0 on
/// failure); the refresh time runs from the call until a probe query
/// through the server answers from that version.
struct RefreshResult {
  std::vector<double> refresh_ms;
  LoopResult reads;
  int64_t failed_publishes = 0;
  double wall_s = 0.0;
};
RefreshResult RunRefreshPhase(
    sdea::serve::AlignmentServer* server,
    const std::function<uint64_t(int64_t i)>& publish, int64_t min_count,
    int64_t max_count, double min_seconds, const sdea::Tensor& probe,
    const QueryFn& query, const KeyFn& pick, uint64_t seed, double read_rate,
    Tracer* tracer, int64_t* next_request_id);

/// Low-load verification: every key answered once through the server by
/// a few blocking clients.
std::map<int64_t, Answer> VerifyThroughServer(
    sdea::serve::AlignmentServer* server, const std::vector<int64_t>& keys,
    const QueryFn& query, int64_t k);

/// Distinct keys a set of loops used, ascending.
std::vector<int64_t> DistinctKeys(const std::vector<const LoopResult*>& loops);

/// Checks every timed answer against the verification answer of its key.
void CheckTimedAnswers(const std::vector<const LoopResult*>& loops,
                       const std::map<int64_t, Answer>& verified,
                       const std::string& label, Outcome* out);

/// Adds the ladder's latency metrics and request counters.
void AddLadderMetrics(const LadderResult& ladder, Outcome* out);
/// Adds max_qps and the search's request counters.
void AddCapacityMetrics(const CapacityResult& capacity, Outcome* out);
void AddRefreshMetrics(const RefreshResult& refresh, Outcome* out);
void CountLoop(const LoopResult& loop, Outcome* out);

/// Generator lag p99 over several loops, in ms.
double LagP99Ms(const std::vector<const LoopResult*>& loops);

/// Runs fn(i) for i in [0, n) on `threads` plain threads.
void ParallelRun(int64_t n, int threads,
                 const std::function<void(int64_t)>& fn);

/// Threads of the library's global pool as currently configured.
int PoolThreads();

/// Per-layer metric names and units, one list for every workload. Each
/// workload measures every layer it runs; the rest are listed by
/// LayersNotRun and printed as 0 marked "not run".
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

/// The per-layer metrics of layers `workload` never calls.
const std::vector<std::string>& LayersNotRun(const std::string& workload);

/// Counter-by-counter `after - before`.
sdea::serve::StatsSnapshot StatsDelta(const sdea::serve::StatsSnapshot& after,
                                      const sdea::serve::StatsSnapshot& before);

/// The serving layers' per-layer metrics from the server's own counters
/// (a stats() delta over the timed loops) and the loops' backlog.
void AddServeLayerMetrics(const sdea::serve::StatsSnapshot& stats,
                          const std::vector<const LoopResult*>& loops,
                          Outcome* out);

/// Direct NearestNeighbors on a pinned snapshot, with the serve rule
/// re-applied: the answers the verification pass compares against, timed
/// per query (store.query_ms.p50/p99).
std::vector<Answer> DirectAnswers(const sdea::serve::ServingSnapshot& snap,
                                  const std::vector<sdea::Tensor>& queries,
                                  const sdea::eval::AbstainThreshold& rule,
                                  int64_t k, std::vector<double>* ms);

/// Share of `queries` whose top-1 on the store equals the benchmark's own
/// exact fp32 top-1 over `table` (rows L2-normalized here).
double Top1Agreement(const sdea::serve::ServingSnapshot& snap,
                     const sdea::Tensor& table,
                     const std::vector<sdea::Tensor>& queries);

/// The end-to-end metrics the benchmark gates on (the --trace 0 result).
/// The latency metrics of the ladder and refresh phases and serve's
/// max_qps are printed too, and reported as per-layer metrics by the
/// traced run.
const std::vector<std::string>& GatedMetrics();

Outcome RunFit(const Options& o, bool traced, int setups, Tracer* tracer);
Outcome RunServe(const Options& o, bool traced, int setups, Tracer* tracer);
Outcome RunStream(const Options& o, bool traced, int setups, Tracer* tracer);

}  // namespace perfbench

#endif  // SDEA_PERFBENCH_BENCH_COMMON_H_

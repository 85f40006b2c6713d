#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <ctime>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "base/threadpool.h"

namespace perfbench {

using sdea::Tensor;
namespace serve = sdea::serve;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

int PoolThreads() { return sdea::base::ThreadPool::Global()->num_threads(); }

Answer ToAnswer(const std::vector<sdea::core::EmbeddingStore::Neighbor>& nn) {
  Answer a;
  a.ok = true;
  for (const auto& n : nn) a.nn.push_back({n.id, n.similarity});
  return a;
}

Answer ToAnswer(const serve::AlignResult& r) {
  if (!r.ok()) return Answer{};
  return ToAnswer(*r);
}

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.ok != b.ok || a.nn.size() != b.nn.size()) return false;
  for (size_t i = 0; i < a.nn.size(); ++i) {
    if (a.nn[i].first != b.nn[i].first) return false;
    if (std::memcmp(&a.nn[i].second, &b.nn[i].second, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

Answer ApplyServeRule(std::vector<sdea::core::EmbeddingStore::Neighbor> nn,
                      const sdea::eval::AbstainThreshold& rule) {
  nn.erase(std::remove_if(nn.begin(), nn.end(),
                          [](const auto& n) { return !std::isfinite(n.similarity); }),
           nn.end());
  if (rule.enabled && !nn.empty()) {
    const float top1 = nn.front().similarity;
    const float margin = nn.size() > 1 ? top1 - nn[1].similarity
                                       : std::numeric_limits<float>::infinity();
    if (!rule.Accepts(top1, margin)) nn.clear();
  }
  return ToAnswer(nn);
}

namespace {

struct InFlight {
  int64_t key = 0;
  int64_t span = -1;
  RequestTiming t;
  std::future<serve::AlignResult> fut;
};

}  // namespace

LoopResult RunOpenLoop(serve::AlignmentServer* server, const QueryFn& query,
                       const KeyFn& pick, uint64_t seed, double rate,
                       double duration_s, const std::atomic<bool>* stop,
                       int64_t k, Tracer* tracer, int64_t* next_request_id) {
  LoopResult out;
  const std::vector<double> due = PoissonSchedule(seed, rate, duration_s);
  sdea::Rng key_rng(seed ^ 0x6b657973ULL);
  const int64_t parent = Span::Current();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool generator_done = false;
  std::atomic<int64_t> completed{0};
  int64_t backlog_max = 0;

  // Both clocks are read once, so due times map onto the trace timeline.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const int64_t t0_us = Tracer::NowUs() + 2000;
  auto rel = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };

  std::thread generator([&] {
    int64_t sent = 0;
    for (double d : due) {
      if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
      InFlight f;
      f.key = pick(&key_rng);
      Query q = query(f.key);
      f.t.due = d;
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(d)));
      const int64_t request = (*next_request_id)++;
      const int64_t sent_us = Tracer::NowUs();
      f.t.sent = rel(Clock::now());
      f.span = tracer->Record("serve.request",
                              t0_us + static_cast<int64_t>(d * 1e6), -1,
                              parent, request);
      f.fut = q.is_text ? server->AlignTextAsync(std::move(q.text), k)
                        : server->AlignEmbeddingAsync(std::move(q.emb), k);
      tracer->Record("serve.submit", sent_us, Tracer::NowUs(), f.span,
                     request);
      ++sent;
      backlog_max = std::max(backlog_max, sent - completed.load());
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(f));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      generator_done = true;
    }
    cv.notify_one();
  });

  // Collect in submission order: the batcher answers FIFO, so the answer
  // of request i is never ready long after it is taken here.
  while (true) {
    InFlight f;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty() || generator_done; });
      if (queue.empty()) break;
      f = std::move(queue.front());
      queue.pop_front();
    }
    const serve::AlignResult r = f.fut.get();
    f.t.done = rel(Clock::now());
    tracer->Close(f.span);
    completed.fetch_add(1);
    f.t.ok = r.ok();
    out.timings.push_back(f.t);
    out.keys.push_back(f.key);
    out.answers.push_back(ToAnswer(r));
  }
  generator.join();
  out.backlog_max = backlog_max;
  return out;
}

LadderResult RunLadder(serve::AlignmentServer* server, const QueryFn& query,
                       const KeyFn& pick, uint64_t seed,
                       const std::vector<double>& rates, double rung_s,
                       int passes, double limit_ms, int64_t k, Tracer* tracer,
                       int64_t* next_request_id) {
  LadderResult out;
  out.rungs.resize(rates.size());
  out.pass_stats.push_back(server->stats());
  for (int p = 0; p < passes; ++p) {
    for (size_t r = 0; r < rates.size(); ++r) {
      Span span(tracer, "ladder.rung");
      out.loops.push_back(RunOpenLoop(server, query, pick,
                                      seed * 1000003 + p * 31 + r, rates[r],
                                      rung_s, nullptr, k, tracer,
                                      next_request_id));
      out.rungs[r].push_back(SummarizeRung(out.loops.back().timings, rung_s,
                                           limit_ms));
    }
    out.pass_stats.push_back(server->stats());
  }
  return out;
}

CapacityResult FindMaxQps(serve::AlignmentServer* server, const QueryFn& query,
                          const KeyFn& pick, uint64_t seed, double lo_qps,
                          double hi_qps, double probe_s, double limit_ms,
                          int64_t k, Tracer* tracer, int64_t* next_request_id) {
  CapacityResult out;
  std::vector<double> grid;
  for (int i = 0;; ++i) {
    const double rate = lo_qps * std::exp2(static_cast<double>(i) / 12.0);
    if (rate > hi_qps * (1.0 + 1e-9)) break;
    grid.push_back(rate);
  }
  Span span(tracer, "capacity.search");
  // Invariant: grid[lo] was sustained (lo = -1: none yet), grid[hi] was
  // not (hi = size: none yet).
  int64_t lo = -1, hi = static_cast<int64_t>(grid.size());
  while (hi - lo > 1) {
    const int64_t mid = (lo + hi) / 2;
    Span probe(tracer, "capacity.probe");
    out.loops.push_back(RunOpenLoop(server, query, pick, seed * 7000003 + mid,
                                    grid[static_cast<size_t>(mid)], probe_s,
                                    nullptr, k, tracer, next_request_id));
    const RungSummary r = SummarizeRung(out.loops.back().timings, probe_s, limit_ms);
    if (r.sustained) {
      lo = mid;
      out.max_qps = r.achieved_qps;
    } else {
      hi = mid;
    }
  }
  out.at_top = lo == static_cast<int64_t>(grid.size()) - 1;
  return out;
}

RefreshResult RunRefreshPhase(
    serve::AlignmentServer* server,
    const std::function<uint64_t(int64_t i)>& publish, int64_t min_count,
    int64_t max_count, double min_seconds, const Tensor& probe,
    const QueryFn& query, const KeyFn& pick, uint64_t seed, double read_rate,
    Tracer* tracer, int64_t* next_request_id) {
  RefreshResult out;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    Span span(tracer, "refresh.reader");
    out.reads = RunOpenLoop(server, query, pick, seed, read_rate, 600.0,
                            &stop, 5, tracer, next_request_id);
  });
  const auto t0 = Clock::now();
  for (int64_t i = 0; i < max_count; ++i) {
    if (i >= min_count && SecondsSince(t0) >= min_seconds) break;
    const auto r0 = Clock::now();
    Span span(tracer, "refresh", i);
    const uint64_t version = publish(i);
    bool answered = false;
    if (version != 0) {
      Span probe_span(tracer, "refresh.probe", i);
      answered = server->AlignEmbedding(probe, 1).ok() &&
                 server->snapshot_version() == version;
    }
    if (!answered) ++out.failed_publishes;
    out.refresh_ms.push_back(SecondsSince(r0) * 1e3);
  }
  out.wall_s = SecondsSince(t0);
  stop.store(true, std::memory_order_release);
  reader.join();
  return out;
}

void ParallelRun(int64_t n, int threads,
                 const std::function<void(int64_t)>& fn) {
  std::atomic<int64_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int64_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

std::map<int64_t, Answer> VerifyThroughServer(serve::AlignmentServer* server,
                                              const std::vector<int64_t>& keys,
                                              const QueryFn& query, int64_t k) {
  std::vector<Answer> answers(keys.size());
  ParallelRun(static_cast<int64_t>(keys.size()), PoolThreads(), [&](int64_t i) {
    Query q = query(keys[static_cast<size_t>(i)]);
    answers[static_cast<size_t>(i)] =
        ToAnswer(q.is_text ? server->AlignText(q.text, k)
                           : server->AlignEmbedding(q.emb, k));
  });
  std::map<int64_t, Answer> out;
  for (size_t i = 0; i < keys.size(); ++i) out[keys[i]] = answers[i];
  return out;
}

std::vector<int64_t> DistinctKeys(const std::vector<const LoopResult*>& loops) {
  std::set<int64_t> keys;
  for (const LoopResult* l : loops) keys.insert(l->keys.begin(), l->keys.end());
  return {keys.begin(), keys.end()};
}

void CheckTimedAnswers(const std::vector<const LoopResult*>& loops,
                       const std::map<int64_t, Answer>& verified,
                       const std::string& label, Outcome* out) {
  int64_t mismatched = 0, total = 0;
  for (const LoopResult* l : loops) {
    for (size_t i = 0; i < l->keys.size(); ++i) {
      ++total;
      const auto it = verified.find(l->keys[i]);
      if (it == verified.end() || !l->answers[i].ok ||
          !SameAnswer(l->answers[i], it->second)) {
        ++mismatched;
      }
    }
  }
  out->Check(mismatched == 0,
             label + ": " + std::to_string(mismatched) + " of " +
                 std::to_string(total) +
                 " timed answers differ from the verification pass");
}

void CountLoop(const LoopResult& loop, Outcome* out) {
  out->attempted += static_cast<int64_t>(loop.timings.size());
  for (const RequestTiming& t : loop.timings) out->failed += t.ok ? 0 : 1;
}

void AddLadderMetrics(const LadderResult& ladder, Outcome* out) {
  static const char* kNames[] = {"low", "mid", "high"};
  for (size_t r = 0; r < ladder.rungs.size() && r < 3; ++r) {
    std::vector<double> tails, p50s;
    for (const RungSummary& s : ladder.rungs[r]) {
      tails.push_back(s.tail.value);
      p50s.push_back(s.p50.value);
    }
    out->e2e[std::string("p99_ms.") + kNames[r]] = {Median(tails), "ms"};
    if (r == 1) out->e2e["p50_ms.mid"] = {Median(p50s), "ms"};
  }
  for (const LoopResult& l : ladder.loops) CountLoop(l, out);
}

void AddCapacityMetrics(const CapacityResult& capacity, Outcome* out) {
  for (const LoopResult& l : capacity.loops) CountLoop(l, out);
  out->e2e["max_qps"] = {capacity.max_qps, "1/s"};
  // The grid must reach past capacity, or max_qps only restates its top.
  // That is a limit of the measurement, not an incorrect output.
  if (capacity.max_qps <= 0.0 || capacity.at_top) {
    out->warnings.push_back("capacity search did not bracket the server's capacity (max_qps " +
                            std::to_string(capacity.max_qps) + ")");
  }
}

void AddRefreshMetrics(const RefreshResult& refresh, Outcome* out) {
  out->e2e["refresh_p50_ms"] = {Median(refresh.refresh_ms), "ms"};
  out->e2e["refresh_tail_ms"] = {ChunkedTail(refresh.refresh_ms), "ms"};
  std::vector<double> lat;
  for (const RequestTiming& t : refresh.reads.timings) lat.push_back(LatencyMs(t));
  out->e2e["read_p99_ms"] = {ChunkedTail(lat), "ms"};
  out->attempted += static_cast<int64_t>(refresh.refresh_ms.size());
  out->failed += refresh.failed_publishes;
  CountLoop(refresh.reads, out);
}

double LagP99Ms(const std::vector<const LoopResult*>& loops) {
  std::vector<double> lag;
  for (const LoopResult* l : loops) {
    for (const RequestTiming& t : l->timings) lag.push_back(GeneratorLagMs(t));
  }
  return TailPercentile(lag).value;
}

namespace {

double HistP50Us(const std::array<uint64_t, serve::StatsSnapshot::kLatencyBuckets>& h) {
  static const double kUpper[] = {1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144};
  uint64_t total = 0;
  for (uint64_t c : h) total += c;
  uint64_t seen = 0;
  for (size_t i = 0; i < h.size(); ++i) {
    seen += h[i];
    if (total > 0 && 2 * seen >= total) return kUpper[i];
  }
  return 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

serve::StatsSnapshot StatsDelta(const serve::StatsSnapshot& after,
                                const serve::StatsSnapshot& before) {
  serve::StatsSnapshot d = after;
  d.queries -= before.queries;
  d.text_queries -= before.text_queries;
  d.embedding_queries -= before.embedding_queries;
  d.failed_queries -= before.failed_queries;
  d.no_match_answers -= before.no_match_answers;
  d.batches -= before.batches;
  d.batched_queries -= before.batched_queries;
  d.cache_hits -= before.cache_hits;
  d.cache_misses -= before.cache_misses;
  d.encoded_texts -= before.encoded_texts;
  d.snapshot_swaps -= before.snapshot_swaps;
  for (size_t i = 0; i < d.batch_size_hist.size(); ++i) {
    d.batch_size_hist[i] -= before.batch_size_hist[i];
  }
  for (size_t s = 0; s < d.latency_hist.size(); ++s) {
    for (size_t i = 0; i < d.latency_hist[s].size(); ++i) {
      d.latency_hist[s][i] -= before.latency_hist[s][i];
    }
  }
  return d;
}

void AddServeLayerMetrics(const serve::StatsSnapshot& stats,
                          const std::vector<const LoopResult*>& loops,
                          Outcome* out) {
  out->layer["serve.cache_hit_rate"] = {stats.cache_hit_rate(), "ratio"};
  out->layer["serve.encodes_per_text_query"] = {
      Ratio(static_cast<double>(stats.encoded_texts), static_cast<double>(stats.text_queries)),
      "ratio"};
  out->layer["serve.batch_mean"] = {stats.mean_batch_size(), "count"};
  int64_t backlog = 0;
  for (const LoopResult* l : loops) backlog = std::max(backlog, l->backlog_max);
  out->layer["serve.backlog_max"] = {static_cast<double>(backlog), "count"};
  out->layer["serve.encode_us.p50"] = {HistP50Us(stats.latency_hist[0]), "us"};
  out->layer["serve.search_us.p50"] = {HistP50Us(stats.latency_hist[1]), "us"};
  out->layer["serve.total_us.p50"] = {HistP50Us(stats.latency_hist[2]), "us"};
  out->layer["serve.no_match_rate"] = {
      Ratio(static_cast<double>(stats.no_match_answers), static_cast<double>(stats.queries)),
      "ratio"};
  out->layer["serve.failed_frac"] = {
      Ratio(static_cast<double>(stats.failed_queries),
            static_cast<double>(stats.queries + stats.failed_queries)),
      "ratio"};
}

std::vector<Answer> DirectAnswers(const serve::ServingSnapshot& snap,
                                  const std::vector<Tensor>& queries,
                                  const sdea::eval::AbstainThreshold& rule,
                                  int64_t k, std::vector<double>* ms) {
  std::vector<Answer> answers(queries.size());
  ms->assign(queries.size(), 0.0);
  ParallelRun(static_cast<int64_t>(queries.size()), PoolThreads(), [&](int64_t i) {
    const auto t0 = Clock::now();
    auto nn = snap.NearestNeighbors(queries[static_cast<size_t>(i)], k);
    (*ms)[static_cast<size_t>(i)] = SecondsSince(t0) * 1e3;
    answers[static_cast<size_t>(i)] = ApplyServeRule(std::move(nn), rule);
  });
  return answers;
}

double Top1Agreement(const serve::ServingSnapshot& snap, const Tensor& table,
                     const std::vector<Tensor>& queries) {
  Tensor normed = table;
  sdea::tmath::L2NormalizeRowsInPlace(&normed);
  const int64_t rows = normed.dim(0), dim = normed.dim(1);
  std::atomic<int64_t> agree{0};
  ParallelRun(static_cast<int64_t>(queries.size()), PoolThreads(), [&](int64_t i) {
    const Tensor& q = queries[static_cast<size_t>(i)];
    int64_t best = -1;
    double best_s = -std::numeric_limits<double>::infinity();
    for (int64_t r = 0; r < rows; ++r) {
      double dot = 0.0;
      for (int64_t j = 0; j < dim; ++j) dot += double(q[j]) * normed[r * dim + j];
      if (dot > best_s) best_s = dot, best = r;
    }
    const auto nn = snap.NearestNeighbors(q, 1);
    if (!nn.empty() && nn.front().id == best) agree.fetch_add(1);
  });
  return Ratio(static_cast<double>(agree.load()), static_cast<double>(queries.size()));
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"datagen.generate_s", "s"},
      {"text.init_s", "s"},
      {"encoder.pretrain_s", "s"},
      {"encoder.epochs", "count"},
      {"encoder.step_s", "s"},
      {"encoder.eval_s", "s"},
      {"encoder.embed_s", "s"},
      {"encoder.rows_per_s", "1/s"},
      {"relation.init_s", "s"},
      {"relation.train_s", "s"},
      {"relation.epochs", "count"},
      {"relation.embed_s", "s"},
      {"decide.score_s", "s"},
      {"decide.match_s", "s"},
      {"decide.calibrate_s", "s"},
      {"eval.rank_s", "s"},
      {"fit.cpu_util", "ratio"},
      {"fit.default_pool_run_s", "s"},
      {"store.write_s", "s"},
      {"store.open_ms", "ms"},
      {"store.query_ms.p50", "ms"},
      {"store.query_ms.p99", "ms"},
      {"store.top1_agree", "ratio"},
      {"encode.ms_per_text", "ms"},
      {"serve.cache_hit_rate", "ratio"},
      {"serve.encodes_per_text_query", "ratio"},
      {"serve.batch_mean", "count"},
      {"serve.backlog_max", "count"},
      {"serve.encode_us.p50", "us"},
      {"serve.search_us.p50", "us"},
      {"serve.total_us.p50", "us"},
      {"serve.no_match_rate", "ratio"},
      {"serve.failed_frac", "ratio"},
      {"gen.lag_ms.p99", "ms"},
      {"incr.fitbase_s", "s"},
      {"log.append_ms", "ms"},
      {"log.bytes", "bytes"},
      {"kg.apply_ms", "ms"},
      {"incr.process_ms.p50", "ms"},
      {"incr.process_ms.tail", "ms"},
      {"incr.reembed_ms", "ms"},
      {"incr.affected_frac", "ratio"},
      {"incr.trained_triples", "count"},
      {"incr.promoted", "count"},
      {"incr.demoted", "count"},
      {"store.create_ms", "ms"},
      {"ivf.build_ms", "ms"},
      {"serve.swap_ms", "ms"},
      {"read.search_ms", "ms"},
      {"max_qps", "1/s"},
      {"trace.overhead", "ratio"},
      {"share.encoder_of_run", "ratio"},
      {"share.store_of_service", "ratio"},
      {"share.process_of_refresh", "ratio"},
      // Measured with tracing off in the traced run's untraced pass; too
      // sensitive to host preemption to gate on (see README.md).
      {"p50_ms.mid", "ms"},
      {"p99_ms.low", "ms"},
      {"p99_ms.mid", "ms"},
      {"p99_ms.high", "ms"},
      {"refresh_p50_ms", "ms"},
      {"refresh_tail_ms", "ms"},
      {"read_p99_ms", "ms"},
  };
  return kUnits;
}

const std::vector<std::string>& LayersNotRun(const std::string& workload) {
  // Layers of the incremental path, the quantized store and the text
  // cache; of the offline fit; and of the serving text path.
  static const std::vector<std::string> kFit = {
      "incr.fitbase_s", "log.append_ms", "log.bytes", "kg.apply_ms",
      "incr.process_ms.p50", "incr.process_ms.tail", "incr.reembed_ms",
      "incr.affected_frac", "incr.trained_triples", "incr.promoted",
      "incr.demoted", "share.process_of_refresh", "ivf.build_ms",
      "store.write_s", "store.open_ms", "encode.ms_per_text",
      "serve.encode_us.p50", "serve.cache_hit_rate",
      "serve.encodes_per_text_query", "share.store_of_service", "max_qps"};
  static const std::vector<std::string> kServe = {
      "encoder.pretrain_s", "encoder.epochs", "encoder.step_s",
      "encoder.eval_s", "encoder.embed_s", "encoder.rows_per_s",
      "share.encoder_of_run", "relation.init_s", "relation.train_s",
      "relation.epochs", "relation.embed_s", "decide.score_s",
      "decide.match_s", "decide.calibrate_s", "eval.rank_s", "fit.cpu_util",
      "fit.default_pool_run_s", "incr.fitbase_s", "log.append_ms",
      "log.bytes", "kg.apply_ms", "incr.process_ms.p50",
      "incr.process_ms.tail", "incr.reembed_ms", "incr.affected_frac",
      "incr.trained_triples", "incr.promoted", "incr.demoted",
      "share.process_of_refresh", "store.create_ms", "ivf.build_ms",
      "serve.swap_ms"};
  static const std::vector<std::string> kStream = {
      "text.init_s", "encoder.pretrain_s", "encoder.epochs", "encoder.step_s",
      "encoder.eval_s", "encoder.embed_s", "encoder.rows_per_s",
      "share.encoder_of_run", "relation.init_s", "relation.train_s",
      "relation.epochs", "relation.embed_s", "decide.score_s",
      "decide.match_s", "decide.calibrate_s", "fit.cpu_util",
      "fit.default_pool_run_s", "store.write_s", "store.open_ms",
      "encode.ms_per_text", "serve.encode_us.p50", "serve.cache_hit_rate",
      "serve.encodes_per_text_query", "share.store_of_service", "max_qps"};
  static const std::vector<std::string> kNone;
  if (workload == "fit_pipeline") return kFit;
  if (workload == "serve_open") return kServe;
  if (workload == "stream_refresh") return kStream;
  return kNone;
}

const std::vector<std::string>& GatedMetrics() {
  static const std::vector<std::string> kGated = {
      "setup_s", "run_s", "cpu_s", "rss_mb", "hits1", "f1"};
  return kGated;
}

}  // namespace perfbench

// stream_refresh: a scaled d_stream pair fed increment by increment
// through the durable update log, the columnar KG commit, the incremental
// aligner and a snapshot swap, while an open-loop reader queries.
#include <algorithm>
#include <filesystem>
#include <mutex>

#include "bench_common.h"
#include "datagen/streaming.h"
#include "incr/aligner.h"
#include "incr/update_log.h"
#include "obs/obs.h"

namespace perfbench {
namespace {

using namespace sdea;

constexpr int64_t kMatched = 3000;
constexpr int64_t kTopK = 5;
constexpr double kLimitMs = 20.0;  // p99 limit of the ladder.

// The stream itself is fixed (the d_stream preset's seeds): final H@1 at
// this size is 0.11-0.14 across generated streams, a spread wider than any
// bound, so --seed drives the reader and ladder schedules and streams.
datagen::StreamingConfig StreamConfig(const Options& o) {
  datagen::StreamingConfig cfg = datagen::StreamingPreset().config;
  cfg.base.num_matched = kMatched;
  // Four increments per measured second keeps each one small while the
  // stream is long enough for a supported tail percentile.
  cfg.num_increments = std::max<int64_t>(12, static_cast<int64_t>(4 * o.seconds));
  cfg.stream_frac = 0.2;
  return cfg;
}

incr::IncrementalAlignerOptions AlignerOptions() {
  incr::IncrementalAlignerOptions opts;
  opts.dim = 48;
  opts.base_epochs = 60;
  opts.incr_epochs = 15;
  opts.affected_frac_cap = 0.10;
  opts.pull_lr = 0.01f;
  return opts;
}

struct StreamState {
  std::unique_ptr<datagen::StreamingBenchmark> sb;
  std::unique_ptr<incr::IncrementalAligner> aligner;
  std::vector<std::pair<kg::EntityId, kg::EntityId>> seeds, eval_pairs;
  std::unique_ptr<serve::AlignmentServer> server;
  double gen_s = 0.0, fitbase_s = 0.0;
};

std::vector<std::string> Names2(const kg::KnowledgeGraph& kg2) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(kg2.num_entities()));
  for (kg::EntityId e = 0; e < kg2.num_entities(); ++e) names.push_back(kg2.entity_name(e));
  return names;
}

Status Setup(const Options& o, Tracer* tracer, StreamState* st) {
  st->server.reset();
  st->aligner.reset();
  {
    Span s(tracer, "datagen.generate");
    const auto t0 = Clock::now();
    st->sb = std::make_unique<datagen::StreamingBenchmark>(
        datagen::GenerateStreaming(StreamConfig(o)));
    st->gen_s = SecondsSince(t0);
  }
  st->seeds.clear();
  st->eval_pairs.clear();
  const size_t train = st->sb->base_truth.size() * 3 / 10;
  for (size_t i = 0; i < st->sb->base_truth.size(); ++i) {
    (i < train ? st->seeds : st->eval_pairs).push_back(st->sb->base_truth[i]);
  }
  st->aligner = std::make_unique<incr::IncrementalAligner>(
      &st->sb->kg1, &st->sb->kg2, AlignerOptions());
  {
    Span s(tracer, "incr.fitbase");
    const auto t0 = Clock::now();
    SDEA_RETURN_IF_ERROR(st->aligner->FitBase(st->seeds));
    st->fitbase_s = SecondsSince(t0);
  }
  st->server = std::make_unique<serve::AlignmentServer>();
  SDEA_ASSIGN_OR_RETURN(core::EmbeddingStore store,
                        core::EmbeddingStore::Create(Names2(st->sb->kg2),
                                                     st->aligner->embeddings2()));
  st->server->SwapSnapshot(std::move(store));
  return Status::Ok();
}

}  // namespace

Outcome RunStream(const Options& o, bool traced, int setups, Tracer* tracer) {
  Outcome out;
  obs::SetEnabled(traced);
  tracer->set_enabled(traced);
  Span root(tracer, "stream_refresh");

  // Each set-up is timed; the last four (or the only one) are each
  // followed by the whole stream. The median set-up and the fastest replay
  // are reported (host interference only adds time). The state of the
  // last replay is checked.
  std::vector<double> setup_s, pass_wall, pass_cpu;
  StreamState st;
  std::mutex reader_mu;
  std::vector<Tensor> reader_rows;
  std::vector<double> append_ms, apply_ms, process_ms, reembed_ms, affected,
      create_ms, ivf_ms, swap_ms;
  int64_t trained = 0, promoted = 0, demoted = 0, size_mismatch = 0;
  RefreshResult refresh;
  int64_t request_id = 0;
  const std::string log_path = o.work_dir + "/stream-updates-" + std::to_string(o.seed) +
                               (traced ? "-traced" : "") + ".log";
  for (int pass = 0; pass < setups; ++pass) {
    {
      Span s(tracer, "setup");
      const auto t0 = Clock::now();
      const Status status = Setup(o, tracer, &st);
      setup_s.push_back(SecondsSince(t0));
      if (!status.ok()) {
        out.Check(false, "stream: setup failed: " + status.ToString());
        return out;
      }
    }
    if (pass + 4 < setups) continue;
    kg::KnowledgeGraph& kg1 = st.sb->kg1;
    kg::KnowledgeGraph& kg2 = st.sb->kg2;
    incr::IncrementalAligner& aligner = *st.aligner;
    serve::AlignmentServer& server = *st.server;
    std::filesystem::remove(log_path);
    auto log = incr::UpdateLog::Open(log_path);
    if (!log.ok()) {
      out.Check(false, "stream: cannot open update log");
      return out;
    }
    for (auto* v : {&append_ms, &apply_ms, &process_ms, &reembed_ms, &affected,
                    &create_ms, &ivf_ms, &swap_ms}) {
      v->clear();
    }
    trained = promoted = demoted = size_mismatch = 0;

    // The aligner is single-threaded: the reader reads copies of the KG1
    // rows of the evaluation sources, refreshed by this thread after each
    // increment.
    const int64_t n_read = static_cast<int64_t>(st.eval_pairs.size());
    auto copy_reader_rows = [&] {
      std::vector<Tensor> rows;
      rows.reserve(static_cast<size_t>(n_read));
      for (int64_t r = 0; r < n_read; ++r) {
        rows.push_back(aligner.embeddings1().Row(st.eval_pairs[static_cast<size_t>(r)].first));
      }
      std::lock_guard<std::mutex> lock(reader_mu);
      reader_rows.swap(rows);
    };
    copy_reader_rows();
    QueryFn read_query = [&](int64_t key) {
      Query q;
      std::lock_guard<std::mutex> lock(reader_mu);
      q.emb = reader_rows[static_cast<size_t>(key)];
      return q;
    };
    KeyFn read_pick = [n_read](Rng* rng) { return UniformKey(rng, n_read); };

    const serve::ServerOptions& sopts = server.options();
    auto ms_since = [](Clock::time_point t) { return SecondsSince(t) * 1e3; };
    auto publish = [&](int64_t i) -> uint64_t {
      const incr::UpdateBatch& batch = st.sb->increments[static_cast<size_t>(i)];
      {
        Span s(tracer, "log.append", i);
        const auto t0 = Clock::now();
        if (!log->Append(batch).ok()) return 0;
        append_ms.push_back(ms_since(t0));
      }
      {
        Span s(tracer, "kg.apply", i);
        const auto t0 = Clock::now();
        incr::ApplyUpdate(batch.kg1, &kg1);
        incr::ApplyUpdate(batch.kg2, &kg2);
        apply_ms.push_back(ms_since(t0));
      }
      {
        Span s(tracer, "incr.process", i);
        const auto t0 = Clock::now();
        auto rep = aligner.ProcessIncrement();
        if (!rep.ok()) return 0;
        process_ms.push_back(ms_since(t0));
        reembed_ms.push_back(rep->reembed_ms);
        affected.push_back(rep->affected_frac());
        trained += rep->trained_triples;
        promoted += rep->promoted;
        demoted += rep->demoted;
      }
      core::EmbeddingStore store;
      {
        Span s(tracer, "store.create", i);
        const auto t0 = Clock::now();
        auto created = core::EmbeddingStore::Create(Names2(kg2), aligner.embeddings2());
        if (!created.ok()) return 0;
        store = std::move(*created);
        create_ms.push_back(ms_since(t0));
      }
      {
        Span s(tracer, "ivf.build", i);
        const auto t0 = Clock::now();
        store.BuildIndex(sopts.index);
        ivf_ms.push_back(ms_since(t0));
      }
      uint64_t version = 0;
      {
        Span s(tracer, "serve.swap", i);
        const auto t0 = Clock::now();
        version = server.SwapSnapshot(std::move(store));
        swap_ms.push_back(ms_since(t0));
      }
      if (server.snapshot()->size() != kg2.num_entities()) ++size_mismatch;
      for (const auto& pair : datagen::ResolveNamePairs(
               kg1, kg2, st.sb->truth_names[static_cast<size_t>(i)])) {
        st.eval_pairs.push_back(pair);
      }
      copy_reader_rows();
      return version;
    };

    const int64_t n_inc = static_cast<int64_t>(st.sb->increments.size());
    const double c0 = ProcessCpuSeconds();
    {
      Span s(tracer, "refresh.phase");
      refresh = RunRefreshPhase(&server, publish, n_inc, n_inc, 0.0,
                                aligner.embeddings1().Row(0), read_query, read_pick,
                                o.seed ^ 0x57e, 100.0, tracer, &request_id);
    }
    pass_wall.push_back(refresh.wall_s);
    pass_cpu.push_back(ProcessCpuSeconds() - c0);
    out.Check(static_cast<int64_t>(refresh.refresh_ms.size()) == n_inc &&
                  refresh.failed_publishes == 0,
              "stream: not every increment was published");
    out.Check(size_mismatch == 0, "stream: a published snapshot's size != kg2 entities");
  }
  out.e2e["setup_s"] = {Median(setup_s), "s"};
  out.e2e["run_s"] = {*std::min_element(pass_wall.begin(), pass_wall.end()), "s"};
  out.e2e["cpu_s"] = {*std::min_element(pass_cpu.begin(), pass_cpu.end()), "s"};
  out.overhead_basis = pass_wall.back();
  AddRefreshMetrics(refresh, &out);
  kg::KnowledgeGraph& kg1 = st.sb->kg1;
  kg::KnowledgeGraph& kg2 = st.sb->kg2;
  incr::IncrementalAligner& aligner = *st.aligner;
  serve::AlignmentServer& server = *st.server;
  const serve::ServerOptions& sopts = server.options();
  const int64_t n_inc = static_cast<int64_t>(st.sb->increments.size());

  eval::RankingMetrics final_eval;
  {
    Span s(tracer, "eval.rank");
    final_eval = aligner.Evaluate(st.eval_pairs);
  }
  out.e2e["hits1"] = {final_eval.hits_at_1 / 100.0, "ratio"};

  // The final snapshot under the rate ladder, queried by the KG1 rows of
  // every evaluation pair.
  const Tensor emb1 = aligner.embeddings1();
  const int64_t n_eval = static_cast<int64_t>(st.eval_pairs.size());
  QueryFn query = [&](int64_t key) {
    Query q;
    q.emb = emb1.Row(st.eval_pairs[static_cast<size_t>(key)].first);
    q.gold = st.eval_pairs[static_cast<size_t>(key)].second;
    return q;
  };
  KeyFn pick = [n_eval](Rng* rng) { return UniformKey(rng, n_eval); };
  const serve::StatsSnapshot stats0 = server.stats();
  LadderResult ladder;
  {
    Span s(tracer, "ladder");
    ladder = RunLadder(&server, query, pick, o.seed, {1000.0, 2000.0, 4000.0},
                       0.04 * o.seconds, 2, kLimitMs, kTopK, tracer, &request_id);
  }
  const serve::StatsSnapshot stats = StatsDelta(server.stats(), stats0);
  AddLadderMetrics(ladder, &out);

  std::vector<const LoopResult*> loops;
  for (const LoopResult& l : ladder.loops) loops.push_back(&l);
  std::vector<int64_t> keys(static_cast<size_t>(n_eval));
  for (int64_t i = 0; i < n_eval; ++i) keys[static_cast<size_t>(i)] = i;
  const auto verified = VerifyThroughServer(&server, keys, query, kTopK);
  out.attempted += n_eval;
  CheckTimedAnswers(loops, verified, "stream ladder", &out);
  const auto snap = server.snapshot();
  std::vector<Tensor> vectors;
  for (int64_t i = 0; i < n_eval; ++i) vectors.push_back(query(i).emb);
  std::vector<double> search_ms;
  const std::vector<Answer> direct =
      DirectAnswers(*snap, vectors, sopts.abstain, kTopK, &search_ms);
  int64_t direct_mismatch = 0;
  std::vector<int64_t> predicted, gold;
  for (int64_t i = 0; i < n_eval; ++i) {
    const Answer& a = verified.at(i);
    if (!SameAnswer(a, direct[static_cast<size_t>(i)])) ++direct_mismatch;
    predicted.push_back(a.nn.empty() ? -1 : a.nn.front().first);
    gold.push_back(st.eval_pairs[static_cast<size_t>(i)].second);
  }
  out.Check(direct_mismatch == 0, "stream: served answers differ from NearestNeighbors");
  out.e2e["f1"] = {eval::EvaluateDecisions(predicted, gold).f1, "ratio"};

  // The durable log replayed into freshly generated base graphs must
  // reproduce the live graphs.
  {
    Span s(tracer, "verify.replay");
    auto reopened = incr::UpdateLog::Open(log_path);
    datagen::StreamingBenchmark fresh = datagen::GenerateStreaming(StreamConfig(o));
    const bool replayed = reopened.ok() && reopened->size() == n_inc &&
                          reopened->Replay(0, &fresh.kg1, &fresh.kg2).ok();
    out.Check(replayed, "stream: update log replay failed");
    if (replayed) {
      const kg::KgStatistics a1 = kg1.ComputeStatistics(), b1 = fresh.kg1.ComputeStatistics();
      const kg::KgStatistics a2 = kg2.ComputeStatistics(), b2 = fresh.kg2.ComputeStatistics();
      out.Check(a1.num_entities == b1.num_entities && a2.num_entities == b2.num_entities &&
                    a1.num_relational_triples == b1.num_relational_triples &&
                    a2.num_relational_triples == b2.num_relational_triples &&
                    a1.num_attribute_triples == b1.num_attribute_triples &&
                    a2.num_attribute_triples == b2.num_attribute_triples,
                "stream: replayed log does not reproduce the live graphs");
    }
  }
  out.e2e["rss_mb"] = {PeakRssMb(), "MB"};

  if (traced) {
    out.layer["datagen.generate_s"] = {st.gen_s, "s"};
    out.layer["incr.fitbase_s"] = {st.fitbase_s, "s"};
    out.layer["log.append_ms"] = {Median(append_ms), "ms"};
    std::error_code ec;
    out.layer["log.bytes"] = {static_cast<double>(std::filesystem::file_size(log_path, ec)), "bytes"};
    out.layer["kg.apply_ms"] = {Median(apply_ms), "ms"};
    out.layer["incr.process_ms.p50"] = {NearestRank(process_ms, 0.5).value, "ms"};
    out.layer["incr.process_ms.tail"] = {TailPercentile(process_ms).value, "ms"};
    out.layer["incr.reembed_ms"] = {Median(reembed_ms), "ms"};
    out.layer["incr.affected_frac"] = {Median(affected), "ratio"};
    out.layer["incr.trained_triples"] = {static_cast<double>(trained), "count"};
    out.layer["incr.promoted"] = {static_cast<double>(promoted), "count"};
    out.layer["incr.demoted"] = {static_cast<double>(demoted), "count"};
    out.layer["store.create_ms"] = {Median(create_ms), "ms"};
    out.layer["ivf.build_ms"] = {Median(ivf_ms), "ms"};
    out.layer["serve.swap_ms"] = {Median(swap_ms), "ms"};
    out.layer["read.search_ms"] = {Median(search_ms), "ms"};
    out.layer["store.query_ms.p50"] = {NearestRank(search_ms, 0.5).value, "ms"};
    out.layer["store.query_ms.p99"] = {TailPercentile(search_ms).value, "ms"};
    out.layer["store.top1_agree"] = {Top1Agreement(*snap, aligner.embeddings2(), vectors), "ratio"};
    out.layer["eval.rank_s"] = {tracer->TotalSeconds("eval.rank"), "s"};
    double process_total = 0.0, refresh_total = 0.0;
    for (double ms : process_ms) process_total += ms;
    for (double ms : refresh.refresh_ms) refresh_total += ms;
    out.layer["share.process_of_refresh"] = {process_total / std::max(refresh_total, 1e-9), "ratio"};
    AddServeLayerMetrics(stats, loops, &out);
  }
  loops.push_back(&refresh.reads);
  out.layer["gen.lag_ms.p99"] = {LagP99Ms(loops), "ms"};
  st.server.reset();
  std::filesystem::remove(log_path);
  return out;
}

}  // namespace perfbench

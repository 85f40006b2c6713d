// fit_pipeline: one core::AlignmentPipeline::Run on a small cross-lingual
// DBP15K pair (the paper's use), then the fitted KG2 embeddings published
// to an AlignmentServer and queried with the KG1 embeddings.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench_common.h"
#include "core/alignment_pipeline.h"
#include "core/stable_matching.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "obs/obs.h"
#include "base/threadpool.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using namespace sdea;

constexpr double kLimitMs = 20.0;  // p99 limit of the ladder.

struct FitInputs {
  datagen::GeneratedBenchmark bench;
  kg::AlignmentSeeds seeds;
  core::PipelineConfig config;
};

// The offline instance is fixed: the FR-EN preset's world, seed split and
// training seeds. At this size H@1 spans 0.37-0.62 across generated worlds
// and 0.56-0.73 across seed splits of one world, which would swamp any
// regression, so --seed drives the served query schedules and streams.
FitInputs MakeFitInputs() {
  FitInputs in;
  datagen::GeneratorConfig cfg;
  for (const datagen::DatasetSpec& spec : datagen::Dbp15kPresets()) {
    if (spec.id == "fr_en") cfg = spec.config;
  }
  cfg.num_matched = 100;
  cfg.pretrain_sentences = 300;
  in.bench = datagen::BenchmarkGenerator().Generate(cfg);
  in.seeds = kg::AlignmentSeeds::Split(in.bench.ground_truth,
                                       cfg.seed ^ 0x5eedULL);
  core::SdeaConfig& c = in.config.model;
  c.attribute.text.encoder.max_len = 32;
  c.attribute.text.max_epochs = 3;
  c.attribute.text.negatives_per_pair = 3;
  c.attribute.text.ssl_epochs = 1;
  c.attribute.text.pretrain.epochs = 4;
  c.relation.max_epochs = 3;
  in.config.calibrate_threshold = true;
  return in;
}

struct Decided {
  std::vector<int64_t> decisions;
  eval::AbstainThreshold threshold;
  Tensor scores;
  double f1 = 0.0;
};

// The library's decision step, written out layer by layer exactly as
// AlignmentPipeline::Run runs it, so each layer gets its own span.
Decided ReplayDecide(const Tensor& ent1, const Tensor& ent2,
                     const FitInputs& in, Tracer* tracer) {
  Decided d;
  {
    Span s(tracer, "decide.score");
    Tensor e1 = ent1, e2 = ent2;
    tmath::L2NormalizeRowsInPlace(&e1);
    tmath::L2NormalizeRowsInPlace(&e2);
    d.scores = tmath::MatmulTransposeB(e1, e2);
  }
  const int64_t n2 = d.scores.dim(1);
  {
    Span s(tracer, "decide.match");
    d.decisions = core::StableMatch(d.scores);
  }
  {
    Span s(tracer, "decide.calibrate");
    Tensor dev({static_cast<int64_t>(in.seeds.valid.size()), n2});
    std::vector<int64_t> dev_gold;
    for (size_t i = 0; i < in.seeds.valid.size(); ++i) {
      dev.SetRow(static_cast<int64_t>(i), d.scores.Row(in.seeds.valid[i].first));
      dev_gold.push_back(in.seeds.valid[i].second);
    }
    d.threshold = eval::CalibrateAbstainThreshold(dev, dev_gold);
    if (!d.threshold.enabled) {
      d.threshold.min_similarity = in.config.min_similarity;
      d.threshold.enabled = true;
    }
    eval::ApplyAbstainThreshold(d.scores, d.threshold, &d.decisions);
  }
  std::vector<int64_t> sub, gold;
  for (const auto& [a, b] : in.seeds.test) {
    sub.push_back(d.decisions[static_cast<size_t>(a)]);
    gold.push_back(b);
  }
  d.f1 = eval::EvaluateDecisions(sub, gold).f1;
  return d;
}

// Decisions must be a 1-1 partial matching with in-range ids, and every
// accepted pair must pass the threshold the run reports.
void CheckDecisions(const std::vector<int64_t>& decisions, const Tensor& ent1,
                    const Tensor& ent2, const eval::AbstainThreshold& rule,
                    const std::string& label, Outcome* out) {
  Tensor e1 = ent1, e2 = ent2;
  tmath::L2NormalizeRowsInPlace(&e1);
  tmath::L2NormalizeRowsInPlace(&e2);
  const Tensor scores = tmath::MatmulTransposeB(e1, e2);
  const int64_t n1 = scores.dim(0), n2 = scores.dim(1);
  out->Check(static_cast<int64_t>(decisions.size()) == n1,
             label + ": decision vector size != KG1 entities");
  std::vector<char> used(static_cast<size_t>(n2), 0);
  int64_t bad_range = 0, reused = 0, rejected = 0;
  for (int64_t i = 0; i < std::min<int64_t>(n1, decisions.size()); ++i) {
    const int64_t j = decisions[static_cast<size_t>(i)];
    if (j == core::kUnmatched) continue;
    if (j < 0 || j >= n2) {
      ++bad_range;
      continue;
    }
    if (used[static_cast<size_t>(j)]++) ++reused;
    const float* row = scores.data() + i * n2;
    float best_other = -std::numeric_limits<float>::infinity();
    for (int64_t k = 0; k < n2; ++k) {
      if (k != j) best_other = std::max(best_other, row[k]);
    }
    const float margin = n2 > 1 ? row[j] - best_other
                                : std::numeric_limits<float>::infinity();
    if (!rule.Accepts(row[j], margin)) ++rejected;
  }
  out->Check(bad_range == 0, label + ": decisions with out-of-range targets");
  out->Check(reused == 0, label + ": decisions are not 1-1");
  out->Check(rejected == 0, label + ": accepted pairs failing the threshold");
}

// Converts the program's own spans recorded since `since_us` into span
// records nested by depth and containment, registered under `parent`.
void ImportProgramSpans(int64_t since_us, int64_t parent, Tracer* tracer,
                        std::vector<SpanRecord>* records) {
  std::vector<obs::TraceEvent> events = obs::TraceBuffer::Default()->Events();
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.depth < b.depth;
  });
  std::vector<std::pair<int64_t, int32_t>> open;  // (index, depth)
  for (const obs::TraceEvent& e : events) {
    if (e.start_us < since_us) continue;
    if (e.name != "train/epoch" && e.name != "train/eval") continue;
    while (!open.empty()) {
      const SpanRecord& top = (*records)[static_cast<size_t>(open.back().first)];
      if (top.end_us >= e.start_us + e.dur_us && open.back().second < e.depth) break;
      open.pop_back();
    }
    SpanRecord r;
    r.id = static_cast<int64_t>(records->size());
    r.parent = open.empty() ? -1 : (*records)[static_cast<size_t>(open.back().first)].id;
    r.name = e.name;
    r.start_us = e.start_us;
    r.end_us = e.start_us + e.dur_us;
    tracer->Record(r.name, r.start_us, r.end_us, parent);
    open.push_back({r.id, e.depth});
    records->push_back(r);
  }
}

}  // namespace

Outcome RunFit(const Options& o, bool traced, int setups, Tracer* tracer) {
  Outcome out;
  obs::SetEnabled(traced);
  tracer->set_enabled(traced);
  Span root(tracer, "fit_pipeline");

  std::vector<double> setup_s;
  FitInputs in;
  for (int i = 0; i < setups; ++i) {
    Span s(tracer, "setup");
    const auto t0 = Clock::now();
    in = MakeFitInputs();
    setup_s.push_back(SecondsSince(t0));
  }
  out.e2e["setup_s"] = {Median(setup_s), "s"};
  out.layer["datagen.generate_s"] = {Median(setup_s), "s"};
  const kg::KnowledgeGraph& kg1 = in.bench.kg1;
  const kg::KnowledgeGraph& kg2 = in.bench.kg2;

  Tensor ent1, ent2;
  std::vector<int64_t> decisions;
  double hits1 = 0.0, f1 = 0.0;
  if (!traced) {
    // Untraced: the public one-call API, repeated. The first Run of a
    // process was often the slowest, so --trace 0 runs one untimed warm-up
    // Run first. The traced run's untraced pass times one Run for its
    // comparison.
    std::vector<double> wall, cpu;
    const auto phase0 = Clock::now();
    const int warmup = o.trace ? 0 : 1;
    const int min_reps = o.trace ? 1 : 6;
    for (int rep = 0; rep < 9; ++rep) {
      if (rep >= min_reps && (o.trace || SecondsSince(phase0) >= 2.0 * o.seconds)) break;
      core::AlignmentPipeline pipeline;
      const double c0 = ProcessCpuSeconds();
      const auto t0 = Clock::now();
      auto result = pipeline.Run(kg1, kg2, in.seeds, in.config,
                                 in.bench.pretrain_corpus);
      if (rep >= warmup) {
        wall.push_back(SecondsSince(t0));
        cpu.push_back(ProcessCpuSeconds() - c0);
      }
      ++out.attempted;
      if (!result.ok()) {
        ++out.failed;
        out.Check(false, "fit: pipeline run failed: " + result.status().ToString());
        return out;
      }
      if (rep == 0) {
        decisions = result->decisions;
        hits1 = result->test_metrics.hits_at_1 / 100.0;
        f1 = result->decision_metrics.f1;
        ent1 = pipeline.model().embeddings1();
        ent2 = pipeline.model().embeddings2();
        CheckDecisions(decisions, ent1, ent2, result->threshold, "fit", &out);
      } else {
        out.Check(result->decisions == decisions &&
                      result->test_metrics.hits_at_1 / 100.0 == hits1,
                  "fit: repeated runs disagree");
      }
    }
    // The fastest repetition: interference from the host only ever adds
    // time, and it comes and goes within seconds, so the minimum tracks
    // the program while the median follows the host's slow spells.
    out.e2e["run_s"] = {*std::min_element(wall.begin(), wall.end()), "s"};
    out.e2e["cpu_s"] = {*std::min_element(cpu.begin(), cpu.end()), "s"};
    std::string reps;
    for (double w : wall) reps += " " + std::to_string(w);
    std::printf("info fit wall s per Run:%s\n", reps.c_str());
    out.overhead_basis = wall.front();
  } else {
    // Traced: the same fit replayed layer by layer through the public
    // module APIs, a span around each call.
    obs::TraceBuffer::Default()->Clear();
    const double c0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    const int64_t since = Tracer::NowUs();
    core::AttributeEmbeddingModule attr;
    core::RelationEmbeddingModule rel;
    core::TrainReport attr_report, rel_report;
    bool trained = true;
    Tensor ha1, ha2;
    int64_t pretrain_span = -1;
    {
      Span s(tracer, "text.init");
      Status st = attr.Init(kg1, kg2, in.config.model.attribute,
                            in.bench.pretrain_corpus);
      out.Check(st.ok(), "fit: attribute init failed");
    }
    {
      Span s(tracer, "encoder.pretrain");
      pretrain_span = Span::Current();
      auto r = attr.Pretrain(in.seeds);
      trained = trained && r.ok();
      if (r.ok()) attr_report = *r;
    }
    {
      Span s(tracer, "encoder.embed");
      ha1 = attr.ComputeAllEmbeddings(1);
      ha2 = attr.ComputeAllEmbeddings(2);
    }
    {
      Span s(tracer, "relation.init");
      Status st = rel.Init(kg1, kg2, in.config.model.attribute.text.out_dim,
                           in.config.model.relation);
      out.Check(st.ok(), "fit: relation init failed");
    }
    {
      Span s(tracer, "relation.train");
      auto r = rel.Train(ha1, ha2, in.seeds);
      trained = trained && r.ok();
      if (r.ok()) rel_report = *r;
    }
    {
      Span s(tracer, "relation.embed");
      ent1 = rel.ComputeEntityEmbeddings(1, ha1);
      ent2 = rel.ComputeEntityEmbeddings(2, ha2);
    }
    ++out.attempted;
    if (!trained) {
      ++out.failed;
      out.Check(false, "fit: replayed training failed");
      return out;
    }
    {
      Span s(tracer, "eval.rank");
      Tensor src({static_cast<int64_t>(in.seeds.test.size()), ent1.dim(1)});
      std::vector<int64_t> gold;
      for (size_t i = 0; i < in.seeds.test.size(); ++i) {
        src.SetRow(static_cast<int64_t>(i), ent1.Row(in.seeds.test[i].first));
        gold.push_back(in.seeds.test[i].second);
      }
      hits1 = eval::EvaluateAlignment(src, ent2, gold).hits_at_1 / 100.0;
    }
    const Decided d = ReplayDecide(ent1, ent2, in, tracer);
    decisions = d.decisions;
    f1 = d.f1;
    const double wall = SecondsSince(t0), cpu = ProcessCpuSeconds() - c0;
    out.overhead_basis = wall;
    CheckDecisions(decisions, ent1, ent2, d.threshold, "fit replay", &out);

    std::vector<SpanRecord> program;
    ImportProgramSpans(since, pretrain_span, tracer, &program);
    const std::vector<int64_t> self = SelfTimesUs(program);
    // The encoder's Trainer runs first; its epochs end before relation.init.
    double step_s = 0.0, eval_s = 0.0;
    const std::vector<SpanRecord> mine = tracer->spans();
    int64_t pretrain_end = 0;
    for (const SpanRecord& s : mine) {
      if (s.id == pretrain_span) pretrain_end = s.end_us;
    }
    for (size_t i = 0; i < program.size(); ++i) {
      if (program[i].end_us > pretrain_end) continue;
      if (program[i].name == "train/epoch") step_s += self[i] * 1e-6;
      if (program[i].name == "train/eval") eval_s += self[i] * 1e-6;
    }
    const double embed_s = tracer->TotalSeconds("encoder.embed");
    out.layer["text.init_s"] = {tracer->TotalSeconds("text.init"), "s"};
    out.layer["encoder.pretrain_s"] = {tracer->TotalSeconds("encoder.pretrain"), "s"};
    out.layer["encoder.epochs"] = {static_cast<double>(attr_report.epochs_run), "count"};
    out.layer["encoder.step_s"] = {step_s, "s"};
    out.layer["encoder.eval_s"] = {eval_s, "s"};
    out.layer["encoder.embed_s"] = {embed_s, "s"};
    out.layer["share.encoder_of_run"] = {
        (tracer->TotalSeconds("encoder.pretrain") + embed_s) / std::max(wall, 1e-9), "ratio"};
    out.layer["encoder.rows_per_s"] = {
        static_cast<double>(ha1.dim(0) + ha2.dim(0)) / std::max(embed_s, 1e-9), "1/s"};
    out.layer["relation.init_s"] = {tracer->TotalSeconds("relation.init"), "s"};
    out.layer["relation.train_s"] = {tracer->TotalSeconds("relation.train"), "s"};
    out.layer["relation.epochs"] = {static_cast<double>(rel_report.epochs_run), "count"};
    out.layer["relation.embed_s"] = {tracer->TotalSeconds("relation.embed"), "s"};
    out.layer["decide.score_s"] = {tracer->TotalSeconds("decide.score"), "s"};
    out.layer["decide.match_s"] = {tracer->TotalSeconds("decide.match"), "s"};
    out.layer["decide.calibrate_s"] = {tracer->TotalSeconds("decide.calibrate"), "s"};
    out.layer["eval.rank_s"] = {tracer->TotalSeconds("eval.rank"), "s"};
    {
      // The same fit on the library's default pool, untraced, for the
      // pool's utilization.
      Span s(tracer, "fit.default_pool");
      const int gated_threads = PoolThreads();
      base::ThreadPool::SetGlobalNumThreads(base::ThreadPool::DefaultNumThreads());
      obs::SetEnabled(false);
      core::AlignmentPipeline pipeline;
      const double pc0 = ProcessCpuSeconds();
      const auto pt0 = Clock::now();
      const bool ok = pipeline.Run(kg1, kg2, in.seeds, in.config,
                                   in.bench.pretrain_corpus).ok();
      const double pwall = SecondsSince(pt0), pcpu = ProcessCpuSeconds() - pc0;
      ++out.attempted;
      out.failed += ok ? 0 : 1;
      out.layer["fit.default_pool_run_s"] = {pwall, "s"};
      out.layer["fit.cpu_util"] = {pcpu / (pwall * PoolThreads()), "ratio"};
      base::ThreadPool::SetGlobalNumThreads(gated_threads);
      obs::SetEnabled(true);
    }
    out.e2e["run_s"] = {wall, "s"};
    out.e2e["cpu_s"] = {cpu, "s"};
  }
  out.e2e["hits1"] = {hits1, "ratio"};
  out.e2e["f1"] = {f1, "ratio"};
  uint64_t hash = 1469598103934665603ULL;
  for (int64_t d : decisions) hash = (hash ^ static_cast<uint64_t>(d + 7)) * 1099511628211ULL;
  out.decisions_hash = hash;

  // Serving the fit: the KG2 embeddings published, KG1 rows as queries.
  std::vector<std::string> names2;
  for (kg::EntityId e = 0; e < kg2.num_entities(); ++e) names2.push_back(kg2.entity_name(e));
  serve::ServerOptions options;
  options.build_index = false;  // A few hundred rows: the exact scan.
  serve::AlignmentServer server(options);
  std::vector<double> create_ms, swap_ms;
  auto publish = [&](int64_t) -> uint64_t {
    core::EmbeddingStore store;
    {
      Span s(tracer, "store.create");
      const auto p0 = Clock::now();
      auto created = core::EmbeddingStore::Create(names2, ent2);
      if (!created.ok()) return 0;
      store = std::move(*created);
      create_ms.push_back(SecondsSince(p0) * 1e3);
    }
    Span s(tracer, "serve.swap");
    const auto p0 = Clock::now();
    const uint64_t version = server.SwapSnapshot(std::move(store));
    swap_ms.push_back(SecondsSince(p0) * 1e3);
    return version;
  };
  publish(0);
  const int64_t n1 = ent1.dim(0);
  QueryFn query = [&](int64_t key) {
    Query q;
    q.emb = ent1.Row(key);
    return q;
  };
  KeyFn pick = [n1](Rng* rng) { return UniformKey(rng, n1); };
  int64_t request_id = 0;
  RefreshResult refresh;
  {
    Span s(tracer, "refresh.phase");
    refresh = RunRefreshPhase(&server, publish, 20, 2000, 0.1 * o.seconds,
                              ent1.Row(0), query, pick, o.seed ^ 0xf17, 200.0,
                              tracer, &request_id);
  }
  const serve::StatsSnapshot stats0 = server.stats();
  LadderResult ladder;
  {
    Span s(tracer, "ladder");
    ladder = RunLadder(&server, query, pick, o.seed, {1000.0, 2000.0, 4000.0},
                       0.04 * o.seconds, 2, kLimitMs, 5, tracer, &request_id);
  }
  const serve::StatsSnapshot stats = StatsDelta(server.stats(), stats0);
  AddRefreshMetrics(refresh, &out);
  AddLadderMetrics(ladder, &out);

  // Every publish swaps in the same embeddings, so every timed answer,
  // the reader's too, must equal the low-load verification answer.
  std::vector<const LoopResult*> loops = {&refresh.reads};
  for (const LoopResult& l : ladder.loops) loops.push_back(&l);
  const std::vector<int64_t> keys = DistinctKeys(loops);
  const auto verified = VerifyThroughServer(&server, keys, query, 5);
  out.attempted += static_cast<int64_t>(keys.size());
  CheckTimedAnswers(loops, verified, "fit ladder", &out);
  const auto snap = server.snapshot();
  std::vector<Tensor> vectors;
  for (int64_t key : keys) vectors.push_back(ent1.Row(key));
  std::vector<double> direct_ms;
  const std::vector<Answer> direct =
      DirectAnswers(*snap, vectors, server.options().abstain, 5, &direct_ms);
  int64_t direct_mismatch = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!SameAnswer(direct[i], verified.at(keys[i]))) ++direct_mismatch;
  }
  out.Check(direct_mismatch == 0, "fit: served answers differ from NearestNeighbors");
  if (traced) {
    AddServeLayerMetrics(stats, loops, &out);
    out.layer["store.create_ms"] = {Median(create_ms), "ms"};
    out.layer["serve.swap_ms"] = {Median(swap_ms), "ms"};
    out.layer["store.query_ms.p50"] = {NearestRank(direct_ms, 0.5).value, "ms"};
    out.layer["store.query_ms.p99"] = {TailPercentile(direct_ms).value, "ms"};
    out.layer["read.search_ms"] = {Median(direct_ms), "ms"};
    out.layer["store.top1_agree"] = {Top1Agreement(*snap, ent2, vectors), "ratio"};
  }
  out.layer["gen.lag_ms.p99"] = {LagP99Ms(loops), "ms"};
  out.e2e["rss_mb"] = {PeakRssMb(), "MB"};
  return out;
}

}  // namespace perfbench

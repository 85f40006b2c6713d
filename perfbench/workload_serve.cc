// serve_open: an open-loop Poisson ladder of embedding and text queries
// against one AlignmentServer holding a quantized SDEASTOR1 snapshot of a
// MillionScale-shaped target table (10^5 rows of stand-in vectors), plus a
// search for the highest rate the server sustains.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <unordered_map>

#include "bench_common.h"
#include "core/text_alignment_encoder.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "obs/obs.h"
#include "store/quantized_store.h"
#include "text/normalizer.h"

namespace perfbench {
namespace {

using namespace sdea;

constexpr int64_t kDim = 32;           // The attribute encoder's out_dim.
constexpr double kScale = 0.1;         // 10^5 rows of the 10^6 preset.
constexpr int64_t kEmbQueries = 1200;  // Distinct embedding queries.
constexpr double kDanglingShare = 0.2; // Embedding queries with no row.
constexpr int64_t kDevQueries = 400;   // Calibration queries.
constexpr int64_t kTopK = 5;
// Traffic assumptions (not taken from a trace; see README.md): half the
// requests are text, drawn Zipf(kZipfS) over every target name, against a
// text cache of kCacheEntries, so eviction and not the pool size sets the
// hit rate.
constexpr double kTextShare = 0.5;
constexpr double kZipfS = 1.0;
constexpr size_t kCacheEntries = 1024;
constexpr int64_t kWarmupTexts = 2000;  // Untimed cache fill before timing.
constexpr double kLimitMs = 50.0;       // p99 limit of the ladder and search.

// The attribute-text encoder in inference mode: each target name is one
// "entity" of the encoder, so a cache miss costs one EncodeEntity.
class TextEncoder {
 public:
  Status Init(const std::vector<std::string>& texts, uint64_t seed) {
    core::TextEncoderConfig cfg;
    cfg.out_dim = kDim;
    cfg.use_pretrained_embeddings = false;
    // The names are Wikidata-style ids ("Q676523"): BPE merges learn
    // nothing from them, and learning 1024 merges over 10^5 distinct
    // words takes minutes, so the tokenizer keeps its base alphabet.
    cfg.tokenizer.num_merges = 0;
    cfg.seed = seed;
    for (size_t i = 0; i < texts.size(); ++i) {
      index_.emplace(text::NormalizeText(texts[i]), static_cast<int64_t>(i));
    }
    return encoder_.Init(texts, {texts.front()}, cfg);
  }
  /// Row i depends only on texts[i], as the server's contract requires.
  Tensor Encode(const std::vector<std::string>& texts) const {
    const auto t0 = Clock::now();
    Tensor out({static_cast<int64_t>(texts.size()), kDim});
    for (size_t i = 0; i < texts.size(); ++i) {
      const auto it = index_.find(texts[i]);
      if (it == index_.end()) {
        unknown_.fetch_add(1);
        continue;
      }
      Graph g;
      const NodeId node = encoder_.EncodeEntity(&g, 1, it->second,
                                                /*training=*/false, nullptr);
      out.SetRow(static_cast<int64_t>(i), g.Value(node).Row(0));
    }
    encoded_.fetch_add(static_cast<int64_t>(texts.size()));
    encode_us_.fetch_add(static_cast<int64_t>(SecondsSince(t0) * 1e6));
    return out;
  }
  int64_t encoded() const { return encoded_.load(); }
  int64_t encode_us() const { return encode_us_.load(); }
  int64_t unknown() const { return unknown_.load(); }

 private:
  core::TextAlignmentEncoder encoder_;
  std::unordered_map<std::string, int64_t> index_;
  mutable std::atomic<int64_t> encoded_{0}, encode_us_{0}, unknown_{0};
};

struct ServeState {
  std::string dir;
  std::vector<std::string> names;
  std::vector<int64_t> text_order;  // Zipf rank -> name index.
  Tensor table;                     // fp32 stand-in rows as written.
  std::unique_ptr<TextEncoder> encoder;
  std::unique_ptr<serve::AlignmentServer> server;
  eval::AbstainThreshold threshold;
  std::vector<Query> emb_pool;
  double gen_s = 0.0, write_s = 0.0;
};

Query EmbeddingQuery(const Tensor& table, int64_t rows, Rng* rng) {
  Query q;
  q.emb = Tensor({kDim});
  if (rng->Uniform() < kDanglingShare) {
    for (int64_t j = 0; j < kDim; ++j) q.emb[j] = static_cast<float>(rng->Normal());
    q.gold = eval::kGoldDangling;
    return q;
  }
  // A noisy copy of a row: the row at unit norm plus N(0, 0.08^2) noise.
  q.gold = UniformKey(rng, rows);
  const float* row = table.data() + q.gold * kDim;
  double norm = 0.0;
  for (int64_t j = 0; j < kDim; ++j) norm += row[j] * row[j];
  const double scale = 1.0 / std::sqrt(std::max(norm, 1e-12));
  for (int64_t j = 0; j < kDim; ++j) {
    q.emb[j] = static_cast<float>(row[j] * scale + rng->Normal(0.0, 0.08));
  }
  return q;
}

Status Setup(const Options& o, int index, Tracer* tracer, ServeState* st) {
  st->dir = o.work_dir + "/serve-store-" + std::to_string(index);
  std::filesystem::remove_all(st->dir);
  {
    Span s(tracer, "datagen.generate");
    const auto t0 = Clock::now();
    datagen::GeneratorConfig cfg =
        datagen::ScaledConfig(datagen::MillionScalePreset().config, kScale);
    cfg.seed += o.seed;
    const datagen::GeneratedBenchmark bench = datagen::BenchmarkGenerator().Generate(cfg);
    st->names.clear();
    for (kg::EntityId e = 0; e < bench.kg2.num_entities(); ++e) {
      st->names.push_back(bench.kg2.entity_name(e));
    }
    st->gen_s = SecondsSince(t0);
  }
  const int64_t rows = static_cast<int64_t>(st->names.size());
  Rng rng(o.seed * 7919 + 11);
  st->table = Tensor::RandomNormal({rows, kDim}, 1.0f, &rng);
  {
    Span s(tracer, "store.write");
    const auto t0 = Clock::now();
    SDEA_RETURN_IF_ERROR(store::QuantizedStore::Write(st->dir, st->names, st->table));
    st->write_s = SecondsSince(t0);
  }

  Rng qrng(o.seed ^ 0x5e12e);
  st->emb_pool.clear();
  for (int64_t i = 0; i < kEmbQueries; ++i) {
    st->emb_pool.push_back(EmbeddingQuery(st->table, rows, &qrng));
  }
  st->text_order.resize(static_cast<size_t>(rows));
  std::iota(st->text_order.begin(), st->text_order.end(), 0);
  qrng.Shuffle(&st->text_order);
  {
    Span s(tracer, "text.init");
    st->encoder = std::make_unique<TextEncoder>();
    SDEA_RETURN_IF_ERROR(st->encoder->Init(st->names, o.seed));
  }

  // Calibrate the abstain rule on held-out dev queries: each row holds the
  // top-10 quantized similarities plus a floor column standing for "the
  // gold row ranked below the top 10".
  {
    Span s(tracer, "serve.calibrate");
    SDEA_ASSIGN_OR_RETURN(store::QuantizedStore qs, store::QuantizedStore::Open(st->dir));
    Rng drng(o.seed ^ 0xde7);
    std::vector<Query> dev;
    for (int64_t i = 0; i < kDevQueries; ++i) dev.push_back(EmbeddingQuery(st->table, rows, &drng));
    constexpr int64_t kCols = 11;
    Tensor scores({kDevQueries, kCols});
    std::vector<int64_t> gold(static_cast<size_t>(kDevQueries));
    ParallelRun(kDevQueries, PoolThreads(), [&](int64_t i) {
      const auto nn = qs.NearestNeighbors(dev[static_cast<size_t>(i)].emb, kCols - 1);
      int64_t g = dev[static_cast<size_t>(i)].gold == eval::kGoldDangling
                      ? eval::kGoldDangling : kCols - 1;
      for (int64_t c = 0; c < kCols; ++c) {
        scores[i * kCols + c] = c < static_cast<int64_t>(nn.size())
                                    ? nn[static_cast<size_t>(c)].similarity : -2.0f;
        if (c < static_cast<int64_t>(nn.size()) &&
            nn[static_cast<size_t>(c)].id == dev[static_cast<size_t>(i)].gold) {
          g = c;
        }
      }
      gold[static_cast<size_t>(i)] = g;
    });
    eval::CalibrationOptions copts;
    copts.dangling_prior = kDanglingShare;
    st->threshold = eval::CalibrateAbstainThreshold(scores, gold, copts);
  }

  serve::ServerOptions options;
  options.abstain = st->threshold;
  options.cache.capacity = kCacheEntries;
  TextEncoder* enc = st->encoder.get();
  st->server = std::make_unique<serve::AlignmentServer>(
      options, [enc](const std::vector<std::string>& t) { return enc->Encode(t); });
  {
    Span s(tracer, "store.open");
    SDEA_RETURN_IF_ERROR(st->server->LoadQuantizedSnapshot(st->dir).status());
  }
  return Status::Ok();
}

}  // namespace

Outcome RunServe(const Options& o, bool traced, int setups, Tracer* tracer) {
  Outcome out;
  obs::SetEnabled(traced);
  tracer->set_enabled(traced);
  Span root(tracer, "serve_open");

  std::vector<double> setup_s;
  ServeState st;
  for (int i = 0; i < setups; ++i) {
    Span s(tracer, "setup");
    if (i > 0) {
      st.server.reset();
      std::filesystem::remove_all(st.dir);
    }
    const auto t0 = Clock::now();
    const Status status = Setup(o, i, tracer, &st);
    setup_s.push_back(SecondsSince(t0));
    if (!status.ok()) {
      out.Check(false, "serve: setup failed: " + status.ToString());
      return out;
    }
  }
  out.e2e["setup_s"] = {Median(setup_s), "s"};

  serve::AlignmentServer& server = *st.server;
  const int64_t rows = static_cast<int64_t>(st.names.size());
  // Keys [0, kEmbQueries) are embedding queries; kEmbQueries + r is the
  // text of Zipf rank r.
  QueryFn query = [&](int64_t key) {
    if (key < kEmbQueries) return st.emb_pool[static_cast<size_t>(key)];
    Query q;
    q.is_text = true;
    q.text = st.names[static_cast<size_t>(st.text_order[static_cast<size_t>(key - kEmbQueries)])];
    return q;
  };
  KeyFn pick = [rows](Rng* rng) {
    return rng->Uniform() < kTextShare
               ? kEmbQueries + static_cast<int64_t>(rng->Zipf(static_cast<uint64_t>(rows), kZipfS))
               : UniformKey(rng, kEmbQueries);
  };

  // Untimed warm-up: the text cache filled by the traffic's own text mix.
  {
    Span s(tracer, "warmup");
    Rng wrng(o.seed ^ 0x3a3a);
    std::vector<int64_t> warm(static_cast<size_t>(kWarmupTexts));
    for (int64_t& key : warm) {
      key = kEmbQueries + static_cast<int64_t>(wrng.Zipf(static_cast<uint64_t>(rows), kZipfS));
    }
    ParallelRun(kWarmupTexts, PoolThreads(), [&](int64_t i) {
      (void)server.AlignText(query(warm[static_cast<size_t>(i)]).text, kTopK);
    });
  }

  int64_t request_id = 0;
  const double c0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  RefreshResult refresh;
  std::vector<double> open_ms;
  {
    Span s(tracer, "refresh.phase");
    auto publish = [&](int64_t) -> uint64_t {
      Span s(tracer, "store.open");
      const auto p0 = Clock::now();
      auto v = server.LoadQuantizedSnapshot(st.dir);
      open_ms.push_back(SecondsSince(p0) * 1e3);
      return v.ok() ? *v : 0;
    };
    refresh = RunRefreshPhase(&server, publish, 10, 2000, 0.08 * o.seconds,
                              st.emb_pool[0].emb, query, pick, o.seed ^ 0x5ead,
                              100.0, tracer, &request_id);
  }
  const serve::StatsSnapshot stats0 = server.stats();
  const int64_t encoded0 = st.encoder->encoded(), encode_us0 = st.encoder->encode_us();
  LadderResult ladder;
  {
    // Low and mid load, then past capacity.
    Span s(tracer, "ladder");
    ladder = RunLadder(&server, query, pick, o.seed, {100.0, 200.0, 1200.0},
                       0.08 * o.seconds, 3, kLimitMs, kTopK, tracer, &request_id);
  }
  // run_s and cpu_s cover the fixed schedule only: the refresh phase and
  // the ladder, whose top rate is past capacity, so a slower server
  // drains longer. The capacity search sends a data-dependent number of
  // requests, so it runs after them.
  out.e2e["run_s"] = {SecondsSince(t0), "s"};
  out.e2e["cpu_s"] = {ProcessCpuSeconds() - c0, "s"};
  const serve::StatsSnapshot stats = StatsDelta(server.stats(), stats0);
  const int64_t encoded = st.encoder->encoded() - encoded0;
  const double encode_ms = (st.encoder->encode_us() - encode_us0) * 1e-3;
  CapacityResult capacity;
  {
    Span s(tracer, "capacity");
    capacity = FindMaxQps(&server, query, pick, o.seed, 100.0, 3200.0,
                          0.04 * o.seconds, kLimitMs, kTopK, tracer, &request_id);
  }
  AddRefreshMetrics(refresh, &out);
  AddLadderMetrics(ladder, &out);
  AddCapacityMetrics(capacity, &out);
  double lat_sum = 0.0;
  int64_t lat_n = 0;
  for (const LoopResult& l : ladder.loops) {
    for (const RequestTiming& t : l.timings) {
      if (t.ok) lat_sum += LatencyMs(t), ++lat_n;
    }
  }
  out.overhead_basis = lat_n > 0 ? lat_sum / lat_n : 0.0;

  // Verification: low-load answers through the server for every key the
  // timed loops used plus the whole embedding pool, then the same
  // snapshot queried directly with the abstain rule re-applied here.
  std::vector<const LoopResult*> loops;
  for (const LoopResult& l : ladder.loops) loops.push_back(&l);
  for (const LoopResult& l : capacity.loops) loops.push_back(&l);
  // Every publish reloads the same store, so the reader's answers are
  // checked too.
  loops.push_back(&refresh.reads);
  std::vector<int64_t> keys = DistinctKeys(loops);
  for (int64_t i = 0; i < kEmbQueries; ++i) keys.push_back(i);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::map<int64_t, Answer> verified;
  {
    Span s(tracer, "verify.server");
    verified = VerifyThroughServer(&server, keys, query, kTopK);
  }
  out.attempted += static_cast<int64_t>(keys.size());
  CheckTimedAnswers(loops, verified, "serve ladder", &out);

  const auto snap = server.snapshot();
  std::vector<Tensor> vectors(keys.size());
  ParallelRun(static_cast<int64_t>(keys.size()), PoolThreads(), [&](int64_t i) {
    const Query q = query(keys[static_cast<size_t>(i)]);
    vectors[static_cast<size_t>(i)] =
        q.is_text ? st.encoder->Encode({text::NormalizeText(q.text)}).Row(0) : q.emb;
  });
  std::vector<double> direct_ms;
  std::vector<Answer> direct;
  {
    Span s(tracer, "verify.direct");
    direct = DirectAnswers(*snap, vectors, st.threshold, kTopK, &direct_ms);
  }
  int64_t direct_mismatch = 0, correct = 0, matchable = 0;
  std::vector<int64_t> predicted, gold;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Answer& a = verified[keys[i]];
    if (!SameAnswer(a, direct[i])) ++direct_mismatch;
    if (keys[i] >= kEmbQueries) continue;
    const Query& q = st.emb_pool[static_cast<size_t>(keys[i])];
    const int64_t top = a.nn.empty() ? -1 : a.nn.front().first;
    predicted.push_back(top);
    gold.push_back(q.gold);
    if (q.gold >= 0) {
      ++matchable;
      correct += top == q.gold;
    }
  }
  out.Check(direct_mismatch == 0,
            "serve: " + std::to_string(direct_mismatch) +
                " verified answers differ from NearestNeighbors + abstain");
  out.Check(st.encoder->unknown() == 0, "serve: encoder saw a text outside the pool");
  out.e2e["hits1"] = {matchable > 0 ? static_cast<double>(correct) / matchable : 0.0, "ratio"};
  out.e2e["f1"] = {eval::EvaluateDecisions(predicted, gold).f1, "ratio"};
  out.e2e["rss_mb"] = {PeakRssMb(), "MB"};

  // The cache's hit rate in each ladder pass, warm from the start.
  std::string per_pass;
  std::vector<double> pass_hits;
  for (size_t p = 1; p < ladder.pass_stats.size(); ++p) {
    pass_hits.push_back(StatsDelta(ladder.pass_stats[p], ladder.pass_stats[p - 1]).cache_hit_rate());
    per_pass += (p > 1 ? " " : "") + std::to_string(pass_hits.back());
  }
  std::printf("info serve cache hit rate per ladder pass: %s\n", per_pass.c_str());

  if (traced) {
    std::vector<Tensor> emb_vectors;
    for (const Query& q : st.emb_pool) emb_vectors.push_back(q.emb);
    {
      Span s(tracer, "verify.bruteforce");
      out.layer["store.top1_agree"] = {Top1Agreement(*snap, st.table, emb_vectors), "ratio"};
    }
    AddServeLayerMetrics(stats, loops, &out);
    out.layer["serve.cache_hit_rate"] = {Median(pass_hits), "ratio"};
    out.layer["datagen.generate_s"] = {st.gen_s, "s"};
    out.layer["text.init_s"] = {tracer->TotalSeconds("text.init") / setups, "s"};
    out.layer["store.write_s"] = {st.write_s, "s"};
    out.layer["store.open_ms"] = {Median(open_ms), "ms"};
    const double query_p50 = NearestRank(direct_ms, 0.5).value;
    out.layer["store.query_ms.p50"] = {query_p50, "ms"};
    out.layer["store.query_ms.p99"] = {TailPercentile(direct_ms).value, "ms"};
    out.layer["encode.ms_per_text"] = {encoded > 0 ? encode_ms / encoded : 0.0, "ms"};
    // Service time at low load (the low rung's median latency) against
    // the store's own query time.
    std::vector<double> low_p50;
    for (const RungSummary& r : ladder.rungs[0]) low_p50.push_back(r.p50.value);
    out.layer["share.store_of_service"] = {query_p50 / std::max(Median(low_p50), 1e-9), "ratio"};
    std::vector<double> reads;
    for (int64_t key : DistinctKeys({&refresh.reads})) {
      const auto it = std::lower_bound(keys.begin(), keys.end(), key);
      reads.push_back(direct_ms[static_cast<size_t>(it - keys.begin())]);
    }
    out.layer["read.search_ms"] = {Median(reads), "ms"};
  }
  out.layer["gen.lag_ms.p99"] = {LagP99Ms(loops), "ms"};
  st.server.reset();
  std::filesystem::remove_all(st.dir);
  return out;
}

}  // namespace perfbench

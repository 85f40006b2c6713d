#include "core/text_alignment_encoder.h"

#include <algorithm>

#include "base/logging.h"
#include "base/strings.h"
#include "core/candidate_generator.h"
#include "eval/metrics.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "train/trainer.h"

namespace sdea::core {

Status TextAlignmentEncoder::Init(const std::vector<std::string>& texts1,
                                  const std::vector<std::string>& texts2,
                                  const TextEncoderConfig& config,
                                  const std::vector<std::string>& extra_corpus) {
  if (initialized_) {
    return Status::FailedPrecondition("encoder already initialized");
  }
  if (texts1.empty() || texts2.empty()) {
    return Status::InvalidArgument("empty entity text lists");
  }
  config_ = config;

  std::vector<std::string> corpus;
  corpus.reserve(texts1.size() + texts2.size() + extra_corpus.size());
  for (const auto& s : texts1) corpus.push_back(s);
  for (const auto& s : texts2) corpus.push_back(s);
  for (const auto& s : extra_corpus) corpus.push_back(s);
  SDEA_RETURN_IF_ERROR(tokenizer_.Train(corpus, config.tokenizer));

  config_.encoder.vocab_size = tokenizer_.vocab().size();
  Rng init_rng(config.seed);
  encoder_ = std::make_unique<nn::TransformerEncoder>("enc", config_.encoder,
                                                      &init_rng);
  output_mlp_ = std::make_unique<nn::Mlp>(
      "enc.mlp",
      std::vector<int64_t>{config_.encoder.dim, config_.out_dim},
      nn::Activation::kRelu, &init_rng);
  AddSubmodule(encoder_.get());
  AddSubmodule(output_mlp_.get());

  if (config.use_pretrained_embeddings) {
    text::PretrainConfig pt = config.pretrain;
    pt.dim = config_.encoder.dim;
    text::CooccurrencePretrainer pretrainer;
    auto table = pretrainer.Train(corpus, tokenizer_, pt);
    if (table.ok()) {
      encoder_->token_embedding()->table()->value = std::move(table).value();
    } else {
      SDEA_LOG_WARNING("token pre-training skipped: " +
                       table.status().ToString());
    }
  }

  token_ids_.resize(2);
  auto encode_all = [&](const std::vector<std::string>& texts,
                        std::vector<std::vector<int64_t>>* out) {
    out->reserve(texts.size());
    for (const std::string& s : texts) {
      out->push_back(tokenizer_.EncodeForModel(s, config_.encoder.max_len));
    }
  };
  encode_all(texts1, &token_ids_[0]);
  encode_all(texts2, &token_ids_[1]);

  initialized_ = true;
  return Status::Ok();
}

int64_t TextAlignmentEncoder::num_entities(int side) const {
  SDEA_CHECK(side == 1 || side == 2);
  return static_cast<int64_t>(
      token_ids_[static_cast<size_t>(side - 1)].size());
}

const std::vector<int64_t>& TextAlignmentEncoder::token_ids(
    int side, kg::EntityId e) const {
  SDEA_CHECK(side == 1 || side == 2);
  const auto& per_side = token_ids_[static_cast<size_t>(side - 1)];
  SDEA_CHECK(e >= 0 && static_cast<size_t>(e) < per_side.size());
  return per_side[static_cast<size_t>(e)];
}

NodeId TextAlignmentEncoder::EncodeEntity(Graph* g, int side, kg::EntityId e,
                                          bool training, Rng* rng) const {
  SDEA_CHECK(initialized_);
  const std::vector<int64_t>& ids = token_ids(side, e);
  if (training && config_.train_token_dropout > 0.0f && ids.size() >= 3) {
    SDEA_CHECK(rng != nullptr);
    // Drop non-[CLS] tokens so the margin cannot be satisfied by
    // memorizing entity-unique tokens of the seed pairs.
    std::vector<int64_t> kept;
    kept.push_back(ids[0]);
    for (size_t i = 1; i < ids.size(); ++i) {
      if (!rng->Bernoulli(config_.train_token_dropout)) kept.push_back(ids[i]);
    }
    if (kept.size() == 1) kept.push_back(ids[1]);
    NodeId pooled = (config_.pooling == SequencePooling::kCls)
                        ? encoder_->EncodeCls(g, kept, training, rng)
                        : encoder_->EncodeMean(g, kept, training, rng);
    return g->L2NormalizeRows(output_mlp_->Forward(g, pooled));
  }
  NodeId pooled = (config_.pooling == SequencePooling::kCls)
                      ? encoder_->EncodeCls(g, ids, training, rng)
                      : encoder_->EncodeMean(g, ids, training, rng);
  NodeId out = output_mlp_->Forward(g, pooled);
  return g->L2NormalizeRows(out);
}

Tensor TextAlignmentEncoder::ComputeAllEmbeddings(int side) const {
  SDEA_CHECK(initialized_);
  const int64_t n = num_entities(side);
  Tensor out({n, config_.out_dim});
  for (int64_t e = 0; e < n; ++e) {
    Graph g(GradMode::kNoGrad);
    NodeId node = EncodeEntity(&g, side, static_cast<kg::EntityId>(e),
                               /*training=*/false, /*rng=*/nullptr);
    out.SetRow(e, g.Value(node).Row(0));
  }
  return out;
}

void TextAlignmentEncoder::SelfSupervisedPretrain() {
  SDEA_CHECK(initialized_);
  if (config_.ssl_epochs <= 0) return;
  Rng rng(config_.seed ^ 0x55aa55aaULL);
  nn::Adam optimizer(Parameters(), config_.lr);

  // Pool of (side, entity) texts with at least two non-CLS tokens.
  std::vector<std::pair<int, kg::EntityId>> pool;
  for (int side = 1; side <= 2; ++side) {
    const int64_t n = num_entities(side);
    for (int64_t e = 0; e < n; ++e) {
      if (token_ids(side, static_cast<kg::EntityId>(e)).size() >= 3) {
        pool.emplace_back(side, static_cast<kg::EntityId>(e));
      }
    }
  }
  if (pool.size() < 4) return;

  // A "view" drops each non-CLS token with ssl_token_dropout (keeping at
  // least one token).
  auto make_view = [&](int side, kg::EntityId e) {
    const std::vector<int64_t>& ids = token_ids(side, e);
    std::vector<int64_t> view;
    view.push_back(ids[0]);  // [CLS]
    for (size_t i = 1; i < ids.size(); ++i) {
      if (!rng.Bernoulli(config_.ssl_token_dropout)) view.push_back(ids[i]);
    }
    if (view.size() == 1) view.push_back(ids[1]);
    return view;
  };
  auto encode_view = [&](Graph* g, const std::vector<int64_t>& ids) {
    NodeId pooled =
        (config_.pooling == SequencePooling::kCls)
            ? encoder_->EncodeCls(g, ids, /*training=*/true, &rng)
            : encoder_->EncodeMean(g, ids, /*training=*/true, &rng);
    return g->L2NormalizeRows(output_mlp_->Forward(g, pooled));
  };

  for (int64_t epoch = 0; epoch < config_.ssl_epochs; ++epoch) {
    rng.Shuffle(&pool);
    const size_t limit = std::min(
        pool.size(), static_cast<size_t>(config_.ssl_max_texts) * 2);
    for (size_t start = 0; start + 1 < limit;
         start += static_cast<size_t>(config_.ssl_batch)) {
      const size_t end =
          std::min(limit, start + static_cast<size_t>(config_.ssl_batch));
      if (end - start < 2) break;
      Graph g;
      NodeId anchors = -1, positives = -1, negatives = -1;
      for (size_t i = start; i < end; ++i) {
        const auto& [side, e] = pool[i];
        // Negative: the positive view of the batch neighbor (ring order).
        const size_t j = (i + 1 < end) ? i + 1 : start;
        const auto& [nside, ne] = pool[j];
        NodeId a = encode_view(&g, make_view(side, e));
        NodeId p = encode_view(&g, make_view(side, e));
        NodeId q = encode_view(&g, make_view(nside, ne));
        anchors = (anchors < 0) ? a : g.ConcatRows(anchors, a);
        positives = (positives < 0) ? p : g.ConcatRows(positives, p);
        negatives = (negatives < 0) ? q : g.ConcatRows(negatives, q);
      }
      NodeId loss = nn::MarginRankingLoss(&g, anchors, positives, negatives,
                                          config_.margin);
      optimizer.ZeroGrad();
      g.Backward(loss);
      optimizer.ClipGradNorm(config_.grad_clip);
      optimizer.Step();
    }
  }
}

namespace {

/// Algorithm 2 as a train::TrainTask. Example i of the Trainer's order maps
/// to seed pair i % |train| — the legacy loop replicated the pair list
/// rep-major (`negatives_per_pair` full copies back to back), so the
/// modulo reproduces the same example array. Candidates are refreshed from
/// scratch each epoch (lines 2-4) in OnEpochBegin, which draws no
/// randomness and therefore leaves the shared RNG stream identical to the
/// historical loop's. The embeddings EvalMetric computes at the end of
/// epoch t are the ones OnEpochBegin of epoch t+1 needs, so they are kept
/// and reused as long as no batch has stepped the optimizer and the Trainer
/// has loaded no parameters since.
class TextPretrainTask : public train::TrainTask {
 public:
  TextPretrainTask(TextAlignmentEncoder* encoder, nn::Adam* optimizer,
                   const kg::AlignmentSeeds* seeds, Rng* rng)
      : encoder_(encoder), optimizer_(optimizer), seeds_(seeds), rng_(rng) {}

  size_t num_examples() const override {
    return seeds_->train.size() *
           static_cast<size_t>(encoder_->config().negatives_per_pair);
  }
  Rng* rng() override { return rng_; }
  nn::Module* module() override { return encoder_; }
  nn::Optimizer* optimizer() override { return optimizer_; }

  // Algorithm 2 lines 2-4: fresh embeddings and candidates per epoch.
  void OnEpochBegin(int64_t /*epoch*/) override {
    RefreshEmbeddings();
    candidates_ = GenerateCandidates(embeddings_[0], embeddings_[1],
                                     encoder_->config().num_candidates);
  }

  void OnParametersLoaded() override { embeddings_current_ = false; }

  // Lines 5-10: margin-loss updates over the shuffled training pairs.
  float TrainBatch(const uint64_t* ids, size_t n) override {
    const TextEncoderConfig& config = encoder_->config();
    const size_t base_n = seeds_->train.size();
    Graph g;
    NodeId anchors = -1, positives = -1, negatives = -1;
    for (size_t i = 0; i < n; ++i) {
      const auto& [e1, e2] = seeds_->train[ids[i] % base_n];
      // Line 6: negative from the candidate set, != the positive.
      const auto& cand = candidates_[static_cast<size_t>(e1)];
      kg::EntityId neg = kg::kInvalidEntity;
      for (int attempt = 0; attempt < 8; ++attempt) {
        const kg::EntityId c =
            static_cast<kg::EntityId>(cand[rng_->UniformInt(cand.size())]);
        if (c != e2) {
          neg = c;
          break;
        }
      }
      if (neg == kg::kInvalidEntity) {
        neg = static_cast<kg::EntityId>(rng_->UniformInt(
            static_cast<uint64_t>(encoder_->num_entities(2))));
        if (neg == e2) {
          neg = static_cast<kg::EntityId>((neg + 1) %
                                          encoder_->num_entities(2));
        }
      }
      NodeId a = encoder_->EncodeEntity(&g, 1, e1, /*training=*/true, rng_);
      NodeId p = encoder_->EncodeEntity(&g, 2, e2, /*training=*/true, rng_);
      NodeId q = encoder_->EncodeEntity(&g, 2, neg, /*training=*/true, rng_);
      anchors = (anchors < 0) ? a : g.ConcatRows(anchors, a);
      positives = (positives < 0) ? p : g.ConcatRows(positives, p);
      negatives = (negatives < 0) ? q : g.ConcatRows(negatives, q);
    }
    NodeId loss = nn::MarginRankingLoss(&g, anchors, positives, negatives,
                                        config.margin);
    optimizer_->ZeroGrad();
    g.Backward(loss);
    optimizer_->ClipGradNorm(config.grad_clip);
    optimizer_->Step();
    embeddings_current_ = false;
    return g.Value(loss).data()[0];
  }

  // Line 11: validation Hits@1 (0 when there is no validation split, as in
  // the historical loop, which then effectively stops after `patience`).
  double EvalMetric() override {
    if (seeds_->valid.empty()) return 0.0;
    RefreshEmbeddings();
    const Tensor& va1 = embeddings_[0];
    const Tensor& va2 = embeddings_[1];
    Tensor valid_src({static_cast<int64_t>(seeds_->valid.size()),
                      encoder_->config().out_dim});
    std::vector<int64_t> gold;
    gold.reserve(seeds_->valid.size());
    for (size_t i = 0; i < seeds_->valid.size(); ++i) {
      valid_src.SetRow(static_cast<int64_t>(i),
                       va1.Row(seeds_->valid[i].first));
      gold.push_back(seeds_->valid[i].second);
    }
    return eval::EvaluateAlignment(valid_src, va2, gold).hits_at_1;
  }

 private:
  // Makes embeddings_ hold both sides' embeddings under the current
  // parameters, recomputing only when they may have changed.
  void RefreshEmbeddings() {
    if (embeddings_current_) return;
    embeddings_[0] = encoder_->ComputeAllEmbeddings(1);
    embeddings_[1] = encoder_->ComputeAllEmbeddings(2);
    embeddings_current_ = true;
  }

  TextAlignmentEncoder* encoder_;
  nn::Adam* optimizer_;
  const kg::AlignmentSeeds* seeds_;
  Rng* rng_;
  std::vector<std::vector<int64_t>> candidates_;
  Tensor embeddings_[2];
  bool embeddings_current_ = false;
};

}  // namespace

Result<TrainReport> TextAlignmentEncoder::Pretrain(
    const kg::AlignmentSeeds& seeds, train::CheckpointManager* checkpoint) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Init() before Pretrain()");
  }
  if (seeds.train.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  SelfSupervisedPretrain();
  Rng rng(config_.seed ^ 0xabcdef12345ULL);
  nn::Adam optimizer(Parameters(), config_.lr);

  TextPretrainTask task(this, &optimizer, &seeds, &rng);
  train::TrainerOptions options;
  options.max_epochs = config_.max_epochs;
  options.batch_size = config_.batch_size;
  options.shuffle = train::TrainerOptions::Shuffle::kFreshPerEpoch;
  options.evaluate = true;
  options.patience = config_.patience;
  options.restore_best = true;
  options.checkpoint = checkpoint;
  options.on_epoch = [](const train::EpochStats& es) {
    SDEA_LOG_DEBUG(StrFormat("text-encoder epoch %lld valid H@1=%.2f",
                             static_cast<long long>(es.epoch),
                             es.eval_metric));
    return true;
  };
  train::Trainer trainer(&task, options);
  auto stats = trainer.Run();
  if (!stats.ok()) return stats.status();

  TrainReport report;
  report.epochs_run = trainer.epochs_run();
  report.best_valid_hits1 = trainer.best_metric();
  report.valid_hits1_history = trainer.metric_history();
  return report;
}

}  // namespace sdea::core

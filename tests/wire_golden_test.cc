// Byte-identity goldens for every binary encoder: fixed inputs are encoded
// and the FNV-1a hash of each blob is compared against a value pinned from
// the encoders as they stood before the codecs moved onto base/wire.h. A
// codec change that moves a single byte of any on-disk format fails here,
// so a port can be shown to be byte-neutral for files already written.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/embedding_store.h"
#include "incr/update_log.h"
#include "kg/binary_io.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/serialization.h"
#include "store/format.h"
#include "store/quantizer.h"
#include "train/checkpoint.h"

namespace sdea {
namespace {

uint64_t Fnv1a(const std::string& blob) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : blob) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Size plus hash, so a mismatch message shows both at a glance.
::testing::AssertionResult MatchesGolden(const std::string& blob,
                                         size_t size, uint64_t hash) {
  if (blob.size() == size && Fnv1a(blob) == hash) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got size " << blob.size() << " hash " << Hex(Fnv1a(blob))
         << ", want size " << size << " hash " << Hex(hash);
}

// Deterministic filler that touches no RNG or libm path.
float Value(int64_t i) { return static_cast<float>(i % 13) * 0.125f - 0.75f; }

Tensor FixedRows(int64_t n, int64_t d) {
  Tensor t({n, d});
  for (int64_t i = 0; i < t.size(); ++i) t[i] = Value(i * 7 + 3);
  return t;
}

void FillParameters(nn::Module* module) {
  int64_t k = 0;
  for (Parameter* p : module->Parameters()) {
    for (int64_t i = 0; i < p->value.size(); ++i) p->value[i] = Value(k++);
  }
}

void FillGradients(nn::Module* module, int64_t salt) {
  int64_t k = salt;
  for (Parameter* p : module->Parameters()) {
    for (int64_t i = 0; i < p->grad.size(); ++i) p->grad[i] = Value(k++);
  }
}

TEST(WireGoldenTest, KgBinaryV2) {
  // Past one chunk on both sections, with a dictionary-encoded attribute
  // chunk (few distinct values) followed by a plain one (all distinct).
  kg::KnowledgeGraph g;
  for (int i = 0; i < 50; ++i) g.AddEntity("e" + std::to_string(i));
  for (int i = 0; i < 3; ++i) g.AddRelation("r" + std::to_string(i));
  for (int i = 0; i < 4; ++i) g.AddAttribute("a" + std::to_string(i));
  for (int i = 0; i < 5000; ++i) {
    g.AddRelationalTriple(i % 50, i % 3, (i * 7) % 50);
  }
  for (int i = 0; i < 2048; ++i) {
    g.AddAttributeTriple(i % 50, i % 4, "v" + std::to_string(i % 10));
  }
  for (int i = 0; i < 100; ++i) {
    g.AddAttributeTriple(i % 50, i % 4, "unique " + std::to_string(i));
  }
  EXPECT_TRUE(MatchesGolden(kg::EncodeBinary(g),
                            87150, 0x158351e419b4a08bULL));
}

TEST(WireGoldenTest, EmbeddingStore) {
  auto store = core::EmbeddingStore::Create({"alpha", "b", "gamma ray"},
                                            FixedRows(3, 5));
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(MatchesGolden(store->Encode(), 123, 0xda7300ada08e5b07ULL));
}

TEST(WireGoldenTest, ParametersAndOptimizerState) {
  Rng rng(1);
  nn::Mlp module("m", {3, 4, 2}, nn::Activation::kRelu, &rng);
  FillParameters(&module);
  EXPECT_TRUE(MatchesGolden(nn::SerializeParameters(&module),
                            288, 0xaade4628da23cae4ULL));

  nn::Adam adam(module.Parameters(), 0.01f);
  nn::Sgd sgd(module.Parameters(), 0.05f, /*momentum=*/0.9f);
  for (int step = 0; step < 2; ++step) {
    FillGradients(&module, step * 5);
    adam.Step();
    sgd.Step();
  }
  std::string adam_state, sgd_state;
  adam.SerializeState(&adam_state);
  sgd.SerializeState(&sgd_state);
  EXPECT_TRUE(MatchesGolden(adam_state, 392, 0xc4e916050e1d2c71ULL));
  EXPECT_TRUE(MatchesGolden(sgd_state, 192, 0x31d2147439d70b84ULL));
}

TEST(WireGoldenTest, TrainerCheckpoint) {
  train::TrainerCheckpoint ckpt;
  ckpt.next_epoch = 7;
  ckpt.epochs_run = 6;
  ckpt.best_metric = 0.8125;
  ckpt.since_best = 2;
  ckpt.metric_history = {0.25, 0.5, -0.75, 0.8125};
  ckpt.order = {4, 2, 0, 3, 1};
  ckpt.rng.s[0] = 0x0123456789abcdefULL;
  ckpt.rng.s[1] = 1;
  ckpt.rng.s[2] = ~uint64_t{0};
  ckpt.rng.s[3] = 42;
  ckpt.rng.has_cached_normal = true;
  ckpt.rng.cached_normal = -1.5;
  ckpt.params = std::string("param\x00blob", 10);
  ckpt.best_params = "best";
  ckpt.optimizer = "";
  ckpt.finished = true;
  EXPECT_TRUE(MatchesGolden(train::CheckpointManager::Encode(ckpt),
                            222, 0x82e7372eae3e267dULL));
}

TEST(WireGoldenTest, UpdateLog) {
  incr::UpdateBatch first;
  first.kg1.new_entities = {"x", ""};
  first.kg1.relational = {{"x", "likes", "y"}};
  first.kg2.attributes = {{"y2", "name", "Why Two"}, {"x2", "age", "42"}};
  incr::UpdateBatch second;
  second.kg2.relational = {{"a", "b", "c"}, {"c", "b", "a"}};
  EXPECT_TRUE(MatchesGolden(incr::EncodeUpdateLog({first, {}, second}), 330,
                            0xf325bd543e9d8831ULL));
}

TEST(WireGoldenTest, StoreCodebooksManifestAndShards) {
  const int64_t n = 11, d = 16;
  const Tensor rows = FixedRows(n, d);
  const store::Codebook int8 = store::Codebook::TrainInt8(rows);
  EXPECT_TRUE(MatchesGolden(int8.Encode(), 88, 0x3b423957c70f1b97ULL));

  store::PqOptions options;
  options.num_subspaces = 4;
  options.num_centroids = 4;
  auto pq = store::Codebook::TrainPq(rows, options);
  ASSERT_TRUE(pq.ok());
  EXPECT_TRUE(MatchesGolden(pq->Encode(), 296, 0x873d6463a24b3a92ULL));

  store::Manifest manifest;
  manifest.dim = d;
  manifest.total_rows = n;
  manifest.quantization = store::Quantization::kPq;
  manifest.store_full_precision = false;
  manifest.codebook = *pq;
  manifest.shards = {store::ShardInfo{7, 12288}, store::ShardInfo{4, 8192}};
  EXPECT_TRUE(MatchesGolden(store::EncodeManifest(manifest),
                            393, 0xfcb1c885b686476bULL));

  std::vector<std::string> names;
  for (int64_t i = 0; i < n; ++i) {
    names.push_back("entity " + std::to_string(i));
  }
  // One shard with the fp32 rerank region, one without.
  const std::vector<uint8_t> codes = int8.EncodeRows(rows.data(), n);
  EXPECT_TRUE(MatchesGolden(
      store::EncodeShard(int8, codes.data(), rows.data(), n, names, 0), 9081,
      0x9b72782d76681775ULL));
  const std::vector<uint8_t> pq_codes = pq->EncodeRows(rows.data(), 4);
  EXPECT_TRUE(MatchesGolden(
      store::EncodeShard(*pq, pq_codes.data(), nullptr, 4, names, 7), 4185,
      0x033f3c5be64f4c4dULL));
}

}  // namespace
}  // namespace sdea

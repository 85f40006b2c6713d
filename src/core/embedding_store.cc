#include "core/embedding_store.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "base/fileio.h"
#include "base/wire.h"
#include "tensor/kernels.h"
#include "tensor/topk.h"

namespace sdea::core {
namespace {

constexpr std::string_view kMagic = "SDEAEMB1";

}  // namespace

Result<EmbeddingStore> EmbeddingStore::Create(std::vector<std::string> names,
                                              Tensor embeddings) {
  if (embeddings.rank() != 2 ||
      embeddings.dim(0) != static_cast<int64_t>(names.size())) {
    return Status::InvalidArgument(
        "embeddings must be [names.size(), d]");
  }
  std::unordered_set<std::string> unique(names.begin(), names.end());
  if (unique.size() != names.size()) {
    return Status::InvalidArgument("entity names must be unique");
  }
  EmbeddingStore store;
  store.names_ = std::move(names);
  store.embeddings_ = std::move(embeddings);
  tmath::L2NormalizeRowsInPlace(&store.embeddings_);
  return store;
}

std::string EmbeddingStore::Encode() const {
  std::string out(kMagic);
  wire::Writer w(&out);
  w.U64(names_.size());
  w.U64(static_cast<uint64_t>(dim()));
  for (const std::string& name : names_) w.Str64(name);
  w.Floats(embeddings_.data(), static_cast<size_t>(embeddings_.size()));
  return out;
}

Status EmbeddingStore::Save(const std::string& path) const {
  // Atomic (temp + rename) so a crash mid-save can never leave a torn
  // artifact for a serving snapshot manager to pick up.
  return WriteStringToFileAtomic(path, Encode());
}

Result<EmbeddingStore> EmbeddingStore::Decode(const std::string& blob) {
  wire::Reader r(blob);
  if (!r.Magic(kMagic)) {
    return Status::InvalidArgument("not an SDEA embedding store");
  }
  // Each name costs >= 8 bytes, so Count bounds the reserve below. The
  // rows are checked as a [count, dim] float block: with count == 0 the
  // dim still has to fit a tensor shape.
  const uint64_t count = r.Count(8);
  const uint64_t dim = r.U64();
  std::vector<std::string> names;
  names.reserve(count);
  for (uint64_t i = 0; i < count && r.ok(); ++i) names.push_back(r.Str64());
  const uint64_t floats = r.Elements({count, dim});
  SDEA_RETURN_IF_ERROR(r.Check("embedding store"));
  Tensor embeddings({static_cast<int64_t>(count), static_cast<int64_t>(dim)});
  r.Floats(embeddings.data(), floats);
  SDEA_RETURN_IF_ERROR(r.End("embedding store"));
  return Create(std::move(names), std::move(embeddings));
}

Result<EmbeddingStore> EmbeddingStore::Load(const std::string& path) {
  SDEA_ASSIGN_OR_RETURN(std::string in, ReadFileToString(path));
  auto decoded = Decode(in);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  decoded.status().message() + ": " + path);
  }
  return decoded;
}

Result<int64_t> EmbeddingStore::Find(const std::string& name) const {
  // Linear scan is fine for the store sizes here; an id map would be easy
  // to add if Find became hot.
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int64_t>(i);
  }
  return Status::NotFound("entity not in store: " + name);
}

Result<Tensor> EmbeddingStore::Get(const std::string& name) const {
  SDEA_ASSIGN_OR_RETURN(int64_t id, Find(name));
  return embeddings_.Row(id);
}

std::vector<EmbeddingStore::Neighbor> EmbeddingStore::NearestNeighbors(
    const Tensor& query, int64_t k) const {
  // The dim contract comes before the trivial-answer returns: checking it
  // after them let a wrong-dim query against an empty store (or with
  // k <= 0) silently succeed with {}, hiding the caller bug — the same
  // guard serve/server.cc applies per request. A default-constructed store
  // (dim() == 0) has no contract to enforce.
  if (dim() > 0) SDEA_CHECK_EQ(query.size(), dim());
  if (size() == 0 || k <= 0) return {};
  Tensor q({1, dim()});
  q.SetRow(0, query);
  tmath::L2NormalizeRowsInPlace(&q);

  std::vector<int64_t> ids;
  std::vector<float> scores;
  if (index_ != nullptr) {
    ids = index_->Query(q.data(), dim(), k);
  } else {
    const int64_t n = size();
    scores.resize(static_cast<size_t>(n));
    tmath::kernels::Gemv(embeddings_.data(), n, dim(), q.data(),
                         scores.data());
    ids = tmath::TopK(scores.data(), n, k);
  }
  std::vector<Neighbor> out;
  out.reserve(ids.size());
  for (int64_t id : ids) {
    const float sim =
        scores.empty()
            ? tmath::kernels::ScoreDot(q.data(),
                                       embeddings_.data() + id * dim(), dim())
            : scores[static_cast<size_t>(id)];
    out.push_back(Neighbor{names_[static_cast<size_t>(id)], id, sim});
  }
  return out;
}

void EmbeddingStore::BuildIndex(const IvfOptions& options) {
  index_ = std::make_unique<IvfIndex>(embeddings_, options);
}

}  // namespace sdea::core

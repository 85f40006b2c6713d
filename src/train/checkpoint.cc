#include "train/checkpoint.h"

#include <string_view>

#include "base/fileio.h"
#include "base/wire.h"

namespace sdea::train {
namespace {

constexpr std::string_view kMagic = "SDEATRN1";

}  // namespace

CheckpointManager::CheckpointManager(std::string path)
    : path_(std::move(path)) {}

bool CheckpointManager::Exists() const { return FileExists(path_); }

std::string CheckpointManager::Encode(const TrainerCheckpoint& ckpt) {
  std::string out(kMagic);
  wire::Writer w(&out);
  w.U64(static_cast<uint64_t>(ckpt.next_epoch));
  w.U64(static_cast<uint64_t>(ckpt.epochs_run));
  w.F64(ckpt.best_metric);
  w.U64(static_cast<uint64_t>(ckpt.since_best));
  w.U64(ckpt.metric_history.size());
  for (double m : ckpt.metric_history) w.F64(m);
  w.U64(ckpt.order.size());
  for (uint64_t o : ckpt.order) w.U64(o);
  for (uint64_t s : ckpt.rng.s) w.U64(s);
  w.U64(ckpt.rng.has_cached_normal ? 1 : 0);
  w.F64(ckpt.rng.cached_normal);
  w.Str64(ckpt.params);
  w.Str64(ckpt.best_params);
  w.Str64(ckpt.optimizer);
  w.U64(ckpt.finished ? 1 : 0);
  return out;
}

Result<TrainerCheckpoint> CheckpointManager::Decode(const std::string& blob) {
  wire::Reader r(blob);
  if (!r.Magic(kMagic)) {
    return Status::InvalidArgument(
        "not a trainer checkpoint (bad magic header)");
  }
  TrainerCheckpoint ckpt;
  ckpt.next_epoch = r.I64();
  ckpt.epochs_run = r.I64();
  ckpt.best_metric = r.F64();
  ckpt.since_best = r.I64();
  // Both lists hold 8-byte elements; Count bounds them before the resize.
  ckpt.metric_history.resize(r.Count(8));
  for (double& m : ckpt.metric_history) m = r.F64();
  ckpt.order.resize(r.Count(8));
  for (uint64_t& o : ckpt.order) o = r.U64();
  for (uint64_t& s : ckpt.rng.s) s = r.U64();
  ckpt.rng.has_cached_normal = r.U64() != 0;
  ckpt.rng.cached_normal = r.F64();
  ckpt.params = r.Str64();
  ckpt.best_params = r.Str64();
  ckpt.optimizer = r.Str64();
  ckpt.finished = r.U64() != 0;
  SDEA_RETURN_IF_ERROR(r.End("trainer checkpoint"));
  return ckpt;
}

Status CheckpointManager::Save(const TrainerCheckpoint& ckpt) const {
  return WriteStringToFileAtomic(path_, Encode(ckpt));
}

Result<TrainerCheckpoint> CheckpointManager::Load() const {
  SDEA_ASSIGN_OR_RETURN(std::string blob, ReadFileToString(path_));
  auto decoded = Decode(blob);
  if (!decoded.ok()) {
    return Status::InvalidArgument(decoded.status().message() +
                                   " (checkpoint: " + path_ + ")");
  }
  return decoded;
}

}  // namespace sdea::train

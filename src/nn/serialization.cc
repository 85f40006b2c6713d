#include "nn/serialization.h"

#include <cstring>
#include <map>
#include <string_view>

#include "base/fileio.h"
#include "base/wire.h"

namespace sdea::nn {
namespace {

constexpr std::string_view kMagic = "SDEACKP1";

}  // namespace

std::string SerializeParameters(Module* module) {
  std::vector<Parameter*> params = module->Parameters();
  std::string out(kMagic);
  wire::Writer w(&out);
  w.U64(params.size());
  for (Parameter* p : params) {
    w.Str64(p->name);
    w.Shape(p->value.shape());
    w.Floats(p->value.data(), static_cast<size_t>(p->value.size()));
  }
  return out;
}

Status DeserializeParameters(Module* module, const std::string& blob) {
  wire::Reader r(blob);
  if (!r.Magic(kMagic)) {
    return Status::InvalidArgument("not an SDEA parameter checkpoint");
  }
  // Pass 1: parse every entry into (shape, data) keyed by name. Each entry
  // costs at least 16 bytes (name length + rank).
  struct Entry {
    std::vector<int64_t> shape;
    std::string_view data;
  };
  std::map<std::string, Entry> entries;
  const uint64_t count = r.Count(16);
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    std::string name = r.Str64();
    Entry e;
    uint64_t elements = 0;
    e.shape = r.Shape(&elements);
    e.data = r.Bytes(elements * sizeof(float));
    entries[std::move(name)] = std::move(e);
  }
  SDEA_RETURN_IF_ERROR(r.End("parameter checkpoint"));
  // Pass 2: validate every module parameter against the blob before any
  // copy, so a bad checkpoint cannot leave the module half-loaded.
  std::vector<Parameter*> params = module->Parameters();
  for (Parameter* p : params) {
    auto it = entries.find(p->name);
    if (it == entries.end()) {
      return Status::InvalidArgument(
          "checkpoint has no entry for parameter '" + p->name +
          "' (unknown or missing name); no parameters were modified");
    }
    if (it->second.shape != p->value.shape()) {
      return Status::InvalidArgument(
          "checkpoint shape mismatch for parameter '" + p->name +
          "'; no parameters were modified");
    }
  }
  // Pass 3: all-or-nothing copy.
  for (Parameter* p : params) {
    const std::string_view data = entries.find(p->name)->second.data;
    if (!data.empty()) std::memcpy(p->value.data(), data.data(), data.size());
  }
  return Status::Ok();
}

Status SaveCheckpoint(Module* module, const std::string& path) {
  return WriteStringToFileAtomic(path, SerializeParameters(module));
}

Status LoadCheckpoint(Module* module, const std::string& path) {
  SDEA_ASSIGN_OR_RETURN(std::string in, ReadFileToString(path));
  Status s = DeserializeParameters(module, in);
  if (!s.ok()) {
    return Status(s.code(), s.message() + " (checkpoint: " + path + ")");
  }
  return Status::Ok();
}

}  // namespace sdea::nn

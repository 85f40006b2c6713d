#include "nn/serialization.h"

#include <cstring>
#include <map>
#include <string_view>

#include "base/fileio.h"
#include "base/wire.h"

namespace sdea::nn {
namespace {

constexpr std::string_view kMagic = "SDEACKP1";

// Parses the blob and validates every module parameter against it, so a
// bad checkpoint is rejected before any copy. On success `data` holds each
// parameter's float bytes, in module->Parameters() order.
Status ParseAndValidate(Module* module, const std::string& blob,
                        std::vector<std::string_view>* data) {
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
  // Pass 2: validate every module parameter against the blob.
  for (Parameter* p : module->Parameters()) {
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
    if (data != nullptr) data->push_back(it->second.data);
  }
  return Status::Ok();
}

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
  std::vector<std::string_view> data;
  SDEA_RETURN_IF_ERROR(ParseAndValidate(module, blob, &data));
  // All-or-nothing copy: nothing is written unless every entry validated.
  std::vector<Parameter*> params = module->Parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    if (!data[i].empty()) {
      std::memcpy(params[i]->value.data(), data[i].data(), data[i].size());
    }
  }
  return Status::Ok();
}

Status CheckParameters(Module* module, const std::string& blob) {
  return ParseAndValidate(module, blob, nullptr);
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

#include "store/format.h"

#include <cstdio>
#include <limits>
#include <string_view>

#include "base/check.h"
#include "base/wire.h"

namespace sdea::store {
namespace {

// 9 bytes on purpose (the format name, verbatim); the shard magic keeps
// the house 8-byte width.
constexpr std::string_view kManifestMagic = "SDEASTOR1";
constexpr std::string_view kShardMagic = "SDEASHD1";

constexpr uint64_t kInt64Max =
    static_cast<uint64_t>(std::numeric_limits<int64_t>::max());

uint64_t AlignUp(uint64_t x, uint64_t a) { return (x + a - 1) / a * a; }

void PadTo(std::string* out, size_t target) {
  SDEA_CHECK(out->size() <= target);
  out->append(target - out->size(), '\0');
}

}  // namespace

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.sdea";
}

std::string ShardPath(const std::string& dir, int64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%05lld.sdea",
                static_cast<long long>(index));
  return dir + "/" + buf;
}

std::string EncodeManifest(const Manifest& manifest) {
  std::string out(kManifestMagic);
  wire::Writer w(&out);
  w.U64(1);  // Format version.
  w.U64(static_cast<uint64_t>(manifest.dim));
  w.U64(static_cast<uint64_t>(manifest.total_rows));
  w.U64(static_cast<uint64_t>(manifest.quantization));
  w.U64(manifest.store_full_precision ? 1 : 0);
  w.Str64(manifest.codebook.Encode());
  w.U64(manifest.shards.size());
  for (const ShardInfo& shard : manifest.shards) {
    w.U64(static_cast<uint64_t>(shard.rows));
    w.U64(static_cast<uint64_t>(shard.file_bytes));
  }
  return out;
}

Result<Manifest> DecodeManifest(const std::string& blob) {
  wire::Reader r(blob);
  if (!r.Magic(kManifestMagic)) {
    return Status::InvalidArgument("not an SDEA store manifest");
  }
  const uint64_t version = r.U64();
  Manifest manifest;
  manifest.dim = r.I64();
  manifest.total_rows = r.I64();
  const uint64_t kind = r.U64();
  const uint64_t sfp = r.U64();
  SDEA_RETURN_IF_ERROR(r.Check("store manifest header"));
  if (version != 1) {
    return Status::InvalidArgument("unsupported store manifest version");
  }
  if (kind != static_cast<uint64_t>(Quantization::kInt8) &&
      kind != static_cast<uint64_t>(Quantization::kPq)) {
    return Status::InvalidArgument("unknown store quantization kind");
  }
  if (sfp > 1) {
    return Status::InvalidArgument("store manifest boolean out of range");
  }
  manifest.quantization = static_cast<Quantization>(kind);
  manifest.store_full_precision = sfp == 1;
  const std::string codebook = r.Str64();
  SDEA_RETURN_IF_ERROR(r.Check("store manifest codebook"));
  SDEA_ASSIGN_OR_RETURN(manifest.codebook, Codebook::Decode(codebook));
  if (manifest.codebook.kind() != manifest.quantization ||
      manifest.codebook.dim() != manifest.dim) {
    return Status::InvalidArgument(
        "store manifest codebook disagrees with manifest header");
  }
  // Each shard entry is two u64s.
  manifest.shards.resize(r.Count(16));
  uint64_t rows_sum = 0;
  for (ShardInfo& shard : manifest.shards) {
    const uint64_t rows = r.U64();
    const uint64_t file_bytes = r.U64();
    if (rows > kInt64Max - rows_sum ||
        file_bytes < static_cast<uint64_t>(kShardHeaderBytes) ||
        file_bytes > kInt64Max) {
      return Status::InvalidArgument("store manifest shard sizes overflow");
    }
    rows_sum += rows;
    shard = ShardInfo{static_cast<int64_t>(rows),
                      static_cast<int64_t>(file_bytes)};
  }
  SDEA_RETURN_IF_ERROR(r.End("store manifest shard table"));
  if (rows_sum != static_cast<uint64_t>(manifest.total_rows)) {
    return Status::InvalidArgument(
        "store manifest shard rows do not sum to total_rows");
  }
  return manifest;
}

std::string EncodeShard(const Codebook& codebook, const uint8_t* codes,
                        const float* fp32, int64_t rows,
                        const std::vector<std::string>& names,
                        int64_t names_begin) {
  SDEA_CHECK_GE(rows, 0);
  SDEA_CHECK_GE(names_begin, 0);
  SDEA_CHECK(names_begin + rows <= static_cast<int64_t>(names.size()));
  const uint64_t dim = static_cast<uint64_t>(codebook.dim());
  const uint64_t cbpr = static_cast<uint64_t>(codebook.code_bytes());
  const uint64_t urows = static_cast<uint64_t>(rows);

  ShardHeader h;
  h.rows = rows;
  h.dim = static_cast<int64_t>(dim);
  h.quantization = static_cast<uint64_t>(codebook.kind());
  h.code_bytes_per_row = static_cast<int64_t>(cbpr);
  h.codes_offset = static_cast<uint64_t>(kShardHeaderBytes);
  const uint64_t codes_end = h.codes_offset + urows * cbpr;
  uint64_t end = codes_end;
  if (fp32 != nullptr) {
    h.fp32_offset = AlignUp(codes_end, kShardPageBytes);
    end = h.fp32_offset + urows * dim * sizeof(float);
  }
  h.names_index_offset = AlignUp(end, 8);
  h.names_blob_offset = h.names_index_offset + (urows + 1) * 8;
  h.names_blob_bytes = 0;
  for (int64_t i = 0; i < rows; ++i) {
    h.names_blob_bytes += names[static_cast<size_t>(names_begin + i)].size();
  }
  h.file_bytes = h.names_blob_offset + h.names_blob_bytes;

  std::string out;
  out.reserve(static_cast<size_t>(h.file_bytes));
  out.append(kShardMagic);
  wire::Writer w(&out);
  for (uint64_t field :
       {static_cast<uint64_t>(h.rows), static_cast<uint64_t>(h.dim),
        h.quantization, static_cast<uint64_t>(h.code_bytes_per_row),
        h.codes_offset, h.fp32_offset, h.names_index_offset,
        h.names_blob_offset, h.names_blob_bytes, h.file_bytes}) {
    w.U64(field);
  }
  PadTo(&out, static_cast<size_t>(h.codes_offset));
  w.Bytes({reinterpret_cast<const char*>(codes),
           static_cast<size_t>(urows * cbpr)});
  if (fp32 != nullptr) {
    PadTo(&out, static_cast<size_t>(h.fp32_offset));
    w.Floats(fp32, static_cast<size_t>(urows * dim));
  }
  PadTo(&out, static_cast<size_t>(h.names_index_offset));
  uint64_t offset = 0;
  w.U64(offset);
  for (int64_t i = 0; i < rows; ++i) {
    offset += names[static_cast<size_t>(names_begin + i)].size();
    w.U64(offset);
  }
  for (int64_t i = 0; i < rows; ++i) {
    w.Bytes(names[static_cast<size_t>(names_begin + i)]);
  }
  SDEA_CHECK_EQ(static_cast<uint64_t>(out.size()), h.file_bytes);
  return out;
}

Result<ShardHeader> DecodeShardHeader(const uint8_t* data, size_t size) {
  const std::string_view image(reinterpret_cast<const char*>(data), size);
  wire::Reader r(image);
  if (size < static_cast<size_t>(kShardHeaderBytes) ||
      !r.Magic(kShardMagic)) {
    return Status::InvalidArgument("not an SDEA store shard");
  }
  uint64_t f[10];
  for (uint64_t& field : f) field = r.U64();
  const uint64_t rows = f[0], dim = f[1], kind = f[2], cbpr = f[3];
  const uint64_t codes_off = f[4], fp32_off = f[5], index_off = f[6];
  const uint64_t blob_off = f[7], blob_bytes = f[8], file_bytes = f[9];
  const uint64_t usize = static_cast<uint64_t>(size);

  // The image must be exactly the advertised length: an mmap'd shard that
  // was truncated (or grew) after the manifest was written is corrupt,
  // and every bound below leans on size == file_bytes.
  if (file_bytes != usize) {
    return Status::InvalidArgument("store shard size mismatch");
  }
  if (kind != static_cast<uint64_t>(Quantization::kInt8) &&
      kind != static_cast<uint64_t>(Quantization::kPq)) {
    return Status::InvalidArgument("unknown store shard quantization kind");
  }
  const uint64_t header = static_cast<uint64_t>(kShardHeaderBytes);
  // Coarse bounds first so every count fits int64 and rows + 1 cannot
  // wrap: the name index alone needs 8 bytes per row, so rows > size/8
  // is unconditionally corrupt, and dim/cbpr size at least one byte per
  // unit somewhere in the file when rows > 0 (rows == 0 would otherwise
  // leave them unbounded).
  if (rows > usize / 8 || dim > usize || cbpr > usize) {
    return Status::InvalidArgument("store shard counts overflow");
  }
  // Each region check guards its multiplication by bounding the
  // per-row size against the bytes remaining past the region's start.
  if (codes_off < header || codes_off > usize ||
      (rows > 0 && cbpr > (usize - codes_off) / rows)) {
    return Status::InvalidArgument("store shard code region out of bounds");
  }
  if (fp32_off != 0 &&
      (fp32_off < header || fp32_off > usize ||
       (rows > 0 && dim > (usize - fp32_off) / sizeof(float) / rows))) {
    return Status::InvalidArgument("store shard fp32 region out of bounds");
  }
  if (index_off < header || index_off > usize ||
      rows + 1 > (usize - index_off) / 8) {
    return Status::InvalidArgument("store shard name index out of bounds");
  }
  if (blob_off > usize || blob_bytes > usize - blob_off) {
    return Status::InvalidArgument("store shard name blob out of bounds");
  }
  // The name index must start at 0, be monotone, and end exactly at the
  // blob size — after this, name lookups are branch-free substrings.
  wire::Reader index(image.substr(index_off, (rows + 1) * 8));
  uint64_t prev = index.U64();
  if (prev != 0) {
    return Status::InvalidArgument("store shard name index must start at 0");
  }
  for (uint64_t i = 1; i <= rows; ++i) {
    const uint64_t entry = index.U64();
    if (entry < prev || entry > blob_bytes) {
      return Status::InvalidArgument("store shard name index not monotone");
    }
    prev = entry;
  }
  if (prev != blob_bytes) {
    return Status::InvalidArgument(
        "store shard name index does not cover the blob");
  }

  ShardHeader h;
  h.rows = static_cast<int64_t>(rows);
  h.dim = static_cast<int64_t>(dim);
  h.quantization = kind;
  h.code_bytes_per_row = static_cast<int64_t>(cbpr);
  h.codes_offset = codes_off;
  h.fp32_offset = fp32_off;
  h.names_index_offset = index_off;
  h.names_blob_offset = blob_off;
  h.names_blob_bytes = blob_bytes;
  h.file_bytes = file_bytes;
  return h;
}

}  // namespace sdea::store

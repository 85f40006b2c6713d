#ifndef SDEA_BASE_WIRE_H_
#define SDEA_BASE_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace sdea::wire {

// The one byte codec behind every binary format in the repo: SDEAKGB1/2,
// SDEACKP1, SDEATRN1, SDEAEMB1, SDEASTOR1 (with its SDEACBK1 codebook and
// SDEASHD1 shards) and SDEAINC1. Integers and floats are stored
// little-endian at fixed width, strings as a u32 or u64 byte length then
// the bytes.
//
// Reader owns every bounds rule of the DESIGN.md §8 decoder contract, so
// a format's decoder only states its layout:
//  * lengths are checked budget-form (`len > remaining()`, never the
//    wrappable `pos + len > size`);
//  * Count() bounds an on-disk count by the bytes left before any loop
//    or allocation runs, so an all-ones count fails in O(1);
//  * I64(), Elements() and Shape() refuse values that would turn negative
//    as int64; Elements() and Shape() also refuse a float block that
//    could not fit in what is left, without overflowing the product;
//  * End() refuses trailing bytes.
// The first failed read fails the reader for good. Every later read
// returns zero or empty and Count() returns 0, so no loop runs on a bad
// count and a decoder checks the reader once per section (Check), not
// after each field.

static_assert(std::endian::native == std::endian::little,
              "the wire formats are little-endian and copied as-is");

/// Unaligned u64 load from raw bytes, for mmap'd shard regions whose
/// offsets need not be 8-aligned (memcpy compiles to a plain load).
inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Highest tensor rank Shape() accepts.
constexpr uint64_t kMaxRank = 8;

/// Appends fixed-width values to a byte string it does not own.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Fixed(v); }
  void U64(uint64_t v) { Fixed(v); }
  void F64(double v) { Fixed(v); }
  void Bytes(std::string_view bytes) { out_->append(bytes); }
  void Str32(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s);
  }
  void Str64(std::string_view s) {
    U64(s.size());
    Bytes(s);
  }
  void Floats(const float* data, size_t n) {
    // An empty tensor's data() may be null; append forbids that.
    if (n > 0) out_->append(reinterpret_cast<const char*>(data), n * 4);
  }
  /// A tensor record's header: u64 rank, then one u64 per dim. The
  /// record's floats follow through Floats().
  void Shape(const std::vector<int64_t>& shape) {
    U64(shape.size());
    for (int64_t d : shape) U64(static_cast<uint64_t>(d));
  }

 private:
  template <typename T>
  void Fixed(T v) {
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out_->append(buf, sizeof(T));
  }

  std::string* out_;
};

/// Bounded reads over bytes it does not own: a std::string, a slice of
/// one, or an mmap'd region.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  /// Bytes not yet consumed; 0 once the reader has failed.
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

  /// Consumes the next magic.size() bytes; fails unless they equal it.
  bool Magic(std::string_view magic) {
    if (Bytes(magic.size()) != magic) Fail();
    return ok_;
  }

  uint8_t U8() { return Fixed<uint8_t>(); }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint64_t U64() { return Fixed<uint64_t>(); }
  double F64() { return Fixed<double>(); }

  /// A u64 that must fit int64 (a larger one would read back negative).
  int64_t I64() {
    const uint64_t v = U64();
    return v <= kInt64Max ? static_cast<int64_t>(v) : (Fail(), 0);
  }

  /// A u64 (Count) or u32 (Count32) entry count, checked against the
  /// bytes left: every entry needs at least `min_entry_bytes`, so a count
  /// above remaining() / min_entry_bytes fails the reader in O(1).
  uint64_t Count(size_t min_entry_bytes) {
    return Bound(U64(), min_entry_bytes);
  }
  uint32_t Count32(size_t min_entry_bytes) {
    return static_cast<uint32_t>(Bound(U32(), min_entry_bytes));
  }

  /// The next `n` bytes as a view into the underlying data.
  std::string_view Bytes(uint64_t n) {
    if (n > remaining()) {
      Fail();
      return {};
    }
    const std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }
  std::string Str32() { return std::string(Bytes(U32())); }
  std::string Str64() { return std::string(Bytes(U64())); }

  /// Copies the next `n` floats into `out` (which may be null if n == 0).
  void Floats(float* out, uint64_t n) {
    if (n > remaining() / 4) {
      Fail();
      return;
    }
    if (n > 0) std::memcpy(out, data_.data() + pos_, n * 4);
    pos_ += n * 4;
  }

  /// The element count of a float block with these dims, e.g. {rows,
  /// cols}. Fails, returning 0, on a dim above INT64_MAX (it would be a
  /// negative tensor dim) or when the block could not fit in the bytes
  /// left; the product is bounded one dim at a time, so it cannot
  /// overflow.
  uint64_t Elements(std::initializer_list<uint64_t> dims) {
    uint64_t product = 1;
    for (uint64_t dim : dims) Accumulate(dim, &product);
    return ok_ ? product : 0;
  }

  /// Reads a tensor record header written by Writer::Shape: a rank of at
  /// most kMaxRank, then dims under the Elements() rule against the
  /// floats that follow. `*elements` gets the count (0 on failure).
  std::vector<int64_t> Shape(uint64_t* elements) {
    const uint64_t rank = U64();
    if (rank > kMaxRank) Fail();
    std::vector<int64_t> shape;
    uint64_t product = 1;
    for (uint64_t i = 0; i < rank && ok_; ++i) {
      const uint64_t dim = U64();
      Accumulate(dim, &product);
      shape.push_back(static_cast<int64_t>(dim));
    }
    *elements = ok_ ? product : 0;
    return ok_ ? shape : std::vector<int64_t>();
  }

  /// InvalidArgument naming `what` once the reader has failed; the
  /// once-per-section check a decoder makes.
  Status Check(std::string_view what) const {
    if (ok_) return Status::Ok();
    return Status::InvalidArgument(std::string(what) +
                                   ": truncated or corrupt");
  }

  /// Check() for the last section, which also fails the reader when
  /// bytes are left: no writer emits trailing bytes, so any are
  /// corruption.
  Status End(std::string_view what) {
    if (remaining() != 0) {
      Fail();
      return Status::InvalidArgument(std::string(what) + ": trailing bytes");
    }
    return Check(what);
  }

 private:
  static constexpr uint64_t kInt64Max =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max());

  void Fail() { ok_ = false; }

  template <typename T>
  T Fixed() {
    T v{};
    if (remaining() < sizeof(T)) {
      Fail();
      return v;
    }
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void Accumulate(uint64_t dim, uint64_t* product) {
    if (dim > kInt64Max || (dim != 0 && *product > remaining() / 4 / dim)) {
      Fail();
    } else {
      *product *= dim;
    }
  }

  uint64_t Bound(uint64_t count, size_t min_entry_bytes) {
    if (count > remaining() / min_entry_bytes) Fail();
    return ok_ ? count : 0;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace sdea::wire

#endif  // SDEA_BASE_WIRE_H_

// bfly::scope::ByteLog — the tracer's append-only byte log, and the
// length-coded integers its records are made of.
//
// A record is a few header bytes holding a 3-bit length code per value,
// then the values' significant bytes, little-endian.  A value is written
// branch-free: one unaligned 8-byte store, then the cursor advances by the
// length its code names.  The log grows a fixed-size chunk at a time, so
// an append never copies what is already logged, and each chunk has
// kSlack bytes past its nominal end, so a record (and the 8-byte store of
// its last value) never straddles two chunks and is written without
// bounds checks.  Nothing is allocated before the first record.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace bfly::scope {

/// Length code of `v`: its significant bytes (0 for 0), with 7 rounded up
/// to 8 so that the code fits 3 bits.
inline unsigned len_code(std::uint64_t v) {
  const unsigned bytes = (71u - static_cast<unsigned>(std::countl_zero(v))) / 8;
  return bytes - (bytes >> 3);
}

/// Bytes a value of length code `c` takes in the log.
inline std::size_t len_bytes(unsigned c) { return c + (c == 7); }

/// Store `v` at `p` (all 8 bytes, unaligned) and return the cursor past
/// the len_bytes(c) of them that count.
inline std::uint8_t* put_value(std::uint8_t* p, std::uint64_t v, unsigned c) {
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
  return p + len_bytes(c);
}

/// Read a value of length code `c` at `p` and move `p` past it.
inline std::uint64_t get_value(const std::uint8_t*& p, unsigned c) {
  const std::size_t n = len_bytes(c);
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < n; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  } else {
    std::memcpy(&v, p, n);
  }
  p += n;
  return v;
}

/// Zigzag: small negative and positive deltas both get short codes.
inline std::uint64_t zigzag(std::int64_t d) {
  return (static_cast<std::uint64_t>(d) << 1) ^
         static_cast<std::uint64_t>(d >> 63);
}
inline std::int64_t unzigzag(std::uint64_t z) {
  return static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
}

class ByteLog {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;
  /// Room past a chunk's nominal end: the most one record may write.
  static constexpr std::size_t kSlack = 64;

  /// Where the next record goes; it may write up to kSlack bytes from
  /// there.  The writer hands its end back with commit().
  std::uint8_t* record() {
    if (next_ >= end_) grow();
    return next_;
  }
  void commit(std::uint8_t* end) { next_ = end; }

  /// Reads the records back in order, with the writer's protocol: record()
  /// is the next record's first byte (nullptr past the last one), and
  /// commit() hands back its end.
  class Cursor {
   public:
    explicit Cursor(const ByteLog& log) : log_(log) {}
    const std::uint8_t* record() {
      while (next_ == end_) {
        if (chunk_ == log_.chunks_.size()) return nullptr;
        const std::uint8_t* c = log_.chunks_[chunk_].get();
        next_ = c;
        end_ = chunk_ < log_.used_.size() ? c + log_.used_[chunk_]
                                          : log_.next_;
        ++chunk_;
      }
      return next_;
    }
    void commit(const std::uint8_t* end) { next_ = end; }

   private:
    const ByteLog& log_;
    std::size_t chunk_ = 0;
    const std::uint8_t* next_ = nullptr;
    const std::uint8_t* end_ = nullptr;
  };

 private:
  void grow() {
    if (!chunks_.empty())
      used_.push_back(static_cast<std::size_t>(next_ - chunks_.back().get()));
    chunks_.push_back(
        std::make_unique_for_overwrite<std::uint8_t[]>(kChunkBytes + kSlack));
    next_ = chunks_.back().get();
    end_ = next_ + kChunkBytes;
  }

  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::vector<std::size_t> used_;  // bytes written, per full chunk
  std::uint8_t* next_ = nullptr;   // first free byte of the last chunk
  std::uint8_t* end_ = nullptr;    // nominal end of the last chunk
};

}  // namespace bfly::scope

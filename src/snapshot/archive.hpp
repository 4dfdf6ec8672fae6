// Versioned binary archive for simulation snapshots.
//
// The writer produces a canonical little-endian byte stream: every value
// is prefixed with a one-byte type tag, and logical groups are wrapped in
// named sections. The same stream feeds two consumers:
//   * checkpoint files (save/restore of a World mid-run) — the writer only
//     appends bytes, and the file writer hashes the finished payload once;
//   * the FNV-1a state digest (World::digest) — a digest-only writer hashes
//     every byte as it goes and never allocates the buffer.
// Canonical encoding is what makes digests comparable across runs,
// platforms and processes.
//
// The reader validates everything: type tags, section names, bounds, and
// (for files) the magic/version header and the trailing payload digest.
// Any mismatch throws PreconditionError (util/error.hpp) — a truncated or
// corrupted checkpoint is never silently accepted.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

namespace dtn::snapshot {

/// Archive file magic ("DTNS") and the current format version. Bump the
/// version on any layout change; readers reject archives whose version
/// they do not understand (no silent best-effort decoding).
inline constexpr std::uint32_t kArchiveMagic = 0x534E5444u;  // "DTNS" LE
// v6: element-framed pipeline policy state — CompositePolicy brackets
// each element's bytes with its name in a "pipeline-policy" section
// (src/pipeline/composite_policy.cpp). Only checkpoints of worlds built
// from a Pipeline.spec with a non-canonical element pair carry the
// section, but any v6 layout needs a version old readers refuse rather
// than misparse. (v5: message-arena sizing hints; v4: fault-injection
// state — FaultPlan plus the fault counters in SimStats; v3:
// event-driven core kinetic state; v2: priority cache.)
// Since v4, readers accept any older version: each load_state consults
// ArchiveReader::version() and skips sections the writer predates.
inline constexpr std::uint32_t kArchiveVersion = 6;
inline constexpr std::uint32_t kArchiveMinVersion = 1;

/// Streaming 64-bit FNV-1a.
class Fnv1a {
 public:
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// One-byte type tags; every primitive write carries one so a reader that
/// drifts out of sync fails immediately instead of misinterpreting bytes.
enum class Tag : std::uint8_t {
  kU8 = 0x01,
  kU32 = 0x02,
  kU64 = 0x03,
  kI64 = 0x04,
  kF64 = 0x05,
  kBool = 0x06,
  kString = 0x07,
  kSectionBegin = 0x08,
  kSectionEnd = 0x09,
};

class ArchiveWriter {
 public:
  enum class Mode {
    kBuffer,      ///< accumulate bytes (checkpoints)
    kDigestOnly,  ///< hash only — nothing is stored (World::digest)
  };

  explicit ArchiveWriter(Mode mode = Mode::kBuffer) : mode_(mode) {}

  /// True in digest mode. Derived-but-deterministic state (memo caches)
  /// is written only to buffered archives, so digests compare the
  /// semantic state alone.
  bool digest_only() const { return mode_ == Mode::kDigestOnly; }

  void u8(std::uint8_t v) { tagged<1>(Tag::kU8, v); }
  void u32(std::uint32_t v) { tagged<4>(Tag::kU32, v); }
  void u64(std::uint64_t v) { tagged<8>(Tag::kU64, v); }
  void i64(std::int64_t v) {
    tagged<8>(Tag::kI64, static_cast<std::uint64_t>(v));
  }
  void f64(double v) { tagged<8>(Tag::kF64, std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { tagged<1>(Tag::kBool, v ? 1 : 0); }
  void str(const std::string& v);

  /// Named section bracket; sections must nest and balance.
  void begin_section(const std::string& name);
  void end_section();

  /// Starts a new archive in the same writer (mode kept). The buffer keeps
  /// its capacity, so successive saves of one world are not regrown from
  /// empty.
  void clear() {
    hash_ = Fnv1a{};
    buf_.clear();
    written_ = 0;
    depth_ = 0;
  }

  /// Serialized payload (buffer mode only; sections must be balanced).
  const std::vector<std::uint8_t>& bytes() const;
  /// FNV-1a over every byte written so far. Digest mode keeps it as a
  /// running hash; buffer mode hashes bytes() once per call.
  std::uint64_t digest() const;
  std::size_t bytes_written() const {
    return mode_ == Mode::kBuffer ? buf_.size() : written_;
  }

 private:
  /// Appends a tag byte and the low `Width` bytes of `v` little-endian:
  /// in place at the end of the buffer, or staged for the running hash.
  /// The width is a template argument so each append inlines to a few
  /// stores.
  template <std::size_t Width>
  void tagged(Tag t, std::uint64_t v) {
    if (mode_ == Mode::kBuffer) {
      encode<Width>(grow(1 + Width), t, v);
    } else {
      std::uint8_t staged[1 + Width];
      encode<Width>(staged, t, v);
      hash_.update(staged, 1 + Width);
      written_ += 1 + Width;
    }
  }
  template <std::size_t Width>
  static void encode(std::uint8_t* p, Tag t, std::uint64_t v) {
    p[0] = static_cast<std::uint8_t>(t);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p + 1, &v, Width);
    } else {
      for (std::size_t i = 0; i < Width; ++i) {
        p[1 + i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
  }
  void raw(const void* p, std::size_t n) {
    if (mode_ == Mode::kBuffer) {
      if (n != 0) std::memcpy(grow(n), p, n);
    } else {
      hash_.update(p, n);
      written_ += n;
    }
  }
  /// Extends the buffer by exactly `n` bytes and returns where they start.
  /// Capacity doubles ahead of need, but only written bytes are ever
  /// initialized, so untouched capacity costs no resident memory.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = buf_.size();
    if (buf_.capacity() - at < n) {
      buf_.reserve(std::max(2 * buf_.capacity(), at + n));
    }
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  Mode mode_;
  Fnv1a hash_;               ///< digest mode only
  std::vector<std::uint8_t> buf_;
  std::size_t written_ = 0;  ///< digest mode only
  int depth_ = 0;
};

/// Bytes one tagged value takes in the stream: its tag byte and payload.
/// Readers use them to bound element counts (ArchiveReader::count).
inline constexpr std::size_t kTaggedU8Bytes = 2;  ///< also bool
inline constexpr std::size_t kTaggedU32Bytes = 5;
inline constexpr std::size_t kTagged64Bytes = 9;  ///< u64, i64 and f64

class ArchiveReader {
 public:
  /// `version` is the format version the bytes were written under; it
  /// defaults to current for in-memory round trips (writer and reader in
  /// the same process). read_archive_file stamps the file header version.
  explicit ArchiveReader(std::vector<std::uint8_t> bytes,
                         std::uint32_t version = kArchiveVersion)
      : buf_(std::move(bytes)), version_(version) {}

  /// Format version of the stream; load_state implementations gate
  /// sections introduced after it.
  std::uint32_t version() const { return version_; }

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  /// Reads an element count (a u64) that is about to size an allocation,
  /// and checks it against the bytes left: that many elements of at least
  /// `min_element_bytes` each must fit. Throws PreconditionError if not,
  /// so a corrupt count fails as a typed error instead of allocating.
  std::size_t count(std::size_t min_element_bytes);

  /// Consumes a section begin marker and checks the recorded name.
  void begin_section(const std::string& name);
  void end_section();

  bool at_end() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void raw(void* p, std::size_t n);
  void expect(Tag t);
  std::uint64_t le64();

  std::vector<std::uint8_t> buf_;
  std::uint32_t version_ = kArchiveVersion;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// Writes the archive as a framed file: magic, version, payload length,
/// payload, FNV-1a digest trailer (hashed here, in one pass over the
/// writer's buffer, which is written without a copy). The write goes
/// through a temporary file + rename so a crash mid-write never leaves a
/// half checkpoint at `path`; if the write or the rename fails, the
/// temporary file is removed before the PreconditionError is thrown. The
/// writer must be in buffer mode with balanced sections, and must not be
/// modified until the call returns (run_scenario calls it on a helper
/// thread).
void write_archive_file(const std::string& path, const ArchiveWriter& w);

/// Reads and validates a framed archive file (magic, version, length,
/// digest) in one read sized from the file length; the payload moves into
/// the reader. Throws PreconditionError on any corruption.
ArchiveReader read_archive_file(const std::string& path);

// --- shared composite helpers ---

void write_running_stats(ArchiveWriter& w, const RunningStats& s);
void read_running_stats(ArchiveReader& r, RunningStats& s);

void write_rng(ArchiveWriter& w, const Rng& rng);
void read_rng(ArchiveReader& r, Rng& rng);

}  // namespace dtn::snapshot

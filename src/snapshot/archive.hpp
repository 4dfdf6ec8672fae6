// Versioned binary archive for simulation snapshots.
//
// The writer produces a canonical little-endian byte stream: every value
// is prefixed with a one-byte type tag, and logical groups are wrapped in
// named sections. The same stream feeds two consumers:
//   * checkpoint files (save/restore of a World mid-run), and
//   * the FNV-1a state digest (World::digest) — the writer hashes every
//     byte as it goes, so a digest-only pass never allocates the buffer.
// Canonical encoding is what makes digests comparable across runs,
// platforms and processes.
//
// The reader validates everything: type tags, section names, bounds, and
// (for files) the magic/version header and the trailing payload digest.
// Any mismatch throws PreconditionError (util/error.hpp) — a truncated or
// corrupted checkpoint is never silently accepted.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
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
    kBuffer,      ///< accumulate bytes (checkpoints) and hash
    kDigestOnly,  ///< hash only — nothing is stored (World::digest)
  };

  explicit ArchiveWriter(Mode mode = Mode::kBuffer) : mode_(mode) {}

  /// True in digest mode. Derived-but-deterministic state (memo caches)
  /// is written only to buffered archives, so digests compare the
  /// semantic state alone.
  bool digest_only() const { return mode_ == Mode::kDigestOnly; }

  void u8(std::uint8_t v) { tagged(Tag::kU8, v, 1); }
  void u32(std::uint32_t v) { tagged(Tag::kU32, v, 4); }
  void u64(std::uint64_t v) { tagged(Tag::kU64, v, 8); }
  void i64(std::int64_t v) {
    tagged(Tag::kI64, static_cast<std::uint64_t>(v), 8);
  }
  void f64(double v) { tagged(Tag::kF64, std::bit_cast<std::uint64_t>(v), 8); }
  void boolean(bool v) { tagged(Tag::kBool, v ? 1 : 0, 1); }
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
  /// FNV-1a over every byte written so far (both modes) — in buffer mode
  /// exactly the hash of bytes(), which write_archive_file uses as the
  /// file trailer.
  std::uint64_t digest() const { return hash_.digest(); }
  std::size_t bytes_written() const { return written_; }

 private:
  /// Appends a tag byte and the low `width` bytes of `v` little-endian,
  /// as one piece.
  void tagged(Tag t, std::uint64_t v, std::size_t width) {
    std::uint8_t b[9];
    b[0] = static_cast<std::uint8_t>(t);
    for (std::size_t i = 0; i < width; ++i) {
      b[1 + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    raw(b, 1 + width);
  }
  void raw(const void* p, std::size_t n) {
    hash_.update(p, n);
    written_ += n;
    if (mode_ == Mode::kBuffer) {
      const auto* b = static_cast<const std::uint8_t*>(p);
      buf_.insert(buf_.end(), b, b + n);
    }
  }

  Mode mode_;
  Fnv1a hash_;
  std::vector<std::uint8_t> buf_;
  std::size_t written_ = 0;
  int depth_ = 0;
};

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
/// payload, FNV-1a digest trailer (the writer's own digest(), so the
/// payload is neither hashed again nor copied). The write goes through a
/// temporary file + rename so a crash mid-write never leaves a half
/// checkpoint at `path`. The writer must be in buffer mode with balanced
/// sections.
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

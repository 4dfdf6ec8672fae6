#include "src/snapshot/archive.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/util/error.hpp"

namespace dtn::snapshot {

void ArchiveWriter::str(const std::string& v) {
  tagged<8>(Tag::kString, v.size());
  raw(v.data(), v.size());
}

void ArchiveWriter::begin_section(const std::string& name) {
  tagged<8>(Tag::kSectionBegin, name.size());
  raw(name.data(), name.size());
  ++depth_;
}

void ArchiveWriter::end_section() {
  DTN_REQUIRE(depth_ > 0, "archive: end_section without matching begin");
  tagged<0>(Tag::kSectionEnd, 0);
  --depth_;
}

const std::vector<std::uint8_t>& ArchiveWriter::bytes() const {
  DTN_REQUIRE(mode_ == Mode::kBuffer, "archive: digest-only writer has no bytes");
  DTN_REQUIRE(depth_ == 0, "archive: unbalanced sections");
  return buf_;
}

std::uint64_t ArchiveWriter::digest() const {
  if (mode_ == Mode::kDigestOnly) return hash_.digest();
  Fnv1a h;
  h.update(buf_.data(), buf_.size());
  return h.digest();
}

void ArchiveReader::raw(void* p, std::size_t n) {
  DTN_REQUIRE(n <= buf_.size() - pos_, "archive: read past end (truncated?)");
  std::memcpy(p, buf_.data() + pos_, n);
  pos_ += n;
}

void ArchiveReader::expect(Tag t) {
  std::uint8_t b = 0;
  raw(&b, 1);
  DTN_REQUIRE(b == static_cast<std::uint8_t>(t),
              "archive: type tag mismatch (corrupt or out-of-sync stream)");
}

std::uint64_t ArchiveReader::le64() {
  std::uint8_t b[8];
  raw(b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::uint8_t ArchiveReader::u8() {
  expect(Tag::kU8);
  std::uint8_t v = 0;
  raw(&v, 1);
  return v;
}

std::uint32_t ArchiveReader::u32() {
  expect(Tag::kU32);
  std::uint8_t b[4];
  raw(b, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t ArchiveReader::u64() {
  expect(Tag::kU64);
  return le64();
}

std::int64_t ArchiveReader::i64() {
  expect(Tag::kI64);
  return static_cast<std::int64_t>(le64());
}

double ArchiveReader::f64() {
  expect(Tag::kF64);
  const std::uint64_t bits = le64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool ArchiveReader::boolean() {
  expect(Tag::kBool);
  std::uint8_t b = 0;
  raw(&b, 1);
  DTN_REQUIRE(b <= 1, "archive: malformed bool");
  return b != 0;
}

std::string ArchiveReader::str() {
  expect(Tag::kString);
  const std::uint64_t n = le64();
  DTN_REQUIRE(n <= remaining(), "archive: string length past end");
  std::string v(n, '\0');
  raw(v.data(), n);
  return v;
}

std::size_t ArchiveReader::count(std::size_t min_element_bytes) {
  DTN_REQUIRE(min_element_bytes > 0, "archive: element size must be positive");
  const std::uint64_t n = u64();
  DTN_REQUIRE(n <= remaining() / min_element_bytes,
              "archive: element count past end");
  return static_cast<std::size_t>(n);
}

void ArchiveReader::begin_section(const std::string& name) {
  expect(Tag::kSectionBegin);
  const std::uint64_t n = le64();
  DTN_REQUIRE(n <= remaining(), "archive: section name past end");
  std::string got(n, '\0');
  raw(got.data(), n);
  DTN_REQUIRE(got == name, "archive: expected section '" + name +
                               "', found '" + got + "'");
  ++depth_;
}

void ArchiveReader::end_section() {
  DTN_REQUIRE(depth_ > 0, "archive: end_section without matching begin");
  expect(Tag::kSectionEnd);
  --depth_;
}

namespace {

constexpr std::size_t kHeaderBytes = 16;   // magic, version, payload length
constexpr std::size_t kTrailerBytes = 8;   // FNV-1a of the payload

void put_le(std::uint8_t* out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t take_le(const std::uint8_t* in, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

void write_archive_file(const std::string& path, const ArchiveWriter& w) {
  const std::vector<std::uint8_t>& payload = w.bytes();
  std::uint8_t head[kHeaderBytes];
  put_le(head, kArchiveMagic, 4);
  put_le(head + 4, kArchiveVersion, 4);
  put_le(head + 8, payload.size(), 8);
  std::uint8_t trailer[kTrailerBytes];
  put_le(trailer, w.digest(), 8);

  const std::string tmp = path + ".tmp";
  bool written = false;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    DTN_REQUIRE(os.good(), "archive: cannot open for writing: " + tmp);
    os.write(reinterpret_cast<const char*>(head), sizeof head);
    os.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
    os.write(reinterpret_cast<const char*>(trailer), sizeof trailer);
    os.close();
    written = !os.fail();
  }
  const bool renamed = written && std::rename(tmp.c_str(), path.c_str()) == 0;
  // A failed write (a full disk) or rename must not leave the partial
  // temporary file behind.
  if (!renamed) std::remove(tmp.c_str());
  DTN_REQUIRE(written, "archive: write failed: " + tmp);
  DTN_REQUIRE(renamed, "archive: rename failed: " + path);
}

ArchiveReader read_archive_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  DTN_REQUIRE(is.good(), "archive: cannot open: " + path);
  const std::streamoff size = is.tellg();
  DTN_REQUIRE(size >= static_cast<std::streamoff>(kHeaderBytes + kTrailerBytes),
              "archive: file too short: " + path);
  is.seekg(0);
  std::uint8_t head[kHeaderBytes] = {};
  is.read(reinterpret_cast<char*>(head), sizeof head);
  DTN_REQUIRE(take_le(head, 4) == kArchiveMagic,
              "archive: bad magic (not a snapshot file): " + path);
  const auto version = static_cast<std::uint32_t>(take_le(head + 4, 4));
  DTN_REQUIRE(version >= kArchiveMinVersion && version <= kArchiveVersion,
              "archive: unsupported version " + std::to_string(version) +
                  " (supported: " + std::to_string(kArchiveMinVersion) +
                  ".." + std::to_string(kArchiveVersion) + ")");
  const std::uint64_t n = take_le(head + 8, 8);
  DTN_REQUIRE(n == static_cast<std::uint64_t>(size) - kHeaderBytes - kTrailerBytes,
              "archive: payload length mismatch (truncated?): " + path);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(n));
  std::uint8_t trailer[kTrailerBytes] = {};
  is.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(n));
  is.read(reinterpret_cast<char*>(trailer), sizeof trailer);
  DTN_REQUIRE(is.good(), "archive: read failed (truncated?): " + path);
  Fnv1a h;
  h.update(payload.data(), payload.size());
  DTN_REQUIRE(h.digest() == take_le(trailer, 8),
              "archive: digest mismatch (corrupt): " + path);
  return ArchiveReader(std::move(payload), version);
}

void write_running_stats(ArchiveWriter& w, const RunningStats& s) {
  const RunningStats::State st = s.export_state();
  w.u64(st.n);
  w.f64(st.mean);
  w.f64(st.m2);
  w.f64(st.min);
  w.f64(st.max);
}

void read_running_stats(ArchiveReader& r, RunningStats& s) {
  RunningStats::State st;
  st.n = r.u64();
  st.mean = r.f64();
  st.m2 = r.f64();
  st.min = r.f64();
  st.max = r.f64();
  s.import_state(st);
}

void write_rng(ArchiveWriter& w, const Rng& rng) {
  for (std::uint64_t word : rng.state()) w.u64(word);
}

void read_rng(ArchiveReader& r, Rng& rng) {
  std::array<std::uint64_t, 4> s{};
  for (auto& word : s) word = r.u64();
  rng.set_state(s);
}

}  // namespace dtn::snapshot

// Binary (de)serialization primitives.
//
// Format: little-endian host layout, length-prefixed blocks, a magic tag
// and version per file. Intended for checkpointing trained pipelines
// (train on a gateway, ship the state blob to the device); not an
// interchange format.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::io {

inline constexpr std::uint32_t kMagic = 0x45444446;  // "EDDF".
/// v2: PipelineConfig gained the NumericsTier field (the tiered numerics
/// contract). v1 blobs are rejected — the tier is part of the drift-decision
/// contract, so silently defaulting it on restore would be wrong.
/// v2 also carries the projection fingerprint after the projection block
/// (verified on load against the rebuilt projection's digest), so restored
/// streams rejoin their save-side coalescing groups.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Streaming writer; check ok() once at the end.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void write_u32(std::uint32_t value);
  void write_u64(std::uint64_t value);
  void write_f64(double value);
  void write_string(const std::string& value);
  void write_doubles(std::span<const double> values);
  void write_sizes(std::span<const std::size_t> values);
  void write_matrix(linalg::ConstColumnBlock m);

  /// Writes the file header (magic + format version + a section tag).
  void write_header(const std::string& section);

  /// Appends the FNV-1a checksum of every byte written so far. Call last;
  /// Reader::verify_checksum() checks it.
  void write_checksum();

  bool ok() const { return static_cast<bool>(out_); }

 private:
  void put(const void* src, std::size_t bytes);

  std::ostream& out_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
};

/// Streaming reader; every read reports success, and failures latch.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  bool read_u32(std::uint32_t& value);
  bool read_u64(std::uint64_t& value);
  bool read_f64(double& value);
  bool read_string(std::string& value);
  bool read_doubles(std::vector<double>& values);
  bool read_sizes(std::vector<std::size_t>& values);
  bool read_matrix(linalg::Matrix& m);

  /// Verifies magic, format version, and the expected section tag.
  bool read_header(const std::string& expected_section);

  /// Reads the trailing checksum and compares it against the hash of every
  /// byte consumed so far. Call last.
  bool verify_checksum();

  bool ok() const { return ok_ && static_cast<bool>(in_); }

 private:
  bool take(void* dst, std::size_t bytes);

  /// Bytes left in the stream (SIZE_MAX for non-seekable streams). Length
  /// prefixes are validated against this before any allocation, so a
  /// corrupted count can never trigger a huge resize.
  std::size_t remaining_bytes();

  std::istream& in_;
  bool ok_ = true;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
};

}  // namespace edgedrift::io

#include "edgedrift/io/binary.hpp"

#include <limits>

namespace edgedrift::io {
namespace {

// Guards length-prefixed reads against absurd sizes from corrupt files.
constexpr std::uint64_t kMaxBlockElements = 1ull << 32;

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

void Writer::put(const void* src, std::size_t bytes) {
  hash_ = fnv1a(hash_, src, bytes);
  out_.write(static_cast<const char*>(src),
             static_cast<std::streamsize>(bytes));
}

void Writer::write_u32(std::uint32_t value) { put(&value, sizeof(value)); }

void Writer::write_u64(std::uint64_t value) { put(&value, sizeof(value)); }

void Writer::write_f64(double value) { put(&value, sizeof(value)); }

void Writer::write_string(const std::string& value) {
  write_u64(value.size());
  put(value.data(), value.size());
}

void Writer::write_doubles(std::span<const double> values) {
  write_u64(values.size());
  put(values.data(), values.size() * sizeof(double));
}

void Writer::write_sizes(std::span<const std::size_t> values) {
  write_u64(values.size());
  for (const std::size_t v : values) write_u64(v);
}

void Writer::write_matrix(linalg::ConstColumnBlock m) {
  write_u64(m.rows());
  write_u64(m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    put(m.row(i).data(), m.cols() * sizeof(double));
  }
}

void Writer::write_header(const std::string& section) {
  write_u32(kMagic);
  write_u32(kFormatVersion);
  write_string(section);
}

void Writer::write_checksum() {
  // Written raw (not folded into the hash itself).
  const std::uint64_t checksum = hash_;
  out_.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
}

std::size_t Reader::remaining_bytes() {
  const auto current = in_.tellg();
  if (current < 0) return static_cast<std::size_t>(-1);  // Non-seekable.
  in_.seekg(0, std::ios::end);
  const auto end = in_.tellg();
  in_.seekg(current);
  if (end < current) return 0;
  return static_cast<std::size_t>(end - current);
}

bool Reader::take(void* dst, std::size_t bytes) {
  if (!ok_) return false;
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  ok_ = static_cast<bool>(in_);
  if (ok_) hash_ = fnv1a(hash_, dst, bytes);
  return ok_;
}

bool Reader::read_u32(std::uint32_t& value) {
  return take(&value, sizeof(value));
}

bool Reader::read_u64(std::uint64_t& value) {
  return take(&value, sizeof(value));
}

bool Reader::read_f64(double& value) { return take(&value, sizeof(value)); }

bool Reader::read_string(std::string& value) {
  std::uint64_t size = 0;
  if (!read_u64(size) || size > kMaxBlockElements ||
      size > remaining_bytes()) {
    return ok_ = false;
  }
  value.resize(size);
  return take(value.data(), size);
}

bool Reader::read_doubles(std::vector<double>& values) {
  std::uint64_t size = 0;
  if (!read_u64(size) || size > kMaxBlockElements ||
      size * sizeof(double) > remaining_bytes()) {
    return ok_ = false;
  }
  values.resize(size);
  return take(values.data(), size * sizeof(double));
}

bool Reader::read_sizes(std::vector<std::size_t>& values) {
  std::uint64_t size = 0;
  if (!read_u64(size) || size > kMaxBlockElements ||
      size * sizeof(std::uint64_t) > remaining_bytes()) {
    return ok_ = false;
  }
  values.resize(size);
  for (auto& v : values) {
    std::uint64_t raw = 0;
    if (!read_u64(raw)) return false;
    v = static_cast<std::size_t>(raw);
  }
  return true;
}

bool Reader::read_matrix(linalg::Matrix& m) {
  std::uint64_t rows = 0, cols = 0;
  if (!read_u64(rows) || !read_u64(cols)) return false;
  if (rows > kMaxBlockElements || cols > kMaxBlockElements ||
      (cols != 0 && rows > kMaxBlockElements / cols) ||
      rows * cols * sizeof(double) > remaining_bytes()) {
    return ok_ = false;
  }
  m.resize_zero(rows, cols);
  return take(m.data(), m.size() * sizeof(double));
}

bool Reader::read_header(const std::string& expected_section) {
  std::uint32_t magic = 0, version = 0;
  std::string section;
  if (!read_u32(magic) || !read_u32(version) || !read_string(section)) {
    return false;
  }
  if (magic != kMagic || version != kFormatVersion ||
      section != expected_section) {
    ok_ = false;
  }
  return ok_;
}

bool Reader::verify_checksum() {
  const std::uint64_t computed = hash_;  // Before consuming the trailer.
  std::uint64_t stored = 0;
  in_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in_) return ok_ = false;
  if (stored != computed) ok_ = false;
  return ok_;
}

}  // namespace edgedrift::io

// Byte-level serialization primitives for the checkpoint subsystem.
//
// A Writer appends fixed-width little-endian scalars, length-prefixed
// strings and vectors to a growable byte buffer; a Reader consumes the same
// stream and throws on any overrun, so a torn file can never be silently
// mis-decoded into a plausible-looking state. Floats round-trip through
// their bit patterns — serialize(x) then deserialize is bit-exact, which is
// what the resume-determinism contract requires.
//
// Deliberately header-only and dependency-free (std only): obs/ and amp/
// include this to encode their own state without a link-time cycle onto
// the ckpt library proper.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace hg::ckpt {

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over a byte range. Table built
// once per process; the checksum is the torn/corrupted-write detector in
// the on-disk snapshot format.
inline std::uint32_t crc32(const void* data, std::size_t n,
                           std::uint32_t seed = 0) {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const std::string& s) {
  return crc32(s.data(), s.size());
}

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f32(float v) {
    std::uint32_t b32 = 0;
    std::memcpy(&b32, &v, sizeof(b32));
    u32(b32);
  }
  void f64(double v) {
    std::uint64_t b64 = 0;
    std::memcpy(&b64, &v, sizeof(b64));
    u64(b64);
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  void floats(const std::vector<float>& v) {
    u64(v.size());
    for (float x : v) f32(x);
  }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }

  const std::string& data() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class Reader {
 public:
  explicit Reader(const std::string& buf) : p_(buf.data()), n_(buf.size()) {}
  Reader(const char* p, std::size_t n) : p_(p), n_(n) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(p_[off_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p_[off_++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[off_++]))
           << (8 * i);
    }
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b() { return u8() != 0; }
  float f32() {
    const std::uint32_t b32 = u32();
    float v = 0;
    std::memcpy(&v, &b32, sizeof(v));
    return v;
  }
  double f64() {
    const std::uint64_t b64 = u64();
    double v = 0;
    std::memcpy(&v, &b64, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(p_ + off_, static_cast<std::size_t>(n));
    off_ += static_cast<std::size_t>(n);
    return s;
  }
  std::vector<float> floats() {
    const std::uint64_t n = u64();
    need(n, 4);
    std::vector<float> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = f32();
    return v;
  }
  std::vector<double> doubles() {
    const std::uint64_t n = u64();
    need(n, 8);
    std::vector<double> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = f64();
    return v;
  }

  std::size_t remaining() const noexcept { return n_ - off_; }
  bool done() const noexcept { return off_ == n_; }

 private:
  // Throws unless `n` items of `width` bytes remain. Dividing the remaining
  // bytes (instead of multiplying n) keeps a corrupt huge length from
  // wrapping around into a small one.
  void need(std::uint64_t n, std::uint64_t width = 1) const {
    if (n > (n_ - off_) / width) {
      throw std::runtime_error(
          "ckpt: truncated stream (need " + std::to_string(n) +
          (width == 1 ? "" : " x " + std::to_string(width)) + " bytes, have " +
          std::to_string(n_ - off_) + ")");
    }
  }
  const char* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

}  // namespace hg::ckpt

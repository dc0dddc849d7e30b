// Byte-level serialization for the checkpoint subsystem.
//
// One archive call per direction: `w(a, b, ...)` appends each value to a
// Writer's buffer and `r(a, b, ...)` decodes each value from a Reader, both
// by the value's static type:
//
//   int -> i32, std::uint64_t -> u64, float -> f32, double -> f64,
//   bool -> one byte (all little-endian; floats travel as their bit
//   patterns, so a round trip is bit-exact);
//   std::string, std::vector, std::deque -> u64 count, then the elements;
//   std::map -> u64 count, then key/value pairs in key order;
//   a fixed array -> its elements, no count;
//   any other type -> its `template <class Ar> void fields(Ar& ar)`, which
//   lists the persisted members once, as both encoder and decoder.
//
// The Reader throws on any overrun, so a torn file can never be silently
// mis-decoded into a plausible-looking state. It never sizes a container
// from a count read off the stream before the elements decode: a sequence
// of arithmetic elements first checks its count against the bytes left,
// and any other container grows one decoded element at a time, so a
// corrupt count runs out of bytes instead of reaching the allocator.
//
// Deliberately header-only and dependency-free (std only): obs/ includes
// this to encode the registry and tracer images without a link-time cycle
// onto the ckpt library proper.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
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

namespace detail {
template <class T>
inline constexpr bool kSequence = false;
template <class T, class A>
inline constexpr bool kSequence<std::vector<T, A>> = true;
template <class T, class A>
inline constexpr bool kSequence<std::deque<T, A>> = true;
template <class T>
inline constexpr bool kMap = false;
template <class K, class V, class C, class A>
inline constexpr bool kMap<std::map<K, V, C, A>> = true;
}  // namespace detail

class Writer {
 public:
  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }

  // Raw fixed-width words, for framing outside the archive (file headers).
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

  const std::string& data() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      u8(v ? 1 : 0);
    } else if constexpr (std::is_same_v<T, int>) {
      u32(static_cast<std::uint32_t>(v));
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      u64(v);
    } else if constexpr (std::is_same_v<T, float>) {
      u32(std::bit_cast<std::uint32_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      u64(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      u64(v.size());
      buf_.append(v);
    } else if constexpr (detail::kSequence<T>) {
      u64(v.size());
      for (const auto& e : v) put(e);
    } else if constexpr (detail::kMap<T>) {
      u64(v.size());
      for (const auto& [key, val] : v) {
        put(key);
        put(val);
      }
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& e : v) put(e);
    } else {
      static_assert(std::is_class_v<T>, "ckpt: no archive width for type");
      const_cast<T&>(v).fields(*this);  // fields() only reads on this path
    }
  }

  std::string buf_;
};

class Reader {
 public:
  explicit Reader(const std::string& buf) : p_(buf.data()), n_(buf.size()) {}
  Reader(const char* p, std::size_t n) : p_(p), n_(n) {}

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }

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

  bool done() const noexcept { return off_ == n_; }

 private:
  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = u8() != 0;
    } else if constexpr (std::is_same_v<T, int>) {
      v = static_cast<int>(u32());
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      v = u64();
    } else if constexpr (std::is_same_v<T, float>) {
      v = std::bit_cast<float>(u32());
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(u64());
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::uint64_t n = u64();
      need(n);
      v.assign(p_ + off_, static_cast<std::size_t>(n));
      off_ += static_cast<std::size_t>(n);
    } else if constexpr (detail::kSequence<T>) {
      using E = typename T::value_type;
      const std::uint64_t n = u64();
      v.clear();
      if constexpr (std::is_arithmetic_v<E>) {
        // Every supported arithmetic type's archive width is its size.
        need(n, sizeof(E));
        if constexpr (requires { v.reserve(0); }) {
          v.reserve(static_cast<std::size_t>(n));
        }
      }
      for (std::uint64_t i = 0; i < n; ++i) get(v.emplace_back());
    } else if constexpr (detail::kMap<T>) {
      const std::uint64_t n = u64();
      v.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        typename T::key_type key{};
        get(key);
        get(v[std::move(key)]);
      }
    } else if constexpr (std::is_array_v<T>) {
      for (auto& e : v) get(e);
    } else {
      static_assert(std::is_class_v<T>, "ckpt: no archive width for type");
      v.fields(*this);
    }
  }

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

// Minimal, explicit binary serialization used for every wire message and
// stable-storage record.
//
// Writers append little-endian fixed-width integers, length-prefixed strings
// and vectors. Readers validate bounds and throw SerdeError on malformed
// input (storage corruption is a bug in this codebase, not an expected
// condition, but we still fail loudly rather than reading garbage).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace tordb {

class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

using Bytes = std::vector<std::uint8_t>;

/// A slice of a shared, immutable buffer. Retaining one costs a reference,
/// not a copy: the gc's ORDERED wire is shared by every member of a group,
/// and an action's log records and stored body can all point into it.
struct SharedBytes {
  std::shared_ptr<const Bytes> buf;
  std::uint32_t off = 0;
  std::uint32_t len = 0;

  /// A slice covering all of `b`.
  static SharedBytes own(Bytes b) {
    const auto n = static_cast<std::uint32_t>(b.size());
    return SharedBytes{std::make_shared<const Bytes>(std::move(b)), 0, n};
  }
  std::span<const std::uint8_t> view() const {
    return buf ? std::span<const std::uint8_t>(buf->data() + off, len)
               : std::span<const std::uint8_t>();
  }
};

class BufWriter {
 public:
  // Nearly every wire message and log record fits in one cache-line-friendly
  // chunk; reserving up front turns the per-encode realloc ladder (1, 2, 4,
  // ... bytes) into a single allocation.
  BufWriter() { buf_.reserve(128); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Same wire format as str(); takes a view (interned keys, substrings).
  void str_view(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void bytes(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Same wire format as bytes(); takes a borrowed (ptr, len) view so a
  /// payload can be re-framed without first materializing a Bytes copy.
  void bytes_view(const std::uint8_t* p, std::size_t n) {
    u32(static_cast<std::uint32_t>(n));
    buf_.insert(buf_.end(), p, p + n);
  }

  void action_id(const ActionId& a) {
    i32(a.server_id);
    i64(a.index);
  }

  void config_id(const ConfigId& c) {
    i64(c.counter);
    i32(c.coordinator);
  }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& write_one) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) write_one(*this, x);
  }

  void node_ids(const std::vector<NodeId>& v) {
    vec(v, [](BufWriter& w, NodeId n) { w.i32(n); });
  }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t at = buf_.size();
      buf_.resize(at + sizeof(T));
      std::memcpy(buf_.data() + at, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
  }

  Bytes buf_;
};

class BufReader {
 public:
  explicit BufReader(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  /// Read from a borrowed (ptr, len) view — e.g. a delivery payload that is
  /// a slice of a shared wire buffer.
  BufReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(get_le<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// str() into an existing string, reusing its capacity.
  void str_into(std::string& s) {
    const std::uint32_t n = u32();
    need(n);
    s.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
  }

  Bytes bytes() {
    const std::uint32_t n = u32();
    need(n);
    Bytes b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

  /// Zero-copy view of a length-prefixed byte field. Valid only while the
  /// underlying buffer outlives the reader — for re-framing a payload into
  /// another message within one handler, not for retention.
  std::pair<const std::uint8_t*, std::size_t> bytes_view() {
    const std::uint32_t n = u32();
    need(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return {p, n};
  }

  ActionId action_id() {
    ActionId a;
    a.server_id = i32();
    a.index = i64();
    return a;
  }

  ConfigId config_id() {
    ConfigId c;
    c.counter = i64();
    c.coordinator = i32();
    return c;
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& read_one) {
    const std::uint32_t n = u32();
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(read_one(*this));
    return v;
  }

  std::vector<NodeId> node_ids() {
    return vec<NodeId>([](BufReader& r) { return r.i32(); });
  }

  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::size_t n) {
    if (pos_ + n > size_) throw SerdeError("buffer underrun");
  }

  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_ + pos_, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace tordb

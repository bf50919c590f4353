// Message: a byte buffer with pack/unpack cursors, the unit of communication
// in the mpr runtime. Supports trivially-copyable scalars, strings, and
// vectors thereof. Unpacking past the end throws — a truncated message is a
// protocol bug, not a recoverable condition. Declared lengths are validated
// against the remaining buffer *before* any allocation, so a corrupted
// 8-byte length prefix cannot trigger a multi-gigabyte allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace focus::mpr {

class Runtime;

class Message {
 public:
  Message() = default;

  std::size_t size_bytes() const { return bytes_.size(); }
  bool fully_consumed() const { return cursor_ == bytes_.size(); }

  /// Restarts unpacking at the first byte, so a retained message (a
  /// write-ahead log entry) can be read again without a copy.
  void rewind() { cursor_ = 0; }

  /// CRC32 over the payload — the frame checksum the runtime verifies on
  /// receive (defined in fault.cpp).
  std::uint32_t checksum() const;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void pack(const T& value) {
    append(&value, sizeof(T));
  }

  void pack_string(const std::string& s) {
    pack(static_cast<std::uint64_t>(s.size()));
    append(s.data(), s.size());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void pack_vector(const std::vector<T>& v) {
    pack(static_cast<std::uint64_t>(v.size()));
    append(v.data(), v.size() * sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T unpack() {
    T value;
    take(&value, sizeof(T));
    return value;
  }

  std::string unpack_string() {
    const auto n = unpack<std::uint64_t>();
    FOCUS_CHECK(n <= remaining(), "string length exceeds message remainder");
    std::string s(static_cast<std::size_t>(n), '\0');
    take(s.data(), s.size());
    return s;
  }

  /// Unpacks a u32 element count for a caller that decodes the elements
  /// itself, checked against the remainder before the caller allocates: each
  /// element takes at least `min_element_bytes` of the frame.
  std::uint32_t unpack_count(std::size_t min_element_bytes) {
    const auto n = unpack<std::uint32_t>();
    FOCUS_CHECK(n <= remaining() / min_element_bytes,
                "element count exceeds message remainder");
    return n;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> unpack_vector() {
    const auto n = unpack<std::uint64_t>();
    FOCUS_CHECK(n <= remaining() / sizeof(T),
                "vector length exceeds message remainder");
    std::vector<T> v(static_cast<std::size_t>(n));
    take(v.data(), v.size() * sizeof(T));
    return v;
  }

 private:
  friend class Runtime;  // fault injection flips payload bytes

  std::size_t remaining() const { return bytes_.size() - cursor_; }

  void append(const void* src, std::size_t n) {
    if (n == 0) return;
    const std::size_t off = bytes_.size();
    bytes_.resize(off + n);
    std::memcpy(bytes_.data() + off, src, n);
  }

  void take(void* dst, std::size_t n) {
    FOCUS_CHECK(n <= remaining(), "message unpack past end of buffer");
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(dst, bytes_.data() + cursor_, n);
    cursor_ += n;
  }

  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace focus::mpr

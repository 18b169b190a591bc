// The one number formatter of every text writer: traces, metrics, reports,
// the dashboard and scheduler display names.
//
// format_number(double) renders exactly the bytes printf("%.12g") does --
// enough significant digits to round-trip a double to ~1e-12 relative, and
// identical bytes for identical doubles, which the determinism contracts
// rely on.  It is std::to_chars(general, 12) underneath: several times
// faster than snprintf and independent of the C locale.  Integers render in
// plain decimal, as an ostream in the classic locale prints them.
// tests/test_differential.cpp pins the equality with snprintf byte for byte.
//
// append(out, pieces...) builds a record into a caller-owned std::string:
// string pieces are copied verbatim, a char is one character, floating
// values go through format_number and integers print in decimal.
// ChunkWriter keeps one such buffer per stream and hands it over with one
// ostream::write per chunk instead of one operator<< per field.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

namespace ge::util {

// Room for the longest rendering of either kind ("-2.22507385851e-308",
// "-9223372036854775808").
inline constexpr std::size_t kNumberChars = 32;

// Writes `v` as %.12g into [first, first + kNumberChars); returns one past
// the last byte written.
char* format_number(char* first, double v) noexcept;

// Writes `v` in decimal into [first, first + kNumberChars).
template <std::integral I>
char* format_number(char* first, I v) noexcept {
  return std::to_chars(first, first + kNumberChars, v).ptr;
}

template <typename T>
  requires std::is_arithmetic_v<T>
void append_number(std::string& out, T v) {
  char buf[kNumberChars];
  if constexpr (std::is_floating_point_v<T>) {
    out.append(buf, format_number(buf, static_cast<double>(v)));
  } else {
    out.append(buf, format_number(buf, v));
  }
}

// %.12g of `v` as a string, for writers off the hot path.
std::string format_number(double v);

template <typename... Pieces>
void append(std::string& out, const Pieces&... pieces) {
  const auto piece = [&out](const auto& p) {
    using T = std::decay_t<decltype(p)>;
    if constexpr (std::is_same_v<T, char>) {
      out.push_back(p);
    } else if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
      append_number(out, p);
    } else {
      out.append(std::string_view(p));
    }
  };
  (piece(pieces), ...);
}

// Buffered record writer: write(pieces...) appends as append() does and
// hands the buffer to `out` whenever it passes 64 KiB; flush() (and the
// destructor) write the rest.
class ChunkWriter {
 public:
  explicit ChunkWriter(std::ostream& out) : out_(out) {}
  ChunkWriter(const ChunkWriter&) = delete;
  ChunkWriter& operator=(const ChunkWriter&) = delete;
  ~ChunkWriter() { flush(); }

  template <typename... Pieces>
  void write(const Pieces&... pieces) {
    append(buffer_, pieces...);
    if (buffer_.size() >= kChunkBytes) {
      flush();
    }
  }
  void flush();

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

  std::ostream& out_;
  std::string buffer_;
};

}  // namespace ge::util

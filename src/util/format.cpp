#include "util/format.h"

#include <ostream>

namespace ge::util {

char* format_number(char* first, double v) noexcept {
  return std::to_chars(first, first + kNumberChars, v,
                       std::chars_format::general, 12)
      .ptr;
}

std::string format_number(double v) {
  char buf[kNumberChars];
  return std::string(buf, format_number(buf, v));
}

void ChunkWriter::flush() {
  if (!buffer_.empty()) {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
}

}  // namespace ge::util

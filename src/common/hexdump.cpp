#include "dhl/common/hexdump.hpp"

#include <cctype>
#include <sstream>
#include <stdexcept>

namespace dhl {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: non-hex character");
}
}  // namespace

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length string");
  }
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((hex_value(hex[2 * i]) << 4) |
                                       hex_value(hex[2 * i + 1]));
  }
  return out;
}

std::string hexdump(std::span<const std::uint8_t> data) {
  std::ostringstream os;
  for (std::size_t row = 0; row < data.size(); row += 16) {
    char addr[sizeof "0123456789abcdef  "];  // a 64-bit offset + 2 spaces
    std::snprintf(addr, sizeof addr, "%08zx  ", row);
    os << addr;
    for (std::size_t i = 0; i < 16; ++i) {
      if (row + i < data.size()) {
        const std::uint8_t b = data[row + i];
        os << kHexDigits[b >> 4] << kHexDigits[b & 0xf] << ' ';
      } else {
        os << "   ";
      }
      if (i == 7) os << ' ';
    }
    os << " |";
    for (std::size_t i = 0; i < 16 && row + i < data.size(); ++i) {
      const char c = static_cast<char>(data[row + i]);
      os << (std::isprint(static_cast<unsigned char>(c)) ? c : '.');
    }
    os << "|\n";
  }
  return os.str();
}

}  // namespace dhl

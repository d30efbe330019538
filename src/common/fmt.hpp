// Allocation-free number formatting and byte storing for the
// serialization hot paths.
//
// The event sinks format millions of numbers per run. Both text encodings
// in use predate this header — CSV doubles were written by ofstream's
// default operator<< (printf %g semantics, 6 significant digits) and JSON
// numbers by mtd::Json's serializer (integral values as %.0f, everything
// else as %.17g). The appenders here reproduce those encodings
// byte-for-byte with std::to_chars into caller-owned buffers, so sinks can
// drop per-event iostream/Json round trips without changing a single
// output byte (tests/test_serialization_golden.cpp holds the equivalence
// proof). The little-endian stores back the binary encodings (the
// length-prefixed event log and the trace store pages), which fix
// little-endian byte order regardless of host.
#pragma once

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

namespace mtd {

/// Appends an unsigned integer in decimal.
inline void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, ptr);
}

/// Appends a double exactly as ostream's default formatting does
/// (std::defaultfloat, precision 6 — printf %g semantics).
inline void append_double_g6(std::string& out, double v) {
  char buf[40];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  out.append(buf, ptr);
}

/// Appends a double exactly as mtd::Json's serializer does: integral
/// values below 1e15 in magnitude print without a decimal point or
/// exponent (printf %.0f, including the "-0" of negative zero), everything
/// else as printf %.17g (lossless for IEEE-754 doubles).
inline void append_json_number(std::string& out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    if (std::signbit(d)) out += '-';
    append_uint(out, static_cast<std::uint64_t>(std::abs(d)));
    return;
  }
  char buf[40];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17);
  out.append(buf, ptr);
}

/// Stores an unsigned integer little-endian at `p` and returns the advanced
/// pointer. On little-endian hosts this is a single memcpy the compiler
/// folds into one unaligned store.
template <typename T>
inline char* store_le(char* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }
  return p + sizeof v;
}

/// Loads an unsigned integer stored little-endian at `p`; the inverse of
/// store_le, folded into one unaligned load on little-endian hosts.
template <typename T>
[[nodiscard]] inline T load_le(const char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v = static_cast<T>(
          v | (static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i)));
    }
  }
  return v;
}

/// Stores a double as the little-endian bytes of its IEEE-754 bit pattern.
inline char* store_f64_le(char* p, double v) {
  return store_le(p, std::bit_cast<std::uint64_t>(v));
}

}  // namespace mtd

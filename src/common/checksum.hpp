// CRC-32 (IEEE 802.3 polynomial, reflected) for integrity-checking stored
// payloads.  The archive container checksums every compressed block and its
// footer index so corruption is detected before a codec ever sees the bytes.
// Slicing-by-8 over eight constexpr tables, bytewise for the tail: the
// values are those of the classic one-table loop.
#pragma once

#include <cstdint>
#include <span>

namespace sz14 {

/// One-shot CRC-32 of `data`.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental form: feed `crc` from the previous call (start with 0).
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc,
                                         std::span<const std::uint8_t> data);

}  // namespace sz14

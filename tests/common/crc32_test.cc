// CRC-32 (IEEE 802.3): the checksum framing every WAL record and checkpoint
// section. Verified against the standard check value, against a bytewise
// reference at every short length and alignment (the slicing-by-8 loop and
// its tail), and for the properties the durability layer leans on —
// incremental composition and sensitivity to single-bit damage.

#include "common/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>

namespace onesql {
namespace {

/// The textbook one-table, one-byte-per-step CRC-32: the reference the
/// sliced implementation must match bit for bit.
uint32_t BytewiseCrc32(const void* data, size_t n, uint32_t seed = 0) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// 80 bytes of varied content: every byte value class, no repeating period.
std::string Pattern() {
  std::string bytes(80, '\0');
  uint32_t state = 0x9E3779B9u;
  for (char& b : bytes) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<char>(state >> 24);
  }
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndOffset) {
  const std::string bytes = Pattern();
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const char* p = bytes.data() + offset;
      EXPECT_EQ(Crc32(p, len), BytewiseCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, ChainedSeedsMatchTheJoinedBuffer) {
  // Crc32(b, nb, Crc32(a, na)) == Crc32(a·b) for every split of the two
  // lengths, each half at its own alignment.
  const std::string bytes = Pattern();
  for (size_t na = 0; na <= 20; ++na) {
    for (size_t nb = 0; nb <= 20; ++nb) {
      const char* a = bytes.data() + (na % 8);
      const char* b = bytes.data() + 40 + (nb % 8);
      const std::string joined = std::string(a, na) + std::string(b, nb);
      const uint32_t chained = Crc32(b, nb, Crc32(a, na));
      EXPECT_EQ(chained, Crc32(joined.data(), joined.size()))
          << "na " << na << " nb " << nb;
      EXPECT_EQ(chained, BytewiseCrc32(b, nb, BytewiseCrc32(a, na)))
          << "na " << na << " nb " << nb;
    }
  }
}

TEST(Crc32Test, StandardCheckValue) {
  // The canonical CRC-32/ISO-HDLC check input.
  const char input[] = "123456789";
  EXPECT_EQ(Crc32(input, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
  const std::string lazy = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Crc32(lazy.data(), lazy.size()), 0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "one SQL to rule them all: streams and tables";
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t first = Crc32(data.data(), split);
    const uint32_t combined =
        Crc32(data.data() + split, data.size() - split, first);
    EXPECT_EQ(combined, whole) << "split at " << split;
  }
}

TEST(Crc32Test, EverySingleBitFlipChangesTheChecksum) {
  // CRC-32 detects all single-bit errors — exactly the fault-injection
  // model the recovery tests use.
  const std::string data = "watermark 8:07 bid(A, 13)";
  const uint32_t clean = Crc32(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = data;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_NE(Crc32(damaged.data(), damaged.size()), clean)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc32Test, BinaryDataWithEmbeddedNuls) {
  const char data[] = {0x00, 0x01, 0x00, static_cast<char>(0xFF), 0x00};
  EXPECT_NE(Crc32(data, 5), Crc32(data, 4));
  EXPECT_NE(Crc32(data, 5), 0u);
}

}  // namespace
}  // namespace onesql

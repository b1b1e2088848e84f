#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <random>
#include <sstream>

#include "storage/format.h"

namespace sc::storage {
namespace {

using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Schema;
using engine::Table;

Table SampleTable() {
  std::vector<Column> cols;
  cols.push_back(Column::FromInts({1, -5, 1LL << 40}));
  cols.push_back(Column::FromDoubles({0.25, -1e9, 3.14159}));
  cols.push_back(Column::FromStrings({"", "hello", "utf8 ✓"}));
  return Table(Schema({Field{"i", DataType::kInt64},
                       Field{"d", DataType::kFloat64},
                       Field{"s", DataType::kString}}),
               std::move(cols));
}

TEST(FormatTest, StreamRoundTrip) {
  const Table original = SampleTable();
  std::stringstream buffer;
  const std::int64_t written = WriteTable(original, buffer);
  EXPECT_GT(written, 0);
  const Table loaded = ReadTable(buffer);
  EXPECT_TRUE(loaded == original);
}

TEST(FormatTest, SerializedSizeMatchesBytesWritten) {
  const Table t = SampleTable();
  std::stringstream buffer;
  EXPECT_EQ(WriteTable(t, buffer), SerializedSize(t));
}

TEST(FormatTest, EmptyTableRoundTrip) {
  const Table empty = Table::Empty(
      Schema({Field{"a", DataType::kInt64},
              Field{"b", DataType::kString}}));
  std::stringstream buffer;
  WriteTable(empty, buffer);
  const Table loaded = ReadTable(buffer);
  EXPECT_EQ(loaded.num_rows(), 0u);
  EXPECT_TRUE(loaded.schema() == empty.schema());
}

TEST(FormatTest, BadMagicThrows) {
  std::stringstream buffer("NOPE....");
  EXPECT_THROW(ReadTable(buffer), std::runtime_error);
}

TEST(FormatTest, TruncatedStreamThrows) {
  const Table t = SampleTable();
  std::stringstream buffer;
  WriteTable(t, buffer);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(ReadTable(truncated), std::runtime_error);
}

TEST(FormatTest, FileRoundTrip) {
  const Table t = SampleTable();
  const std::string path = testing::TempDir() + "/sc_format_test.sct";
  WriteTableFile(t, path);
  const Table loaded = ReadTableFile(path);
  EXPECT_TRUE(loaded == t);
}

TEST(FormatTest, ReadTableFileSniffsBothMagics) {
  const Table t = SampleTable();
  const std::string plain = testing::TempDir() + "/sc_format_sniff_plain.sct";
  const std::string packed = testing::TempDir() + "/sc_format_sniff_scc.sct";
  WriteTableFile(t, plain);
  WriteTableFileCompressed(t, packed);
  EXPECT_TRUE(ReadTableFile(plain) == t);
  EXPECT_TRUE(ReadTableFile(packed) == t);
  // SCC1 string columns come back dictionary-encoded.
  EXPECT_TRUE(ReadTableFile(packed).column(2).dictionary_encoded());

  // Any other magic is corruption, through the file and stream readers.
  const std::string bad = testing::TempDir() + "/sc_format_sniff_bad.sct";
  {
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out << "SCX1 not a table";
  }
  EXPECT_THROW(ReadTableFile(bad), CorruptFileError);
  std::stringstream short_stream("SC");
  EXPECT_THROW(ReadTable(short_stream), CorruptFileError);
}

TEST(FormatTest, CompressedDictionaryPageIsCanonical) {
  // A filtered dictionary column still shares its source's whole
  // dictionary; SCC1 writes only the entries in use, so it serializes to
  // the same bytes as its plain twin.
  const Column source = Column::FromStrings({"apple", "kiwi", "pear", "fig",
                                             "plum", "kiwi", "date"})
                            .DictionaryEncode();
  Column filtered(DataType::kString);
  filtered.GatherFrom(source, {1, 4, 5});
  ASSERT_TRUE(filtered.dictionary_encoded());
  ASSERT_EQ(filtered.dictionary()->size(), 6u);
  const Column plain = Column::FromStrings({"kiwi", "plum", "kiwi"});
  auto table_of = [](Column col) {
    std::vector<Column> cols;
    cols.push_back(std::move(col));
    return Table(Schema({Field{"s", DataType::kString}}), std::move(cols));
  };
  std::stringstream from_filtered;
  std::stringstream from_plain;
  WriteTableCompressed(table_of(filtered), from_filtered);
  WriteTableCompressed(table_of(plain), from_plain);
  EXPECT_EQ(from_filtered.str(), from_plain.str());
  const Table back = ReadTableCompressed(from_filtered);
  EXPECT_TRUE(back == table_of(plain));
  EXPECT_EQ(back.column(0).dictionary()->size(), 2u);
}

TEST(FormatTest, InMemoryEncodingMatchesTheStreamInFullChunks) {
  // ~200 KB of doubles: the encoding spans several chunks.
  std::vector<double> values(25'000);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 0.5 * i;
  std::vector<Column> cols;
  cols.push_back(Column::FromDoubles(std::move(values)));
  const Table t(Schema({Field{"d", DataType::kFloat64}}), std::move(cols));
  std::stringstream stream;
  WriteTableCompressed(t, stream);
  const EncodedBytes chunks = EncodeTableCompressed(t);
  ASSERT_GT(chunks.size(), 2u);
  std::string joined;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (i + 1 < chunks.size()) {
      EXPECT_EQ(chunks[i].size(), kEncodedChunkBytes);
    }
    joined += chunks[i];
  }
  EXPECT_EQ(joined, stream.str());

  const std::string path = testing::TempDir() + "/sc_format_chunks.sct";
  EXPECT_EQ(WriteFileAtomic(path, chunks),
            static_cast<std::int64_t>(joined.size()));
  EXPECT_TRUE(ReadTableFile(path) == t);
}

TEST(FormatTest, MissingFileThrows) {
  EXPECT_THROW(ReadTableFile("/nonexistent/dir/x.sct"),
               std::runtime_error);
}

// ---- Durability: checksum verification and hostile-input hardening ----

std::string Serialize(const Table& t, bool compressed) {
  std::stringstream buffer;
  if (compressed) {
    WriteTableCompressed(t, buffer);
  } else {
    WriteTable(t, buffer);
  }
  return buffer.str();
}

Table Deserialize(const std::string& data, bool compressed,
                  const ReadOptions& options = {}) {
  std::stringstream in(data);
  return compressed ? ReadTableCompressed(in, options)
                    : ReadTable(in, options);
}

// A verifying read detects a single flipped bit anywhere in the stream —
// header, column payloads, per-column checksums, footer. Randomized
// offsets with a fixed seed keep the run deterministic while covering
// the whole byte range over time.
TEST(FormatTest, VerifiedReadDetectsSingleBitFlipsEverywhere) {
  for (const bool compressed : {false, true}) {
    const std::string clean = Serialize(SampleTable(), compressed);
    std::mt19937_64 rng(42);
    std::uniform_int_distribution<std::size_t> pos(0, clean.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    for (int trial = 0; trial < 64; ++trial) {
      std::string damaged = clean;
      damaged[pos(rng)] ^= static_cast<char>(1 << bit(rng));
      EXPECT_THROW(Deserialize(damaged, compressed), CorruptFileError)
          << (compressed ? "SCC1" : "SCT1") << " trial " << trial;
    }
  }
}

// Truncation at every prefix length must throw (never return a partial
// table), in verifying AND non-verifying mode: the footer end marker
// catches torn tails even without checksum arithmetic.
TEST(FormatTest, TruncationAtEveryLengthThrowsBothModes) {
  for (const bool compressed : {false, true}) {
    const std::string clean = Serialize(SampleTable(), compressed);
    for (std::size_t len = 0; len < clean.size(); ++len) {
      const std::string cut = clean.substr(0, len);
      EXPECT_THROW(Deserialize(cut, compressed), CorruptFileError);
      EXPECT_THROW(Deserialize(cut, compressed, ReadOptions{false}),
                   CorruptFileError);
    }
  }
}

// The torn-write shape: right length, tail zeroed. Structural EOF checks
// cannot see it; checksums (and the footer end marker) must.
TEST(FormatTest, ZeroedTailDetected) {
  for (const bool compressed : {false, true}) {
    std::string torn = Serialize(SampleTable(), compressed);
    std::memset(torn.data() + torn.size() / 2, 0, torn.size() / 2);
    EXPECT_THROW(Deserialize(torn, compressed), CorruptFileError);
  }
}

// Hostile headers must never drive allocation: a count field claiming
// 2^60 rows against a tiny stream has to fail fast (bounded reads), not
// attempt the allocation. These streams are garbage after valid magic.
TEST(FormatTest, HostileHeaderCountsNeverOverAllocate) {
  const std::string magics[] = {"SCT1", "SCC1"};
  for (const std::string& magic : magics) {
    const bool compressed = magic == "SCC1";
    // num_cols = 0xFFFFFFFF, num_rows = 2^60, then nothing.
    std::string data = magic;
    data += std::string("\xFF\xFF\xFF\xFF", 4);
    std::uint64_t rows = 1ULL << 60;
    data.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
    EXPECT_THROW(Deserialize(data, compressed), CorruptFileError);

    // Plausible col count but a payload_len far past the actual bytes.
    std::string lying = magic;
    std::uint32_t cols = 1;
    lying.append(reinterpret_cast<const char*>(&cols), sizeof(cols));
    lying.append(reinterpret_cast<const char*>(&rows), sizeof(rows));
    std::uint32_t name_len = 1;
    lying.append(reinterpret_cast<const char*>(&name_len),
                 sizeof(name_len));
    lying += "c";
    lying += '\0';  // type = int64
    if (compressed) lying += '\x01';  // encoding = for-varint
    if (compressed) {
      std::int64_t frame_min = 0;
      lying.append(reinterpret_cast<const char*>(&frame_min),
                   sizeof(frame_min));
    }
    std::uint64_t payload_len = 1ULL << 59;
    lying.append(reinterpret_cast<const char*>(&payload_len),
                 sizeof(payload_len));
    lying += "only a few real bytes";
    EXPECT_THROW(Deserialize(lying, compressed), CorruptFileError);
  }
}

// Unverified mode still cross-checks the footer's row/column counts and
// end marker, so swapping two files' tails (or garbage counts) is caught
// without checksum arithmetic.
TEST(FormatTest, UnverifiedModeRoundTripsAndChecksFooter) {
  for (const bool compressed : {false, true}) {
    const std::string clean = Serialize(SampleTable(), compressed);
    const Table loaded = Deserialize(clean, compressed, ReadOptions{false});
    EXPECT_TRUE(loaded == SampleTable());
    // Damage the footer's end marker only.
    std::string bad_marker = clean;
    bad_marker[bad_marker.size() - 1] ^= 0x20;
    EXPECT_THROW(Deserialize(bad_marker, compressed, ReadOptions{false}),
                 CorruptFileError);
  }
}

TEST(FormatTest, CorruptFileErrorIsRuntimeError) {
  // Pre-durability catch sites use std::runtime_error; the typed error
  // must keep satisfying them.
  static_assert(std::is_base_of_v<std::runtime_error, CorruptFileError>);
}

}  // namespace
}  // namespace sc::storage

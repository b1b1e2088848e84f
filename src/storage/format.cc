#include "storage/format.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "common/crc32c.h"

namespace sc::storage {

namespace {

constexpr char kMagic[4] = {'S', 'C', 'T', '1'};
constexpr char kMagicCompressed[4] = {'S', 'C', 'C', '1'};
constexpr char kFooterMagic[4] = {'S', 'C', 'T', 'F'};
constexpr char kFooterMagicCompressed[4] = {'S', 'C', 'C', 'F'};

// SCC1 per-column encodings (the u8 after the type byte).
constexpr std::uint8_t kEncRaw = 0;
constexpr std::uint8_t kEncForVarint = 1;
constexpr std::uint8_t kEncDict = 2;

// Structural sanity caps: headers declaring more than this are treated
// as corruption before a single byte of payload is allocated. Both are
// far above anything the engine produces (tables here are MV outputs
// with at most a handful of columns).
constexpr std::uint32_t kMaxColumns = 1u << 16;
constexpr std::uint32_t kMaxNameLen = 1u << 16;

// Hostile or torn length fields must never translate into allocations:
// payloads are read in chunks of this many bytes, so a declared
// multi-terabyte payload over a 1 KB file fails after at most one chunk
// of over-allocation.
constexpr std::uint64_t kReadChunk = 4u << 20;

// Footer size: u64 num_rows + u32 num_cols + u32 file_crc + 4-byte end
// marker.
constexpr std::int64_t kFooterBytes = 8 + 4 + 4 + 4;

template <typename T>
void AppendRaw(std::string* buf, const T& value) {
  buf->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Write-side stream wrapper: every metadata byte written is folded into
/// the running whole-file CRC32C, so the footer checksum seals the
/// header, the column descriptors, and the per-column checksum words.
/// Column payload bytes go through WriteUnfolded — they are sealed by
/// their own per-column CRC32C, which the file checksum in turn covers,
/// so each byte is hashed exactly once while integrity stays transitive.
class CrcSink {
 public:
  explicit CrcSink(std::ostream& out) : out_(out) {}

  void Write(const void* data, std::size_t size) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    crc_ = common::Crc32c(data, size, crc_);
    bytes_ += static_cast<std::int64_t>(size);
  }

  /// Writes payload bytes without folding them into the file checksum
  /// (their per-column checksum covers them).
  void WriteUnfolded(const void* data, std::size_t size) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    bytes_ += static_cast<std::int64_t>(size);
  }

  template <typename T>
  void WriteRaw(const T& value) {
    Write(&value, sizeof(T));
  }

  std::uint32_t crc() const { return crc_; }
  std::int64_t bytes() const { return bytes_; }
  std::ostream& stream() { return out_; }

 private:
  std::ostream& out_;
  std::uint32_t crc_ = 0;
  std::int64_t bytes_ = 0;
};

/// Read-side mirror of CrcSink: folds consumed bytes into the running
/// file checksum only when verification is on (the unverified fast path
/// costs a branch per read). Every structural read failure throws
/// CorruptFileError — a short read is indistinguishable from truncation.
class CrcSource {
 public:
  CrcSource(std::istream& in, bool verify, const char* format)
      : in_(in), verify_(verify), format_(format) {}

  void Read(void* data, std::size_t size, const char* what) {
    in_.read(static_cast<char*>(data),
             static_cast<std::streamsize>(size));
    if (!in_) Fail(what);
    if (verify_) crc_ = common::Crc32c(data, size, crc_);
  }

  template <typename T>
  T ReadRaw(const char* what) {
    T value{};
    Read(&value, sizeof(T), what);
    return value;
  }

  /// Reads `size` bytes in bounded chunks: a hostile length field fails
  /// with at most kReadChunk bytes of speculative allocation instead of
  /// reserving the declared size up front. Folds the bytes into the file
  /// checksum (metadata blobs such as column names); payloads go through
  /// ReadPayloadBlob instead.
  std::string ReadBlob(std::uint64_t size, const char* what) {
    std::string buf = ReadPayloadBlob(size, what);
    if (verify_) crc_ = common::Crc32c(buf.data(), buf.size(), crc_);
    return buf;
  }

  /// ReadBlob minus the file-checksum fold: column payloads are verified
  /// against their own per-column checksum (one CRC pass per byte), and
  /// the file checksum seals that checksum word instead.
  std::string ReadPayloadBlob(std::uint64_t size, const char* what) {
    std::string buf;
    while (buf.size() < size) {
      const std::uint64_t step =
          std::min<std::uint64_t>(kReadChunk, size - buf.size());
      const std::size_t old = buf.size();
      buf.resize(old + static_cast<std::size_t>(step));
      in_.read(buf.data() + old, static_cast<std::streamsize>(step));
      if (!in_) Fail(what);
    }
    return buf;
  }

  [[noreturn]] void Fail(const char* what) const {
    throw CorruptFileError(std::string(format_) + ": truncated " + what);
  }

  /// Folds bytes consumed outside Read (the magic, matched raw) into the
  /// running file checksum.
  void FoldCrc(const void* data, std::size_t size) {
    if (verify_) crc_ = common::Crc32c(data, size, crc_);
  }

  bool verify() const { return verify_; }
  std::uint32_t crc() const { return crc_; }
  std::istream& stream() { return in_; }
  const char* format() const { return format_; }

 private:
  std::istream& in_;
  const bool verify_;
  const char* format_;
  std::uint32_t crc_ = 0;
};

void WriteFooter(CrcSink& sink, std::uint64_t num_rows,
                 std::uint32_t num_cols, const char magic[4]) {
  // The footer itself is excluded from the file checksum (it contains
  // it); capture before writing.
  const std::uint32_t file_crc = sink.crc();
  sink.WriteRaw<std::uint64_t>(num_rows);
  sink.WriteRaw<std::uint32_t>(num_cols);
  sink.WriteRaw<std::uint32_t>(file_crc);
  sink.Write(magic, 4);
}

/// Footer validation runs in both modes: the row/column cross-check and
/// the end marker catch truncation and torn (zero-filled) tails even
/// without checksum arithmetic; the file CRC comparison is gated on
/// verify.
void ReadFooter(CrcSource& source, std::uint64_t num_rows,
                std::uint32_t num_cols, const char magic[4]) {
  const std::uint32_t computed = source.crc();
  std::istream& in = source.stream();
  std::uint64_t footer_rows = 0;
  std::uint32_t footer_cols = 0;
  std::uint32_t file_crc = 0;
  char tail[4] = {0, 0, 0, 0};
  in.read(reinterpret_cast<char*>(&footer_rows), sizeof(footer_rows));
  in.read(reinterpret_cast<char*>(&footer_cols), sizeof(footer_cols));
  in.read(reinterpret_cast<char*>(&file_crc), sizeof(file_crc));
  in.read(tail, sizeof(tail));
  if (!in) source.Fail("footer");
  if (std::memcmp(tail, magic, 4) != 0) {
    throw CorruptFileError(std::string(source.format()) +
                           ": bad footer marker");
  }
  if (footer_rows != num_rows || footer_cols != num_cols) {
    throw CorruptFileError(std::string(source.format()) +
                           ": footer row/column mismatch");
  }
  if (source.verify() && file_crc != computed) {
    throw CorruptFileError(std::string(source.format()) +
                           ": file checksum mismatch");
  }
}

/// Writes one column's buffered payload with its length prefix and
/// CRC32C trailer — the per-block integrity unit of both formats.
void WriteColumnPayload(CrcSink& sink, const std::string& buf) {
  sink.WriteRaw<std::uint64_t>(static_cast<std::uint64_t>(buf.size()));
  sink.WriteUnfolded(buf.data(), buf.size());
  sink.WriteRaw<std::uint32_t>(common::Crc32c(buf.data(), buf.size()));
}

/// Reads one column payload and its checksum trailer; verifies when the
/// source does.
std::string ReadColumnPayload(CrcSource& source) {
  const auto payload_len = source.ReadRaw<std::uint64_t>("payload length");
  std::string buf = source.ReadPayloadBlob(payload_len, "column payload");
  const auto stored = source.ReadRaw<std::uint32_t>("column checksum");
  if (source.verify() &&
      stored != common::Crc32c(buf.data(), buf.size())) {
    throw CorruptFileError(std::string(source.format()) +
                           ": column checksum mismatch");
  }
  return buf;
}

// LEB128 varints, buffered into `buf` (one buffer per column payload —
// spill writes go through the stream once, not byte-at-a-time).
void PutVarint(std::string* buf, std::uint64_t v) {
  while (v >= 0x80) {
    buf->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf->push_back(static_cast<char>(v));
}

std::uint64_t GetVarint(const char* data, std::size_t size,
                        std::size_t* pos) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (*pos >= size || shift > 63) {
      throw CorruptFileError("SCC1: bad varint");
    }
    const std::uint8_t byte = static_cast<std::uint8_t>(data[(*pos)++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

// Zig-zag maps signed deltas onto small unsigned varints. Arithmetic is
// done in uint64 so int64-range-spanning frames wrap instead of
// overflowing; the decode wraps back identically.
std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

struct ColumnHeader {
  std::string name;
  engine::DataType type = engine::DataType::kInt64;
};

ColumnHeader ReadColumnHeader(CrcSource& source) {
  ColumnHeader header;
  const auto name_len = source.ReadRaw<std::uint32_t>("column name length");
  if (name_len > kMaxNameLen) {
    throw CorruptFileError(std::string(source.format()) +
                           ": column name length exceeds sanity cap");
  }
  header.name = source.ReadBlob(name_len, "column name");
  const auto type_byte = source.ReadRaw<std::uint8_t>("column type");
  if (type_byte > static_cast<std::uint8_t>(engine::DataType::kString)) {
    throw CorruptFileError(std::string(source.format()) +
                           ": bad column type");
  }
  header.type = static_cast<engine::DataType>(type_byte);
  return header;
}

template <typename WriteFn>
std::int64_t WriteFileAtomic(const std::string& path, WriteFn&& write_fn) {
  // Write-then-rename so the destination is atomically either the old
  // complete table or the new one: a write that dies mid-stream (fault
  // injection, full disk, crash) must never leave a partial or truncated
  // MV where readers — or a retry — expect a whole file.
  const std::string tmp = path + ".tmp";
  std::int64_t bytes = 0;
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open for write: " + path);
    bytes = write_fn(out);
    out.flush();
    if (!out) throw std::runtime_error("write failed: " + path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("cannot commit write: " + path);
  }
  return bytes;
}

/// Stream buffer that appends everything written through it to a chunk
/// list, filling each chunk to kEncodedChunkBytes before starting the
/// next, so an encoding lands in memory once, without regrowing (and
/// copying) one buffer to the file's size.
class ChunkAppendBuf : public std::streambuf {
 public:
  explicit ChunkAppendBuf(EncodedBytes* chunks) : chunks_(chunks) {}

 protected:
  std::streamsize xsputn(const char* data, std::streamsize size) override {
    auto left = static_cast<std::size_t>(size);
    while (left > 0) {
      if (chunks_->empty() || chunks_->back().size() == kEncodedChunkBytes) {
        chunks_->emplace_back().reserve(kEncodedChunkBytes);
      }
      std::string& chunk = chunks_->back();
      const std::size_t n =
          std::min(left, kEncodedChunkBytes - chunk.size());
      chunk.append(data, n);
      data += n;
      left -= n;
    }
    return size;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

 private:
  EncodedBytes* chunks_;
};

}  // namespace

std::int64_t WriteFileAtomic(const std::string& path,
                             const EncodedBytes& chunks) {
  return WriteFileAtomic(path, [&](std::ostream& out) {
    std::int64_t bytes = 0;
    for (const std::string& chunk : chunks) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      bytes += static_cast<std::int64_t>(chunk.size());
    }
    return bytes;
  });
}

std::int64_t WriteTable(const engine::Table& table, std::ostream& out) {
  CrcSink sink(out);
  sink.Write(kMagic, sizeof(kMagic));
  sink.WriteRaw<std::uint32_t>(
      static_cast<std::uint32_t>(table.num_columns()));
  sink.WriteRaw<std::uint64_t>(
      static_cast<std::uint64_t>(table.num_rows()));
  std::string buf;  // reused per-column payload buffer
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    const engine::Field& field = table.schema().field(c);
    sink.WriteRaw<std::uint32_t>(
        static_cast<std::uint32_t>(field.name.size()));
    sink.Write(field.name.data(), field.name.size());
    sink.WriteRaw<std::uint8_t>(static_cast<std::uint8_t>(field.type));
    const engine::Column& col = table.column(c);
    buf.clear();
    switch (field.type) {
      case engine::DataType::kInt64:
        buf.assign(reinterpret_cast<const char*>(col.ints().data()),
                   col.ints().size() * sizeof(std::int64_t));
        break;
      case engine::DataType::kFloat64:
        buf.assign(reinterpret_cast<const char*>(col.doubles().data()),
                   col.doubles().size() * sizeof(double));
        break;
      case engine::DataType::kString:
        // Row-wise through GetString: dictionary-encoded columns write
        // the same decoded bytes a plain column would, keeping SCT1
        // representation-independent.
        for (std::size_t r = 0; r < col.size(); ++r) {
          const std::string& s = col.GetString(r);
          AppendRaw<std::uint32_t>(&buf,
                                   static_cast<std::uint32_t>(s.size()));
          buf.append(s);
        }
        break;
    }
    WriteColumnPayload(sink, buf);
  }
  WriteFooter(sink, static_cast<std::uint64_t>(table.num_rows()),
              static_cast<std::uint32_t>(table.num_columns()),
              kFooterMagic);
  if (!out) throw std::runtime_error("SCT1: write failure");
  return sink.bytes();
}

namespace {

/// SCT1 body: everything after the magic, which the caller matched and
/// folded into `source`.
engine::Table ReadPlainBody(CrcSource& source) {
  const auto num_cols = source.ReadRaw<std::uint32_t>("column count");
  if (num_cols > kMaxColumns) {
    throw CorruptFileError("SCT1: column count exceeds sanity cap");
  }
  const auto num_rows = source.ReadRaw<std::uint64_t>("row count");
  std::vector<engine::Field> fields;
  std::vector<engine::Column> columns;
  fields.reserve(num_cols);
  columns.reserve(num_cols);
  for (std::uint32_t c = 0; c < num_cols; ++c) {
    ColumnHeader header = ReadColumnHeader(source);
    const std::string payload = ReadColumnPayload(source);
    switch (header.type) {
      case engine::DataType::kInt64: {
        // Division form: num_rows * 8 could wrap for hostile row counts.
        if (payload.size() % sizeof(std::int64_t) != 0 ||
            num_rows != payload.size() / sizeof(std::int64_t)) {
          throw CorruptFileError("SCT1: bad int64 payload size");
        }
        std::vector<std::int64_t> values(num_rows);
        if (num_rows > 0) {  // an empty vector's data() may be null
          std::memcpy(values.data(), payload.data(), payload.size());
        }
        columns.push_back(engine::Column::FromInts(std::move(values)));
        break;
      }
      case engine::DataType::kFloat64: {
        if (payload.size() % sizeof(double) != 0 ||
            num_rows != payload.size() / sizeof(double)) {
          throw CorruptFileError("SCT1: bad float64 payload size");
        }
        std::vector<double> values(num_rows);
        if (num_rows > 0) {  // an empty vector's data() may be null
          std::memcpy(values.data(), payload.data(), payload.size());
        }
        columns.push_back(engine::Column::FromDoubles(std::move(values)));
        break;
      }
      case engine::DataType::kString: {
        std::vector<std::string> values;
        // Each value costs at least its 4-byte length prefix, so the
        // payload bounds the row count — reserve never exceeds it.
        values.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
            num_rows, payload.size() / 4 + 1)));
        std::size_t pos = 0;
        for (std::uint64_t r = 0; r < num_rows; ++r) {
          if (pos + 4 > payload.size()) {
            throw CorruptFileError("SCT1: truncated string length");
          }
          std::uint32_t len = 0;
          std::memcpy(&len, payload.data() + pos, 4);
          pos += 4;
          if (pos + len > payload.size()) {
            throw CorruptFileError("SCT1: truncated string value");
          }
          values.emplace_back(payload.data() + pos, len);
          pos += len;
        }
        if (pos != payload.size()) {
          throw CorruptFileError("SCT1: string payload has trailing bytes");
        }
        columns.push_back(engine::Column::FromStrings(std::move(values)));
        break;
      }
    }
    fields.push_back(engine::Field{std::move(header.name), header.type});
  }
  ReadFooter(source, num_rows, num_cols, kFooterMagic);
  return engine::Table(engine::Schema(std::move(fields)),
                       std::move(columns));
}

engine::Table ReadCompressedBody(CrcSource& source);

}  // namespace

engine::Table ReadTable(std::istream& in, const ReadOptions& options) {
  char magic[4];
  in.read(magic, sizeof(magic));
  const bool compressed =
      in && std::memcmp(magic, kMagicCompressed, sizeof(magic)) == 0;
  if (!compressed && (!in || std::memcmp(magic, kMagic, sizeof(magic)) != 0)) {
    throw CorruptFileError("bad magic: neither SCT1 nor SCC1");
  }
  CrcSource source(in, options.verify_checksums,
                   compressed ? "SCC1" : "SCT1");
  source.FoldCrc(magic, sizeof(magic));
  return compressed ? ReadCompressedBody(source) : ReadPlainBody(source);
}

std::int64_t SerializedSize(const engine::Table& table) {
  std::int64_t total = 4 + 4 + 8;
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    const engine::Field& field = table.schema().field(c);
    // name_len + name + type + payload_len + payload + payload_crc
    total += 4 + static_cast<std::int64_t>(field.name.size()) + 1 + 8 + 4;
    const engine::Column& col = table.column(c);
    switch (field.type) {
      case engine::DataType::kInt64:
        total += static_cast<std::int64_t>(col.ints().size() * 8);
        break;
      case engine::DataType::kFloat64:
        total += static_cast<std::int64_t>(col.doubles().size() * 8);
        break;
      case engine::DataType::kString:
        for (std::size_t r = 0; r < col.size(); ++r) {
          total += 4 + static_cast<std::int64_t>(col.GetString(r).size());
        }
        break;
    }
  }
  return total + kFooterBytes;
}

std::int64_t WriteTableFile(const engine::Table& table,
                            const std::string& path) {
  return WriteFileAtomic(
      path, [&](std::ostream& out) { return WriteTable(table, out); });
}

engine::Table ReadTableFile(const std::string& path,
                            const ReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return ReadTable(in, options);
}

std::int64_t WriteTableCompressed(const engine::Table& table,
                                  std::ostream& out) {
  CrcSink sink(out);
  sink.Write(kMagicCompressed, sizeof(kMagicCompressed));
  sink.WriteRaw<std::uint32_t>(
      static_cast<std::uint32_t>(table.num_columns()));
  sink.WriteRaw<std::uint64_t>(
      static_cast<std::uint64_t>(table.num_rows()));
  std::string buf;  // reused per-column payload buffer
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    const engine::Field& field = table.schema().field(c);
    sink.WriteRaw<std::uint32_t>(
        static_cast<std::uint32_t>(field.name.size()));
    sink.Write(field.name.data(), field.name.size());
    sink.WriteRaw<std::uint8_t>(static_cast<std::uint8_t>(field.type));
    const engine::Column& col = table.column(c);
    buf.clear();
    switch (field.type) {
      case engine::DataType::kInt64: {
        // Frame-of-reference: one raw minimum, zig-zag varint deltas.
        sink.WriteRaw<std::uint8_t>(kEncForVarint);
        std::int64_t min = 0;
        for (std::size_t r = 0; r < col.ints().size(); ++r) {
          if (r == 0 || col.ints()[r] < min) min = col.ints()[r];
        }
        for (const std::int64_t v : col.ints()) {
          PutVarint(&buf, ZigZag(static_cast<std::int64_t>(
                              static_cast<std::uint64_t>(v) -
                              static_cast<std::uint64_t>(min))));
        }
        sink.WriteRaw<std::int64_t>(min);
        break;
      }
      case engine::DataType::kFloat64: {
        // Doubles stay raw: the bit-identity contract (NaN payloads,
        // -0.0) leaves no room for lossy packing, and these columns are
        // rarely the budget's heavy end.
        sink.WriteRaw<std::uint8_t>(kEncRaw);
        buf.assign(reinterpret_cast<const char*>(col.doubles().data()),
                   col.doubles().size() * sizeof(double));
        break;
      }
      case engine::DataType::kString: {
        // Dictionary page. Plain columns are encoded on the fly, so a
        // spilled plain MV refills compressed.
        sink.WriteRaw<std::uint8_t>(kEncDict);
        std::optional<engine::Column> fresh;
        if (!col.dictionary_encoded()) fresh.emplace(col.DictionaryEncode());
        const engine::Column& encoded = fresh ? *fresh : col;
        const engine::Column::Dictionary& dict = *encoded.dictionary();
        // Canonical page: only the entries some row uses, renumbered in
        // (sorted) dictionary order. A filtered column that still shares
        // its source's dictionary then writes the same bytes as its plain
        // twin, keeping SCC1 representation-independent like SCT1.
        std::vector<std::int32_t> remap(dict.size(), -1);
        for (const std::int32_t code : encoded.codes()) {
          remap[static_cast<std::size_t>(code)] = 0;
        }
        std::int32_t used = 0;
        for (std::int32_t& slot : remap) {
          if (slot == 0) slot = used++;
        }
        PutVarint(&buf, static_cast<std::uint64_t>(used));
        for (std::size_t i = 0; i < dict.size(); ++i) {
          if (remap[i] < 0) continue;
          PutVarint(&buf, dict[i].size());
          buf.append(dict[i]);
        }
        for (const std::int32_t code : encoded.codes()) {
          PutVarint(&buf, static_cast<std::uint64_t>(
                              remap[static_cast<std::size_t>(code)]));
        }
        break;
      }
    }
    WriteColumnPayload(sink, buf);
  }
  WriteFooter(sink, static_cast<std::uint64_t>(table.num_rows()),
              static_cast<std::uint32_t>(table.num_columns()),
              kFooterMagicCompressed);
  if (!out) throw std::runtime_error("SCC1: write failure");
  return sink.bytes();
}

namespace {

/// SCC1 body: everything after the magic, which the caller matched and
/// folded into `source`.
engine::Table ReadCompressedBody(CrcSource& source) {
  const auto num_cols = source.ReadRaw<std::uint32_t>("column count");
  if (num_cols > kMaxColumns) {
    throw CorruptFileError("SCC1: column count exceeds sanity cap");
  }
  const auto num_rows = source.ReadRaw<std::uint64_t>("row count");
  std::vector<engine::Field> fields;
  std::vector<engine::Column> columns;
  fields.reserve(num_cols);
  columns.reserve(num_cols);
  for (std::uint32_t c = 0; c < num_cols; ++c) {
    ColumnHeader header = ReadColumnHeader(source);
    const auto encoding = source.ReadRaw<std::uint8_t>("column encoding");
    switch (header.type) {
      case engine::DataType::kInt64: {
        if (encoding != kEncForVarint) {
          throw CorruptFileError("SCC1: bad int64 encoding");
        }
        const auto min = source.ReadRaw<std::int64_t>("frame minimum");
        const std::string buf = ReadColumnPayload(source);
        // Every varint is at least one byte: a row count beyond the
        // payload size is structurally impossible, and checking before
        // the allocation keeps hostile counts from reserving anything.
        if (num_rows > buf.size()) {
          throw CorruptFileError("SCC1: row count exceeds int64 payload");
        }
        std::vector<std::int64_t> values(num_rows);
        std::size_t pos = 0;
        for (std::uint64_t r = 0; r < num_rows; ++r) {
          values[r] = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(min) +
              static_cast<std::uint64_t>(
                  UnZigZag(GetVarint(buf.data(), buf.size(), &pos))));
        }
        if (pos != buf.size()) {
          throw CorruptFileError("SCC1: int64 payload has trailing bytes");
        }
        columns.push_back(engine::Column::FromInts(std::move(values)));
        break;
      }
      case engine::DataType::kFloat64: {
        if (encoding != kEncRaw) {
          throw CorruptFileError("SCC1: bad float64 encoding");
        }
        const std::string buf = ReadColumnPayload(source);
        if (buf.size() % sizeof(double) != 0 ||
            num_rows != buf.size() / sizeof(double)) {
          throw CorruptFileError("SCC1: bad float64 payload size");
        }
        std::vector<double> values(num_rows);
        if (num_rows > 0) {  // an empty vector's data() may be null
          std::memcpy(values.data(), buf.data(), buf.size());
        }
        columns.push_back(engine::Column::FromDoubles(std::move(values)));
        break;
      }
      case engine::DataType::kString: {
        if (encoding != kEncDict) {
          throw CorruptFileError("SCC1: bad string encoding");
        }
        const std::string buf = ReadColumnPayload(source);
        std::size_t pos = 0;
        const std::uint64_t dict_size =
            GetVarint(buf.data(), buf.size(), &pos);
        // Each dictionary entry needs at least its length varint, so the
        // remaining payload bounds the dictionary size (allocation cap).
        if (dict_size > buf.size() - pos) {
          throw CorruptFileError("SCC1: dictionary size exceeds payload");
        }
        std::vector<std::string> dict(dict_size);
        for (std::uint64_t i = 0; i < dict_size; ++i) {
          const std::uint64_t len = GetVarint(buf.data(), buf.size(), &pos);
          if (len > buf.size() - pos) {
            throw CorruptFileError("SCC1: truncated dictionary entry");
          }
          dict[i].assign(buf.data() + pos, len);
          pos += len;
        }
        if (num_rows > buf.size() - pos) {
          throw CorruptFileError("SCC1: row count exceeds code payload");
        }
        std::vector<std::int32_t> codes(num_rows);
        for (std::uint64_t r = 0; r < num_rows; ++r) {
          const std::uint64_t code = GetVarint(buf.data(), buf.size(), &pos);
          if (code >= dict_size) {
            throw CorruptFileError("SCC1: code out of dictionary range");
          }
          codes[r] = static_cast<std::int32_t>(code);
        }
        if (pos != buf.size()) {
          throw CorruptFileError("SCC1: string payload has trailing bytes");
        }
        columns.push_back(engine::Column::FromDictionary(
            std::make_shared<const engine::Column::Dictionary>(
                std::move(dict)),
            std::move(codes)));
        break;
      }
    }
    fields.push_back(engine::Field{std::move(header.name), header.type});
  }
  ReadFooter(source, num_rows, num_cols, kFooterMagicCompressed);
  return engine::Table(engine::Schema(std::move(fields)),
                       std::move(columns));
}

}  // namespace

engine::Table ReadTableCompressed(std::istream& in,
                                  const ReadOptions& options) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in ||
      std::memcmp(magic, kMagicCompressed, sizeof(kMagicCompressed)) != 0) {
    throw CorruptFileError("SCC1: bad magic");
  }
  CrcSource source(in, options.verify_checksums, "SCC1");
  source.FoldCrc(magic, sizeof(magic));
  return ReadCompressedBody(source);
}

EncodedBytes EncodeTableCompressed(const engine::Table& table) {
  EncodedBytes chunks;
  ChunkAppendBuf buf(&chunks);
  std::ostream out(&buf);
  WriteTableCompressed(table, out);
  return chunks;
}

std::int64_t WriteTableFileCompressed(const engine::Table& table,
                                      const std::string& path) {
  return WriteFileAtomic(path, [&](std::ostream& out) {
    return WriteTableCompressed(table, out);
  });
}

engine::Table ReadTableFileCompressed(const std::string& path,
                                      const ReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return ReadTableCompressed(in, options);
}

}  // namespace sc::storage

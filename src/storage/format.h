#ifndef SC_STORAGE_FORMAT_H_
#define SC_STORAGE_FORMAT_H_

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/table.h"

namespace sc::storage {

/// Raised by the readers for any integrity failure in an SCT1/SCC1
/// stream: bad magic, structurally impossible headers, truncation, torn
/// writes, and (in verifying mode) checksum mismatches. Derives from
/// std::runtime_error so pre-durability catch sites keep working; new
/// code catches the precise type to distinguish "the file is damaged"
/// (fall back to recompute / quarantine) from environmental I/O errors.
class CorruptFileError : public std::runtime_error {
 public:
  explicit CorruptFileError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Read-side integrity knob. With verify_checksums (the default) every
/// column payload is checked against its stored CRC32C and the footer's
/// whole-file checksum is recomputed — a single flipped bit anywhere in
/// the stream raises CorruptFileError. Without it, readers still parse
/// defensively (bounded allocations, structural bounds checks, footer
/// row/column cross-check and end marker — truncation and torn tails are
/// still caught) but skip the checksum arithmetic; the bench gate keeps
/// the verified mode within 5% of this fast path.
struct ReadOptions {
  bool verify_checksums = true;
};

/// Plain binary columnar table format ("SCT1"): the exchange and
/// reference encoding (the benchmark's format probe, tests, legacy
/// warehouses). The warehouse itself stores SCC1 (below). Layout:
///
///   magic "SCT1" | u32 num_cols | u64 num_rows
///   per column: u32 name_len | name | u8 type
///               | u64 payload_len | payload | u32 payload_crc32c
///   payload: int64/float64 -> raw array; string -> per value u32 len+bytes
///   footer: u64 num_rows | u32 num_cols | u32 file_crc32c | "SCTF"
///
/// The file checksum covers every metadata byte from the magic up to
/// (excluding) the footer — counts, column headers, payload lengths, and
/// the per-column checksum words. Payload bytes are covered by their own
/// per-column CRC32C (hashed exactly once), which the file checksum
/// seals in turn, so a flip anywhere still fails verification. Both SCC1
/// and SCT1 share this coverage rule. All integers
/// little-endian (host order; the format is not meant for
/// cross-architecture exchange). Dictionary-encoded string columns are
/// written decoded, so SCT1 bytes are representation-independent.

/// Serializes `table` to `out`. Returns bytes written.
std::int64_t WriteTable(const engine::Table& table, std::ostream& out);

/// Deserializes a table from `in`, sniffing the 4-byte magic: SCT1 and
/// SCC1 streams both read (SCC1 string columns come back
/// dictionary-encoded). Throws CorruptFileError on any other magic and
/// on a malformed, truncated, or (when verifying) corrupted stream. Hostile
/// length fields never cause over-allocation: payloads are read in
/// bounded chunks, so memory use is capped by the bytes actually
/// present plus one chunk.
engine::Table ReadTable(std::istream& in, const ReadOptions& options = {});

/// Size in bytes WriteTable would produce (without serializing).
std::int64_t SerializedSize(const engine::Table& table);

/// File convenience wrappers; throw std::runtime_error on I/O failure
/// and CorruptFileError on damaged content. WriteTableFile writes SCT1;
/// ReadTableFile reads either format, like ReadTable.
std::int64_t WriteTableFile(const engine::Table& table,
                            const std::string& path);
engine::Table ReadTableFile(const std::string& path,
                            const ReadOptions& options = {});

/// Compressed columnar block format ("SCC1"): the warehouse format — the
/// stand-in for the paper's dictionary-encoded, compressed Parquet/ORC
/// files on external storage. ThrottledDisk writes every base table and
/// MV in it, and SharedCatalog spill files use it too. Layout:
///
///   magic "SCC1" | u32 num_cols | u64 num_rows
///   per column: u32 name_len | name | u8 type | u8 encoding
///               [| i64 frame_min when encoding == for-varint]
///               | u64 payload_len | payload | u32 payload_crc32c
///   footer: u64 num_rows | u32 num_cols | u32 file_crc32c | "SCCF"
///
/// Encodings:
///   0 raw      — float64 payload, raw array (doubles round-trip by bit
///                pattern; no lossy packing).
///   1 for-varint — int64 payload: raw i64 frame minimum, then one
///                zig-zag LEB128 varint per value of (v - min). Cold
///                surrogate-key/date columns shrink to 1-2 bytes/value.
///   2 dict     — string payload: varint dict_size, dictionary entries
///                (varint len + bytes, sorted unique), then one LEB128
///                varint code per row. Plain string columns are
///                dictionary-encoded on write; the reader always
///                returns a dictionary-encoded engine::Column, so a
///                refilled entry stays compressed in memory too. The
///                page is canonical: it holds only the entries some row
///                uses, so a column and its plain decoding write
///                identical bytes whatever dictionary they share.

/// Serializes `table` compressed to `out`. Returns bytes written.
std::int64_t WriteTableCompressed(const engine::Table& table,
                                  std::ostream& out);

/// Deserializes an SCC1 stream only (an SCT1 magic is a
/// CorruptFileError here; ReadTable accepts both). String columns come back
/// dictionary-encoded. Throws CorruptFileError on a malformed,
/// truncated, or (when verifying) corrupted stream, with the same
/// bounded-allocation guarantees as ReadTable.
engine::Table ReadTableCompressed(std::istream& in,
                                  const ReadOptions& options = {});

/// An encoding held in memory: its bytes in order, split into chunks of
/// kEncodedChunkBytes (only the last one shorter). Chunks of one size
/// are what the allocator recycles best; one buffer regrown to each
/// file's size leaves the heap fragmented.
using EncodedBytes = std::vector<std::string>;
inline constexpr std::size_t kEncodedChunkBytes = 64 * 1024;

/// Encodes `table` as SCC1 in memory, once: the bytes
/// WriteTableCompressed would stream.
EncodedBytes EncodeTableCompressed(const engine::Table& table);

/// Writes `chunks` to `path` through a temporary file renamed into
/// place, so the destination is always either the old file or the new
/// one. Returns bytes written; throws std::runtime_error on I/O failure.
std::int64_t WriteFileAtomic(const std::string& path,
                             const EncodedBytes& chunks);

/// File wrappers with the same write-then-rename atomicity as
/// WriteTableFile; throw std::runtime_error on I/O failure and
/// CorruptFileError on damaged content.
std::int64_t WriteTableFileCompressed(const engine::Table& table,
                                      const std::string& path);
engine::Table ReadTableFileCompressed(const std::string& path,
                                      const ReadOptions& options = {});

}  // namespace sc::storage

#endif  // SC_STORAGE_FORMAT_H_

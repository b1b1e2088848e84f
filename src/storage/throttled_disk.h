#ifndef SC_STORAGE_THROTTLED_DISK_H_
#define SC_STORAGE_THROTTLED_DISK_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "engine/table.h"
#include "fault/fault.h"

namespace sc::storage {

/// Bandwidth/latency parameters for the emulated external storage.
struct DiskProfile {
  double read_bw = 519.8e6;   // bytes/second
  double write_bw = 358.9e6;  // bytes/second
  double latency = 175e-6;    // seconds per access
  /// When false, operations run at native speed (unit tests).
  bool throttle = true;
  /// Number of independent storage channels: at most this many
  /// operations make progress concurrently, each at full bandwidth. 1
  /// (the default) reproduces the paper's single-channel NFS model;
  /// serving deployments (RefreshService) raise it to match their
  /// worker count.
  int channels = 1;
  /// Verify file checksums on every read (the serving default): a
  /// damaged warehouse file surfaces as storage::CorruptFileError
  /// instead of a garbage table. False skips the checksum arithmetic
  /// (structural bounds checks still apply) — the bench overhead gate
  /// compares the two modes.
  bool verify_reads = true;
};

/// External storage emulation: persists tables as compressed SCC1 files
/// (storage/format.h) under a root directory and pads each operation's
/// wall time to what the configured device would need for the bytes it
/// moves — the file as stored, on reads and writes alike — sleeping the
/// remainder after the real I/O. Reads sniff the magic, so legacy SCT1
/// files under the root stay readable (and are charged their size). This
/// stands in for the paper's NFS + Hive warehouse directory so that
/// read/write short-circuiting produces measurable wall-clock savings at
/// laptop scale.
///
/// Thread-safe: a per-table reader-writer lock lets concurrent reads of
/// the same file overlap while a writer never races a reader, and at
/// most `profile.channels` operations run concurrently overall. With the
/// default single channel, background materialization genuinely competes
/// with foreground I/O, as in §III-C.
///
/// Unchanged writes are skipped. SCC1 is canonical, so a table whose encoding
/// equals the file this disk last landed under the same name is already on disk
/// byte for byte, whatever produced it. What is trusted: an in-process record
/// per name of the last landed write (a 64-bit hash of its bytes, its size,
/// inode and mtime), plus one uncharged stat() of the file at skip time. Every
/// landed write renames a fresh file into place and then sets its mtime just
/// before the one it landed with, so any later change to the file (another
/// writer's rename, an in-place overwrite, a truncation) moves the inode, the
/// size or the mtime, and the next write lands again. A record is dropped on
/// Remove, on any failed write, when an injected kDiskWrite corruption damages
/// the landed file, and when a verified read of the name raises
/// CorruptFileError; a new disk starts with none. A skipped write moves no
/// bytes, takes no padding and does no file I/O, so it costs no device time
/// beyond the encode-and-hash it held a channel for.
class ThrottledDisk {
 public:
  ThrottledDisk(std::string root_dir, DiskProfile profile);

  /// Persists `table` as SCC1 in `<root>/<name>.sct` (the suffix names
  /// the warehouse slot, not the encoding); returns the encoding's size
  /// in bytes, which a landed write is padded for. When the bytes match
  /// the file already on disk the write is skipped (see above), and
  /// `*skipped` (if given) says which happened. Throws
  /// std::runtime_error on I/O failure.
  std::int64_t WriteTable(const std::string& name,
                          const engine::Table& table,
                          bool* skipped = nullptr);

  /// Loads `<root>/<name>.sct` (SCC1, or a legacy SCT1 file), padded for
  /// the file's on-disk size. With DiskProfile::verify_reads the read
  /// is checksum-verified and throws storage::CorruptFileError on any
  /// damage.
  engine::Table ReadTable(const std::string& name);

  bool Exists(const std::string& name) const;
  /// Deletes the file if present.
  void Remove(const std::string& name);

  /// Bytes of the stored table file, or -1 if absent.
  std::int64_t FileSize(const std::string& name) const;

  const std::string& root_dir() const { return root_dir_; }
  const DiskProfile& profile() const { return profile_; }

  /// Cumulative seconds spent inside read/write calls (throttled time).
  double total_read_seconds() const;
  double total_write_seconds() const;

  /// Completed ReadTable calls for `name` since construction.
  std::int64_t read_count(const std::string& name) const;

  /// WriteTable calls skipped because their bytes were already on disk,
  /// and the bytes those calls did not write. A skipped call's channel
  /// time still counts in total_write_seconds().
  std::int64_t skipped_writes() const;
  std::int64_t skipped_write_bytes() const;

  /// Attaches a seeded fault injector: every read/write first probes it
  /// at Site::kDiskRead / kDiskWrite with the table name and throws
  /// fault::FaultError when a rule fires. Corruption rules at kDiskWrite
  /// instead fire *after* the write lands and damage the on-disk file —
  /// a later verified read detects them as CorruptFileError. nullptr
  /// detaches. The injector must outlive the disk.
  void SetFaultInjector(fault::FaultInjector* injector);

 private:
  /// The file a landed write left under a name: what a later identical
  /// write checks before it skips.
  struct LandedFile {
    std::uint64_t hash = 0;
    std::int64_t bytes = 0;
    std::uint64_t inode = 0;
    std::int64_t mtime_ns = 0;
  };

  std::string PathFor(const std::string& name) const;
  /// True when the record for `name` matches `hash` and `bytes` and a
  /// stat of the file still shows the recorded inode, size and mtime.
  bool AlreadyOnDisk(const std::string& name, std::uint64_t hash,
                     std::int64_t bytes) const;
  void ForgetLanded(const std::string& name);
  /// Fills `file`'s inode, size and mtime from a stat of `path`; false
  /// when it cannot be stat'ed.
  static bool StatFile(const std::string& path, LandedFile* file);
  /// Sets the just-landed file's mtime one nanosecond back and stats it
  /// into `file`; false on failure (the write then stays unrecorded).
  static bool StampLanded(const std::string& path, LandedFile* file);
  /// Sleeps until `elapsed` reaches the target duration for `bytes`.
  void PadToTarget(double start_monotonic, std::int64_t bytes,
                   double bandwidth);
  static double Now();
  std::shared_ptr<std::shared_mutex> FileLock(const std::string& name);
  void AcquireChannel();
  void ReleaseChannel();

  std::string root_dir_;
  DiskProfile profile_;
  mutable std::mutex mutex_;  // guards everything below
  std::condition_variable channel_cv_;
  int active_channels_ = 0;
  std::map<std::string, std::shared_ptr<std::shared_mutex>> file_locks_;
  double total_read_seconds_ = 0.0;
  double total_write_seconds_ = 0.0;
  std::map<std::string, std::int64_t> read_counts_;
  std::map<std::string, LandedFile> landed_;
  std::int64_t skipped_writes_ = 0;
  std::int64_t skipped_write_bytes_ = 0;
  fault::FaultInjector* fault_injector_ = nullptr;  // not owned
};

}  // namespace sc::storage

#endif  // SC_STORAGE_THROTTLED_DISK_H_

#include "storage/throttled_disk.h"

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <thread>

#include "common/fnv.h"
#include "storage/format.h"

namespace sc::storage {

namespace fs = std::filesystem;

namespace {

/// 64-bit hash of an encoding, eight bytes per step with
/// MurmurHash64A's multiply-xorshift mixing, chunk by chunk. Equal bytes
/// split into equal chunks, so equal encodings hash equal. A collision
/// would keep a stale file in place, so 32 bits (a bare CRC32C) would
/// not do.
std::uint64_t Hash64(const EncodedBytes& chunks) {
  constexpr std::uint64_t kMul = 0xc6a4a7935bd1e995ULL;
  constexpr int kShift = 47;
  std::uint64_t n = 0;
  for (const std::string& chunk : chunks) n += chunk.size();
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ (n * kMul);
  for (const std::string& chunk : chunks) {
    std::size_t i = 0;
    for (; i + 8 <= chunk.size(); i += 8) {
      std::uint64_t k;
      std::memcpy(&k, chunk.data() + i, 8);
      k *= kMul;
      k ^= k >> kShift;
      k *= kMul;
      h ^= k;
      h *= kMul;
    }
    if (i < chunk.size()) {
      std::uint64_t tail = 0;
      std::memcpy(&tail, chunk.data() + i, chunk.size() - i);
      h ^= tail;
      h *= kMul;
    }
  }
  h ^= h >> kShift;
  h *= kMul;
  h ^= h >> kShift;
  return h;
}

}  // namespace

ThrottledDisk::ThrottledDisk(std::string root_dir, DiskProfile profile)
    : root_dir_(std::move(root_dir)), profile_(profile) {
  profile_.channels = std::max(1, profile_.channels);
  fs::create_directories(root_dir_);
}

std::string ThrottledDisk::PathFor(const std::string& name) const {
  return root_dir_ + "/" + name + ".sct";
}

double ThrottledDisk::Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ThrottledDisk::PadToTarget(double start_monotonic, std::int64_t bytes,
                                double bandwidth) {
  if (!profile_.throttle) return;
  const double target =
      profile_.latency + static_cast<double>(bytes) / bandwidth;
  const double elapsed = Now() - start_monotonic;
  if (elapsed < target) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(target - elapsed));
  }
}

std::shared_ptr<std::shared_mutex> ThrottledDisk::FileLock(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = file_locks_[name];
  if (slot == nullptr) slot = std::make_shared<std::shared_mutex>();
  return slot;
}

void ThrottledDisk::AcquireChannel() {
  std::unique_lock<std::mutex> lock(mutex_);
  channel_cv_.wait(lock,
                   [this] { return active_channels_ < profile_.channels; });
  ++active_channels_;
}

void ThrottledDisk::ReleaseChannel() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_channels_;
  }
  channel_cv_.notify_one();
}

void ThrottledDisk::SetFaultInjector(fault::FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mutex_);
  fault_injector_ = injector;
}

std::int64_t ThrottledDisk::WriteTable(const std::string& name,
                                       const engine::Table& table,
                                       bool* skipped) {
  // Lock order: per-file lock, then a channel slot. Writers exclude
  // everything on the same name; operations on distinct files overlap up
  // to the channel count.
  const std::shared_ptr<std::shared_mutex> file_lock = FileLock(name);
  std::unique_lock<std::shared_mutex> file_guard(*file_lock);
  fault::FaultInjector* injector = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    injector = fault_injector_;
  }
  const std::string path = PathFor(name);
  LandedFile landed;
  bool in_channel = false;
  bool skip = false;
  bool recorded = false;
  double start = 0.0;
  try {
    // Faults fire before any bytes land, so a failed write never leaves
    // a partial file behind (the Materializer still Remove()s
    // defensively). The probe comes first even for a write that turns
    // out unchanged, so fault schedules count the same hits either way.
    if (injector != nullptr) {
      injector->MaybeThrow(fault::Site::kDiskWrite, name);
    }
    AcquireChannel();
    in_channel = true;
    start = Now();
    // Encoded inside the channel and the pad, as a plain write always
    // was, so a write that lands is padded exactly as before.
    const EncodedBytes encoded = EncodeTableCompressed(table);
    landed.hash = Hash64(encoded);
    for (const std::string& chunk : encoded) {
      landed.bytes += static_cast<std::int64_t>(chunk.size());
    }
    skip = AlreadyOnDisk(name, landed.hash, landed.bytes);
    if (!skip) {
      WriteFileAtomic(path, encoded);
      // Post-write corruption probe: the write "succeeded" but the
      // device lied. Damage the landed file and keep no record of it: a
      // verified read must catch it, and an identical write repairs it.
      const fault::CorruptionSpec spec =
          injector != nullptr
              ? injector->ShouldCorrupt(fault::Site::kDiskWrite, name)
              : fault::CorruptionSpec{};
      if (spec.kind != fault::CorruptKind::kNone) {
        fault::CorruptFile(path, spec);
      } else {
        recorded = StampLanded(path, &landed);
      }
      PadToTarget(start, landed.bytes, profile_.write_bw);
    }
  } catch (...) {
    if (in_channel) ReleaseChannel();
    ForgetLanded(name);  // whatever failed, the next write lands
    throw;
  }
  ReleaseChannel();
  const double elapsed = Now() - start;
  if (skipped != nullptr) *skipped = skip;
  std::lock_guard<std::mutex> lock(mutex_);
  total_write_seconds_ += elapsed;
  if (skip) {
    ++skipped_writes_;
    skipped_write_bytes_ += landed.bytes;
  } else if (recorded) {
    landed_[name] = landed;
  } else {
    landed_.erase(name);
  }
  return landed.bytes;
}

bool ThrottledDisk::StatFile(const std::string& path, LandedFile* file) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  file->inode = static_cast<std::uint64_t>(st.st_ino);
  file->bytes = static_cast<std::int64_t>(st.st_size);
  file->mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                       1'000'000'000 +
                   st.st_mtim.tv_nsec;
  return true;
}

bool ThrottledDisk::StampLanded(const std::string& path, LandedFile* file) {
  // File timestamps tick coarsely, so an in-place change right after the
  // rename could keep the landed mtime. Setting it one nanosecond earlier
  // (the filesystem may round it further down) leaves a value that no
  // later change can stamp: that change gets the current time, which is
  // at least the landed one.
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  timespec times[2];
  times[0].tv_sec = 0;
  times[0].tv_nsec = UTIME_OMIT;  // leave the access time alone
  times[1] = st.st_mtim;
  if (times[1].tv_nsec > 0) {
    --times[1].tv_nsec;
  } else {
    --times[1].tv_sec;
    times[1].tv_nsec = 999'999'999;
  }
  if (::utimensat(AT_FDCWD, path.c_str(), times, 0) != 0) return false;
  return StatFile(path, file);
}

bool ThrottledDisk::AlreadyOnDisk(const std::string& name,
                                  std::uint64_t hash,
                                  std::int64_t bytes) const {
  LandedFile recorded;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = landed_.find(name);
    if (it == landed_.end()) return false;
    recorded = it->second;
  }
  if (recorded.hash != hash || recorded.bytes != bytes) return false;
  LandedFile now;
  return StatFile(PathFor(name), &now) && now.inode == recorded.inode &&
         now.bytes == bytes && now.mtime_ns == recorded.mtime_ns;
}

void ThrottledDisk::ForgetLanded(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  landed_.erase(name);
}

engine::Table ThrottledDisk::ReadTable(const std::string& name) {
  const std::shared_ptr<std::shared_mutex> file_lock = FileLock(name);
  std::shared_lock<std::shared_mutex> file_guard(*file_lock);
  fault::FaultInjector* injector = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    injector = fault_injector_;
  }
  if (injector != nullptr) {
    injector->MaybeThrow(fault::Site::kDiskRead, name);
  }
  AcquireChannel();
  const double start = Now();
  std::optional<engine::Table> table;
  try {
    table.emplace(ReadTableFile(PathFor(name),
                                ReadOptions{profile_.verify_reads}));
    // Charge the device for the bytes it moved: the file as stored, not
    // the table's plain SCT1 encoding.
    PadToTarget(start, FileSize(name), profile_.read_bw);
  } catch (const CorruptFileError&) {
    // The file on disk is not what this disk landed: the next write of
    // the name must land again, even with identical bytes.
    ReleaseChannel();
    ForgetLanded(name);
    throw;
  } catch (...) {
    ReleaseChannel();
    throw;
  }
  ReleaseChannel();
  const double elapsed = Now() - start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    total_read_seconds_ += elapsed;
    ++read_counts_[name];
  }
  return std::move(*table);
}

bool ThrottledDisk::Exists(const std::string& name) const {
  return fs::exists(PathFor(name));
}

void ThrottledDisk::Remove(const std::string& name) {
  std::error_code ec;
  fs::remove(PathFor(name), ec);
  // Drop the per-file lock unless an operation still holds a reference,
  // so run-scoped table names don't accumulate locks forever.
  std::lock_guard<std::mutex> lock(mutex_);
  landed_.erase(name);
  auto it = file_locks_.find(name);
  if (it != file_locks_.end() && it->second.use_count() == 1) {
    file_locks_.erase(it);
  }
}

std::int64_t ThrottledDisk::FileSize(const std::string& name) const {
  std::error_code ec;
  const auto size = fs::file_size(PathFor(name), ec);
  if (ec) return -1;
  return static_cast<std::int64_t>(size);
}

ThrottledDisk::FileVersion ThrottledDisk::Version(
    const std::string& name) const {
  LandedFile file;
  if (!StatFile(PathFor(name), &file)) return {};
  std::uint64_t key = kFnvOffset;
  FnvMixString(&key, name);
  FnvMixUint(&key, file.inode);
  FnvMixInt(&key, file.bytes);
  FnvMixInt(&key, file.mtime_ns);
  return {key == 0 ? 1 : key, file.bytes};
}

double ThrottledDisk::total_read_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_read_seconds_;
}

double ThrottledDisk::total_write_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_write_seconds_;
}

std::int64_t ThrottledDisk::skipped_writes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return skipped_writes_;
}

std::int64_t ThrottledDisk::skipped_write_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return skipped_write_bytes_;
}

std::int64_t ThrottledDisk::read_count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = read_counts_.find(name);
  return it == read_counts_.end() ? 0 : it->second;
}

}  // namespace sc::storage

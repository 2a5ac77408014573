// Physical file IO for the durable store: append-only segment writing and
// atomic whole-file replacement (tmp + rename + directory fsync). Every
// failure surfaces as StoreError so the store can degrade instead of
// crashing.
//
// Fault injection: a process-wide hook observes every physical operation
// (write, fsync, rename) before it runs. Crash-matrix tests use it to
// simulate a full disk (return false -> the op fails like ENOSPC) or to
// SIGKILL the process at an exact op count (kill-anywhere recovery testing).
#ifndef BGPCU_STORE_IO_H
#define BGPCU_STORE_IO_H

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace bgpcu::store::io {

/// Called with the operation name ("write", "fsync", "rename") before each
/// physical op. Return false to fail the op as if the disk were full. Not
/// synchronized: install before the store starts doing IO, clear after.
using WriteHook = std::function<bool(const char* op)>;
void set_write_hook(WriteHook hook);

/// Invokes the hook (tests only); true when no hook is installed.
[[nodiscard]] bool write_allowed(const char* op);

/// Reads an entire file; throws StoreError when it cannot be opened or read.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// Writes `bytes` to `path` atomically: tmp file in the same directory,
/// fsync, rename over the target, fsync the directory. The target is either
/// fully the old content or fully the new — never a torn mix.
void write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes);

/// fsyncs a directory so a just-created/renamed entry survives power loss.
void fsync_dir(const std::string& dir);

/// An append-only file descriptor (one WAL segment). Not thread-safe.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  AppendFile(AppendFile&& other) noexcept;
  AppendFile& operator=(AppendFile&& other) noexcept;

  /// Creates `path` (must not exist) for appending. Throws StoreError.
  void create(const std::string& path);

  /// Appends all of `bytes`; throws StoreError on short/failed writes. After
  /// a failure the file may hold a torn record — the caller must rotate to a
  /// fresh segment before appending again.
  void append(std::span<const std::uint8_t> bytes);

  void sync();
  void close() noexcept;
  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::string path_;
};

}  // namespace bgpcu::store::io

#endif  // BGPCU_STORE_IO_H

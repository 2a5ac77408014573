#include "store/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "store/format.h"

namespace bgpcu::store::io {

namespace {

WriteHook g_write_hook;

[[noreturn]] void throw_errno(const std::string& what) {
  throw StoreError("store: " + what + ": " + std::strerror(errno));
}

void write_all(int fd, std::span<const std::uint8_t> bytes, const std::string& path) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    if (!write_allowed("write")) {
      errno = ENOSPC;
      throw_errno("write " + path);
    }
    const auto n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write " + path);
    }
    written += static_cast<std::size_t>(n);
  }
}

void fsync_fd(int fd, const std::string& path) {
  if (!write_allowed("fsync")) {
    errno = ENOSPC;
    throw_errno("fsync " + path);
  }
  if (::fsync(fd) != 0) throw_errno("fsync " + path);
}

}  // namespace

void set_write_hook(WriteHook hook) { g_write_hook = std::move(hook); }

bool write_allowed(const char* op) { return !g_write_hook || g_write_hook(op); }

std::vector<std::uint8_t> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("open " + path);
  std::vector<std::uint8_t> bytes;
  struct ::stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    bytes.reserve(static_cast<std::size_t>(st.st_size));
  }
  std::uint8_t buffer[1 << 16];
  for (;;) {
    const auto n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("read " + path);
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  ::close(fd);
  return bytes;
}

void write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("open " + tmp);
  try {
    write_all(fd, bytes, tmp);
    fsync_fd(fd, tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (!write_allowed("rename")) {
    ::unlink(tmp.c_str());
    errno = ENOSPC;
    throw_errno("rename " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    throw_errno("rename " + tmp);
  }
  const auto slash = path.find_last_of('/');
  fsync_dir(slash == std::string::npos ? "." : path.substr(0, slash));
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("open " + dir);
  try {
    fsync_fd(fd, dir);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

AppendFile::~AppendFile() { close(); }

AppendFile::AppendFile(AppendFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)) {}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
  }
  return *this;
}

void AppendFile::create(const std::string& path) {
  close();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("create " + path);
  fd_ = fd;
  size_ = 0;
  path_ = path;
}

void AppendFile::append(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) throw StoreError("store: append on closed segment");
  write_all(fd_, bytes, path_);
  size_ += bytes.size();
}

void AppendFile::sync() {
  if (fd_ < 0) return;
  fsync_fd(fd_, path_);
}

void AppendFile::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace bgpcu::store::io

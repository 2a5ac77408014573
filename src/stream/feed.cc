#include "stream/feed.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>

#include "mrt/reader.h"
#include "obs/trace.h"
#include "obs/wellknown.h"

namespace bgpcu::stream {

namespace fs = std::filesystem;

namespace {

/// Length of the prefix of `data` covered by complete MRT records, as the
/// reader frames them. A trailing partial record is excluded, so a tail read
/// can stop at a clean frame boundary and resume when the writer finishes
/// the record.
std::size_t complete_record_prefix(std::span<const std::uint8_t> data) {
  mrt::MrtReader framing(data);
  while (framing.next_view()) {
  }
  return framing.records_end();
}

/// The file's inode, or 0 when it cannot be stat'ed.
std::uint64_t inode_of(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_ino) : 0;
}

/// Reads `path` from byte `offset` to EOF. Throws std::runtime_error when
/// the file cannot be opened or a hard read error occurs. A *short* read is
/// tolerated, not fatal: the size is sampled before the bytes are pulled, so
/// a writer truncating or rotating the file in between legitimately hands us
/// fewer bytes than the sample promised — the returned data is whatever was
/// actually read, and the next poll re-examines the file.
std::vector<std::uint8_t> read_from_offset(const std::string& path, std::uint64_t offset) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open feed file: " + path);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (size <= offset) return {};
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size - offset));
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  if (in.bad()) throw std::runtime_error("cannot read feed file: " + path);
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

}  // namespace

bool DirectoryFeed::head_changed(const std::string& path, const FileState& state) {
  if (state.head.empty()) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string head(state.head.size(), '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  if (in.bad()) return false;
  head.resize(static_cast<std::size_t>(in.gcount()));
  return head != state.head;
}

DirectoryFeed::DirectoryFeed(std::string directory, const registry::AllocationRegistry& registry,
                             std::string extension, std::uint32_t settle_seconds)
    : directory_(std::move(directory)),
      registry_(&registry),
      extension_(std::move(extension)),
      settle_seconds_(settle_seconds) {}

FeedPoll DirectoryFeed::poll() {
  auto& m = obs::metrics();
  m.feed_polls.add(1);
  obs::StageTimer poll_span(m.feed_poll_ns);
  std::error_code ec;
  fs::directory_iterator it(directory_, ec);
  if (ec) throw std::runtime_error("cannot scan feed directory " + directory_ + ": " + ec.message());

  // error_code overloads throughout the scan: a writer renaming or deleting
  // a file between the iterator yielding it and us stat-ing it is a normal
  // race for a tailed directory, not a reason to kill the service.
  std::vector<std::pair<std::string, std::int64_t>> fresh;  // path, mtime ticks
  for (fs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec) || ec) continue;
    const auto& path = it->path();
    if (!extension_.empty() && path.extension() != extension_) continue;
    const auto mtime = it->last_write_time(ec);
    // An unreadable mtime is recorded as 0 (never matches a real one), so
    // the next poll re-examines the file instead of trusting a stale stamp.
    const std::int64_t mtime_ticks =
        ec ? 0 : mtime.time_since_epoch().count();
    // Quiescence guard against collectors that write in place (no atomic
    // rename): leave a file alone until it stopped changing for the settle
    // window, so a half-written dump's tail is not permanently missed.
    if (settle_seconds_ != 0) {
      if (ec) continue;
      const auto age = std::chrono::duration_cast<std::chrono::seconds>(
          fs::file_time_type::clock::now() - mtime);
      if (age.count() < static_cast<std::int64_t>(settle_seconds_)) continue;
    }
    const auto size = it->file_size(ec);
    if (ec) continue;
    auto text = path.string();
    const auto state = files_.find(text);
    if (state != files_.end()) {
      // Rotation or rewrite reusing the name must start the file over,
      // whatever the replacement's size — tail-reading it from the stale
      // offset would misparse unrelated content. Three independent
      // detectors, because no single one covers every rewrite shape:
      // inode identity catches rename-rotation, the size check catches
      // shrinking in-place rewrites, and the first-bytes fingerprint
      // catches in-place rewrites that keep the inode *and* land on the
      // same or a larger size (O_TRUNC + rewrite on most filesystems).
      // The fingerprint read is gated on the mtime/size stamps, so a file
      // untouched since the last poll costs no open() to skip.
      const bool touched = mtime_ticks == 0 || mtime_ticks != state->second.mtime_seen ||
                           size != state->second.size_seen;
      const auto inode = inode_of(text);
      if ((state->second.inode != 0 && inode != 0 && inode != state->second.inode) ||
          size < state->second.size_seen ||
          (touched && head_changed(text, state->second))) {
        state->second = FileState{};
      } else if (size == state->second.size_seen) {
        // Touched but same size and same head (or untouched entirely):
        // nothing new to read. Remember the stamp so the fingerprint is
        // not re-verified every poll after a content-free touch.
        state->second.mtime_seen = mtime_ticks;
        continue;
      }
    }
    fresh.emplace_back(std::move(text), mtime_ticks);
  }
  std::sort(fresh.begin(), fresh.end());

  FeedPoll result;
  if (fresh.empty()) return result;

  collector::DatasetBuilder builder(*registry_);
  for (const auto& [path, mtime_ticks] : fresh) {
    // A file that vanished or is unreadable keeps its recorded offset
    // (retried next poll) and must not abort the batch — earlier files'
    // tuples already live in this builder.
    const auto known = files_.find(path);
    FileState state = known != files_.end() ? known->second : FileState{};
    std::size_t consumed = 0;
    try {
      state.inode = inode_of(path);
      // The scan-time stamp, deliberately: a write landing between the
      // scan's stat and this read moves the real mtime past the recorded
      // one, so the next poll re-examines the file rather than skipping it.
      state.mtime_seen = mtime_ticks;
      const bool from_start = state.offset == 0;
      const auto bytes = read_from_offset(path, state.offset);
      if (from_start && !bytes.empty()) {
        // Fingerprint the head while it is in hand: later polls compare
        // these bytes to detect in-place rewrites the size cannot show.
        state.head.assign(reinterpret_cast<const char*>(bytes.data()),
                          std::min<std::size_t>(kHeadFingerprint, bytes.size()));
      }
      consumed = complete_record_prefix(bytes);
      builder.add_dump(std::span(bytes.data(), consumed));
      state.offset += consumed;
      state.size_seen = state.offset + (bytes.size() - consumed);
      if (consumed > 0) m.feed_bytes_read.add(consumed);
    } catch (const std::exception&) {
      result.failed.push_back(path);
      m.feed_read_failures.add(1);
      continue;
    }
    files_[path] = state;
    // A poll that found only a partial trailing record consumed nothing:
    // don't report the file, or a data-less poll would count as an
    // ingesting epoch upstream (burning --window retention on no input).
    // The updated size_seen still prevents re-reading the tail every poll.
    if (consumed > 0) result.files.push_back(path);
  }
  auto bundle = builder.finish();
  result.batch = std::move(bundle.dataset);
  result.extraction = bundle.extraction;
  result.sanitation = bundle.sanitation;
  if (!result.files.empty()) m.feed_files_parsed.add(result.files.size());
  if (result.extraction.decode_errors != 0) {
    m.feed_decode_errors.add(result.extraction.decode_errors);
  }
  if (!result.batch.empty()) m.feed_tuples_extracted.add(result.batch.size());
  return result;
}

FeedMarks DirectoryFeed::export_marks() const {
  FeedMarks marks;
  marks.reserve(files_.size());
  for (const auto& [path, state] : files_) marks.push_back({path, state.offset});
  std::sort(marks.begin(), marks.end(),
            [](const FeedMark& a, const FeedMark& b) { return a.path < b.path; });
  return marks;
}

void DirectoryFeed::restore_marks(const FeedMarks& marks) {
  for (const auto& mark : marks) {
    FileState state;
    state.offset = mark.offset;
    // size_seen == offset means "no unconsumed tail": a file that has not
    // grown past the mark is skipped with a single stat, one that has is
    // read from the mark, and one that shrank below it is restarted (the
    // size < size_seen rotation check). Inode and head stay unrecorded; the
    // first real read re-fingerprints the file.
    state.size_seen = mark.offset;
    files_[mark.path] = state;
  }
}

}  // namespace bgpcu::stream

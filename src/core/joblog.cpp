#include "core/joblog.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace parcl::core {

namespace {
constexpr const char* kHeader =
    "Seq\tHost\tStarttime\tJobRuntime\tSend\tReceive\tExitval\tSignal\tCommand";

/// Appends `ms` milliseconds as seconds with three decimals.
void append_ms(std::string& out, std::int64_t ms) {
  if (ms < 0) {
    out += '-';
    ms = -ms;
  }
  util::append_int(out, ms / 1000);
  const char fraction[4] = {'.', static_cast<char>('0' + ms / 100 % 10),
                            static_cast<char>('0' + ms / 10 % 10),
                            static_cast<char>('0' + ms % 10)};
  out.append(fraction, sizeof(fraction));
}

/// Whether a rounded millisecond count prints the same in whole numbers as
/// "%.3f" prints it divided by 1000: true from +0 up to 2^43 ms (about 278
/// years), where the double nearest ms/1000 is within 1e-6 of it, and so is
/// the difference of two such values.
bool exact_ms(double ms) { return !std::signbit(ms) && ms <= 0x1p43; }

void start_row(std::string& out, std::uint64_t seq, std::string_view host) {
  util::append_int(out, seq);
  out += '\t';
  out += host;
}
}  // namespace

// POSIX guarantees a single write() to an O_APPEND fd is atomic with
// respect to other appenders, and a record never straddles two writes, so
// concurrent parcl instances sharing a joblog cannot interleave fields.
void write_all(int fd, const std::string& data, const char* what) {
  std::size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::SystemError(what, errno);
    }
    done += static_cast<std::size_t>(n);
  }
}

struct JoblogWriter::Impl {
  int fd = -1;
  bool fsync_each = false;
  std::string line;  // the row being written; keeps its capacity
  ~Impl() {
    if (fd >= 0) ::close(fd);
  }
};

// A file that does not end in '\n' carries a record torn by a crash. Left
// in place it would glue onto the next appended row and corrupt it, so the
// writer truncates back to the end of the last complete line. The torn seq
// was already treated as unlogged by the resume read, so dropping the
// fragment keeps reader and writer views consistent.
void trim_torn_tail(int fd, off_t size) {
  char last = '\n';
  if (size == 0 || (::pread(fd, &last, 1, size - 1) == 1 && last == '\n')) return;
  off_t end = size - 1;  // index of the last byte, known not to be '\n'
  char buffer[4096];
  while (end > 0) {
    off_t chunk = std::min<off_t>(end, static_cast<off_t>(sizeof(buffer)));
    if (::pread(fd, buffer, static_cast<std::size_t>(chunk), end - chunk) != chunk) break;
    for (off_t i = chunk; i-- > 0;) {
      if (buffer[i] == '\n') {
        if (::ftruncate(fd, end - chunk + i + 1) != 0) {
          throw util::SystemError("repair torn joblog tail", errno);
        }
        return;
      }
    }
    end -= chunk;
  }
  // No newline anywhere: the whole file is one torn fragment.
  if (::ftruncate(fd, 0) != 0) {
    throw util::SystemError("repair torn joblog tail", errno);
  }
}

double round_to_ms(double seconds) { return std::round(seconds * 1000.0) / 1000.0; }

JoblogWriter::JoblogWriter(const std::string& path, bool fsync_each)
    : impl_(std::make_unique<Impl>()) {
  impl_->fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (impl_->fd < 0) {
    throw util::SystemError("open joblog '" + path + "'", errno);
  }
  impl_->fsync_each = fsync_each;
  struct stat st{};
  if (::fstat(impl_->fd, &st) == 0) {
    trim_torn_tail(impl_->fd, st.st_size);
    if (::fstat(impl_->fd, &st) == 0 && st.st_size == 0) {
      write_all(impl_->fd, std::string(kHeader) + '\n', "write joblog");
    }
  }
}

JoblogWriter::~JoblogWriter() = default;

void JoblogWriter::record(const JobResult& result, const std::string& host) {
  std::string& line = impl_->line;
  line.clear();
  start_row(line, result.seq, host);
  append_row_tail(line, result);
  append(line);
}

void JoblogWriter::record(std::uint64_t seq, std::string_view host,
                          std::string_view tail) {
  std::string& line = impl_->line;
  line.clear();
  start_row(line, seq, host);
  line += tail;
  append(line);
}

std::string JoblogWriter::row(const JobResult& result, const std::string& host) {
  std::string line;
  line.reserve(64 + host.size() + result.command.size());
  start_row(line, result.seq, host);
  append_row_tail(line, result);
  return line;
}

void JoblogWriter::append_row_tail(std::string& out, const JobResult& result) {
  // The rounding of round_to_ms(), kept in whole milliseconds.
  const double start_ms = std::round(result.start_time * 1000.0);
  const double end_ms = std::round(result.end_time * 1000.0);
  out += '\t';
  if (exact_ms(start_ms) && exact_ms(end_ms)) {
    const auto start = static_cast<std::int64_t>(start_ms);
    append_ms(out, start);
    out += '\t';
    append_ms(out, static_cast<std::int64_t>(end_ms) - start);
  } else {
    const double start = round_to_ms(result.start_time);
    out += util::format_double(start, 3);
    out += '\t';
    out += util::format_double(round_to_ms(result.end_time) - start, 3);
  }
  out += "\t0\t";
  util::append_int(out, result.stdout_data.size());
  out += '\t';
  util::append_int(out, result.exit_code);
  out += '\t';
  util::append_int(out, result.term_signal);
  out += '\t';
  out += result.command;
  out += '\n';
}

void JoblogWriter::append(const std::string& row) {
  write_all(impl_->fd, row, "write joblog");
  if (impl_->fsync_each && ::fsync(impl_->fd) < 0) {
    throw util::SystemError("fsync joblog", errno);
  }
}

namespace {

/// Calls `visit(fields)` for each data row of a joblog stream, its nine
/// columns as views into the line (Command keeps any tabs of its own). The
/// header and blank lines are skipped. A final line without '\n' is the
/// signature of a write cut short by a crash (the writer ends every row
/// with '\n'): it is skipped and counted, and --resume re-runs its seq. A
/// row of fewer than nine columns throws ParseError with its line number.
template <typename Visit>
void for_each_row(std::istream& in, JoblogReadStats* stats, Visit visit) {
  std::string line;
  std::size_t line_number = 0;
  std::string_view fields[9];
  while (std::getline(in, line)) {
    ++line_number;
    if (in.eof() && !line.empty()) {
      if (stats != nullptr) ++stats->torn_lines;
      break;
    }
    if (line.empty() || util::starts_with(line, "Seq\t")) continue;
    std::string_view rest = line;
    for (std::size_t i = 0; i < 8; ++i) {
      std::size_t tab = rest.find('\t');
      if (tab == std::string_view::npos) {
        throw util::ParseError("joblog line " + std::to_string(line_number) +
                               ": expected 9 tab-separated fields");
      }
      fields[i] = rest.substr(0, tab);
      rest.remove_prefix(tab + 1);
    }
    fields[8] = rest;
    visit(fields);
  }
}

std::ifstream open_joblog(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::SystemError("open joblog '" + path + "'", errno);
  return in;
}

}  // namespace

std::vector<JoblogEntry> read_joblog_stream(std::istream& in, JoblogReadStats* stats) {
  std::vector<JoblogEntry> entries;
  for_each_row(in, stats, [&](const std::string_view* fields) {
    JoblogEntry entry;
    entry.seq = static_cast<std::uint64_t>(util::parse_long(fields[0]));
    entry.host = fields[1];
    entry.start_time = util::parse_double(fields[2]);
    entry.runtime = util::parse_double(fields[3]);
    entry.bytes_sent = static_cast<std::uint64_t>(util::parse_long(fields[4]));
    entry.bytes_received = static_cast<std::uint64_t>(util::parse_long(fields[5]));
    entry.exit_value = static_cast<int>(util::parse_long(fields[6]));
    entry.signal = static_cast<int>(util::parse_long(fields[7]));
    entry.command = fields[8];
    entries.push_back(std::move(entry));
  });
  return entries;
}

std::vector<JoblogEntry> read_joblog(const std::string& path, JoblogReadStats* stats) {
  std::ifstream in = open_joblog(path);
  return read_joblog_stream(in, stats);
}

std::set<std::uint64_t> resume_skip_set(const std::vector<JoblogEntry>& entries,
                                        bool rerun_failed) {
  // Later entries for the same seq win (a rerun overwrites history).
  std::map<std::uint64_t, bool> latest_ok;
  for (const auto& entry : entries) {
    latest_ok[entry.seq] = (entry.exit_value == 0 && entry.signal == 0);
  }
  std::set<std::uint64_t> skip;
  for (const auto& [seq, ok] : latest_ok) {
    if (!rerun_failed || ok) skip.insert(seq);
  }
  return skip;
}

std::map<std::uint64_t, bool> read_resume_status(const std::string& path,
                                                 JoblogReadStats* stats) {
  std::ifstream in = open_joblog(path);
  // Only seq/exitval/signal matter here; parse those and drop the line,
  // keeping memory at O(distinct seqs) instead of O(log length * row size).
  std::map<std::uint64_t, bool> latest_ok;
  for_each_row(in, stats, [&](const std::string_view* fields) {
    auto seq = static_cast<std::uint64_t>(util::parse_long(fields[0]));
    int exit_value = static_cast<int>(util::parse_long(fields[6]));
    int signal = static_cast<int>(util::parse_long(fields[7]));
    latest_ok[seq] = (exit_value == 0 && signal == 0);
  });
  return latest_ok;
}

std::set<std::uint64_t> read_resume_skip_set(const std::string& path, bool rerun_failed,
                                             JoblogReadStats* stats) {
  std::set<std::uint64_t> skip;
  for (const auto& [seq, ok] : read_resume_status(path, stats)) {
    if (!rerun_failed || ok) skip.insert(seq);
  }
  return skip;
}

std::vector<std::uint64_t> read_logged_seqs(const std::string& path) {
  std::ifstream in = open_joblog(path);
  std::vector<std::uint64_t> seqs;
  for_each_row(in, nullptr, [&](const std::string_view* fields) {
    seqs.push_back(static_cast<std::uint64_t>(util::parse_long(fields[0])));
  });
  std::sort(seqs.begin(), seqs.end());
  seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
  return seqs;
}

}  // namespace parcl::core

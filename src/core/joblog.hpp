// Joblog writer/reader in GNU Parallel's --joblog TSV format:
//   Seq  Host  Starttime  JobRuntime  Send  Receive  Exitval  Signal  Command
// The reader supports --resume (skip logged seqs) and --resume-failed
// (skip only logged successes).
//
// Crash safety: the writer emits each record as ONE write() to an O_APPEND
// fd, so a record is either fully present or absent — a SIGKILL mid-run
// can never interleave or tear rows. The only torn state a crash can leave
// is a final line cut short by the filesystem (e.g. power loss without
// --joblog-fsync); the reader detects that — a last line with no trailing
// newline — and skips it, reporting it through JoblogReadStats so --resume
// conservatively re-runs that seq.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/job.hpp"

namespace parcl::core {

struct JoblogEntry {
  std::uint64_t seq = 0;
  std::string host;
  double start_time = 0.0;
  double runtime = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  int exit_value = 0;
  int signal = 0;
  std::string command;
};

/// The joblog Host column of a job run on this machine, as GNU Parallel
/// writes it.
inline const std::string kLocalHost = ":";

/// `seconds` rounded to the millisecond grid the joblog's time columns use.
double round_to_ms(double seconds);

class JoblogWriter {
 public:
  /// Appends to `path`; writes the header only when the file is new/empty.
  /// A crash-torn final line (no trailing newline) is truncated away on
  /// open so new records never glue onto the fragment. With `fsync_each`,
  /// every record is fsync'd so it survives power loss. Throws SystemError
  /// when the file cannot be opened.
  explicit JoblogWriter(const std::string& path, bool fsync_each = false);
  ~JoblogWriter();
  JoblogWriter(const JoblogWriter&) = delete;
  JoblogWriter& operator=(const JoblogWriter&) = delete;

  /// Appends one row with one write() to the O_APPEND fd, so a crash can
  /// tear at most the final line, which the torn-tail repair removes.
  /// JobRuntime is the rounded end minus the rounded start (it may differ
  /// from the rounded runtime by 0.001 s), so Starttime + JobRuntime keeps
  /// the real order of one job's end and another's start.
  void record(const JobResult& result, const std::string& host);
  /// Appends the row `seq`, `host`, `tail` with one write(), where `tail`
  /// comes from append_row_tail(): two rows of one result that differ only
  /// in Seq and Host format their shared columns once.
  void record(std::uint64_t seq, std::string_view host, std::string_view tail);
  /// The row record() writes, made now and committed later by append():
  /// the engine's -k rows wait for their job's output this way.
  static std::string row(const JobResult& result, const std::string& host);
  /// Appends the columns after Host to `out`: the tab before Starttime,
  /// Starttime to Command, and the closing '\n'. The time columns are
  /// whole milliseconds written with three decimals, byte for byte what
  /// "%.3f" prints for round_to_ms().
  static void append_row_tail(std::string& out, const JobResult& result);
  void append(const std::string& row);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// What the lenient reader had to tolerate.
struct JoblogReadStats {
  /// 1 when the final line was torn (no trailing newline) and skipped.
  std::size_t torn_lines = 0;
};

/// Parses a joblog file. Unparseable interior lines throw ParseError (with
/// the line number); the header line is recognized and skipped; a torn
/// final line (no trailing newline — the signature of a crash mid-write)
/// is skipped and counted in `stats` when provided.
std::vector<JoblogEntry> read_joblog(const std::string& path,
                                     JoblogReadStats* stats = nullptr);
std::vector<JoblogEntry> read_joblog_stream(std::istream& in,
                                            JoblogReadStats* stats = nullptr);

/// Seqs to skip for --resume (every logged seq) or --resume-failed (only
/// seqs whose latest entry succeeded).
std::set<std::uint64_t> resume_skip_set(const std::vector<JoblogEntry>& entries,
                                        bool rerun_failed);

/// Streaming --resume read: folds `path` into the skip set line by line,
/// never materializing JoblogEntry records (a long-lived joblog can dwarf
/// the run itself). Seq-set semantics are independent of the run's total
/// job count — seqs beyond the current input are simply never pulled.
/// Same tolerance as read_joblog: header skipped, torn final line skipped
/// and counted, SystemError when the file cannot be opened.
std::set<std::uint64_t> read_resume_skip_set(const std::string& path, bool rerun_failed,
                                             JoblogReadStats* stats = nullptr);

/// Every seq `path` logs, sorted and unique: the --resume skip set of
/// read_resume_skip_set(path, false) in 8 bytes a seq. Same tolerance and
/// errors as the other readers.
std::vector<std::uint64_t> read_logged_seqs(const std::string& path);

/// The per-seq Exitval marker the joblog uses for a dependency-skipped job
/// (its predecessor failed and exhausted retries; the job never started).
/// Distinct from every real exit code (0..255), so --resume skips such rows
/// like any other logged seq while --resume-failed re-runs them together
/// with their repaired predecessor.
inline constexpr int kDepSkippedExitval = -1;

/// Streaming per-seq outcome map: seq -> latest row succeeded (exitval 0,
/// signal 0). The DAG resume path replays these as completion events so a
/// predecessor already in the joblog counts as satisfied (or re-propagates
/// its failure) without re-running it. Same tolerance as the skip-set read.
std::map<std::uint64_t, bool> read_resume_status(const std::string& path,
                                                 JoblogReadStats* stats = nullptr);

/// Truncates a crash-torn final line (one with no trailing newline) off the
/// open append-mode fd, so new records never glue onto the fragment. Shared
/// by every append-only journal with the joblog's one-write()-per-record
/// discipline (the server's intake journal reuses it verbatim).
void trim_torn_tail(int fd, off_t size);

/// Writes one whole record to `fd`, retrying short writes and EINTR; throws
/// SystemError(`what`) on failure. Shared the same way as trim_torn_tail.
void write_all(int fd, const std::string& data, const char* what);

}  // namespace parcl::core

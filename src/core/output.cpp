#include "core/output.hpp"

#include <algorithm>

namespace parcl::core {

namespace {

// One stream of one job, as the lines the job printed, each ended by '\n'.
// Untagged bytes go out as they are, plus the '\n' a last line without one
// gets; tagged lines are built into one buffer, the prefix before each.
void write_stream(std::ostream& stream, const std::string& prefix,
                  const std::string& data) {
  if (data.empty()) return;
  if (prefix.empty()) {
    stream.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (data.back() != '\n') stream.put('\n');
    return;
  }
  const std::size_t lines =
      static_cast<std::size_t>(std::count(data.begin(), data.end(), '\n')) + 1;
  std::string tagged;
  tagged.reserve(data.size() + lines * prefix.size() + 1);
  for (std::size_t start = 0; start < data.size();) {
    std::size_t end = std::min(data.find('\n', start), data.size());
    tagged += prefix;
    tagged.append(data, start, end - start);
    tagged += '\n';
    start = end + 1;
  }
  stream.write(tagged.data(), static_cast<std::streamsize>(tagged.size()));
}

}  // namespace

OutputCollator::OutputCollator(OutputMode mode, bool tag, std::ostream& out,
                               std::ostream& err)
    : OutputCollator(mode,
                     tag ? TagFn([](const JobResult& result) {
                       return result.args.empty() ? std::string() : result.args.front();
                     })
                         : TagFn(),
                     out, err) {}

OutputCollator::OutputCollator(OutputMode mode, TagFn tag, std::ostream& out,
                               std::ostream& err)
    : mode_(mode), tag_(std::move(tag)), out_(out), err_(err) {}

std::string OutputCollator::prefix_for(const JobResult& result) const {
  if (!tag_) return {};
  std::string prefix = tag_(result);
  if (!prefix.empty()) prefix += '\t';
  return prefix;
}

void OutputCollator::emit(const std::string& prefix, const std::string& out,
                          const std::string& err) {
  write_stream(out_, prefix, out);
  write_stream(err_, prefix, err);
}

void OutputCollator::advance() {
  while (true) {
    auto held = held_.find(next_seq_);
    if (held != held_.end()) {
      emit(held->second.prefix, held->second.out, held->second.err);
      held_.erase(held);
      ++next_seq_;
      continue;
    }
    auto absent = absent_.find(next_seq_);
    if (absent != absent_.end()) {
      absent_.erase(absent);
      ++next_seq_;
      continue;
    }
    return;
  }
}

bool OutputCollator::write_if_due(const JobResult& result) {
  if (mode_ == OutputMode::kUngroup) return true;  // children wrote directly
  if (mode_ == OutputMode::kKeepOrder && result.seq != next_seq_) return false;
  emit(prefix_for(result), result.stdout_data, result.stderr_data);
  if (mode_ == OutputMode::kKeepOrder) {
    ++next_seq_;
    advance();
  }
  return true;
}

void OutputCollator::deliver(const JobResult& result) {
  if (write_if_due(result)) return;
  held_.emplace(result.seq, Held{prefix_for(result), result.stdout_data, result.stderr_data});
}

void OutputCollator::deliver(JobResult&& result) {
  if (write_if_due(result)) return;
  held_.emplace(result.seq, Held{prefix_for(result), std::move(result.stdout_data),
                                 std::move(result.stderr_data)});
}

void OutputCollator::mark_absent(std::uint64_t seq) {
  if (mode_ != OutputMode::kKeepOrder) return;
  if (seq == next_seq_) {
    ++next_seq_;
    advance();
  } else {
    absent_.emplace(seq, true);
  }
}

void OutputCollator::finish() {
  // Emit whatever remains in seq order; gaps at this point mean the engine
  // halted, and parallel flushes completed jobs' output on halt too.
  for (auto& [seq, held] : held_) emit(held.prefix, held.out, held.err);
  held_.clear();
  absent_.clear();
}

}  // namespace parcl::core

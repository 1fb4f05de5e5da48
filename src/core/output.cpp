#include "core/output.hpp"

#include "util/strings.hpp"

namespace parcl::core {

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

void OutputCollator::emit(const JobResult& result) {
  auto write_stream = [&](std::ostream& stream, const std::string& data) {
    if (data.empty()) return;
    std::string prefix;
    if (tag_) {
      prefix = tag_(result);
      if (!prefix.empty()) prefix += "\t";
    }
    for (const auto& line : util::split_lines(data)) {
      stream << prefix << line << '\n';
    }
  };
  write_stream(out_, result.stdout_data);
  write_stream(err_, result.stderr_data);
}

void OutputCollator::advance() {
  while (true) {
    auto held = held_.find(next_seq_);
    if (held != held_.end()) {
      emit(held->second);
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

void OutputCollator::deliver(const JobResult& result) {
  if (mode_ == OutputMode::kUngroup) return;  // children wrote directly
  if (mode_ != OutputMode::kKeepOrder) {
    emit(result);
    return;
  }
  if (result.seq == next_seq_) {
    emit(result);
    ++next_seq_;
    advance();
  } else {
    held_.emplace(result.seq, result);
  }
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
  for (auto& [seq, result] : held_) emit(result);
  held_.clear();
  absent_.clear();
}

}  // namespace parcl::core

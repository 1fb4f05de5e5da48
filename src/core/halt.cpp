#include "core/halt.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace parcl::core {

HaltPolicy HaltPolicy::parse(const std::string& spec) {
  HaltPolicy policy;
  std::string text = util::trim(spec);
  if (text.empty() || text == "never") return policy;

  auto parts = util::split(text, ',');
  if (parts[0] == "now") {
    policy.when = HaltWhen::kNow;
  } else if (parts[0] == "soon") {
    policy.when = HaltWhen::kSoon;
  } else {
    throw util::ParseError("halt: expected now|soon|never, got '" + parts[0] + "'");
  }
  if (parts.size() != 2) throw util::ParseError("halt: expected '<when>,<on>=<N>'");

  auto kv = util::split(parts[1], '=');
  if (kv.size() != 2) throw util::ParseError("halt: expected '<on>=<N>' after comma");
  if (kv[0] == "fail") {
    policy.on = HaltOn::kFail;
  } else if (kv[0] == "success") {
    policy.on = HaltOn::kSuccess;
  } else if (kv[0] == "done") {
    policy.on = HaltOn::kDone;
  } else {
    throw util::ParseError("halt: expected fail|success|done, got '" + kv[0] + "'");
  }
  std::string value = kv[1];
  if (!value.empty() && value.back() == '%') {
    policy.percent = util::parse_double(value.substr(0, value.size() - 1));
    if (policy.percent <= 0.0 || policy.percent > 100.0) {
      throw util::ParseError("halt: percentage must be in (0, 100]");
    }
  } else {
    long count = util::parse_long(value);
    if (count <= 0) throw util::ParseError("halt: count must be positive");
    policy.count = static_cast<std::size_t>(count);
  }
  return policy;
}

bool HaltPolicy::triggered(std::size_t failed, std::size_t succeeded, std::size_t done,
                           std::size_t total_jobs) const noexcept {
  if (when == HaltWhen::kNever) return false;
  std::size_t tally = 0;
  switch (on) {
    case HaltOn::kFail: tally = failed; break;
    case HaltOn::kSuccess: tally = succeeded; break;
    case HaltOn::kDone: tally = done; break;
  }
  if (percent > 0.0) {
    if (total_jobs == 0) return false;
    double fraction = 100.0 * static_cast<double>(tally) / static_cast<double>(total_jobs);
    return fraction >= percent;
  }
  return tally >= count;
}

bool HaltPolicy::exits_with_job_status() const noexcept {
  return when != HaltWhen::kNever && on == HaltOn::kFail && percent == 0.0 && count == 1;
}

std::string HaltPolicy::to_string() const {
  if (when == HaltWhen::kNever) return "never";
  std::string out = when == HaltWhen::kNow ? "now," : "soon,";
  switch (on) {
    case HaltOn::kFail: out += "fail="; break;
    case HaltOn::kSuccess: out += "success="; break;
    case HaltOn::kDone: out += "done="; break;
  }
  if (percent > 0.0) {
    out += util::format_double(percent, 0) + "%";
  } else {
    out += std::to_string(count);
  }
  return out;
}

}  // namespace parcl::core

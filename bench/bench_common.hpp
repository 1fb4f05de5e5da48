// Shared helpers for the per-figure benchmark harnesses.
//
// Every harness prints (a) the series the paper's figure plots, and (b) a
// "paper vs measured" check table for the headline quantities, so
// EXPERIMENTS.md can quote rows verbatim.
#pragma once

#include <cctype>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace parcl::bench {

inline void print_header(const std::string& figure, const std::string& title) {
  std::cout << "\n==== " << figure << ": " << title << " ====\n\n";
}

/// One row of the reproduction check: quantity, paper value, measured value.
class CheckTable {
 public:
  CheckTable() : table_({"quantity", "paper", "measured", "verdict"}) {}

  void add(const std::string& quantity, const std::string& paper, double measured,
           int precision, bool ok) {
    add_text(quantity, paper, util::format_double(measured, precision), ok);
  }

  void add_text(const std::string& quantity, const std::string& paper,
                const std::string& measured, bool ok) {
    table_.add_row({quantity, paper, measured, ok ? "OK" : "DIVERGES"});
    diverged_ = diverged_ || !ok;
  }

  void print() const { std::cout << "reproduction check:\n" << table_.render() << '\n'; }

  /// The bench's exit status: 1 when any row diverges from the paper, so a
  /// CI step running it fails.
  int exit_status() const noexcept { return diverged_ ? 1 : 0; }

 private:
  util::Table table_;
  bool diverged_ = false;
};

/// Machine-readable benchmark output: a two-level JSON object
/// `{"section": {"key": value, ...}, ...}` written with merge-on-write
/// semantics so several bench binaries can contribute sections to the same
/// file (e.g. BENCH_dispatch.json). The loader only needs to parse files
/// this class wrote; anything unparseable is treated as empty.
class BenchJson {
 public:
  explicit BenchJson(std::string path) : path_(std::move(path)) { load(); }

  void set(const std::string& section, const std::string& key, double value) {
    set_raw(section, key, util::format_double(value, 3));
  }

  void set_text(const std::string& section, const std::string& key,
                const std::string& value) {
    set_raw(section, key, "\"" + value + "\"");
  }

  void write() const {
    std::ofstream out(path_, std::ios::trunc);
    out << "{\n";
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      out << "  \"" << sections_[s].first << "\": {\n";
      const auto& fields = sections_[s].second;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        out << "    \"" << fields[f].first << "\": " << fields[f].second
            << (f + 1 < fields.size() ? "," : "") << '\n';
      }
      out << "  }" << (s + 1 < sections_.size() ? "," : "") << '\n';
    }
    out << "}\n";
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  void set_raw(const std::string& section, const std::string& key,
               std::string value) {
    Fields& fields = section_fields(section);
    for (auto& [k, v] : fields) {
      if (k == key) {
        v = std::move(value);
        return;
      }
    }
    fields.emplace_back(key, std::move(value));
  }

  Fields& section_fields(const std::string& section) {
    for (auto& [name, fields] : sections_) {
      if (name == section) return fields;
    }
    sections_.emplace_back(section, Fields{});
    return sections_.back().second;
  }

  void load() {
    std::ifstream in(path_);
    if (!in) return;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    // Minimal scan of our own output format: quoted section names opening
    // `{`, then quoted keys with scalar values until the closing `}`.
    std::size_t i = 0;
    auto skip_ws = [&] {
      while (i < text.size() &&
             std::isspace(static_cast<unsigned char>(text[i])) != 0)
        ++i;
    };
    auto read_string = [&]() -> std::string {
      std::string value;
      ++i;  // opening quote
      while (i < text.size() && text[i] != '"') value += text[i++];
      if (i < text.size()) ++i;  // closing quote
      return value;
    };
    skip_ws();
    if (i >= text.size() || text[i] != '{') return;
    ++i;
    while (true) {
      skip_ws();
      if (i >= text.size() || text[i] == '}') return;
      if (text[i] == ',') {
        ++i;
        continue;
      }
      if (text[i] != '"') return;  // not our format: stop merging
      std::string section = read_string();
      skip_ws();
      if (i >= text.size() || text[i] != ':') return;
      ++i;
      skip_ws();
      if (i >= text.size() || text[i] != '{') return;
      ++i;
      while (true) {
        skip_ws();
        if (i >= text.size()) return;
        if (text[i] == '}') {
          ++i;
          break;
        }
        if (text[i] == ',') {
          ++i;
          continue;
        }
        if (text[i] != '"') return;
        std::string key = read_string();
        skip_ws();
        if (i >= text.size() || text[i] != ':') return;
        ++i;
        skip_ws();
        std::string value;
        if (i < text.size() && text[i] == '"') {
          value = "\"" + read_string() + "\"";
        } else {
          while (i < text.size() && text[i] != ',' && text[i] != '}' &&
                 std::isspace(static_cast<unsigned char>(text[i])) == 0) {
            value += text[i++];
          }
        }
        if (!value.empty()) set_raw(section, key, std::move(value));
      }
    }
  }

  std::string path_;
  std::vector<std::pair<std::string, Fields>> sections_;
};

/// `git rev-parse HEAD` of the checkout the bench runs from ("unknown"
/// outside a git work tree). Benches run from the build tree, which lives
/// inside the repository, so the bare command resolves the right repo.
inline std::string git_sha() {
  std::string sha;
  FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

/// UTC wall clock in ISO-8601, e.g. "2026-08-07T15:12:03Z".
inline std::string utc_timestamp() {
  std::time_t now = std::time(nullptr);
  std::tm tm {};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Stamps a BENCH_*.json file with the commit and time it was measured at,
/// under a shared "meta" section, so results files checked into CI artifacts
/// can be compared across commits. Call once per bench before write().
inline void stamp_provenance(BenchJson& json) {
  json.set_text("meta", "git_sha", git_sha());
  json.set_text("meta", "timestamp_utc", utc_timestamp());
}

}  // namespace parcl::bench

#include "core/dag_source.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <unordered_map>

#include "core/replacement.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace parcl::core {

// ---------------------------------------------------------------------------
// GraphSpec parsing

GraphSpec GraphSpec::parse(std::istream& in, const std::string& origin) {
  GraphSpec spec;
  std::string line;
  std::size_t lineno = 0;
  auto fail = [&](const std::string& what) {
    throw util::ConfigError(origin + ":" + std::to_string(lineno) + ": " +
                            what);
  };
  while (std::getline(in, line)) {
    ++lineno;
    std::string text = util::trim(line);
    if (text.empty() || text[0] == '#') continue;

    if (util::starts_with(text, "stage ") || text == "stage") {
      GraphStage stage;
      auto fields = util::split_ws(text.substr(5));
      if (fields.empty()) fail("stage directive needs a name");
      stage.name = fields[0];
      for (const auto& existing : spec.stages)
        if (existing.name == stage.name)
          fail("duplicate stage '" + stage.name + "'");
      for (std::size_t i = 1; i < fields.size(); ++i) {
        if (util::starts_with(fields[i], "jobs=")) {
          const std::string value = fields[i].substr(5);
          long jobs = -1;
          try {
            jobs = util::parse_long(value);
          } catch (const util::ParseError&) {
          }
          if (jobs < 0)
            fail("stage jobs= needs an integer >= 0, got '" + value + "'");
          stage.jobs = static_cast<std::size_t>(jobs);
        } else {
          fail("unknown stage attribute '" + fields[i] + "'");
        }
      }
      spec.stages.push_back(std::move(stage));
      continue;
    }

    auto sep = text.find(" :: ");
    if (sep == std::string::npos)
      fail("expected 'NODE [attrs] :: COMMAND' (missing ' :: ')");
    std::string head = util::trim(text.substr(0, sep));
    std::string command = util::trim(text.substr(sep + 4));
    if (command.empty()) fail("empty command");

    GraphNode node;
    auto fields = util::split_ws(head);
    if (fields.empty()) fail("missing node name");
    node.name = fields[0];
    if (node.name.find('=') != std::string::npos)
      fail("missing node name before '" + node.name + "'");
    node.command = std::move(command);
    for (std::size_t i = 1; i < fields.size(); ++i) {
      const std::string& field = fields[i];
      auto list = [&](std::size_t prefix) {
        std::vector<std::string> out;
        for (auto& v : util::split(field.substr(prefix), ',')) {
          v = util::trim(v);
          if (!v.empty()) out.push_back(std::move(v));
        }
        return out;
      };
      if (util::starts_with(field, "after=")) {
        auto vals = list(6);
        node.after.insert(node.after.end(), vals.begin(), vals.end());
      } else if (util::starts_with(field, "needs=")) {
        auto vals = list(6);
        node.needs.insert(node.needs.end(), vals.begin(), vals.end());
      } else if (util::starts_with(field, "out=")) {
        auto vals = list(4);
        node.outs.insert(node.outs.end(), vals.begin(), vals.end());
      } else if (util::starts_with(field, "stage=")) {
        node.stage = field.substr(6);
      } else {
        fail("unknown node attribute '" + field + "'");
      }
    }
    spec.nodes.push_back(std::move(node));
  }
  if (spec.nodes.empty())
    throw util::ConfigError(origin + ": graph file declares no nodes");
  return spec;
}

GraphSpec GraphSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::ConfigError("--graph: cannot read " + path);
  return parse(in, path);
}

// ---------------------------------------------------------------------------
// GraphSource

GraphSource::GraphSource(GraphSpec spec) : spec_(std::move(spec)) {
  std::unordered_map<std::string, std::uint64_t> by_name;
  std::unordered_map<std::string, std::uint64_t> by_out;
  std::unordered_map<std::string, std::size_t> stage_ids;
  for (std::size_t s = 0; s < spec_.stages.size(); ++s)
    stage_ids[spec_.stages[s].name] = s + 1;

  for (std::size_t i = 0; i < spec_.nodes.size(); ++i) {
    const GraphNode& node = spec_.nodes[i];
    std::uint64_t seq = i + 1;
    if (!by_name.emplace(node.name, seq).second)
      throw util::ConfigError("--graph: duplicate node '" + node.name + "'");
    for (const std::string& out : node.outs)
      if (!by_out.emplace(out, seq).second)
        throw util::ConfigError("--graph: output '" + out +
                                "' declared by more than one node");
  }

  node_stage_.resize(spec_.nodes.size(), 0);
  stage_totals_.assign(spec_.stages.size() + 1, 0);
  for (std::size_t i = 0; i < spec_.nodes.size(); ++i) {
    const GraphNode& node = spec_.nodes[i];
    if (!node.stage.empty()) {
      auto it = stage_ids.find(node.stage);
      if (it == stage_ids.end())
        throw util::ConfigError("--graph: node '" + node.name +
                                "' references undeclared stage '" +
                                node.stage + "'");
      node_stage_[i] = it->second;
    } else if (!spec_.stages.empty()) {
      throw util::ConfigError("--graph: node '" + node.name +
                              "' has no stage= but stages are declared");
    }
    ++stage_totals_[node_stage_[i]];

    std::vector<std::uint64_t> deps;
    for (const std::string& pred : node.after) {
      auto it = by_name.find(pred);
      if (it == by_name.end())
        throw util::ConfigError("--graph: node '" + node.name +
                                "' is after unknown node '" + pred + "'");
      deps.push_back(it->second);
    }
    // needs=FILE resolves to the node declaring out=FILE: an ordinary
    // dependency edge, so failure propagation covers data edges too.
    for (const std::string& need : node.needs) {
      auto it = by_out.find(need);
      if (it == by_out.end())
        throw util::ConfigError("--graph: node '" + node.name + "' needs '" +
                                need + "' but no node declares it as out=");
      deps.push_back(it->second);
    }
    tracker_.add_node(i + 1, std::move(deps));
  }
  tracker_.seal();
}

std::optional<JobInput> GraphSource::next_gated(
    const std::function<bool(std::size_t)>& allow) {
  auto id = tracker_.pop_ready_if([&](std::uint64_t seq) {
    return allow(node_stage_[static_cast<std::size_t>(seq - 1)]);
  });
  if (!id) return std::nullopt;
  const GraphNode& node = spec_.nodes[static_cast<std::size_t>(*id - 1)];
  JobInput job;
  job.args = {node.name};
  job.seq = *id;
  job.stage = node_stage_[static_cast<std::size_t>(*id - 1)];
  job.command = node.command;
  return job;
}

void GraphSource::note_complete(std::uint64_t seq, bool ok) {
  tracker_.complete(seq, ok);
}

DepSkippedJob GraphSource::describe(std::uint64_t seq) const {
  const GraphNode& node = spec_.nodes[static_cast<std::size_t>(seq - 1)];
  DepSkippedJob skip;
  skip.seq = seq;
  skip.stage = node_stage_[static_cast<std::size_t>(seq - 1)];
  skip.args = {node.name};
  skip.command = node.command;
  return skip;
}

std::vector<DepSkippedJob> GraphSource::take_dep_skips() {
  std::vector<DepSkippedJob> out;
  for (std::uint64_t seq : tracker_.take_skipped()) out.push_back(describe(seq));
  return out;
}

std::vector<DepSkippedJob> GraphSource::drain_unemitted() {
  std::vector<DepSkippedJob> out;
  for (std::uint64_t seq : tracker_.drain_unemitted())
    out.push_back(describe(seq));
  return out;
}

std::string GraphSource::stage_name(std::size_t stage) const {
  if (stage == 0 || stage > spec_.stages.size()) return "";
  return spec_.stages[stage - 1].name;
}

std::optional<std::size_t> GraphSource::stage_total(std::size_t stage) const {
  if (stage >= stage_totals_.size()) return 0;
  return stage_totals_[stage];  // the whole graph is declared: always exact
}

std::size_t GraphSource::stage_limit(std::size_t stage) const {
  if (stage == 0 || stage > spec_.stages.size()) return 0;
  return spec_.stages[stage - 1].jobs;
}

// ---------------------------------------------------------------------------
// StageChainSource

StageChainSource::StageChainSource(JobSource& upstream,
                                   std::vector<StageSpec> stages)
    : upstream_(upstream), stages_(std::move(stages)) {
  if (stages_.size() < 2)
    throw util::ConfigError("stage chain needs at least two stages");
  if (stages_[0].barrier)
    throw util::InternalError("stage 1 cannot be a barrier stage");
  for (auto& stage : stages_) {
    if (util::trim(stage.command).empty())
      throw util::ConfigError("stage chain: empty stage command");
    // Parallel's grammar: a stage command with no replacement string gets
    // the input value appended ("--then wc" runs "wc {}").
    CommandTemplate tmpl = CommandTemplate::parse(stage.command);
    tmpl.ensure_input_placeholder();
    stage.command = tmpl.source();
  }
  resolved_.assign(stages_.size() + 1, 0);
}

StageChainSource::StageChainSource(std::unique_ptr<JobSource> upstream,
                                   std::vector<StageSpec> stages)
    : StageChainSource((util::require(upstream != nullptr,
                                      "stage chain needs an upstream"),
                        *upstream),
                       std::move(stages)) {
  owned_upstream_ = std::move(upstream);
}

bool StageChainSource::pull_item() {
  if (head_exhausted_) return false;
  auto input = upstream_.next();
  if (!input) {
    head_exhausted_ = true;
    // The last stage-s drain may already be complete (e.g. nothing ever
    // failed and stage s was fast); barriers waiting only on the head
    // count can lift now.
    for (std::size_t s = 2; s <= stages_.size(); ++s) lift(s);
    return false;
  }
  ++items_;
  live_.emplace_hint(live_.end(), items_, Item{std::move(input->args)});
  unemitted_ += stages_.size();
  ready_.insert(seq_of(items_, 1));  // stage 1 is never a barrier
  return true;
}

void StageChainSource::lift(std::size_t stage) {
  if (!stages_[stage - 1].barrier || !stage_resolved(stage - 1)) return;
  // Items reach a barrier stage without a ready entry; the live map is
  // where they wait.
  for (const auto& [item, state] : live_) {
    if (state.stage == stage && !state.running)
      ready_.insert(seq_of(item, stage));
  }
}

void StageChainSource::note_resolved(std::size_t stage) {
  ++resolved_[stage];
  if (stage < stages_.size()) lift(stage + 1);
}

void StageChainSource::skip_from(std::uint64_t item, const ArgVector& args,
                                 std::size_t stage,
                                 std::vector<DepSkippedJob>& out) {
  for (std::size_t s = stage; s <= stages_.size(); ++s) {
    DepSkippedJob skip;
    skip.seq = seq_of(item, s);
    skip.stage = s;
    skip.args = args;
    skip.command = stages_[s - 1].command;
    out.push_back(std::move(skip));
    --unemitted_;
  }
}

std::optional<JobInput> StageChainSource::next_gated(
    const std::function<bool(std::size_t)>& allow) {
  for (;;) {
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if (!allow(stage_of(*it))) continue;
      JobInput job;
      job.seq = *it;
      ready_.erase(it);
      Item& item = live_.at(item_of(job.seq));
      item.running = true;
      --unemitted_;
      job.args = item.args;
      job.stage = item.stage;
      job.command = stages_[job.stage - 1].command;
      return job;
    }
    // Nothing ready: try materializing the next input item, whose stage-1
    // job is ready by construction — but only if stage 1 has capacity,
    // otherwise we'd buffer items faster than they can start.
    if (!allow(1)) return std::nullopt;
    bool was_exhausted = head_exhausted_;
    if (!pull_item()) {
      // Discovering head exhaustion can lift barriers; give the pop one
      // more pass over the jobs that just became ready. (At most one
      // extra iteration: the transition fires once.)
      if (!was_exhausted && !ready_.empty()) continue;
      return std::nullopt;
    }
  }
}

void StageChainSource::note_complete(std::uint64_t seq, bool ok) {
  const std::size_t s = stage_of(seq);
  auto it = live_.find(item_of(seq));
  if (it == live_.end() || it->second.stage != s || !it->second.running)
    throw util::InternalError("stage chain: complete of job " +
                              std::to_string(seq) + " that is not in flight");
  if (ok && s < stages_.size() && !closed_) {
    it->second.stage = s + 1;
    it->second.running = false;
    // A barrier stage waits for lift() unless the barrier is already gone.
    if (!stages_[s].barrier || stage_resolved(s)) ready_.insert(seq + 1);
  } else {
    // The item's chain ends here: its last stage resolved, a failure skips
    // the rest, or drain_unemitted() already reported the rest.
    if (!ok && !closed_) skip_from(it->first, it->second.args, s + 1, skipped_);
    live_.erase(it);
  }
  note_resolved(s);
}

std::vector<DepSkippedJob> StageChainSource::take_dep_skips() {
  std::vector<DepSkippedJob> out;
  out.swap(skipped_);
  std::sort(out.begin(), out.end(),
            [](const DepSkippedJob& a, const DepSkippedJob& b) {
              return a.seq < b.seq;
            });
  // A skip counts toward its stage's drain (and a barrier) once taken.
  for (const DepSkippedJob& skip : out) note_resolved(skip.stage);
  return out;
}

std::vector<DepSkippedJob> StageChainSource::abandon(std::uint64_t seq) {
  const std::size_t s = stage_of(seq);
  auto it = live_.find(item_of(seq));
  if (it == live_.end() || it->second.stage != s || !it->second.running)
    throw util::InternalError("stage chain: abandon of job " +
                              std::to_string(seq) + " that is not in flight");
  std::vector<DepSkippedJob> out;
  skip_from(it->first, it->second.args, s + 1, out);
  live_.erase(it);
  return out;
}

std::vector<DepSkippedJob> StageChainSource::drain_unemitted() {
  std::vector<DepSkippedJob> out;
  for (auto it = live_.begin(); it != live_.end();) {
    const Item& item = it->second;
    skip_from(it->first, item.args, item.stage + (item.running ? 1 : 0), out);
    // A running job stays live until its completion, which then only
    // retires the item: a closed chain makes nothing ready.
    it = item.running ? std::next(it) : live_.erase(it);
  }
  ready_.clear();
  closed_ = true;
  return out;
}

std::string StageChainSource::stage_name(std::size_t stage) const {
  if (stage == 0 || stage > stages_.size()) return "";
  if (!stages_[stage - 1].name.empty()) return stages_[stage - 1].name;
  return "stage " + std::to_string(stage);
}

std::optional<std::size_t> StageChainSource::stage_total(
    std::size_t stage) const {
  (void)stage;
  if (!head_exhausted_) return std::nullopt;  // still streaming: N/?
  return static_cast<std::size_t>(items_);
}

std::size_t StageChainSource::stage_limit(std::size_t stage) const {
  if (stage == 0 || stage > stages_.size()) return 0;
  return stages_[stage - 1].jobs;
}

}  // namespace parcl::core

#include "core/dag.hpp"

#include <algorithm>
#include <deque>
#include <string>

#include "util/error.hpp"

namespace parcl::core {

void DependencyTracker::add_node(std::uint64_t id,
                                 std::vector<std::uint64_t> deps) {
  if (sealed_) throw util::InternalError("dag: add_node after seal");
  if (id == 0) throw util::ConfigError("dag: node id 0 is reserved");
  auto [it, inserted] = nodes_.try_emplace(id);
  if (!inserted)
    throw util::ConfigError("dag: duplicate node id " + std::to_string(id));
  it->second.deps = std::move(deps);
}

void DependencyTracker::seal() {
  if (sealed_) throw util::InternalError("dag: seal called twice");
  sealed_ = true;
  pending_ = nodes_.size();

  for (auto& [id, node] : nodes_) {
    // De-dup so a node listing the same predecessor twice counts one edge.
    std::sort(node.deps.begin(), node.deps.end());
    node.deps.erase(std::unique(node.deps.begin(), node.deps.end()),
                    node.deps.end());
    for (std::uint64_t dep : node.deps) {
      if (dep == id)
        throw util::ConfigError("dag: node " + std::to_string(id) +
                                " depends on itself");
      auto it = nodes_.find(dep);
      if (it == nodes_.end())
        throw util::ConfigError("dag: node " + std::to_string(id) +
                                " depends on unknown node " +
                                std::to_string(dep));
      it->second.dependents.push_back(id);
      ++node.unmet;
    }
  }

  // Kahn's algorithm: a node left unvisited sits on a cycle.
  std::map<std::uint64_t, std::size_t> indeg;
  std::deque<std::uint64_t> frontier;
  for (const auto& [id, node] : nodes_) {
    indeg[id] = node.deps.size();
    if (node.deps.empty()) frontier.push_back(id);
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    std::uint64_t id = frontier.front();
    frontier.pop_front();
    ++visited;
    for (std::uint64_t dep : nodes_[id].dependents) {
      if (--indeg[dep] == 0) frontier.push_back(dep);
    }
  }
  if (visited != nodes_.size())
    throw util::ConfigError("dag: dependency cycle detected (" +
                            std::to_string(nodes_.size() - visited) +
                            " node(s) unreachable)");

  for (auto& [id, node] : nodes_) {
    if (node.unmet == 0) make_ready(id);
  }
}

void DependencyTracker::make_ready(std::uint64_t id) {
  nodes_[id].state = State::kReady;
  ready_.insert(id);
}

std::optional<std::uint64_t> DependencyTracker::pop_ready() {
  if (ready_.empty()) return std::nullopt;
  std::uint64_t id = *ready_.begin();
  ready_.erase(ready_.begin());
  nodes_[id].state = State::kEmitted;
  ++emitted_;
  return id;
}

std::optional<std::uint64_t> DependencyTracker::pop_ready_if(
    const std::function<bool(std::uint64_t)>& allow) {
  for (auto it = ready_.begin(); it != ready_.end(); ++it) {
    if (!allow(*it)) continue;
    std::uint64_t id = *it;
    ready_.erase(it);
    nodes_[id].state = State::kEmitted;
    ++emitted_;
    return id;
  }
  return std::nullopt;
}

void DependencyTracker::complete(std::uint64_t id, bool ok) {
  auto it = nodes_.find(id);
  if (it == nodes_.end())
    throw util::InternalError("dag: complete of unknown node " +
                              std::to_string(id));
  Node& node = it->second;
  if (node.state != State::kEmitted)
    throw util::InternalError("dag: complete of node " + std::to_string(id) +
                              " that is not in flight");
  node.state = ok ? State::kDoneOk : State::kFailed;
  --pending_;
  --emitted_;
  if (ok) {
    for (std::uint64_t dep : node.dependents) {
      Node& waiter = nodes_[dep];
      if (waiter.state != State::kWaiting) continue;
      if (--waiter.unmet == 0) make_ready(dep);
    }
  } else {
    skip_descendants(id);
  }
}

void DependencyTracker::skip_descendants(std::uint64_t id) {
  // BFS through dependent edges; every not-yet-finished descendant of a
  // failed (or skipped) node is skipped, even if it still has other unmet
  // predecessors — one dead input is enough.
  std::deque<std::uint64_t> frontier{id};
  while (!frontier.empty()) {
    std::uint64_t cur = frontier.front();
    frontier.pop_front();
    for (std::uint64_t dep : nodes_[cur].dependents) {
      Node& waiter = nodes_[dep];
      if (waiter.state != State::kWaiting && waiter.state != State::kReady)
        continue;
      if (waiter.state == State::kReady) ready_.erase(dep);
      waiter.state = State::kSkipped;
      --pending_;
      skipped_.push_back(dep);
      frontier.push_back(dep);
    }
  }
}

std::vector<std::uint64_t> DependencyTracker::take_skipped() {
  std::vector<std::uint64_t> out;
  out.swap(skipped_);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> DependencyTracker::drain_unemitted() {
  std::vector<std::uint64_t> out;
  for (auto& [id, node] : nodes_) {
    if (node.state == State::kWaiting || node.state == State::kReady) {
      if (node.state == State::kReady) ready_.erase(id);
      node.state = State::kSkipped;
      --pending_;
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace parcl::core

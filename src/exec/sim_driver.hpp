// SimDriver: many engines on one simulation clock.
//
// Each simulated `parallel` instance is a real core::Engine over its own
// SimExecutor, so the paper's figures measure the loop the CLI and the
// server run. The driver owns the clock: it fires one event at a time,
// then steps only the engines whose executor got a completion or a wake.
// An instance's engine is built when its start event fires and dropped
// when it goes idle, so memory follows the instances running at once.
#pragma once

#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <ostream>

#include "core/engine.hpp"
#include "exec/sim_executor.hpp"

namespace parcl::exec {

class SimDriver {
 public:
  /// Makes an instance's executor, on the driver's simulation, when the
  /// instance starts.
  using Build = std::function<std::unique_ptr<SimExecutor>()>;
  /// Gets the summary at the sim time the instance's engine goes idle.
  using Done = std::function<void(const core::RunSummary&)>;

  /// Every engine runs with `options`, keeps no per-job results and
  /// discards job output.
  SimDriver(sim::Simulation& sim, core::Options options);
  ~SimDriver();
  SimDriver(const SimDriver&) = delete;  // sim events hold its address
  SimDriver& operator=(const SimDriver&) = delete;

  /// Starts an instance `delay` sim seconds from now: an Engine runs the
  /// command `task {#}` `tasks` times over the executor `build` makes.
  void add(double delay, std::size_t tasks, Build build, Done done = {});

  /// Runs the simulation to its end, as Simulation::run() does. Throws
  /// InternalError if an engine is still running then: it waits on nothing.
  void run();

  /// The most engines alive at once so far.
  std::size_t peak_live() const noexcept { return peak_live_; }

 private:
  struct Instance;
  void step(Instance& instance);

  sim::Simulation& sim_;
  core::Options options_;
  core::CommandTemplate command_;
  std::ostream sink_{nullptr};  // no buffer: output goes nowhere
  std::list<Instance> live_;
  std::deque<Instance*> due_;  // woken, waiting to be stepped
  std::size_t peak_live_ = 0;
};

}  // namespace parcl::exec

#include "exec/sim_driver.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace parcl::exec {

struct SimDriver::Instance {
  Instance(std::unique_ptr<SimExecutor> sim_executor, std::size_t tasks,
           const core::Options& options, std::ostream& sink, Done on_done)
      : executor(std::move(sim_executor)),
        source(tasks),
        engine(options, *executor, sink, sink),
        done(std::move(on_done)) {}

  std::unique_ptr<SimExecutor> executor;
  core::CountSource source;
  core::Engine engine;
  Done done;
  std::list<Instance>::iterator self;
  bool due = true;     // waiting in due_ or being stepped
  bool again = false;  // woken while being stepped
};

SimDriver::SimDriver(sim::Simulation& sim, core::Options options)
    : sim_(sim),
      options_(std::move(options)),
      command_(core::CommandTemplate::parse("task {#}")) {
  options_.collect_results = false;
}

SimDriver::~SimDriver() = default;

void SimDriver::add(double delay, std::size_t tasks, Build build, Done done) {
  sim_.schedule(delay, [this, tasks, build = std::move(build),
                        done = std::move(done)]() mutable {
    Instance& instance =
        live_.emplace_back(build(), tasks, options_, sink_, std::move(done));
    instance.self = std::prev(live_.end());
    peak_live_ = std::max(peak_live_, live_.size());
    instance.executor->attach([this, woken = &instance] {
      woken->again = true;
      if (!std::exchange(woken->due, true)) due_.push_back(woken);
    });
    instance.engine.begin(command_, instance.source);
    step(instance);
  });
}

void SimDriver::step(Instance& instance) {
  using Step = core::Engine::Step;
  Step result = Step::kIdle;
  do {
    instance.again = false;
    result = instance.engine.step(-1.0);
  } while (result == Step::kReaped || (result == Step::kWaited && instance.again));
  instance.due = false;
  if (result != Step::kIdle) return;

  core::RunSummary summary = instance.engine.finish();
  Done done = std::move(instance.done);
  live_.erase(instance.self);
  if (done) done(summary);
}

void SimDriver::run() {
  do {
    while (!due_.empty()) {
      Instance* instance = due_.front();
      due_.pop_front();
      step(*instance);
    }
  } while (sim_.step());
  util::require(live_.empty(), "sim driver: an engine is waiting on nothing");
}

}  // namespace parcl::exec

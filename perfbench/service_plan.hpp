// The service workload's seeded job plan, shared by the socket load
// generator and the in-process traced run so both replay the same schedule.
// Arrivals are Poisson at the offered rate (independent users): job i is
// due `offset` seconds after the start, goes to a seeded tenant, and runs
// `/bin/echo N` with a seeded N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

struct PlannedJob {
  double offset = 0.0;  // due time, seconds after the schedule starts
  std::size_t tenant = 0;
  std::string value;  // the N of `/bin/echo N`

  std::string command() const { return "/bin/echo " + value; }
  std::string expected_stdout() const { return value + "\n"; }
};

inline std::vector<PlannedJob> service_plan(std::uint64_t seed, std::size_t jobs,
                                            std::size_t tenants, double rate) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<PlannedJob> plan(jobs);
  double offset = 0.0;
  for (PlannedJob& job : plan) {
    job.offset = offset;
    offset += gap(rng);
    job.tenant = rng() % tenants;
    job.value = std::to_string(rng() % 1000000000);
  }
  return plan;
}

inline std::string tenant_name(std::size_t tenant) {
  return std::string("t").append(std::to_string(tenant));
}

}  // namespace perfbench

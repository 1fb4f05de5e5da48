// perfbench_loadgen: an open-loop client for `parcl --server`.
//
// One process holds several tenant connections on the server's unix socket
// and speaks the framed service protocol through exec/transport. Jobs arrive
// on a seeded Poisson schedule at --rate, regardless of how earlier jobs
// fared (an open loop: independent users, so a stalled server receives the
// same load and its queue grows). Each job is `/bin/echo N` with a seeded
// N, so every RESULT's stdout can be checked.
//
//   perfbench_loadgen --socket PATH --tenants 4 --rate 1500 --jobs 12000
//                     --seed 7 --records FILE
//
// Prints `hello_ack <t>` (CLOCK_MONOTONIC seconds) once every tenant is
// admitted, then one JSON summary line at the end. --records receives one
// line per job: `seq tenant due sent acked result` (monotonic seconds, 0 =
// never happened). With --jobs 0 it only connects, handshakes and leaves.
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exec/transport.hpp"
#include "service_plan.hpp"
#include "util/net.hpp"

namespace transport = parcl::exec::transport;

namespace {

/// How long to wait for outstanding RESULTs after the last job was sent.
constexpr double kDrainTimeout = 30.0;

double now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Job {
  perfbench::PlannedJob planned;
  std::string output;
  double due = 0.0;
  double sent = 0.0;
  double acked = 0.0;
  double result = 0.0;
};

struct Tenant {
  int fd = -1;
  transport::FrameDecoder decoder;
};

struct Counters {
  std::size_t submitted = 0;
  std::size_t acked = 0;
  std::size_t results = 0;
  std::size_t duplicate_results = 0;
  std::size_t rejects = 0;
  std::size_t bad_output = 0;
  std::size_t failed_exit = 0;
  std::size_t frames_out = 0;
  std::size_t frames_in = 0;
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "perfbench_loadgen: " << message << "\n";
  std::exit(2);
}

void send_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      die("write to server failed");
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Connects, retrying while the server is still starting up.
int connect_with_retry(const std::string& path, double timeout) {
  const double deadline = now() + timeout;
  while (true) {
    int fd = parcl::util::unix_connect(path);
    if (fd >= 0) return fd;
    if (now() > deadline) die("cannot connect to " + path);
    ::usleep(200);
  }
}

/// Blocks until one complete frame arrives on `tenant`.
transport::Frame read_frame(Tenant& tenant) {
  while (true) {
    if (auto frame = tenant.decoder.next()) return *frame;
    char buffer[4096];
    ssize_t n = ::read(tenant.fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) die("server closed the connection during the handshake");
    tenant.decoder.feed(buffer, static_cast<std::size_t>(n));
  }
}

std::string arg_value(int& i, int argc, char** argv) {
  if (i + 1 >= argc) die(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string records_path;
  std::size_t tenants = 4;
  std::size_t jobs = 0;
  double rate = 1000.0;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket") {
      socket_path = arg_value(i, argc, argv);
    } else if (arg == "--records") {
      records_path = arg_value(i, argc, argv);
    } else if (arg == "--tenants") {
      tenants = std::stoul(arg_value(i, argc, argv));
    } else if (arg == "--jobs") {
      jobs = std::stoul(arg_value(i, argc, argv));
    } else if (arg == "--rate") {
      rate = std::stod(arg_value(i, argc, argv));
    } else if (arg == "--seed") {
      seed = std::stoull(arg_value(i, argc, argv));
    } else {
      die("unknown argument " + arg);
    }
  }
  if (socket_path.empty() || tenants == 0 || rate <= 0.0) die("bad arguments");

  // Handshake every tenant before the clock starts.
  std::vector<Tenant> conns(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    conns[t].fd = connect_with_retry(socket_path, 10.0);
    transport::ClientHelloFrame hello;
    hello.tenant = perfbench::tenant_name(t);
    send_all(conns[t].fd, transport::encode_client_hello(hello));
    transport::Frame reply = read_frame(conns[t]);
    if (reply.type != transport::FrameType::kHelloAck) die("tenant refused");
  }
  std::printf("hello_ack %.9f\n", now());
  std::fflush(stdout);

  std::vector<Job> plan(jobs);
  std::vector<perfbench::PlannedJob> planned = perfbench::service_plan(seed, jobs, tenants, rate);
  for (std::size_t i = 0; i < jobs; ++i) plan[i].planned = std::move(planned[i]);

  Counters counters;
  const double start = now() + 0.02;
  for (std::size_t i = 0; i < jobs; ++i) {
    plan[i].due = start + plan[i].planned.offset;
  }
  std::size_t next = 0;  // next job to send
  std::vector<pollfd> fds(tenants);
  std::vector<transport::SubmitFrame> batches(tenants);
  double drain_deadline = 0.0;
  while (counters.results < jobs) {
    double t = now();
    // Send every job that is due, one SUBMIT frame per tenant.
    while (next < jobs && plan[next].due <= t) {
      Job& job = plan[next];
      transport::JobSpec spec;
      spec.seq = next + 1;
      spec.command = job.planned.command();
      batches[job.planned.tenant].jobs.push_back(std::move(spec));
      job.sent = t;
      ++next;
    }
    for (std::size_t k = 0; k < tenants; ++k) {
      if (batches[k].jobs.empty()) continue;
      counters.submitted += batches[k].jobs.size();
      send_all(conns[k].fd, transport::encode_submit(batches[k]));
      ++counters.frames_out;
      batches[k].jobs.clear();
    }
    if (next == jobs && drain_deadline == 0.0) drain_deadline = now() + kDrainTimeout;
    if (drain_deadline != 0.0 && now() > drain_deadline) break;

    double wait = next < jobs ? plan[next].due - now() : drain_deadline - now();
    if (wait < 0.0) wait = 0.0;
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - static_cast<double>(timeout.tv_sec)) * 1e9);
    for (std::size_t k = 0; k < tenants; ++k) fds[k] = {conns[k].fd, POLLIN, 0};
    int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      die("ppoll failed");
    }
    for (std::size_t k = 0; k < tenants; ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buffer[65536];
      ssize_t n = ::read(conns[k].fd, buffer, sizeof(buffer));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) die("server closed a tenant connection mid-run");
      const double arrived = now();
      conns[k].decoder.feed(buffer, static_cast<std::size_t>(n));
      while (auto frame = conns[k].decoder.next()) {
        ++counters.frames_in;
        switch (frame->type) {
          case transport::FrameType::kAck:
            for (std::uint64_t seq : transport::decode_ack(*frame).seqs) {
              if (seq >= 1 && seq <= jobs && plan[seq - 1].acked == 0.0) {
                plan[seq - 1].acked = arrived;
                ++counters.acked;
              }
            }
            break;
          case transport::FrameType::kStdout: {
            transport::ChunkFrame chunk = transport::decode_chunk(*frame);
            if (chunk.seq >= 1 && chunk.seq <= jobs) plan[chunk.seq - 1].output += chunk.data;
            break;
          }
          case transport::FrameType::kResult: {
            transport::ResultFrame result = transport::decode_result(*frame);
            if (result.seq < 1 || result.seq > jobs) {
              ++counters.bad_output;
              break;
            }
            Job& job = plan[result.seq - 1];
            if (job.result != 0.0) {
              ++counters.duplicate_results;
              break;
            }
            job.result = arrived;
            ++counters.results;
            if (result.exit_code != 0 || result.term_signal != 0) ++counters.failed_exit;
            if (job.output != job.planned.expected_stdout()) ++counters.bad_output;
            break;
          }
          case transport::FrameType::kReject:
            ++counters.rejects;
            break;
          default:
            break;
        }
      }
    }
  }

  for (Tenant& tenant : conns) {
    send_all(tenant.fd, transport::encode_bye());
    ++counters.frames_out;
    ::close(tenant.fd);
  }

  if (!records_path.empty()) {
    std::ofstream records(records_path);
    records.precision(9);
    records << std::fixed;
    for (std::size_t i = 0; i < jobs; ++i) {
      const Job& job = plan[i];
      records << i + 1 << ' ' << job.planned.tenant << ' ' << job.due << ' ' << job.sent << ' '
              << job.acked << ' ' << job.result << '\n';
    }
  }
  std::printf(
      "{\"submitted\": %zu, \"acked\": %zu, \"results\": %zu, \"duplicate_results\": %zu, "
      "\"rejects\": %zu, \"bad_output\": %zu, \"failed_exit\": %zu, \"frames_out\": %zu, "
      "\"frames_in\": %zu}\n",
      counters.submitted, counters.acked, counters.results, counters.duplicate_results,
      counters.rejects, counters.bad_output, counters.failed_exit, counters.frames_out,
      counters.frames_in);
  return 0;
}

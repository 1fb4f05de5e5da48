#include "core/client.hpp"

#include <unistd.h>

#include <chrono>
#include <iostream>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "core/cli.hpp"
#include "core/job_source.hpp"
#include "core/output.hpp"
#include "core/replacement.hpp"
#include "exec/transport.hpp"
#include "util/error.hpp"
#include "util/net.hpp"

namespace parcl::core {

namespace transport = exec::transport;
using transport::RejectCode;

namespace {

// Client-side exit codes beyond the failed-job count (see client.hpp).
constexpr int kExitConnectionLost = 120;
constexpr int kExitRefused = 121;
constexpr int kExitProtocol = 122;

/// Rejections survived per job before the client gives up on it and counts
/// it failed — a server stuck at capacity must not spin a client forever.
constexpr std::size_t kMaxRejectsPerJob = 64;

/// Jobs per SUBMIT frame (amortizes framing without bulking REJECT storms).
constexpr std::size_t kSubmitBatch = 16;

struct PendingJob {
  std::string command;
  std::string stdin_data;
  bool has_stdin = false;
  bool acked = false;
  std::size_t rejects = 0;
};

class ServiceClient {
 public:
  ServiceClient(const RunPlan& plan, std::istream& in, std::ostream& out,
                std::ostream& err)
      : plan_(plan),
        in_(in),
        out_(out),
        err_(err),
        collator_(plan.options.output_mode == OutputMode::kKeepOrder
                      ? OutputMode::kKeepOrder
                      : OutputMode::kGroup,
                  /*tag=*/false, out, err) {}

  ~ServiceClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  int run() {
    const ServiceCli& service = plan_.service;
    if (!service.connect.empty()) {
      fd_ = util::tcp_connect(util::parse_ipv4_endpoint(service.connect));
    } else {
      fd_ = util::unix_connect(service.socket_path);
    }
    if (fd_ < 0) {
      err_ << "parcl: --client: cannot connect to "
           << (service.connect.empty() ? service.socket_path : service.connect)
           << " (is the server running?)\n";
      return kExitConnectionLost;
    }
    transport::ClientHelloFrame hello;
    hello.tenant = service.tenant;
    hello.weight = service.tenant_weight;
    hello.token = service.token;
    // A failed write shows as the read's end of stream, or as the REJECT
    // the server sent before it closed.
    transport::write_all(fd_, transport::encode_client_hello(hello));
    // A malformed frame or payload from the server, or a RESULT whose
    // output chunks never came, ends the run as a protocol error.
    try {
      return session();
    } catch (const transport::ProtocolError& error) {
      return finish(kExitProtocol, error.what());
    }
  }

 private:
  int session() {
    std::optional<transport::Frame> reply = read_frame();
    if (!reply) return finish(kExitConnectionLost);
    if (reply->type == transport::FrameType::kReject) {
      transport::RejectFrame reject = transport::decode_reject(*reply);
      err_ << "parcl: --client: server refused: " << reject.message << "\n";
      return reject.code == RejectCode::kBadRequest ? kExitProtocol : kExitRefused;
    }
    transport::decode_hello_ack(*reply);  // throws unless it is a HELLO_ACK

    CommandTemplate tmpl = CommandTemplate::parse(plan_.command_template);
    tmpl.ensure_input_placeholder();
    std::unique_ptr<JobSource> source = make_job_source(plan_, in_);
    const std::size_t window =
        std::max<std::size_t>(32, plan_.options.effective_jobs() * 2);

    while (true) {
      // Fill the submission window from the input stream (stopping for
      // good once the server said no-more: drain or eviction).
      transport::SubmitFrame batch;
      while (!fatal_ && !inputs_done_ && pending_.size() < window) {
        std::optional<JobInput> input = source->next();
        if (!input) {
          inputs_done_ = true;
          break;
        }
        std::uint64_t seq = next_seq_++;
        CommandTemplate::Context context;
        context.seq = seq;
        context.slot = 1;  // slots are the server's; {%} is not meaningful here
        PendingJob job;
        job.command = tmpl.expand(input->args, context, plan_.options.quote_args);
        job.stdin_data = std::move(input->stdin_data);
        job.has_stdin = input->has_stdin;
        batch.jobs.push_back(make_spec(seq, job));
        pending_.emplace(seq, std::move(job));
        if (batch.jobs.size() >= kSubmitBatch) {
          if (!submit(batch)) return finish(kExitConnectionLost);
          batch.jobs.clear();
        }
      }
      if (!batch.jobs.empty() && !submit(batch)) return finish(kExitConnectionLost);

      // Re-submit backpressure-rejected jobs once their hint expires.
      if (!retry_.empty() && !fatal_) {
        std::this_thread::sleep_for(std::chrono::duration<double>(retry_wait_));
        transport::SubmitFrame again;
        for (std::uint64_t seq : retry_) {
          again.jobs.push_back(make_spec(seq, pending_.at(seq)));
        }
        retry_.clear();
        retry_wait_ = 0.0;
        if (!submit(again)) return finish(kExitConnectionLost);
      }

      if (pending_.empty() && (inputs_done_ || fatal_)) break;

      std::optional<transport::Frame> frame = read_frame();
      if (!frame) {
        // EOF with work outstanding is a lost server; EOF after the books
        // are balanced is just the close we were about to do ourselves.
        return pending_.empty() && inputs_done_ ? finish(0)
                                                : finish(kExitConnectionLost);
      }
      if (!handle(*frame)) return finish(pending_.empty() ? 0 : kExitConnectionLost);
    }

    transport::write_all(fd_, transport::encode_bye());
    return finish(0);
  }

  transport::JobSpec make_spec(std::uint64_t seq, const PendingJob& job) const {
    transport::JobSpec spec;
    spec.seq = seq;
    spec.command = job.command;
    spec.use_shell = true;
    spec.capture_output = true;
    spec.has_stdin = job.has_stdin;
    spec.stdin_data = job.stdin_data;
    return spec;
  }

  bool submit(const transport::SubmitFrame& frame) {
    return transport::write_all(fd_, transport::encode_submit(frame));
  }

  /// Processes one inbound frame; false once the server said BYE.
  bool handle(const transport::Frame& frame) {
    switch (frame.type) {
      case transport::FrameType::kAck: {
        for (std::uint64_t seq : transport::decode_ack(frame).seqs) {
          auto it = pending_.find(seq);
          if (it != pending_.end()) it->second.acked = true;
        }
        return true;
      }
      case transport::FrameType::kReject:
        return handle_reject(transport::decode_reject(frame));
      case transport::FrameType::kStdout:
      case transport::FrameType::kStderr:
        assembler_.add(frame.type, transport::decode_chunk(frame));
        return true;
      case transport::FrameType::kResult: {
        transport::ResultFrame result = transport::decode_result(frame);
        // The server writes a job's chunks before its RESULT, on one
        // stream: one still missing here will never come.
        std::optional<transport::JobOutput> output = assembler_.take(result);
        if (!output) throw transport::ProtocolError("RESULT before its output chunks");
        if (result.exit_code != 0 || result.term_signal != 0) ++failures_;
        pending_.erase(result.seq);
        JobResult arrived;
        arrived.seq = result.seq;
        arrived.stdout_data = std::move(output->stdout_data);
        arrived.stderr_data = std::move(output->stderr_data);
        collator_.deliver(std::move(arrived));
        out_.flush();
        return true;
      }
      case transport::FrameType::kDrain:
        // Server entered its drain: accepted-but-unstarted jobs are
        // checkpointed server-side and will run on its next start; nothing
        // more arrives for them this session.
        fatal_ = true;
        fatal_code_ = kExitRefused;
        fatal_message_ = "server draining; accepted jobs are checkpointed";
        for (auto it = pending_.begin(); it != pending_.end();) {
          if (it->second.acked) {
            ++checkpointed_;
            collator_.mark_absent(it->first);
            it = pending_.erase(it);
          } else {
            ++it;
          }
        }
        out_.flush();
        return true;
      case transport::FrameType::kBye:
        return false;
      case transport::FrameType::kHeartbeat:
        return true;
      default:
        throw transport::ProtocolError(std::string("unexpected frame for client: ") +
                                       transport::to_string(frame.type));
    }
  }

  bool handle_reject(const transport::RejectFrame& reject) {
    auto it = pending_.find(reject.seq);
    if (reject.code == RejectCode::kDraining || reject.code == RejectCode::kEvicted) {
      fatal_ = true;
      fatal_code_ = kExitRefused;
      fatal_message_ = reject.message;
      if (it != pending_.end()) {
        collator_.mark_absent(reject.seq);
        pending_.erase(it);
        out_.flush();
      }
      return true;
    }
    if (it == pending_.end()) return true;
    if (reject.retry_after > 0.0 && ++it->second.rejects < kMaxRejectsPerJob) {
      retry_.push_back(reject.seq);
      retry_wait_ = std::max(retry_wait_, reject.retry_after);
      return true;
    }
    // Non-retryable (bad request) or retries exhausted: the job failed.
    ++failures_;
    err_ << "parcl: --client: job " << reject.seq << " rejected ("
         << transport::to_string(reject.code) << "): " << reject.message << "\n";
    collator_.mark_absent(reject.seq);
    pending_.erase(it);
    out_.flush();
    return true;
  }

  int finish(int transport_code, const char* why = "connection to server lost") {
    collator_.finish();
    out_.flush();
    err_.flush();
    if (fatal_) {
      err_ << "parcl: --client: " << fatal_message_;
      if (checkpointed_ > 0) {
        err_ << " (" << checkpointed_ << " accepted jobs will run when the"
             << " server restarts)";
      }
      err_ << "\n";
      return fatal_code_;
    }
    if (transport_code != 0) {
      err_ << "parcl: --client: " << why << "\n";
      return transport_code;
    }
    return static_cast<int>(std::min<std::size_t>(failures_, 101));
  }

  /// Blocking read of the next complete frame (nullopt on EOF/error).
  std::optional<transport::Frame> read_frame() {
    while (true) {
      if (std::optional<transport::Frame> frame = decoder_.next()) return frame;
      if (transport::read_some(fd_, decoder_) != transport::ReadStatus::kData) {
        return std::nullopt;
      }
    }
  }

  const RunPlan& plan_;
  std::istream& in_;
  std::ostream& out_;
  std::ostream& err_;
  int fd_ = -1;
  transport::FrameDecoder decoder_;
  std::uint64_t next_seq_ = 1;
  std::size_t failures_ = 0;
  std::size_t checkpointed_ = 0;
  bool inputs_done_ = false;
  bool fatal_ = false;
  int fatal_code_ = kExitRefused;
  std::string fatal_message_;
  std::map<std::uint64_t, PendingJob> pending_;
  /// Output of running jobs, held from their chunk frames until RESULT.
  transport::OutputAssembler assembler_;
  /// -k holds a finished job until every earlier seq is out; a seq that
  /// will never produce output this session (permanently rejected, or
  /// checkpointed by a drain) is marked absent so it cannot wedge it.
  OutputCollator collator_;
  std::vector<std::uint64_t> retry_;
  double retry_wait_ = 0.0;
};

}  // namespace

int run_client(const RunPlan& plan, std::istream& in, std::ostream& out,
               std::ostream& err) {
  ServiceClient client(plan, in, out, err);
  return client.run();
}

}  // namespace parcl::core

// The service workload: a live greengpud on a Unix socket, driven by one
// client thread over two connections (request/reply and WATCH).
//
//   drain phase       a fixed backlog - the full Table II x paper-policy
//                     matrix at full length with fixed priorities - is
//                     submitted while the daemon is PAUSEd, then RESUMEd and
//                     timed to completion (executor + outcome journaling).
//   front-door phase  an open-loop SUBMIT stream at a fixed rate, capped with
//                     iters=, with the executor live (transport, parsing,
//                     name validation, admission, journal appends, WATCH
//                     fan-out).  Each SUBMIT is timed from its due time.
//
// The run ends with DRAIN and SIGTERM.  The traced run repeats the daemon
// phases once and then drives an in-process ServiceCore over the same
// schedule with spans around handle_line, take_next, run_job and complete.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "bench.h"
#include "src/common/rng.h"
#include "src/service/core.h"
#include "src/workloads/registry.h"
#include "trace.h"

extern char** environ;

namespace ggbench {
namespace {

namespace fs = std::filesystem;

// Admission queue capacity: the whole backlog fits, so nothing is shed.
constexpr std::size_t kQueueCap = 64;
// Drain rounds per untraced run; completions_per_s is their median.
constexpr int kDrainRounds = 4;
// Front-door shape: a fixed arrival rate and iteration cap the seed commit
// serves with the daemon's front door and executor each under half busy.
constexpr double kFrontDoorRate = 50.0;
constexpr std::uint64_t kFrontDoorIters = 1;
// Share of --seconds given to the front-door stream (the request count is
// fixed by it, so every run of one length sends the same number).
constexpr double kFrontDoorShare = 0.7;
// A run whose generator sent late by more than these shares of the
// inter-arrival gap measured its own client, not the daemon: it is invalid.
constexpr double kMaxLagMedianShare = 0.1;
constexpr double kMaxLagP99Share = 0.5;
// Daemon spawns per run; setup_s is the median spawn-to-PING time.
constexpr int kSetupSpawns = 7;
const char* const kPolicies[] = {"best-performance", "frequency-scaling", "division",
                                 "greengpu"};

struct Req {
  std::string workload;
  std::string policy;
  std::uint64_t priority{0};
  std::uint64_t iters{0};
  /// Offset from the phase start at which the request is due (front door).
  double due{0.0};

  [[nodiscard]] std::string line() const {
    std::string s = "SUBMIT " + workload + " " + policy + " priority=" + std::to_string(priority);
    if (iters != 0) s += " iters=" + std::to_string(iters);
    return s;
  }
};

struct Schedule {
  std::vector<Req> backlog;
  std::vector<Req> front_door;
};

Schedule make_schedule(std::uint64_t seed, double seconds) {
  Schedule s;
  // The backlog is fixed: the full matrix in Table II order with a fixed
  // priority pattern.  Its execution order sets the daemon's heap history,
  // and so its peak RSS, so only the front-door stream follows the seed.
  const auto names = gg::workloads::all_workload_names();
  for (const auto& w : names) {
    for (const char* p : kPolicies) s.backlog.push_back({w, p, s.backlog.size() % 3, 0, 0.0});
  }
  gg::Rng rng(seed ^ 0x5E4F1CEULL);
  const auto count = static_cast<std::size_t>(kFrontDoorRate * kFrontDoorShare * seconds);
  for (std::size_t i = 0; i < count; ++i) {
    Req r;
    r.workload = names[rng.uniform_int(names.size())];
    r.policy = kPolicies[rng.uniform_int(4)];
    r.priority = rng.uniform_int(3);
    r.iters = kFrontDoorIters;
    r.due = static_cast<double>(i) / kFrontDoorRate;
    s.front_door.push_back(std::move(r));
  }
  return s;
}

/// Value of `key=` in a space-separated line, or "" when absent.
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  return line.substr(begin, line.find(' ', begin) - begin);
}

std::uint64_t field_u64(const std::string& line, const std::string& key) {
  const std::string v = field(line, key);
  return v.empty() ? 0 : std::stoull(v);
}

/// Line-oriented client connection.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      const int err = errno;
      ::close(fd_);
      throw std::system_error(err, std::generic_category(), "connect " + path);
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  void send(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = ::write(fd_, out.data() + done, out.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("write to daemon failed");
      done += static_cast<std::size_t>(n);
    }
  }

  /// Read what is available (call after poll reports POLLIN); appends whole
  /// lines to `lines`.  False when the peer closed.
  bool read_available(std::vector<std::string>& lines) {
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) return false;
    in_.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos; start = nl + 1) {
      lines.push_back(in_.substr(start, nl - start));
    }
    in_.erase(0, start);
    return true;
  }

  /// Blocking request/reply.
  std::string call(const std::string& line, double timeout_s = 30.0) {
    send(line);
    return read_line(timeout_s);
  }

  std::string read_line(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    while (pending_.empty()) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ms = static_cast<int>(std::max(0.0, deadline - now_s()) * 1e3);
      if (::poll(&pfd, 1, ms) <= 0) throw std::runtime_error("daemon reply timed out");
      std::vector<std::string> lines;
      if (!read_available(lines)) throw std::runtime_error("daemon closed the connection");
      pending_.insert(pending_.end(), lines.begin(), lines.end());
    }
    std::string line = pending_.front();
    pending_.erase(pending_.begin());
    return line;
  }

 private:
  int fd_{-1};
  std::string in_;
  std::vector<std::string> pending_;
};

/// A greengpud child process.
class Daemon {
 public:
  Daemon(const Args& args, const std::string& dir) {
    fs::create_directories(dir);
    socket_ = dir + "/d.sock";
    journal_ = dir + "/d.journal";
    report_ = dir + "/d.report";
    const std::string bin = args.bin_dir + "/greengpud";
    std::vector<std::string> argv_s = {bin,        "--socket", socket_,    "--journal",
                                       journal_,   "--report", report_,    "--queue-cap",
                                       std::to_string(kQueueCap)};
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // The daemon's stdout joins our stderr: stdout belongs to the result.
    posix_spawn_file_actions_adddup2(&actions, 2, 1);
    spawned_ = now_s();
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + bin);
    // Ready when PING answers on a fresh connection.
    for (;;) {
      try {
        Conn probe(socket_);
        if (probe.call("PING") != "200 pong") throw std::runtime_error("bad PING reply");
        break;
      } catch (const std::system_error&) {
        if (now_s() - spawned_ > 30.0) throw std::runtime_error("greengpud did not start");
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("greengpud exited during start-up");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    ready_s_ = now_s() - spawned_;
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM (graceful drain + report) and reap; returns the exit status.
  int stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage usage{};
    if (::wait4(pid_, &status, 0, &usage) != pid_) throw std::runtime_error("wait4 failed");
    pid_ = -1;
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

  [[nodiscard]] double ready_s() const { return ready_s_; }
  [[nodiscard]] double peak_rss_mb() const { return peak_rss_mb_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] const std::string& journal() const { return journal_; }
  [[nodiscard]] const std::string& report() const { return report_; }

 private:
  std::string socket_, journal_, report_;
  pid_t pid_{-1};
  double spawned_{0.0};
  double ready_s_{0.0};
  double peak_rss_mb_{0.0};
};

/// Outcome fields a WATCH `outcome` event carries.
struct Outcome {
  bool ok{false};
  bool verified{false};
  double exec{0.0};
  double energy{0.0};
};

/// Everything the WATCH connection saw.
struct Watcher {
  std::uint64_t frames{0};
  std::uint64_t events{0};
  std::uint64_t last_seq{0};
  std::uint64_t dropped{0};
  std::map<std::uint64_t, double> admit_seen;
  std::map<std::uint64_t, Outcome> outcomes;

  void on_frame(const std::string& f) {
    ++frames;
    if (f.rfind("DROPPED ", 0) == 0) {
      dropped += std::stoull(f.substr(8));
      return;
    }
    if (f.rfind("EVENT ", 0) != 0) return;  // HEARTBEAT
    ++events;
    const std::size_t sp = f.find(' ', 6);
    last_seq = std::stoull(f.substr(6, sp - 6));
    const std::string payload = f.substr(sp + 1);
    if (payload.rfind("admit ", 0) == 0) {
      admit_seen[field_u64(payload, "seq")] = now_s();
    } else if (payload.rfind("outcome ", 0) == 0) {
      Outcome o;
      o.ok = field(payload, "status") == "ok";
      o.verified = field(payload, "verified") == "1";
      o.exec = std::stod(field(payload, "exec"));
      o.energy = std::stod(field(payload, "gpu_j")) + std::stod(field(payload, "cpu_j"));
      outcomes[field_u64(payload, "seq")] = o;
    }
  }
};

/// What the client measured against one daemon.
struct Measured {
  std::vector<double> completions_per_s;
  std::vector<double> submit_s;   // front door, from due time
  std::vector<double> gen_lag_s;  // send time minus due time
  std::vector<double> watch_lag_s;
  /// seq -> (workload, policy) of the full-length requests of drain round 0.
  std::map<std::uint64_t, std::pair<std::string, std::string>> round0;
  std::vector<std::uint64_t> full_length_seqs;
  std::uint64_t submitted{0};
  std::uint64_t rejected{0};
  Watcher watch;
  std::string final_stats;
  double journal_bytes{0.0};
};

class Client {
 public:
  Client(const Daemon& daemon, Measured& m) : req_(daemon.socket()), watch_(daemon.socket()), m_(m) {
    watch_.send("WATCH");
    const std::string hello = watch_.read_line(10.0);
    if (hello.rfind("200 watching", 0) != 0) throw std::runtime_error("WATCH refused: " + hello);
  }

  /// Read whatever the WATCH connection has, waiting at most `timeout_ms`.
  void pump(int timeout_ms) {
    pollfd pfd{watch_.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return;
    read_watch();
  }

  /// Poll STATS until completed + failed reaches `target` (1 ms apart).
  void wait_completed(std::uint64_t target) {
    const double deadline = now_s() + 120.0;
    for (;;) {
      const std::string stats = req_.call("STATS");
      if (field_u64(stats, "completed") + field_u64(stats, "failed") >= target) return;
      if (now_s() > deadline) throw std::runtime_error("executor did not finish the work");
      pump(1);
    }
  }

  void drain_round(const std::vector<Req>& backlog, bool record_round0) {
    expect(req_.call("PAUSE"), "200 paused");
    for (const Req& r : backlog) {
      const std::string reply = req_.call(r.line());
      ++m_.submitted;
      const std::uint64_t seq = accepted_seq(reply);
      if (seq == 0) continue;
      m_.full_length_seqs.push_back(seq);
      if (record_round0) m_.round0[seq] = {r.workload, r.policy};
    }
    const std::uint64_t target = m_.submitted - m_.rejected;
    const double t0 = now_s();
    expect(req_.call("RESUME"), "200 resumed");
    wait_completed(target);
    m_.completions_per_s.push_back(static_cast<double>(backlog.size()) / (now_s() - t0));
  }

  /// Open loop: each request is sent at its due time whatever the replies
  /// are doing; replies are matched in order.
  void front_door(const std::vector<Req>& requests) {
    const double start = now_s() + 0.05;
    std::size_t next = 0;
    std::size_t replied = 0;
    std::vector<std::string> lines;
    while (replied < requests.size()) {
      while (next < requests.size() && start + requests[next].due <= now_s()) {
        const double sent = now_s();
        req_.send(requests[next].line());
        m_.gen_lag_s.push_back(sent - (start + requests[next].due));
        ++m_.submitted;
        ++next;
      }
      int timeout_ms = 50;
      if (next < requests.size()) {
        timeout_ms =
            static_cast<int>(std::max(0.0, (start + requests[next].due - now_s()) * 1e3));
      }
      pollfd pfds[2] = {{req_.fd(), POLLIN, 0}, {watch_.fd(), POLLIN, 0}};
      if (::poll(pfds, 2, timeout_ms) <= 0) continue;
      if ((pfds[0].revents & POLLIN) != 0) {
        lines.clear();
        if (!req_.read_available(lines)) throw std::runtime_error("daemon closed the connection");
        const double t = now_s();
        for (const auto& line : lines) {
          m_.submit_s.push_back(t - (start + requests[replied].due));
          const std::uint64_t seq = accepted_seq(line);
          if (seq != 0) reply_seen_[seq] = t;
          ++replied;
        }
      }
      if ((pfds[1].revents & POLLIN) != 0) read_watch();
    }
    wait_completed(m_.submitted - m_.rejected);
  }

  /// STATS gates, WATCH accounting, then DRAIN.
  void finish(Report& report) {
    m_.final_stats = req_.call("STATS");
    const std::string& s = m_.final_stats;
    const std::uint64_t published = field_u64(s, "telemetry_seq");
    const double deadline = now_s() + 10.0;
    while (m_.watch.last_seq < published && now_s() < deadline) pump(20);
    report.gate(field_u64(s, "submitted") == m_.submitted &&
                    field_u64(s, "submitted") == field_u64(s, "admitted") &&
                    field_u64(s, "admitted") == field_u64(s, "completed") &&
                    field_u64(s, "shed") == 0 && field_u64(s, "failed") == 0,
                "STATS submitted == admitted == completed, shed == failed == 0 (" + s + ")");
    report.gate(m_.watch.events + m_.watch.dropped == published && m_.watch.dropped == 0,
                "WATCH delivered + DROPPED == published (" + std::to_string(m_.watch.events) +
                    " + " + std::to_string(m_.watch.dropped) + " vs " +
                    std::to_string(published) + "), none dropped");
    expect(req_.call("DRAIN"), "200 draining");
    for (const auto& [seq, replied] : reply_seen_) {
      const auto it = m_.watch.admit_seen.find(seq);
      if (it != m_.watch.admit_seen.end()) m_.watch_lag_s.push_back(it->second - replied);
    }
  }

 private:
  static void expect(const std::string& got, const std::string& want) {
    if (got != want) throw std::runtime_error("daemon replied '" + got + "', expected '" + want + "'");
  }

  /// Seq of a `202 accepted seq=N` reply (0 and a rejection otherwise).
  std::uint64_t accepted_seq(const std::string& reply) {
    if (reply.rfind("202 accepted seq=", 0) != 0) {
      ++m_.rejected;
      return 0;
    }
    return std::stoull(reply.substr(17));
  }

  void read_watch() {
    std::vector<std::string> frames;
    if (!watch_.read_available(frames)) throw std::runtime_error("WATCH connection closed");
    for (const auto& f : frames) m_.watch.on_frame(f);
  }

  Conn req_;
  Conn watch_;
  Measured& m_;
  /// Front-door seq -> when its 202 was read (the WATCH lag reference).
  std::map<std::uint64_t, double> reply_seen_;
};

/// Energy saving and time ratio of greengpu vs best-performance over the
/// round-0 backlog's outcomes (the same 36 runs a paper-campaign makes).
std::pair<double, double> round0_savings(const Measured& m) {
  std::map<std::string, std::map<std::string, Outcome>> by;
  for (const auto& [seq, wp] : m.round0) {
    const auto it = m.watch.outcomes.find(seq);
    if (it != m.watch.outcomes.end()) by[wp.first][wp.second] = it->second;
  }
  double saving = 0.0;
  double delta = 0.0;
  std::size_t n = 0;
  for (const auto& [workload, runs] : by) {
    const auto b = runs.find("best-performance");
    const auto g = runs.find("greengpu");
    if (b == runs.end() || g == runs.end()) continue;
    saving += 1.0 - g->second.energy / b->second.energy;
    delta += g->second.exec / b->second.exec - 1.0;
    ++n;
  }
  if (n == 0) return {0.0, 0.0};
  return {100.0 * saving / static_cast<double>(n), 100.0 + 100.0 * delta / static_cast<double>(n)};
}

/// Run `greengpud --replay` over journal records [lo, hi] and compare its
/// output with the same lines of the daemon's report.
bool replay_matches(const Args& args, const Daemon& d, std::size_t lo, std::size_t hi) {
  const std::string out = d.report() + ".replay";
  const std::string cmd = args.bin_dir + "/greengpud --replay " + d.journal() + " --window " +
                          std::to_string(lo) + ":" + std::to_string(hi) + " --queue-cap " +
                          std::to_string(kQueueCap) + " > " + out;
  if (std::system(cmd.c_str()) != 0) return false;
  std::ifstream report(d.report());
  std::ifstream replay(out);
  std::vector<std::string> report_lines;
  for (std::string line; std::getline(report, line);) report_lines.push_back(line);
  std::size_t i = lo;
  for (std::string line; std::getline(replay, line); ++i) {
    if (i >= report_lines.size() || report_lines[i] != line) return false;
  }
  return i == hi + 1;
}

/// Spawn, measure both phases, drain, stop, check the journal by replay.
Measured run_daemon_phases(const Args& args, const Schedule& sched, int drain_rounds,
                           Report& report, std::vector<double>& setups, double& rss_mb) {
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < kSetupSpawns; ++k) {
    if (daemon) {
      report.gate(daemon->stop() == 0, "greengpud exits 0 on SIGTERM");
    }
    daemon = std::make_unique<Daemon>(args, args.work_dir + "/daemon-" + std::to_string(k));
    setups.push_back(daemon->ready_s());
  }
  Measured m;
  {
    Client client(*daemon, m);
    for (int r = 0; r < drain_rounds; ++r) client.drain_round(sched.backlog, r == 0);
    client.front_door(sched.front_door);
    client.finish(report);
  }
  report.gate(daemon->stop() == 0, "greengpud exits 0 after DRAIN + SIGTERM");
  rss_mb = daemon->peak_rss_mb();
  m.journal_bytes = static_cast<double>(fs::file_size(daemon->journal()));

  // The first executions of round 0 (start/outcome pairs after the backlog's
  // admits) and the journal's tail, re-executed bit-for-bit.
  const std::size_t records = field_u64(m.final_stats, "journal_records");
  const std::size_t first = sched.backlog.size();
  report.gate(replay_matches(args, *daemon, first, first + 5),
              "greengpud --replay verifies journal records " + std::to_string(first) + ":" +
                  std::to_string(first + 5));
  report.gate(records >= 16 && replay_matches(args, *daemon, records - 16, records - 1),
              "greengpud --replay verifies the journal's last 16 records");

  report.attempted += m.submitted;
  report.failed += m.rejected;
  for (std::uint64_t seq : m.full_length_seqs) {
    const auto it = m.watch.outcomes.find(seq);
    if (it == m.watch.outcomes.end() || !it->second.ok || !it->second.verified) ++report.failed;
  }
  report.gate(report.failed == 0, "every SUBMIT answered 202 and every full-length outcome "
                                  "ok and verified");
  return m;
}

/// In-process twin of the daemon run: the same schedule through a
/// ServiceCore, the executor stepped inline.  Spans go to `tracer`; returns
/// the wall time.
double run_in_process(const Args& args, const Schedule& sched, Tracer& tracer,
                         const std::string& name) {
  const std::string dir = args.work_dir + "/" + name;
  fs::create_directories(dir);
  gg::service::ServiceConfig config;
  config.queue_capacity = kQueueCap;
  const double t0 = now_s();
  {
    gg::service::ServiceCore core(config, dir + "/core.journal", false);
    std::string reply;
    const std::uint64_t sub = core.watch("WATCH", reply);
    const auto drain_frames = [&] {
      ScopedSpan span(tracer, "telemetry.frames");
      while (core.next_frame(sub)) {
      }
    };
    const auto submit = [&](const Req& r) {
      std::string line = r.line();
      ScopedSpan span(tracer, "service.submit");
      reply = core.handle_line(line);
      if (reply.rfind("202", 0) != 0) throw std::runtime_error("in-process SUBMIT: " + reply);
    };
    const auto execute = [&](const std::string& run_span) {
      for (;;) {
        std::optional<gg::service::ServiceCore::Job> job;
        {
          ScopedSpan span(tracer, "service.take_next");
          job = core.take_next();
        }
        if (!job) return;
        gg::service::OutcomeRecord outcome;
        {
          ScopedSpan span(tracer, run_span, job->request.seq);
          outcome = gg::service::ServiceCore::run_job(core.config(), job->request, job->device,
                                                      job->vtime_before);
        }
        {
          ScopedSpan span(tracer, "service.complete", job->request.seq);
          core.complete(*job, outcome);
        }
        drain_frames();
      }
    };
    (void)core.handle_line("PAUSE");
    for (const Req& r : sched.backlog) submit(r);
    drain_frames();
    (void)core.handle_line("RESUME");
    execute("service.run_job_full");
    for (const Req& r : sched.front_door) {
      submit(r);
      drain_frames();
      execute("service.run_job");
    }
    (void)core.handle_line("DRAIN");
  }
  const double wall_s = now_s() - t0;
  fs::remove_all(dir);
  return wall_s;
}

std::vector<double> durations(const Tracer& tracer, const std::string& name) {
  std::vector<double> v;
  for (const Span& s : tracer.spans()) {
    if (s.name == name) v.push_back(s.end - s.start);
  }
  return v;
}

void traced_run(const Args& args, const Schedule& sched, Report& report) {
  std::vector<double> setups;
  double rss_mb = 0.0;
  const Measured m = run_daemon_phases(args, sched, 1, report, setups, rss_mb);

  // Admission validates the name by constructing the workload; time that
  // call alone for every request of the schedule.
  Tracer probe(true);
  for (const Req& r : sched.backlog) {
    ScopedSpan span(probe, "workloads.construct");
    (void)gg::workloads::make_workload(r.workload);
  }
  for (const Req& r : sched.front_door) {
    ScopedSpan span(probe, "workloads.construct");
    (void)gg::workloads::make_workload(r.workload);
  }

  Tracer untraced(false);
  const double plain_s = run_in_process(args, sched, untraced, "core-plain");
  Tracer tracer(true);
  const double traced_s = run_in_process(args, sched, tracer, "core-traced");

  const std::string trace_path =
      args.trace_dir + "/trace-service-" + std::to_string(args.seed) + ".jsonl";
  tracer.write_jsonl(trace_path);
  std::printf("service spans written to %s\n", trace_path.c_str());
  const double residual = print_self_times("service", tracer, traced_s);
  const double overhead_s = traced_s - plain_s;
  std::printf("service traced wall %.3f s, untraced %.3f s, tracing overhead %.3f s (%.2f%%)\n",
              traced_s, plain_s, overhead_s, 100.0 * overhead_s / plain_s);

  const std::vector<double> submit = durations(tracer, "service.submit");
  const std::vector<double> construct = durations(probe, "workloads.construct");
  std::vector<double> run_full = durations(tracer, "service.run_job_full");
  const double socket_p50_us = 1e6 * quantile(m.submit_s, 0.5);
  const double core_p50_us = 1e6 * quantile(submit, 0.5);
  std::printf("service SUBMIT p50: socket %.1f us, in-process handle_line %.1f us, "
              "make_workload alone %.1f us (%.0f%% of handle_line)\n",
              socket_p50_us, core_p50_us, 1e6 * median(construct),
              100.0 * median(construct) / median(submit));

  std::sort(run_full.begin(), run_full.end());
  report_layers(
      report,
      {{"workloads.construct_ms", 1e3 * probe.total("workloads.construct")},
       {"workloads.verify_runs", static_cast<double>(run_full.size())},
       {"service.submit_us_p50", core_p50_us},
       {"service.submit_us_p99", 1e6 * quantile(submit, 0.99)},
       {"service.transport_us_p50", socket_p50_us - core_p50_us},
       {"service.socket_submit_ms_p99", 1e3 * quantile(m.submit_s, 0.99)},
       {"service.run_job_ms_p50", 1e3 * median(run_full)},
       {"service.run_job_ms_max", run_full.empty() ? 0.0 : 1e3 * run_full.back()},
       {"service.complete_us_p50", 1e6 * median(durations(tracer, "service.complete"))},
       {"service.journal_records",
        static_cast<double>(field_u64(m.final_stats, "journal_records"))},
       {"service.journal_bytes", m.journal_bytes},
       {"telemetry.frames", static_cast<double>(m.watch.frames)},
       {"telemetry.dropped", static_cast<double>(m.watch.dropped)},
       {"telemetry.watch_lag_p50_ms", 1e3 * quantile(m.watch_lag_s, 0.5)},
       {"telemetry.watch_lag_p99_ms", 1e3 * quantile(m.watch_lag_s, 0.99)},
       {"trace.overhead_ms", 1e3 * overhead_s},
       {"trace.residual_ms", 1e3 * residual}});
}

}  // namespace

void run_service_workload(const Args& args, Report& report) {
  const Schedule sched = make_schedule(args.seed, args.seconds);
  if (args.trace) {
    traced_run(args, sched, report);
    return;
  }
  std::vector<double> setups;
  double rss_mb = 0.0;
  const Measured m = run_daemon_phases(args, sched, kDrainRounds, report, setups, rss_mb);

  const double gap = 1.0 / kFrontDoorRate;
  const double lag_p50 = quantile(m.gen_lag_s, 0.5);
  const double lag_p99 = quantile(m.gen_lag_s, 0.99);
  const double lag_max = quantile(m.gen_lag_s, 1.0);
  std::printf("service front door: %zu SUBMITs at %.0f/s (open loop), generator lag "
              "p50 %.3f ms, p99 %.3f ms, max %.3f ms (gap %.1f ms)\n",
              m.submit_s.size(), kFrontDoorRate, 1e3 * lag_p50, 1e3 * lag_p99, 1e3 * lag_max,
              1e3 * gap);
  report.gate(lag_p50 <= kMaxLagMedianShare * gap && lag_p99 <= kMaxLagP99Share * gap,
              "open-loop generator on schedule (run invalid, not slow: lag p50 must be "
              "<= 10% and p99 <= 50% of the inter-arrival gap)");

  const auto [saving, ratio] = round0_savings(m);
  const double p50 = quantile(m.submit_s, 0.5);
  const double p99 = quantile(m.submit_s, 0.99);
  report.metric("cells_per_s", median(m.completions_per_s), "1/s");
  report.metric("latency_p50_ms", 1e3 * p50, "ms");
  report.metric("energy_saving_pct", saving, "%");
  report.metric("time_ratio_pct", ratio, "%");
  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", rss_mb, "MB");
  print_line("service", "submit_p50_ms", 1e3 * p50, "ms");
  print_line("service", "submit_p99_ms", 1e3 * p99, "ms");
  print_line("service", "completions_per_s", median(m.completions_per_s), "1/s");
  print_line("service", "watch_lag_p50_ms", 1e3 * quantile(m.watch_lag_s, 0.5), "ms");
  print_line("service", "watch_lag_p99_ms", 1e3 * quantile(m.watch_lag_s, 0.99), "ms");
  print_line("service", "time_penalty_pct", ratio - 100.0, "%");
  print_line("service", "failed_ratio",
             static_cast<double>(report.failed) / static_cast<double>(report.attempted), "");
}

}  // namespace ggbench

// The daemon process and the single-threaded load generator.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "server/frame.hpp"
#include "util/rng.hpp"

namespace sflowbench {

namespace {

/// Owns one file descriptor.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd& operator=(Fd&&) = delete;
  int get() const noexcept { return fd_; }

 private:
  int fd_;
};

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::runtime_error system_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

/// Frames arriving on a non-blocking read side, plus the stream indices
/// still awaiting a response on that connection (responses come back in
/// send order per connection).
struct Inbox {
  std::string buffer;
  std::size_t offset = 0;
  std::deque<std::size_t> pending;

  bool next_frame(std::string& payload) {
    if (buffer.size() - offset < 4) return false;
    const auto* p = reinterpret_cast<const unsigned char*>(buffer.data()) + offset;
    const std::uint32_t length = (std::uint32_t{p[0]} << 24) |
                                 (std::uint32_t{p[1]} << 16) |
                                 (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
    if (length > sflow::server::kMaxFrameBytes)
      throw std::runtime_error("oversized response frame");
    if (buffer.size() - offset - 4 < length) return false;
    payload.assign(buffer, offset + 4, length);
    offset += 4 + length;
    if (offset == buffer.size()) {
      buffer.clear();
      offset = 0;
    }
    return true;
  }
};

}  // namespace

Scrape parse_scrape(const std::string& text) {
  Scrape scrape;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    scrape[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return scrape;
}

double delta(const Scrape& before, const Scrape& after, const std::string& name) {
  const auto value = [&name](const Scrape& scrape) {
    const auto it = scrape.find(name);
    return it == scrape.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

Response parse_response(const std::string& payload) {
  Response response;
  std::istringstream lines(payload);
  std::string line;
  // The header lines come first; the flow graph (admitted only) follows.
  for (int i = 0; i < 6 && std::getline(lines, line); ++i) {
    const auto colon = line.find(": ");
    if (colon == std::string::npos) break;
    const std::string key = line.substr(0, colon);
    std::string value = line.substr(colon + 2);
    if (key == "status") response.status = std::move(value);
    else if (key == "sequence") response.sequence = std::move(value);
    else if (key == "rate") response.rate = std::move(value);
    else if (key == "bandwidth") response.bandwidth = std::move(value);
    else if (key == "latency") response.latency = std::move(value);
  }
  if (response.status != "admitted" && response.status != "rejected")
    response.status = "error";
  return response;
}

// ---------------------------------------------------------------------------
// Daemon

Daemon::Daemon(const std::string& binary, const Workload& workload,
               std::uint64_t request_seed, const std::string& socket_path)
    : socket_path_(socket_path) {
  std::vector<std::string> args = {
      binary,
      "--socket", socket_path,
      "--network-size", std::to_string(workload.network_size),
      "--services", std::to_string(workload.services),
      "--instances-per-service", std::to_string(workload.instances_per_service),
      "--seed", std::to_string(kHostingSeed),
      "--request-seed", std::to_string(request_seed)};
  if (!workload.algorithm.empty()) {
    args.push_back("--algorithm");
    args.push_back(workload.algorithm);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  sockaddr_un address{};
  if (socket_path.size() >= sizeof(address.sun_path))
    throw std::runtime_error("socket path too long: " + socket_path);
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());

  const pid_t parent = ::getpid();
  const Clock::time_point start = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) throw system_error("fork");
  if (pid == 0) {
    // Child: die with the benchmark, keep stdout (the result line) clean.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;

  try {
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) throw system_error("socket");
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)) == 0) {
        control_fd_ = fd;
        break;
      }
      ::close(fd);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("sflowd exited during startup (status " +
                                 std::to_string(status) + ")");
      }
      if (seconds_since(start) > 120.0)
        throw std::runtime_error("sflowd did not listen within 120 s");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    sflow::server::write_frame(control_fd_, "GET /catalog");
    if (!sflow::server::read_frame(control_fd_, catalog_))
      throw std::runtime_error("sflowd closed the control connection");
    setup_s_ = seconds_since(start);
  } catch (...) {
    kill_child();
    throw;
  }
}

Daemon::~Daemon() { kill_child(); }

void Daemon::kill_child() noexcept {
  if (control_fd_ >= 0) ::close(control_fd_);
  control_fd_ = -1;
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  ::unlink(socket_path_.c_str());
}

int Daemon::connect() const {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw system_error("socket");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    throw system_error("connect " + socket_path_);
  }
  return fd;
}

Scrape Daemon::scrape() const {
  sflow::server::write_frame(control_fd_, "GET /metrics");
  std::string text;
  if (!sflow::server::read_frame(control_fd_, text))
    throw std::runtime_error("sflowd closed the control connection");
  return parse_scrape(text);
}

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM for sflowd");
}

void Daemon::stop() {
  ::close(control_fd_);
  control_fd_ = -1;
  ::kill(pid_, SIGTERM);
  const Clock::time_point start = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (seconds_since(start) > 60.0)
      throw std::runtime_error("sflowd did not drain within 60 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("sflowd exited abnormally (status " +
                             std::to_string(status) + ")");
}

// ---------------------------------------------------------------------------
// Closed phase: one connection, a fixed window of frames in flight.

ClosedResult run_closed(const Daemon& daemon,
                        std::span<const std::string> stream,
                        std::size_t window) {
  const Fd fd(daemon.connect());
  ClosedResult result;
  result.attempted = stream.size();
  result.responses.reserve(stream.size());
  std::size_t sent = 0;
  double inflight_sum = 0.0;
  std::string payload;
  const Clock::time_point start = Clock::now();
  while (result.responses.size() < stream.size()) {
    while (sent < stream.size() && sent - result.responses.size() < window)
      sflow::server::write_frame(fd.get(), stream[sent++]);
    inflight_sum += static_cast<double>(sent - result.responses.size());
    if (!sflow::server::read_frame(fd.get(), payload)) break;
    Response response = parse_response(payload);
    if (response.status == "admitted") {
      ++result.admitted;
      result.granted_mbps += std::strtod(response.rate.c_str(), nullptr);
    } else if (response.status == "error") {
      ++result.errors;
    }
    result.responses.push_back(std::move(response));
  }
  result.wall_s = seconds_since(start);
  if (!result.responses.empty())
    result.inflight_mean =
        inflight_sum / static_cast<double>(result.responses.size());
  result.missing = stream.size() - result.responses.size();
  result.responses.resize(stream.size(), Response{"missing", "", "", "", ""});
  return result;
}

// ---------------------------------------------------------------------------
// Open phase: Poisson arrivals, round-robin over connections, one thread.

std::vector<double> poisson_schedule(double rate, double duration_s,
                                     std::uint64_t seed) {
  sflow::util::Rng rng(seed);
  std::vector<double> schedule;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform_real(0.0, 1.0)) / rate;
    if (t >= duration_s) return schedule;
    schedule.push_back(t);
  }
}

OpenResult run_open(const Daemon& daemon,
                    std::span<const std::string> stream,
                    const std::vector<double>& schedule,
                    std::size_t connections) {
  if (stream.size() < schedule.size())
    throw std::logic_error("run_open: stream shorter than the schedule");
  std::vector<Fd> fds;
  std::vector<pollfd> polls;
  for (std::size_t c = 0; c < connections; ++c) {
    fds.emplace_back(daemon.connect());
    polls.push_back({fds.back().get(), POLLIN, 0});
  }
  std::vector<Inbox> inboxes(connections);

  OpenResult result;
  const std::size_t n = schedule.size();
  result.attempted = n;
  result.responses.assign(n, Response{"missing", "", "", "", ""});
  result.latency_ms.assign(n, -1.0);
  const Clock::time_point start = Clock::now();
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i]));
  };
  const Clock::time_point drain_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(
                      (n > 0 ? schedule.back() : 0.0) + 30.0));
  std::size_t next = 0, received = 0;
  std::string payload;
  std::vector<char> chunk(1 << 16);
  while (received < n) {
    Clock::time_point now = Clock::now();
    while (next < n && due(next) <= now) {
      const std::size_t c = next % connections;
      result.lateness_ms.add(ms_between(due(next), now));
      sflow::server::write_frame(fds[c].get(), stream[next]);
      inboxes[c].pending.push_back(next);
      ++next;
      now = Clock::now();
    }
    const Clock::time_point wake = next < n ? due(next) : drain_deadline;
    if (next == n && now >= drain_deadline) break;
    const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
        wake > now ? wake - now : Clock::duration::zero());
    timespec timeout{static_cast<time_t>(wait.count() / 1000000000),
                     static_cast<long>(wait.count() % 1000000000)};
    if (::ppoll(polls.data(), polls.size(), &timeout, nullptr) < 0) {
      if (errno == EINTR) continue;
      throw system_error("ppoll");
    }
    for (std::size_t c = 0; c < connections; ++c) {
      if (polls[c].revents == 0) continue;
      const ssize_t got =
          ::recv(polls[c].fd, chunk.data(), chunk.size(), MSG_DONTWAIT);
      if (got == 0) {
        polls[c].fd = -1;  // the daemon hung up; the rest counts as missing
        continue;
      }
      if (got < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        throw system_error("recv");
      }
      const Clock::time_point at = Clock::now();
      Inbox& inbox = inboxes[c];
      inbox.buffer.append(chunk.data(), static_cast<std::size_t>(got));
      while (inbox.next_frame(payload)) {
        if (inbox.pending.empty())
          throw std::runtime_error("response without a request");
        const std::size_t index = inbox.pending.front();
        inbox.pending.pop_front();
        ++received;
        result.latency_ms[index] = ms_between(due(index), at);
        result.responses[index] = parse_response(payload);
        if (result.responses[index].status == "error") ++result.errors;
      }
    }
  }
  result.duration_s = n > 0 ? schedule.back() : 0.0;
  result.missing = n - received;
  return result;
}

}  // namespace sflowbench

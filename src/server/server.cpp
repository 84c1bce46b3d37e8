#include "server/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"
#include "overlay/requirement_parser.hpp"
#include "overlay/serialization.hpp"
#include "server/frame.hpp"
#include "server/hosting.hpp"

namespace sflow::server {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool is_query(const std::string& payload, const char* verb) {
  return payload.rfind(verb, 0) == 0;
}

}  // namespace

overlay::ServiceRequirement parse_and_pin(const std::string& payload,
                                          overlay::ServiceCatalog& catalog,
                                          const overlay::OverlayGraph& hosting) {
  overlay::ServiceRequirement requirement =
      overlay::parse_requirement(payload, catalog);
  for (const overlay::Sid sid : requirement.services())
    if (hosting.instances_of(sid).empty())
      throw std::invalid_argument("unknown service '" + catalog.name(sid) +
                                  "' (see GET /catalog)");
  const overlay::Sid source = requirement.source();
  if (!requirement.pinned(source))
    requirement.pin(source,
                    hosting.instance(hosting.instances_of(source).front()).nid);
  return requirement;
}

std::string format_response(std::uint64_t sequence,
                            const core::AdmissionDecision& decision,
                            const core::Scenario& scenario) {
  if (!decision.admitted) {
    // Nearly every response: plain concatenation, no stream.
    std::string out = "status: rejected\nsequence: ";
    out += std::to_string(sequence);
    out += decision.outcome.success
               ? "\nreason: granted rate below the admission floor\n"
               : "\nreason: no feasible service flow graph\n";
    return out;
  }
  std::ostringstream out;
  out.precision(17);
  out << "status: admitted\nsequence: " << sequence << "\nrate: " << decision.rate
      << "\nbandwidth: " << decision.outcome.bandwidth
      << "\nlatency: " << decision.outcome.latency << "\nclamped: "
      << (decision.rate < decision.outcome.bandwidth ? 1 : 0) << '\n'
      << overlay::format_flow_graph(decision.outcome.graph, scenario.overlay(),
                                    scenario.catalog);
  return out.str();
}

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Metrics::Metrics()
    : connections(obs::Registry::global().counter(
          "server_connections_total",
          "connections the daemon accepted or adopted")),
      requests(obs::Registry::global().counter(
          "server_requests_total", "requirement frames received")),
      admitted(obs::Registry::global().counter(
          "server_admitted_total", "requests granted capacity")),
      rejected(obs::Registry::global().counter(
          "server_rejected_total",
          "parsed requests denied (infeasible or below the floor)")),
      errors(obs::Registry::global().counter(
          "server_errors_total",
          "frames that failed to parse or named unhosted services")),
      clamped(obs::Registry::global().counter(
          "server_clamped_total",
          "admissions clamped below solver bandwidth by physical headroom")),
      batches(obs::Registry::global().counter(
          "server_batches_total", "admitter queue drains")),
      accept_failures(obs::Registry::global().counter(
          "server_accept_failures_total",
          "transient accept() failures survived (fd exhaustion, resets)")),
      backpressure(obs::Registry::global().counter(
          "server_backpressure_waits_total",
          "reader parks on the full requirement queue")),
      internal_errors(obs::Registry::global().counter(
          "server_internal_errors_total",
          "requests answered 'status: error' by a commit-path exception")),
      admitter_busy_us(obs::Registry::global().counter(
          "server_admitter_busy_us_total",
          "microseconds the admitter spent serving batches")),
      queue_peak(obs::Registry::global().gauge(
          "server_queue_depth_peak_total",
          "high-water mark of queued requirement frames")),
      latency(obs::Registry::global().histogram(
          "server_request_latency_ms", obs::default_duration_buckets_ms(),
          "frame-read-to-response latency per requirement frame")) {}

Server::Server(core::Scenario scenario, ServerConfig config)
    : scenario_(std::move(scenario)),
      config_(std::move(config)),
      view_(scenario_.view),
      catalog_text_(catalog_listing(scenario_)) {
  admitter_ = std::thread(&Server::admitter_loop, this);
}

Server::~Server() { stop(); }

void Server::listen_unix(const std::string& path) {
  sockaddr_un address{};
  if (path.empty() || path.size() >= sizeof(address.sun_path))
    throw std::runtime_error("listen_unix: socket path empty or longer than " +
                             std::to_string(sizeof(address.sun_path) - 1) +
                             " bytes");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("listen_unix: socket: ") +
                             std::strerror(errno));
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // a stale socket file from a crashed run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(fd, 64) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("listen_unix: cannot listen on '" + path +
                             "': " + std::strerror(saved));
  }
  if (::pipe(stop_pipe_) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("listen_unix: pipe: ") +
                             std::strerror(errno));
  }
  listen_fd_ = fd;
  socket_path_ = path;
  accept_thread_ = std::thread(&Server::accept_loop, this);
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // stop() woke us
    if (fds[0].revents == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Everything else — EMFILE/ENFILE fd exhaustion above all — is
      // transient for a daemon: keep the listener alive instead of silently
      // never accepting again.  The listen fd stays readable while the
      // backlog holds the unaccepted connection, so back off on the stop
      // pipe rather than re-polling in a hot loop.
      metrics_.accept_failures.increment();
      pollfd stop_poll{stop_pipe_[0], POLLIN, 0};
      if (::poll(&stop_poll, 1, 50) > 0) return;
      continue;
    }
    adopt_connection(fd);
  }
}

void Server::adopt_connection(int fd) {
  if (stopping_.load()) {
    ::close(fd);
    return;
  }
  reap_finished_readers();
  // Backstop against a peer that stopped reading: a blocked response write
  // times out (and is dropped by respond()) instead of wedging the admitter.
  // Fails harmlessly on non-socket fds (pipes in tests).
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  auto conn = std::make_shared<Connection>(fd);
  std::lock_guard lock(conn_mutex_);
  if (stopping_.load()) return;  // Connection dtor closes fd
  connections_.push_back(conn);
  const std::uint64_t reader_id = next_reader_id_++;
  readers_.push_back({reader_id, std::thread(&Server::reader_loop, this,
                                             std::move(conn), reader_id)});
  metrics_.connections.increment();
}

void Server::reap_finished_readers() {
  std::vector<std::thread> finished;
  {
    std::lock_guard lock(conn_mutex_);
    finished.swap(finished_readers_);
  }
  for (std::thread& thread : finished) thread.join();
}

std::size_t Server::active_connections() const {
  std::lock_guard lock(conn_mutex_);
  return connections_.size();
}

void Server::reader_loop(std::shared_ptr<Connection> conn,
                         std::uint64_t reader_id) {
  // This reader's own copy of the hosted catalog: the parser interns every
  // name it meets, and a name no service hosts must not outlive its frame.
  // The shared scenario_.catalog never changes after construction.
  overlay::ServiceCatalog catalog = scenario_.catalog;
  std::string payload;
  try {
    while (read_frame(conn->fd, payload)) {
      if (is_query(payload, "GET /metrics")) {
        respond(*conn, obs::to_prometheus(obs::Registry::global().snapshot()));
        continue;
      }
      if (is_query(payload, "GET /catalog")) {
        respond(*conn, catalog_text_);
        continue;
      }
      metrics_.requests.increment();
      QueuedFrame frame{conn, std::nullopt, std::string(),
                        std::chrono::steady_clock::now()};
      try {
        frame.requirement =
            parse_and_pin(payload, catalog, scenario_.overlay());
      } catch (const std::exception& e) {
        frame.error = std::string("status: error\nreason: ") + e.what() + "\n";
      }
      if (catalog.size() != scenario_.catalog.size())
        catalog = scenario_.catalog;
      {
        std::unique_lock lock(queue_mutex_);
        if (queue_.size() >= config_.max_queue_depth && !stopping_.load()) {
          // Past the high-water mark: park this reader until the admitter
          // drains, stalling the client's pipeline (it wrote frames we have
          // not read yet) instead of growing the queue without bound.
          // stop() flips stopping_ and signals, so shutdown still drains
          // everything already read.
          metrics_.backpressure.increment();
          queue_space_.wait(lock, [this] {
            return queue_.size() < config_.max_queue_depth ||
                   stopping_.load();
          });
        }
        queue_.push_back(std::move(frame));
        metrics_.queue_peak.update_max(static_cast<double>(queue_.size()));
      }
      queue_ready_.notify_one();
    }
  } catch (const std::exception&) {
    // A torn frame or I/O error drops the connection; requests already
    // queued still get served and answered (best-effort).
  }
  // The connection is gone: take it off the roster (its fd closes when the
  // last queued frame referencing it is answered) and retire this thread's
  // handle for a janitor join — a daemon must reclaim per-connection
  // resources while running, not at stop().  During shutdown the handle
  // stays put: stop() owns every join then.
  if (stopping_.load()) return;
  std::lock_guard lock(conn_mutex_);
  for (auto it = connections_.begin(); it != connections_.end(); ++it)
    if (it->get() == conn.get()) {
      connections_.erase(it);
      break;
    }
  for (auto it = readers_.begin(); it != readers_.end(); ++it)
    if (it->id == reader_id) {
      finished_readers_.push_back(std::move(it->thread));
      readers_.erase(it);
      break;
    }
}

void Server::admitter_loop() {
  // Busy time below a whole microsecond carries into the next batch, so the
  // counter does not drift low by a truncation per batch.
  std::chrono::nanoseconds busy_carry{0};
  for (;;) {
    std::vector<QueuedFrame> batch;
    {
      std::unique_lock lock(queue_mutex_);
      queue_ready_.wait(lock,
                        [this] { return !queue_.empty() || queue_closed_; });
      if (queue_.empty() && queue_closed_) return;
      // Everything queued right now forms one batch, served in arrival
      // order; stragglers wait for the next drain.
      while (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    // The drain emptied the queue: release readers parked on backpressure.
    queue_space_.notify_all();
    const auto busy_start = std::chrono::steady_clock::now();
    try {
      serve_batch(std::move(batch));
    } catch (...) {
      // Last-resort backstop: an exception escaping here would unwind the
      // admitter's top frame and std::terminate the daemon.  serve_batch
      // answers per-request failures itself; whatever reaches this handler
      // loses the batch's remaining responses but keeps the server (and its
      // eventual stop() drain) alive.
      metrics_.internal_errors.increment();
    }
    busy_carry += std::chrono::steady_clock::now() - busy_start;
    const auto busy_us =
        std::chrono::duration_cast<std::chrono::microseconds>(busy_carry);
    metrics_.admitter_busy_us.add(static_cast<std::uint64_t>(busy_us.count()));
    busy_carry -= busy_us;
  }
}

void Server::serve_batch(std::vector<QueuedFrame> batch) {
  metrics_.batches.increment();
  // Readers parsed and pinned every frame; the admitter serves them in queue
  // (arrival) order, so each connection gets its responses in send order
  // (docs/formats.md) — error frames carry no sequence a pipelining client
  // could correlate by.  An error frame draws no sequence number, and with
  // it no randomness, so it cannot shift any later request's derived seed.
  for (QueuedFrame& frame : batch) {
    if (!frame.requirement) {
      metrics_.errors.increment();
      respond(*frame.conn, frame.error);
      metrics_.latency.observe(ms_since(frame.enqueued));
      continue;
    }
    const std::uint64_t sequence = next_sequence_++;
    try {
      const core::AdmissionDecision decision =
          core::admit_one(scenario_, view_, *frame.requirement, sequence,
                          config_.admission, config_.seed);
      (decision.admitted ? metrics_.admitted : metrics_.rejected).increment();
      if (decision.admitted && decision.rate < decision.outcome.bandwidth)
        metrics_.clamped.increment();
      respond(*frame.conn, format_response(sequence, decision, scenario_));
    } catch (const std::exception& e) {
      // A commit-path failure (a solver invariant, allocation pressure while
      // formatting) fails this one request; the admitter — and the daemon —
      // live on.  The request consumed its sequence number, which is exactly
      // what a sequential replay hitting the same deterministic throw would
      // observe.
      metrics_.internal_errors.increment();
      respond(*frame.conn, std::string("status: error\nreason: internal: ") +
                               e.what() + "\n");
    }
    metrics_.latency.observe(ms_since(frame.enqueued));
  }
}

void Server::respond(Connection& conn, const std::string& payload) {
  std::lock_guard lock(conn.write_mutex);
  try {
    write_frame(conn.fd, payload);
  } catch (const std::exception&) {
    // The peer vanished or stalled past the send timeout; its response is
    // lost but the decision stands (its admit stays charged in the view).
  }
}

void Server::stop() {
  {
    std::lock_guard lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true);

  // 1. Stop accepting: wake the accept loop's poll, join, close the socket.
  if (stop_pipe_[1] >= 0) {
    const char byte = 'x';
    while (::write(stop_pipe_[1], &byte, 1) < 0 && errno == EINTR) {
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(socket_path_.c_str());
  }
  for (int& fd : stop_pipe_)
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }

  // 2. Release any reader parked on queue backpressure (stopping_ flips its
  // wait predicate; the lock pulse pairs the notify with a waiter that
  // checked the predicate just before stopping_ was set), then EOF every
  // connection's read side; readers finish the frame they are on, enqueue
  // it, and exit.  Joining them *before* closing the queue is what
  // guarantees the admitter sees every frame that was fully read.  Handles
  // are collected under conn_mutex_ because a reader whose client hung up
  // may concurrently be retiring its own entry.
  {
    std::lock_guard lock(queue_mutex_);
  }
  queue_space_.notify_all();
  std::vector<std::thread> reader_threads;
  {
    std::lock_guard lock(conn_mutex_);
    for (const auto& conn : connections_) ::shutdown(conn->fd, SHUT_RD);
    for (Reader& reader : readers_)
      reader_threads.push_back(std::move(reader.thread));
    readers_.clear();
    for (std::thread& thread : finished_readers_)
      reader_threads.push_back(std::move(thread));
    finished_readers_.clear();
  }
  for (std::thread& reader : reader_threads)
    if (reader.joinable()) reader.join();

  // 3. Close the queue; the admitter drains and answers everything, then
  // exits.
  {
    std::lock_guard lock(queue_mutex_);
    queue_closed_ = true;
  }
  queue_ready_.notify_all();
  if (admitter_.joinable()) admitter_.join();

  // 4. Drop the connections (closing their fds — clients see EOF only after
  // their last response was written).
  {
    std::lock_guard lock(conn_mutex_);
    connections_.clear();
  }
}

}  // namespace sflow::server

// sflowd's engine: a long-running federation server with online admission
// control over one shared residual overlay.
//
// The paper's evaluation federates one request per process; a service
// overlay in production faces a *stream*.  The Server accepts connections
// (a unix listening socket, or fds adopted directly — tests use socketpairs),
// reads length-prefixed frames (server/frame.hpp), and serves each
// [requirement]-grammar frame against one warm ResidualOverlay: the
// shortest-widest database is retargeted incrementally on every admit
// (PR 8), so request N+1 pays only for what request N's admission touched.
//
// Thread model — three roles, one writer of federation state:
//
//   accept thread      blocks in poll(listen_fd, stop_pipe); adopts each
//                      accepted connection.
//   reader threads     one per connection; read frames.  Query frames
//                      (`GET /metrics`, `GET /catalog`) are answered in
//                      place from immutable or atomic state.  A requirement
//                      frame is parsed against the reader's own copy of the
//                      hosted catalog, checked for unhosted services and
//                      source-pinned, then enqueued FIFO — as a requirement,
//                      or as its finished error response.  A name the
//                      overlay does not host is dropped with its frame: the
//                      reader restores its catalog copy, and the shared
//                      scenario catalog never changes after construction.
//   admitter thread    the sole owner of the residual view and the only
//                      thread that solves.  Drains the queue in batches and
//                      serves each frame in arrival order: an error frame
//                      gets its finished `status: error` response; every
//                      other frame draws the next sequence number and goes
//                      through core::admit_one, then format_response, and is
//                      written back as one frame.
//
// Determinism contract, stated over what clients receive: request i draws
// util::derive_seed(seed, i) and is served by the same core::admit_one that
// run_admission_sequence iterates, so every response the daemon writes is
// byte-identical to format_response() of a sequential replay of the served
// frames — each taken through parse_and_pin() and placed at its response's
// sequence number — however requests interleaved across connections.  A
// frame that fails parse_and_pin() is answered `status: error` and draws no
// sequence number, so sequences run 0..N-1 over the N solved requests.  The
// daemon keeps no per-request record: once a response is written, only an
// admitted flow's charge on the residual view remains.
//
// Shutdown (stop()): close the listener, EOF every connection's read side,
// join the readers, close the queue, and let the admitter drain — every
// frame read before shutdown gets its response before the sockets close.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "core/scenario.hpp"
#include "obs/metrics.hpp"

namespace sflow::server {

struct ServerConfig {
  /// Per-request policy: algorithm, bandwidth floor, sFlow parameters.
  core::AdmissionConfig admission;
  /// Request-stream seed; request i draws derive_seed(seed, i).
  std::uint64_t seed = 0;
  /// High-water mark for the requirement queue.  A reader that would push
  /// past it parks until the admitter drains, so an open-loop client that
  /// outpaces the solver stalls its own pipeline (per-connection
  /// backpressure) instead of growing the queue — and its parsed
  /// requirements — without bound.  At least 1.
  std::size_t max_queue_depth = 4096;
  /// Only for the frozen sflowbench replica; routing repair is always lazy.
  graph::AllPairsShortestWidest::RepairMode routing_repair =
      graph::AllPairsShortestWidest::RepairMode::kLazy;
};

/// Parses a requirement frame against `catalog` (interning any new name into
/// it), rejects services `hosting` does not host, and pins the source to its
/// first instance unless the frame pinned it (the sflowctl federate rule: the
/// consumer contacts one concrete instance).  Throws std::invalid_argument
/// with the client-facing reason.  Readers run it on every requirement frame;
/// a replay runs it to rebuild the stream the daemon served.
overlay::ServiceRequirement parse_and_pin(const std::string& payload,
                                          overlay::ServiceCatalog& catalog,
                                          const overlay::OverlayGraph& hosting);

/// The response payload for the request served as `sequence`: its status,
/// and on admit the granted rate, the solved bandwidth and latency (all at
/// precision 17), the clamp flag and the flow graph; on reject the reason.
/// Wire format in docs/formats.md.
std::string format_response(std::uint64_t sequence,
                            const core::AdmissionDecision& decision,
                            const core::Scenario& scenario);

class Server {
 public:
  /// Takes ownership of the hosting scenario (server/hosting.hpp) and
  /// starts the admitter thread.  No sockets are open yet.
  Server(core::Scenario scenario, ServerConfig config);
  ~Server();  // stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds a unix listening socket at `path` (removing any stale socket
  /// file) and starts accepting.  Throws std::runtime_error on bind/listen
  /// failure.
  void listen_unix(const std::string& path);

  /// Adopts one end of an already-connected stream socket (tests drive the
  /// server over socketpairs).  The server owns `fd` from here on.
  void adopt_connection(int fd);

  /// Stops accepting, EOFs every connection, drains the queue (answering
  /// everything already read), joins all threads, closes all fds.
  /// Idempotent; the destructor calls it.
  void stop();

  const core::Scenario& scenario() const noexcept { return scenario_; }
  const ServerConfig& config() const noexcept { return config_; }

  /// Connections currently on the roster.  A disconnected client leaves it
  /// as soon as its reader exits (the fd itself closes once the last queued
  /// frame referencing it is answered) — a long-running daemon must not
  /// accumulate one fd per connection ever served.
  std::size_t active_connections() const;

  /// Residual state after the served stream.  Stable only once stop() has
  /// returned (the admitter is the sole writer while running).
  const overlay::ResidualOverlay& view() const noexcept { return view_; }

 private:
  struct Connection {
    explicit Connection(int fd_in) : fd(fd_in) {}
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd;
    /// Serializes writes: the admitter (responses) and a reader (query
    /// answers) may target the same connection concurrently.
    std::mutex write_mutex;
  };

  /// One requirement frame as its reader left it: parsed and pinned, or
  /// rejected with its finished error response.
  struct QueuedFrame {
    std::shared_ptr<Connection> conn;
    std::optional<overlay::ServiceRequirement> requirement;
    std::string error;  // the response payload when the frame was rejected
    /// When the frame had been read (before the parse): the start of
    /// server_request_latency_ms.
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Lazily registered process-wide metrics (docs/observability.md).
  struct Metrics {
    obs::Counter& connections;
    obs::Counter& requests;
    obs::Counter& admitted;
    obs::Counter& rejected;
    obs::Counter& errors;
    obs::Counter& clamped;
    obs::Counter& batches;
    obs::Counter& accept_failures;
    obs::Counter& backpressure;
    obs::Counter& internal_errors;
    obs::Gauge& queue_peak;
    obs::Histogram& latency;
    Metrics();
  };

  /// One per-connection reader thread; `id` lets the thread find (and
  /// retire) its own entry when its connection goes away.
  struct Reader {
    std::uint64_t id;
    std::thread thread;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn, std::uint64_t reader_id);
  /// Joins reader threads whose connections have closed (they are already
  /// finished, so the joins are instant).  Called from adopt_connection —
  /// each new connection reaps the dead ones — and from stop().
  void reap_finished_readers();
  void admitter_loop();
  void serve_batch(std::vector<QueuedFrame> batch);
  /// Best-effort framed reply; a peer that vanished loses its response but
  /// never wedges the sender (SO_SNDTIMEO backstop on sockets).
  void respond(Connection& conn, const std::string& payload);

  core::Scenario scenario_;
  ServerConfig config_;
  overlay::ResidualOverlay view_;
  /// GET /catalog response, precomputed once.  Nothing interns into
  /// scenario_.catalog after construction (each reader parses against its
  /// own copy), so the listing never goes stale.
  std::string catalog_text_;
  Metrics metrics_;

  int listen_fd_ = -1;
  std::string socket_path_;
  int stop_pipe_[2] = {-1, -1};  // wakes the accept loop's poll()
  std::thread accept_thread_;

  mutable std::mutex conn_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<Reader> readers_;
  /// Threads of readers that already exited, awaiting a janitor join.
  std::vector<std::thread> finished_readers_;
  std::uint64_t next_reader_id_ = 0;  // guarded by conn_mutex_
  std::atomic<bool> stopping_{false};

  std::mutex queue_mutex_;
  std::condition_variable queue_ready_;
  /// Signalled after every admitter drain; readers parked on the
  /// max_queue_depth high-water mark wait on it.
  std::condition_variable queue_space_;
  std::deque<QueuedFrame> queue_;
  bool queue_closed_ = false;

  std::thread admitter_;
  std::uint64_t next_sequence_ = 0;  // admitter-only

  std::mutex stop_mutex_;
  bool stopped_ = false;
};

}  // namespace sflow::server

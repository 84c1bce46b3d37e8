// Server engine tests: wire framing round-trips, online admission control
// (floor accept/reject, error frames), query frames, the unix listening
// socket, and the load-bearing shutdown contract — stop() drains every frame
// the readers consumed, and every response the clients received is
// byte-identical to a sequential run_admission_sequence replay of the frames
// they sent.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/validate.hpp"
#include "core/admission.hpp"
#include "obs/metrics.hpp"
#include "server/frame.hpp"
#include "server/hosting.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"

namespace sflow::server {
namespace {

/// A connected AF_UNIX stream pair; fds still owned at destruction are
/// closed.  release()d fds pass to the server, which closes them itself.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    for (const int fd : fds)
      if (fd >= 0) ::close(fd);
  }
  int release(int i) {
    const int fd = fds[i];
    fds[i] = -1;
    return fd;
  }
};

TEST(Framing, RoundTripsPayloads) {
  SocketPair pair;
  const std::vector<std::string> payloads = {
      "", "x", "GET /metrics", "S0 -> S1\nS1 -> S2\n",
      std::string(10000, 'q') + "\n#end"};
  std::string read_back;
  for (const std::string& payload : payloads) {
    write_frame(pair.fds[0], payload);
    ASSERT_TRUE(read_frame(pair.fds[1], read_back));
    EXPECT_EQ(read_back, payload);
  }
}

TEST(Framing, LargeFrameContinuesAfterShortWrites) {
  // 4 MiB is far past the socket buffer, so writev blocks while a slow
  // reader drains it.  A signal that interrupts a blocked writev after some
  // bytes went out makes it return that short count (no SA_RESTART), and
  // the frame arrives intact only if write_frame resumes at the right byte.
  struct sigaction interrupt {}, previous{};
  interrupt.sa_handler = [](int) {};
  sigemptyset(&interrupt.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &interrupt, &previous), 0);

  SocketPair pair;
  std::string payload(4u << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>((i * 131) % 251);

  std::string received;
  std::thread reader([&] {
    char buffer[32 * 1024];
    while (received.size() < payload.size() + 4) {
      const ssize_t got = ::read(pair.fds[1], buffer, sizeof buffer);
      if (got <= 0) break;
      received.append(buffer, static_cast<std::size_t>(got));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  std::atomic<bool> written{false};
  const pthread_t writer = ::pthread_self();
  std::thread interrupter([&] {
    while (!written.load()) {
      ::pthread_kill(writer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_NO_THROW(write_frame(pair.fds[0], payload));
  written.store(true);
  interrupter.join();
  reader.join();
  ::sigaction(SIGUSR1, &previous, nullptr);

  ASSERT_EQ(received.size(), payload.size() + 4);
  EXPECT_EQ(received.substr(0, 4), std::string("\x00\x40\x00\x00", 4));
  EXPECT_TRUE(received.compare(4, std::string::npos, payload) == 0)
      << "payload corrupted in transit";
}

TEST(Framing, CleanEofAtFrameBoundaryReturnsFalse) {
  SocketPair pair;
  write_frame(pair.fds[0], "last frame");
  ::close(pair.release(0));
  std::string payload;
  ASSERT_TRUE(read_frame(pair.fds[1], payload));
  EXPECT_EQ(payload, "last frame");
  EXPECT_FALSE(read_frame(pair.fds[1], payload));
}

TEST(Framing, TornHeaderThrows) {
  SocketPair pair;
  const char partial[2] = {0, 0};
  ASSERT_EQ(::write(pair.fds[0], partial, 2), 2);
  ::close(pair.release(0));
  std::string payload;
  EXPECT_THROW(read_frame(pair.fds[1], payload), std::runtime_error);
}

TEST(Framing, OversizedAnnouncedLengthThrows) {
  SocketPair pair;
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(pair.fds[0], header, 4), 4);
  std::string payload;
  EXPECT_THROW(read_frame(pair.fds[1], payload), std::runtime_error);
}

// ---------------------------------------------------------------------------

constexpr std::uint64_t kSeed = 11;

HostingConfig test_hosting(std::size_t network_size = 24) {
  HostingConfig hosting;
  hosting.network_size = network_size;
  hosting.service_count = 4;
  hosting.instances_per_service = 3;
  hosting.seed = kSeed;
  return hosting;
}

std::unique_ptr<Server> make_server(
    double floor = 1e-9, std::size_t max_queue_depth = 4096,
    core::Algorithm algorithm = core::AdmissionConfig{}.algorithm,
    std::size_t network_size = 24) {
  ServerConfig config;
  config.admission.algorithm = algorithm;
  config.admission.bandwidth_floor = floor;
  config.seed = util::derive_seed(kSeed, 1);
  config.max_queue_depth = max_queue_depth;
  return std::make_unique<Server>(
      make_hosting_scenario(test_hosting(network_size)), config);
}

std::string request(int fd, const std::string& payload) {
  write_frame(fd, payload);
  std::string response;
  EXPECT_TRUE(read_frame(fd, response));
  return response;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool spin_until(const std::function<bool()>& condition) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!condition()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// One connection's side of a served stream: the requirement frames it sent
/// and the `status:` responses it got back, both in send order (query
/// answers come from the reader and may overtake them, so they are left
/// out).
struct Exchange {
  std::vector<std::string> frames;
  std::vector<std::string> responses;
};

/// Determinism pin, checked against what the clients received.  Each
/// response answers the frame sent in its slot.  A `status: error` response
/// must carry the reason parse_and_pin rejects its frame with; every other
/// response carries a sequence number, and these run exactly 0..N-1,
/// increasing along each connection.  Replaying the frames in sequence order
/// must reproduce every response byte for byte, and the final admitted set,
/// which must obey conservation.
void expect_replay_identical(const Server& server,
                             const std::vector<Exchange>& exchanges) {
  const core::Scenario& scenario = server.scenario();
  const auto parse = [&](const std::string& frame) {
    overlay::ServiceCatalog catalog = scenario.catalog;
    return parse_and_pin(frame, catalog, scenario.overlay());
  };
  std::map<std::uint64_t, std::pair<std::string, std::string>> served;
  for (const Exchange& exchange : exchanges) {
    ASSERT_EQ(exchange.responses.size(), exchange.frames.size());
    std::optional<std::uint64_t> last;
    for (std::size_t i = 0; i < exchange.frames.size(); ++i) {
      const std::string& frame = exchange.frames[i];
      const std::string& response = exchange.responses[i];
      if (starts_with(response, "status: error")) {
        std::string reason;
        try {
          parse(frame);
        } catch (const std::invalid_argument& e) {
          reason = e.what();
        }
        EXPECT_EQ(response, "status: error\nreason: " + reason + "\n");
        continue;
      }
      const std::size_t at = response.find("\nsequence: ");
      ASSERT_NE(at, std::string::npos) << response;
      const std::uint64_t sequence = std::stoull(response.substr(at + 11));
      if (last) {
        EXPECT_GT(sequence, *last) << "out of send order: " << response;
      }
      last = sequence;
      EXPECT_TRUE(served.emplace(sequence, std::pair(frame, response)).second)
          << "sequence " << sequence << " answered twice";
    }
  }
  ASSERT_FALSE(served.empty());
  ASSERT_EQ(served.rbegin()->first + 1, served.size())
      << "sequences are not exactly 0..N-1";

  std::vector<overlay::ServiceRequirement> stream;
  for (const auto& [sequence, exchanged] : served)
    stream.push_back(parse(exchanged.first));
  const core::AdmissionResult replay = core::run_admission_sequence(
      scenario, stream, server.config().admission, server.config().seed);
  ASSERT_EQ(replay.decisions.size(), served.size());
  for (const auto& [sequence, exchanged] : served)
    EXPECT_EQ(exchanged.second,
              format_response(sequence, replay.decisions[sequence], scenario));
  EXPECT_TRUE(server.view().admitted() == replay.view.admitted());

  const check::ValidationReport report = check::validate_conservation(
      server.view().base(), scenario.underlay, scenario.routing.get(),
      server.view().admitted());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Server, AnswersCatalogAndMetricsQueries) {
  auto server = make_server();
  SocketPair pair;
  server->adopt_connection(pair.release(0));

  const std::string catalog = request(pair.fds[1], "GET /catalog");
  EXPECT_TRUE(starts_with(catalog, "service S0 instances 3 @")) << catalog;
  EXPECT_NE(catalog.find("service S3 instances 3 @"), std::string::npos);

  const std::string metrics = request(pair.fds[1], "GET /metrics");
  EXPECT_NE(metrics.find("server_connections_total"), std::string::npos);
}

TEST(Server, AdmitsFeasibleRequestAboveFloor) {
  auto server = make_server();
  SocketPair pair;
  server->adopt_connection(pair.release(0));

  const std::string frame = "S0 -> S1\nS1 -> S2\n";
  const std::string response = request(pair.fds[1], frame);
  ASSERT_TRUE(starts_with(response, "status: admitted")) << response;
  EXPECT_NE(response.find("sequence: 0"), std::string::npos);
  EXPECT_NE(response.find("rate: "), std::string::npos);
  EXPECT_NE(response.find("assign S0 @"), std::string::npos);  // flow graph

  server->stop();
  EXPECT_EQ(server->view().generation(), 1u);
  expect_replay_identical(*server, {{{frame}, {response}}});
}

TEST(Server, RejectsWhenGrantedRateFallsBelowTheFloor) {
  // Same feasible request as above, but an admission floor no overlay link
  // can clear: the solve succeeds, the admission is denied, nothing is
  // charged.
  auto server = make_server(/*floor=*/1e12);
  SocketPair pair;
  server->adopt_connection(pair.release(0));

  const std::string frame = "S0 -> S1\nS1 -> S2\n";
  const std::string response = request(pair.fds[1], frame);
  ASSERT_TRUE(starts_with(response, "status: rejected")) << response;
  EXPECT_NE(response.find("below the admission floor"), std::string::npos);

  server->stop();
  EXPECT_EQ(server->view().generation(), 0u);
  expect_replay_identical(*server, {{{frame}, {response}}});
}

// A daemon built from the default ServerConfig, as sflowd without
// --algorithm is, serves the exact search and never runs the simulated sFlow
// protocol.
TEST(Server, DefaultConfigServesTheExactSearch) {
  obs::Counter& search_nodes =
      obs::Registry::global().counter("federation_search_nodes_total");
  obs::Counter& sflow_runs =
      obs::Registry::global().counter("federation_runs_total");
  const std::uint64_t search_nodes_before = search_nodes.value();
  const std::uint64_t sflow_runs_before = sflow_runs.value();

  Server server(make_hosting_scenario(test_hosting()), ServerConfig{});
  SocketPair pair;
  server.adopt_connection(pair.release(0));

  Exchange exchange;
  for (const std::string frame :
       {"S0 -> S1\n", "S1 -> S2\nS2 -> S3\n", "S3 -> S0\nS0 -> S2\n"}) {
    exchange.frames.push_back(frame);
    exchange.responses.push_back(request(pair.fds[1], frame));
    EXPECT_TRUE(starts_with(exchange.responses.back(), "status: admitted") ||
                starts_with(exchange.responses.back(), "status: rejected"))
        << exchange.responses.back();
  }
  server.stop();

  EXPECT_GT(search_nodes.value(), search_nodes_before);
  EXPECT_EQ(sflow_runs.value(), sflow_runs_before);
  expect_replay_identical(server, {exchange});
}

TEST(Server, UnknownServiceIsAnErrorAndDrawsNoSequence) {
  auto server = make_server();
  SocketPair pair;
  server->adopt_connection(pair.release(0));

  const std::string error = request(pair.fds[1], "S0 -> NotHosted\n");
  ASSERT_TRUE(starts_with(error, "status: error")) << error;
  EXPECT_NE(error.find("unknown service 'NotHosted'"), std::string::npos);

  // The malformed frame consumed no sequence number: the next request is
  // sequence 0, exactly as if the error frame never happened.
  const std::string ok = request(pair.fds[1], "S0 -> S1\n");
  EXPECT_NE(ok.find("sequence: 0"), std::string::npos) << ok;

  server->stop();
  expect_replay_identical(
      *server, {{{"S0 -> NotHosted\n", "S0 -> S1\n"}, {error, ok}}});
}

TEST(Server, HostileServiceNamesDoNotGrowTheCatalog) {
  // Every distinct unhosted name a client sends is parsed and rejected, and
  // leaves nothing behind: a long-running daemon's catalog must not grow by
  // one entry per bogus name it ever saw.
  auto server = make_server();
  const std::size_t hosted = server->scenario().catalog.size();
  SocketPair pair;
  server->adopt_connection(pair.release(0));

  for (int i = 0; i < 1000; ++i) {
    const std::string name = "Bogus" + std::to_string(i);
    ASSERT_EQ(request(pair.fds[1], "S0 -> " + name + "\n"),
              "status: error\nreason: unknown service '" + name +
                  "' (see GET /catalog)\n")
        << "frame " << i;
  }
  EXPECT_EQ(server->scenario().catalog.size(), hosted);

  const std::string ok = request(pair.fds[1], "S0 -> S1\n");
  EXPECT_NE(ok.find("sequence: 0"), std::string::npos) << ok;

  server->stop();
  EXPECT_EQ(server->scenario().catalog.size(), hosted);
}

TEST(Server, MalformedRequirementIsAnError) {
  auto server = make_server();
  SocketPair pair;
  server->adopt_connection(pair.release(0));
  const std::string error = request(pair.fds[1], "this is not a requirement");
  EXPECT_TRUE(starts_with(error, "status: error")) << error;
}

TEST(Server, DrainOnStopAnswersEverythingBitIdenticalToSequentialReplay) {
  constexpr std::size_t kConnections = 3;
  constexpr std::size_t kPerConnection = 8;

  obs::Counter& received =
      obs::Registry::global().counter("server_requests_total");
  const std::uint64_t baseline = received.value();

  auto server = make_server();
  std::vector<int> clients;
  std::vector<SocketPair> pairs(kConnections);
  std::vector<Exchange> exchanges(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    server->adopt_connection(pairs[c].release(0));
    clients.push_back(pairs[c].fds[1]);
  }

  // Fire every frame without reading a single response: chains of varying
  // length over the hosted services, interleaved across connections.
  for (std::size_t r = 0; r < kPerConnection; ++r)
    for (std::size_t c = 0; c < kConnections; ++c) {
      std::string requirement;
      const std::size_t hops = 2 + (c + r) % 3;  // 2..4 services
      for (std::size_t h = 0; h + 1 < hops; ++h)
        requirement += "S" + std::to_string((c + h) % 4) + " -> S" +
                       std::to_string((c + h + 1) % 4) + "\n";
      write_frame(clients[c], requirement);
      exchanges[c].frames.push_back(requirement);
    }

  // Wait until the readers consumed every frame, then stop: the drain must
  // answer all of them even though nothing was read back yet.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received.value() < baseline + kConnections * kPerConnection &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_EQ(received.value(), baseline + kConnections * kPerConnection);
  server->stop();

  // Every response is sitting in the socket buffers, then EOF.
  std::string response;
  for (std::size_t c = 0; c < kConnections; ++c) {
    while (read_frame(clients[c], response)) {
      EXPECT_TRUE(starts_with(response, "status: admitted") ||
                  starts_with(response, "status: rejected"))
          << response;
      exchanges[c].responses.push_back(response);
    }
  }
  expect_replay_identical(*server, exchanges);
}

// Admissions leave routing trees stale; the admitter repairs them on the
// next request's first query.  The admitter is the only thread that touches
// the database, so the repairs are the same on every run.  No admission
// builds a routing database from scratch: the first one clones the database
// the admitter shares with the hosting scenario.  Run under the optimal
// search, the daemon default, and under sFlow, whose nodes cover the whole
// hosted overlay and so read the shared database as their local view.
class ServedStream : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(ServedStream, AdmitterRepairsStaleRoutingTrees) {
  constexpr std::size_t kRequestsPerRound = 6;
  constexpr std::size_t kRounds = 3;
  obs::Counter& repairs =
      obs::Registry::global().counter("routing_lazy_repairs_total");
  obs::Counter& full_rebuilds =
      obs::Registry::global().counter("routing_full_rebuilds_total");
  const std::uint64_t repairs_before = repairs.value();
  const std::uint64_t full_rebuilds_before = full_rebuilds.value();

  auto server =
      make_server(/*floor=*/1e-9, /*max_queue_depth=*/4096, GetParam());
  SocketPair pair;
  server->adopt_connection(pair.release(0));

  Exchange exchange;
  std::size_t admitted = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t r = 0; r < kRequestsPerRound; ++r) {
      const std::size_t first = (round + r) % 4;
      std::string requirement;
      for (std::size_t h = 0; h < 1 + (round + r) % 3; ++h)
        requirement += "S" + std::to_string((first + h) % 4) + " -> S" +
                       std::to_string((first + h + 1) % 4) + "\n";
      write_frame(pair.fds[1], requirement);
      exchange.frames.push_back(requirement);
    }
    std::string response;
    for (std::size_t r = 0; r < kRequestsPerRound; ++r) {
      ASSERT_TRUE(read_frame(pair.fds[1], response));
      EXPECT_TRUE(starts_with(response, "status: admitted") ||
                  starts_with(response, "status: rejected"))
          << response;
      admitted += starts_with(response, "status: admitted") ? 1 : 0;
      exchange.responses.push_back(response);
    }
  }
  server->stop();

  EXPECT_GT(admitted, 1u);
  EXPECT_GT(repairs.value(), repairs_before);
  EXPECT_EQ(full_rebuilds.value(), full_rebuilds_before);
  expect_replay_identical(*server, {exchange});
}

// The daemon under a storm (TSan-load-bearing): four pipelining connections,
// each with a sender that writes open-loop — never waiting on a response —
// and a receiver that reads until the EOF stop() delivers.  Frames mix
// chains of 2-4 hosted services, an unhosted-service frame every 7th, and
// metrics/catalog queries, so reader threads and the admitter race over one
// served stream.  Rounds repeat on the same server until some batch held
// several requests: server_batches_total grew by less than the number of
// requirement frames answered.  The 40-node underlay leaves room for several
// admits while the first batches are large, so an admit that a later request
// in its own batch did not see would change a response the clients see.
TEST_P(ServedStream, PipelinedClientsStorm) {
  constexpr std::size_t kConnections = 4;
  constexpr std::size_t kFramesPerRound = 30;
  constexpr std::size_t kMaxRounds = 20;
  obs::Counter& batches =
      obs::Registry::global().counter("server_batches_total");
  const std::uint64_t batches_before = batches.value();

  struct Client {
    SocketPair pair;
    Exchange exchange;  // requirement frames and their responses
    std::atomic<std::size_t> received{0};  // every response, queries too
  };
  auto server = make_server(/*floor=*/1e-9, /*max_queue_depth=*/4096,
                            GetParam(), /*network_size=*/40);
  std::vector<Client> clients(kConnections);
  std::vector<std::thread> receivers;
  for (Client& client : clients) {
    server->adopt_connection(client.pair.release(0));
    receivers.emplace_back([&client] {
      std::string response;
      while (read_frame(client.pair.fds[1], response)) {
        if (starts_with(response, "status:")) {
          client.exchange.responses.push_back(response);
        } else {
          // Query answers come straight from the reader, so they may
          // overtake queued requirement responses; they only need to be
          // well formed.
          EXPECT_TRUE(starts_with(response, "service S0 instances 3 @") ||
                      response.find("server_requests_total") !=
                          std::string::npos)
              << response;
        }
        ++client.received;
      }
    });
  }
  // Every requirement frame sent so far has been answered whenever this is
  // called (each round is waited out), and each batch holds at least one.
  const auto some_batch_held_several = [&] {
    std::size_t frames = 0;
    for (const Client& client : clients)
      frames += client.exchange.frames.size();
    return batches.value() - batches_before < frames;
  };

  std::size_t rounds = 0;
  do {
    std::vector<std::thread> senders;
    for (std::size_t c = 0; c < kConnections; ++c)
      senders.emplace_back([&clients, c, rounds] {
        Client& client = clients[c];
        for (std::size_t r = 0; r < kFramesPerRound; ++r) {
          const std::size_t k = rounds * kFramesPerRound + r;
          std::string requirement;
          if (k % 7 == 3) {
            requirement = "S0 -> NoSuchService";
          } else if (k % 5 == 2) {
            write_frame(client.pair.fds[1],
                        k % 2 == 0 ? "GET /metrics" : "GET /catalog");
            continue;
          } else {
            for (std::size_t h = 0; h < 1 + (c + k) % 3; ++h)
              requirement += "S" + std::to_string((c + k + h) % 4) + " -> S" +
                             std::to_string((c + k + h + 1) % 4) + "\n";
          }
          write_frame(client.pair.fds[1], requirement);
          client.exchange.frames.push_back(requirement);
        }
      });
    for (std::thread& sender : senders) sender.join();
    ++rounds;
    if (!spin_until([&] {
          std::size_t received = 0;
          for (const Client& client : clients) received += client.received;
          return received == kConnections * kFramesPerRound * rounds;
        })) {
      ADD_FAILURE() << "round " << rounds << " went unanswered";
      break;  // stop() below still EOFs the receivers
    }
  } while (!some_batch_held_several() && rounds < kMaxRounds);
  server->stop();
  for (std::thread& receiver : receivers) receiver.join();

  std::vector<Exchange> exchanges;
  for (const Client& client : clients) exchanges.push_back(client.exchange);
  EXPECT_TRUE(some_batch_held_several())
      << "every batch held one request in " << rounds << " rounds";
  expect_replay_identical(*server, exchanges);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ServedStream,
    ::testing::Values(core::Algorithm::kGlobalOptimal, core::Algorithm::kSflow),
    [](const ::testing::TestParamInfo<core::Algorithm>& info) {
      return info.param == core::Algorithm::kSflow ? "Sflow" : "GlobalOptimal";
    });

std::size_t directory_size(const char* path) {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(path))
    ++count;
  return count;
}

std::size_t open_fd_count() { return directory_size("/proc/self/fd"); }

// The admitter is the only thread that solves: a daemon serving one
// connection runs its admitter and that connection's reader, and no solver
// pool.
TEST(Server, ServesWithoutSolverThreads) {
  const std::size_t before = directory_size("/proc/self/task");
  auto server = make_server();
  SocketPair pair;
  server->adopt_connection(pair.release(0));
  EXPECT_TRUE(starts_with(request(pair.fds[1], "S0 -> S1\nS1 -> S2\n"),
                          "status: "));
  EXPECT_EQ(directory_size("/proc/self/task") - before, 2u);
}

// Regression: a long-running daemon must reclaim per-connection resources
// (roster entry, fd, reader thread) when the client disconnects, not at
// stop() — one leaked fd per connection ever served ends in EMFILE and a
// dead accept loop.
TEST(Server, ReapsDisconnectedConnectionsWhileRunning) {
  auto server = make_server();
  const std::size_t baseline_fds = open_fd_count();

  for (int cycle = 0; cycle < 20; ++cycle) {
    SocketPair pair;
    server->adopt_connection(pair.release(0));
    EXPECT_TRUE(
        starts_with(request(pair.fds[1], "S0 -> S1\n"), "status: "));
  }  // ~SocketPair closes the client end; the reader sees EOF and retires

  ASSERT_TRUE(spin_until([&] { return server->active_connections() == 0; }))
      << "disconnected connections never left the roster";
  // Every per-connection fd was closed while the server kept running (the
  // directory_iterator itself costs a transient fd; allow slack for it).
  ASSERT_TRUE(spin_until([&] { return open_fd_count() <= baseline_fds + 1; }))
      << "fds leaked: " << open_fd_count() << " open, baseline "
      << baseline_fds;

  // The server is still fully alive afterwards.
  SocketPair pair;
  server->adopt_connection(pair.release(0));
  EXPECT_TRUE(starts_with(request(pair.fds[1], "S0 -> S1\n"), "status: "));
}

// Regression: responses on one connection must come back in the order the
// frames were sent (docs/formats.md), including `status: error` answers for
// malformed frames — a batch used to answer its parse failures before its
// earlier valid frames, and error frames carry no sequence number a
// pipelining client could re-correlate by.
TEST(Server, MalformedFramesAnswerInPerConnectionSendOrder) {
  constexpr std::size_t kPairs = 8;

  obs::Counter& received =
      obs::Registry::global().counter("server_requests_total");
  const std::uint64_t baseline = received.value();

  auto server = make_server();
  SocketPair pair;
  server->adopt_connection(pair.release(0));

  // Open-loop: alternate valid and malformed frames without reading a
  // single response, so the admitter batches valid and malformed together.
  for (std::size_t i = 0; i < kPairs; ++i) {
    write_frame(pair.fds[1], "S0 -> S1\n");
    write_frame(pair.fds[1], "this is not a requirement");
  }
  ASSERT_TRUE(spin_until(
      [&] { return received.value() >= baseline + 2 * kPairs; }));
  server->stop();

  std::string response;
  for (std::size_t i = 0; i < 2 * kPairs; ++i) {
    ASSERT_TRUE(read_frame(pair.fds[1], response)) << "response " << i;
    if (i % 2 == 0)
      EXPECT_TRUE(starts_with(response, "status: admitted") ||
                  starts_with(response, "status: rejected"))
          << "response " << i << " out of send order: " << response;
    else
      EXPECT_TRUE(starts_with(response, "status: error"))
          << "response " << i << " out of send order: " << response;
  }
  EXPECT_FALSE(read_frame(pair.fds[1], response));
}

// Regression: the requirement queue is bounded; an open-loop client that
// outruns the solver parks its reader (per-connection backpressure) instead
// of growing the queue without limit — and no request is lost to the bound.
TEST(Server, BoundedQueueBackpressuresWithoutLosingRequests) {
  constexpr std::size_t kRequests = 12;
  auto server = make_server(/*floor=*/1e-9, /*max_queue_depth=*/1);

  SocketPair pair;
  server->adopt_connection(pair.release(0));
  Exchange exchange;
  exchange.frames.assign(kRequests, "S0 -> S1\nS1 -> S2\n");
  for (const std::string& frame : exchange.frames)
    write_frame(pair.fds[1], frame);

  // Every frame is answered despite the depth-1 queue, in order.
  std::string response;
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(read_frame(pair.fds[1], response)) << "response " << i;
    EXPECT_TRUE(starts_with(response, "status: admitted") ||
                starts_with(response, "status: rejected"))
        << response;
    exchange.responses.push_back(response);
  }

  server->stop();
  expect_replay_identical(*server, {exchange});
}

TEST(Server, ListenUnixServesOverARealSocket) {
  const std::string path =
      "/tmp/sflow_server_test_" + std::to_string(::getpid()) + ".sock";
  auto server = make_server();
  server->listen_unix(path);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0)
      << std::strerror(errno);

  EXPECT_TRUE(starts_with(request(fd, "GET /catalog"), "service S0"));
  EXPECT_TRUE(starts_with(request(fd, "S0 -> S1\n"), "status: "));
  ::close(fd);
  server->stop();
  // stop() unlinked the socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(Server, StopIsIdempotentAndDestructorIsSafeAfterStop) {
  auto server = make_server();
  SocketPair pair;
  server->adopt_connection(pair.release(0));
  server->stop();
  server->stop();
  server.reset();  // destructor after explicit stop
}

}  // namespace
}  // namespace sflow::server

// Closed-loop load over loopback TCP against an in-process serve::Server.
//
// Each client owns one persistent connection and sends its next request
// only after the previous reply arrived — the calling pattern of tuning
// scripts and the design-space explorer, which wait for every answer.
// Latency is client send to reply.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen.h"
#include "serde/json.h"
#include "serve/server.h"

namespace swbench {

/// A serve::Server on an ephemeral loopback port, run() on its own thread:
/// the object behind `swperf serve`, minus the process spawn.
class ServerHarness {
 public:
  ServerHarness();
  ~ServerHarness();
  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  int port() const { return server_.port(); }
  /// Graceful drain; true when run() returned 0.  Idempotent.
  bool stop();

 private:
  swperf::serve::Server server_;
  int run_rc_ = -1;
  std::thread runner_;
};

/// One blocking line-oriented loopback connection.
class Client {
 public:
  /// Connects to 127.0.0.1:port; throws std::runtime_error on failure.
  explicit Client(int port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `line` plus a newline and reads one reply line into *reply.
  /// False when the connection failed or closed first.
  bool roundtrip(const std::string& line, std::string* reply);

 private:
  int fd_ = -1;
  std::string pending_;
};

/// The outcome of one request as the client saw it.
struct Sample {
  bool answered = false;
  double latency_ms = 0.0;
  std::string reply;
};

/// Sends every request once through `clients` closed-loop connections;
/// each client takes the next unsent request when its previous reply
/// arrives.  Samples come back in request order.
std::vector<Sample> run_closed_loop(
    std::vector<std::unique_ptr<Client>>& clients,
    const std::vector<GenRequest>& requests);

/// Opens `n` connections to `port`.
std::vector<std::unique_ptr<Client>> connect_clients(int port, int n);

/// The server's own counters, from a {"stats":true} probe.
struct ServerStats {
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t skeleton_reuses = 0;
};
ServerStats probe_stats(Client& client);

}  // namespace swbench

#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <stdexcept>

namespace swbench {

using Clock = std::chrono::steady_clock;
using swperf::serde::Json;

namespace {

swperf::serve::ServeOptions harness_options() {
  swperf::serve::ServeOptions opts;
  opts.port = 0;  // ephemeral; every other knob is the `swperf serve` default
  return opts;
}

}  // namespace

ServerHarness::ServerHarness() : server_(harness_options()) {
  std::string error;
  if (!server_.listen_on(&error)) {
    throw std::runtime_error("serve harness: " + error);
  }
  runner_ = std::thread([this] { run_rc_ = server_.run(); });
}

ServerHarness::~ServerHarness() { stop(); }

bool ServerHarness::stop() {
  server_.request_stop();
  if (runner_.joinable()) runner_.join();
  return run_rc_ == 0;
}

Client::Client(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect() to the serve harness failed");
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::roundtrip(const std::string& line, std::string* reply) {
  std::string out = line;
  out.push_back('\n');
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  char buf[65536];
  for (;;) {
    const std::size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      reply->assign(pending_, 0, nl);
      pending_.erase(0, nl + 1);
      return true;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

std::vector<std::unique_ptr<Client>> connect_clients(int port, int n) {
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < n; ++i) clients.push_back(std::make_unique<Client>(port));
  return clients;
}

std::vector<Sample> run_closed_loop(
    std::vector<std::unique_ptr<Client>>& clients,
    const std::vector<GenRequest>& requests) {
  std::vector<Sample> samples(requests.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests.size()) return;
        Sample& s = samples[i];
        const auto t0 = Clock::now();
        s.answered = c->roundtrip(requests[i].line, &s.reply);
        s.latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        if (!s.answered) return;  // connection gone: the rest stay unanswered
      }
    });
  }
  for (auto& t : threads) t.join();
  return samples;
}

ServerStats probe_stats(Client& client) {
  ServerStats s;
  std::string reply;
  if (!client.roundtrip("{\"stats\":true}", &reply)) return s;
  const auto parsed = Json::parse(reply);
  if (!parsed.ok) return s;
  const Json* stats = parsed.value.find("stats");
  if (stats == nullptr) return s;
  for (const Json& shard : stats->at("shards").items()) {
    s.served += shard.at("served").as_u64();
    s.batches += shard.at("batches").as_u64();
    const Json& session = shard.at("session");
    s.hits += session.at("hits").as_u64();
    s.misses += session.at("misses").as_u64();
    s.skeleton_reuses += session.at("skeleton_reuses").as_u64();
  }
  return s;
}

}  // namespace swbench

#include "obs/http.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/poller.h"
#include "net/socket.h"
#include "obs/render.h"

namespace bgpcu::obs {

namespace {

// Requests are a single GET line plus headers we ignore; 4 KiB is generous.
constexpr std::size_t kMaxRequestBytes = 4096;
// Per-phase deadline: a client gets this long to finish sending its request
// line, and again this long to drain the response. A scraper that stalls in
// either phase is dropped — it never blocks other clients, because every
// connection is multiplexed onto the one poller loop.
constexpr auto kPhaseDeadline = std::chrono::milliseconds(2000);

std::string http_response(const char* status, const char* content_type,
                          const std::string& body) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status, content_type, body.size());
  return std::string(head) + body;
}

/// Extracts the request path from "GET /path HTTP/1.1..."; empty when the
/// request line is not a GET.
std::string request_path(const std::string& request) {
  if (request.rfind("GET ", 0) != 0) return {};
  const auto end = request.find(' ', 4);
  if (end == std::string::npos) return {};
  return request.substr(4, end - 4);
}

bool request_complete(const std::string& request) {
  return request.find("\r\n\r\n") != std::string::npos ||
         request.find("\n\n") != std::string::npos;
}

/// One in-flight scrape: reading the request until the header terminator,
/// then writing the response from `offset`. All state is owned by the serve
/// loop thread.
struct Client {
  std::unique_ptr<net::Connection> conn;
  int fd = -1;
  std::string request;
  std::string response;
  std::size_t offset = 0;
  bool writing = false;
  std::chrono::steady_clock::time_point deadline;
};

}  // namespace

MetricsHttpServer::MetricsHttpServer(const std::string& host, std::uint16_t port,
                                     const Registry& registry)
    : registry_(registry),
      listener_(std::make_unique<net::TcpListener>(host, port)),
      poller_(std::make_unique<net::Poller>()) {
  thread_ = std::thread([this] { serve_loop(); });
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

std::uint16_t MetricsHttpServer::port() const noexcept { return listener_->port(); }

void MetricsHttpServer::stop() {
  running_.store(false, std::memory_order_relaxed);
  poller_->wake();
  if (thread_.joinable()) thread_.join();
  listener_->close();
}

void MetricsHttpServer::serve_loop() {
  constexpr std::uint64_t kListenerToken = 0;
  poller_->set(listener_->fd(), kListenerToken, /*want_read=*/true,
               /*want_write=*/false);

  std::unordered_map<std::uint64_t, Client> clients;
  std::uint64_t next_token = 1;
  std::vector<net::PollerEvent> events;

  const auto drop = [&](std::uint64_t token) {
    const auto it = clients.find(token);
    if (it == clients.end()) return;
    poller_->remove(it->second.fd);
    it->second.conn->close();
    clients.erase(it);
  };

  // Routes the finished request and switches the client to the write phase.
  const auto build_response = [&](Client& client) {
    const std::string path = request_path(client.request);
    if (path == "/metrics" || path == "/") {
      client.response =
          http_response("200 OK", "text/plain; version=0.0.4; charset=utf-8",
                        render_prometheus(registry_.collect()));
    } else if (path == "/metrics.json") {
      client.response = http_response(
          "200 OK", "application/json",
          render_json(registry_.collect(),
                      static_cast<std::int64_t>(std::time(nullptr))) + "\n");
    } else if (path == "/healthz") {
      client.response = http_response("200 OK", "text/plain; charset=utf-8", "ok\n");
    } else if (path.empty()) {
      client.response = http_response("405 Method Not Allowed",
                                      "text/plain; charset=utf-8",
                                      "only GET is supported\n");
    } else {
      client.response = http_response("404 Not Found", "text/plain; charset=utf-8",
                                      "try /metrics, /metrics.json, or /healthz\n");
    }
    client.writing = true;
    client.offset = 0;
    client.deadline = std::chrono::steady_clock::now() + kPhaseDeadline;
  };

  // Writes as much of the response as the socket accepts right now. Returns
  // false when the client is finished (drained or gone) and was dropped.
  const auto flush_client = [&](std::uint64_t token) -> bool {
    auto& client = clients.at(token);
    while (client.offset < client.response.size()) {
      std::size_t n = 0;
      const auto status = client.conn->try_write(
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(client.response.data()) +
                  client.offset,
              client.response.size() - client.offset),
          n);
      if (status == net::IoStatus::kOk) {
        client.offset += n;
        continue;
      }
      if (status == net::IoStatus::kWouldBlock) {
        poller_->set(client.fd, token, /*want_read=*/false, /*want_write=*/true);
        return true;
      }
      drop(token);  // peer gone mid-response
      return false;
    }
    client.conn->shutdown_write();
    drop(token);
    return false;
  };

  const auto read_client = [&](std::uint64_t token) {
    auto& client = clients.at(token);
    std::uint8_t chunk[1024];
    while (client.request.size() < kMaxRequestBytes &&
           !request_complete(client.request)) {
      std::size_t n = 0;
      const auto status =
          client.conn->try_read(std::span<std::uint8_t>(chunk, sizeof(chunk)), n);
      if (status == net::IoStatus::kOk) {
        client.request.append(reinterpret_cast<const char*>(chunk), n);
        continue;
      }
      if (status == net::IoStatus::kWouldBlock) return;  // wait for more bytes
      // EOF: respond to whatever arrived (a bare half-closed GET still gets
      // its answer, matching the blocking server), or drop a silent peer.
      if (client.request.empty()) {
        drop(token);
        return;
      }
      break;
    }
    build_response(client);
    flush_client(token);
  };

  while (running_.load(std::memory_order_relaxed)) {
    int timeout_ms = -1;
    if (!clients.empty()) {
      auto soonest = std::chrono::steady_clock::time_point::max();
      for (const auto& [token, client] : clients) {
        if (client.deadline < soonest) soonest = client.deadline;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            soonest - std::chrono::steady_clock::now())
                            .count();
      timeout_ms = left < 0 ? 0 : static_cast<int>(std::min<long long>(left, 60000));
    }

    (void)poller_->wait(events, timeout_ms);
    if (!running_.load(std::memory_order_relaxed)) break;

    for (const auto& event : events) {
      if (event.token == kListenerToken) {
        while (true) {
          std::unique_ptr<net::Connection> conn;
          try {
            conn = listener_->try_accept();
          } catch (const net::TransportError&) {
            break;  // transient accept failure; the listener is still up
          }
          if (conn == nullptr) break;
          const auto pi = conn->poll_info();
          if (!pi.pollable()) {
            conn->close();  // cannot happen for TCP; refuse rather than stall
            continue;
          }
          const std::uint64_t token = next_token++;
          Client client;
          client.conn = std::move(conn);
          client.fd = pi.read_fd;
          client.deadline = std::chrono::steady_clock::now() + kPhaseDeadline;
          poller_->set(client.fd, token, /*want_read=*/true, /*want_write=*/false);
          clients.emplace(token, std::move(client));
        }
        continue;
      }
      const auto it = clients.find(event.token);
      if (it == clients.end()) continue;
      if (it->second.writing) {
        (void)flush_client(event.token);
      } else {
        read_client(event.token);
      }
    }

    // Expire clients that sat past their phase deadline (stalled scrapers).
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> expired;
    for (const auto& [token, client] : clients) {
      if (client.deadline <= now) expired.push_back(token);
    }
    for (const auto token : expired) drop(token);
  }

  for (auto& [token, client] : clients) {
    poller_->remove(client.fd);
    client.conn->close();
  }
}

}  // namespace bgpcu::obs

// Minimal HTTP/1.0 admin responder on an rpc::EventLoop.
//
// Serves registered GET routes — real::Admin registers /metrics
// (Prometheus text), /stats (JSON) and /trace (Chrome trace dump) — from
// the epoll loop it is constructed on. Handlers run on the loop thread
// and return the full response body; the responder adds Content-Length
// and closes the connection (HTTP/1.0 semantics — curl and Prometheus
// both speak it).
//
// Deliberately not a web server: GET only, no keep-alive, request heads
// over 4 KB are rejected, and anything but a registered route is 404.
//
// Thread contract (same as TcpTransport): construct, register routes and
// destroy on the loop thread, or while the loop thread is not running.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "rpc/event_loop.hpp"

namespace idem::rpc {

class HttpAdmin {
 public:
  /// Handler: returns the response body for one GET of its route.
  using Handler = std::function<std::string()>;

  /// Binds `port` on 127.0.0.1 (0 = ephemeral; query with port()).
  /// Throws std::runtime_error when the bind fails.
  HttpAdmin(EventLoop& loop, std::uint16_t port);
  ~HttpAdmin();

  HttpAdmin(const HttpAdmin&) = delete;
  HttpAdmin& operator=(const HttpAdmin&) = delete;

  /// Registers `handler` for GET <path> (exact match, e.g. "/metrics").
  void route(const std::string& path, const std::string& content_type, Handler handler);

  std::uint16_t port() const { return port_; }

  std::uint64_t requests_served() const { return served_; }

 private:
  struct Connection {
    int fd = -1;
    std::string request;   ///< bytes read so far (head only; capped)
    std::string response;  ///< fully rendered response once routed
    std::size_t written = 0;
  };

  void accept_ready();
  void connection_ready(int fd, std::uint32_t events);
  void respond(Connection& connection);
  void close_connection(int fd);

  EventLoop& loop_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t served_ = 0;
  struct Route {
    std::string content_type;
    Handler handler;
  };
  std::unordered_map<std::string, Route> routes_;
  std::unordered_map<int, Connection> connections_;
};

/// One blocking HTTP/1.0 exchange with 127.0.0.1:port: sends `request`
/// verbatim ("GET /metrics HTTP/1.0\r\n\r\n") and returns the whole
/// response, head and body; empty when the connect fails. For tests and
/// benches that scrape an admin endpoint from another thread.
std::string http_exchange(std::uint16_t port, const std::string& request);

}  // namespace idem::rpc

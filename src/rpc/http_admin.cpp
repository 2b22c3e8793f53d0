#include "rpc/http_admin.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace idem::rpc {

namespace {

/// Enough for any request line + headers we care about; a head that grows
/// past this is not a scraper talking to us.
constexpr std::size_t kMaxRequestBytes = 4096;

std::string make_response(int status, const char* reason, const std::string& content_type,
                          const std::string& body) {
  std::string head = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  return head + body;
}

/// Extracts the path of "GET <path> HTTP/1.x"; empty when not a GET.
std::string request_path(const std::string& head) {
  if (head.rfind("GET ", 0) != 0) return {};
  std::size_t start = 4;
  std::size_t end = head.find(' ', start);
  if (end == std::string::npos) return {};
  std::string path = head.substr(start, end - start);
  // Scrapers may append query strings; routes match on the bare path.
  if (auto query = path.find('?'); query != std::string::npos) path.resize(query);
  return path;
}

}  // namespace

HttpAdmin::HttpAdmin(EventLoop& loop, std::uint16_t port) : loop_(loop) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("admin bind/listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  loop_.watch(listen_fd_, EPOLLIN, [this](std::uint32_t) { accept_ready(); });
}

HttpAdmin::~HttpAdmin() {
  for (auto& [fd, connection] : connections_) {
    loop_.unwatch(fd);
    ::close(fd);
  }
  if (listen_fd_ >= 0) {
    loop_.unwatch(listen_fd_);
    ::close(listen_fd_);
  }
}

void HttpAdmin::route(const std::string& path, const std::string& content_type,
                      Handler handler) {
  routes_[path] = Route{content_type, std::move(handler)};
}

void HttpAdmin::accept_ready() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    Connection& connection = connections_[fd];
    connection.fd = fd;
    loop_.watch(fd, EPOLLIN, [this, fd](std::uint32_t events) { connection_ready(fd, events); });
  }
}

void HttpAdmin::close_connection(int fd) {
  loop_.unwatch(fd);
  ::close(fd);
  connections_.erase(fd);
}

void HttpAdmin::connection_ready(int fd, std::uint32_t events) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& connection = it->second;

  if (events & (EPOLLERR | EPOLLHUP)) {
    close_connection(fd);
    return;
  }

  if (connection.response.empty()) {
    char buf[1024];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        connection.request.append(buf, static_cast<std::size_t>(n));
        if (connection.request.size() > kMaxRequestBytes) {
          close_connection(fd);
          return;
        }
        if (connection.request.find("\r\n\r\n") != std::string::npos) break;
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) close_connection(fd);
      return;  // closed, errored, or waiting for the rest of the head
    }
    respond(connection);
  }

  // Write as much of the response as the socket takes; switch to EPOLLOUT
  // for the remainder.
  while (connection.written < connection.response.size()) {
    ssize_t n = ::send(fd, connection.response.data() + connection.written,
                       connection.response.size() - connection.written, MSG_NOSIGNAL);
    if (n > 0) {
      connection.written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.modify(fd, EPOLLOUT);
      return;
    }
    close_connection(fd);
    return;
  }
  close_connection(fd);  // HTTP/1.0: one exchange per connection
}

void HttpAdmin::respond(Connection& connection) {
  std::string path = request_path(connection.request);
  if (path.empty()) {
    connection.response = make_response(405, "Method Not Allowed", "text/plain", "GET only\n");
    return;
  }
  auto it = routes_.find(path);
  if (it == routes_.end()) {
    std::string known;
    for (const auto& [p, r] : routes_) known += p + "\n";
    connection.response = make_response(404, "Not Found", "text/plain", "routes:\n" + known);
    return;
  }
  ++served_;
  connection.response =
      make_response(200, "OK", it->second.content_type, it->second.handler());
}

std::string http_exchange(std::uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return {};
  }
  (void)!::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace idem::rpc

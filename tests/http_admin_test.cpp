// HttpAdmin: the loopback GET responder behind --admin-port. Exercised
// with real sockets against a loop thread, the way curl/Prometheus hit it.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include "rpc/event_loop.hpp"
#include "rpc/http_admin.hpp"

namespace idem::rpc {
namespace {

class HttpAdminTest : public ::testing::Test {
 protected:
  void start() {
    admin_ = std::make_unique<HttpAdmin>(loop_, 0);
    admin_->route("/metrics", "text/plain; version=0.0.4",
                  [this] { return metrics_body_; });
    admin_->route("/stats", "application/json", [] { return std::string("{\"ok\":true}"); });
    thread_ = std::thread([this] { loop_.run(); });
    // run() clears the stop flag on entry, so a stop() racing ahead of it
    // would be lost; wait until the loop is demonstrably spinning.
    std::atomic<bool> running{false};
    loop_.post([&] { running.store(true); });
    while (!running.load()) std::this_thread::yield();
  }

  void TearDown() override {
    loop_.stop();
    if (thread_.joinable()) thread_.join();
    admin_.reset();  // loop thread is gone: destruction here is safe
  }

  EventLoop loop_;
  std::unique_ptr<HttpAdmin> admin_;
  std::thread thread_;
  std::string metrics_body_ = "idem_window_seconds 1.0\n";
};

TEST_F(HttpAdminTest, ServesRegisteredRoute) {
  start();
  std::string response = http_exchange(admin_->port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find(metrics_body_), std::string::npos);
}

TEST_F(HttpAdminTest, ContentLengthMatchesBody) {
  start();
  std::string response = http_exchange(admin_->port(), "GET /stats HTTP/1.0\r\n\r\n");
  std::string expected = "Content-Length: " + std::to_string(std::strlen("{\"ok\":true}"));
  EXPECT_NE(response.find(expected), std::string::npos);
  EXPECT_NE(response.find("{\"ok\":true}"), std::string::npos);
}

TEST_F(HttpAdminTest, QueryStringIsStripped) {
  start();
  std::string response = http_exchange(admin_->port(), "GET /metrics?x=1 HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
}

TEST_F(HttpAdminTest, UnknownRouteIs404ListingRoutes) {
  start();
  std::string response = http_exchange(admin_->port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 404 Not Found"), std::string::npos);
  EXPECT_NE(response.find("/metrics"), std::string::npos);
  EXPECT_NE(response.find("/stats"), std::string::npos);
}

TEST_F(HttpAdminTest, NonGetIs405) {
  start();
  std::string response = http_exchange(admin_->port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 405"), std::string::npos);
}

TEST_F(HttpAdminTest, SplitRequestHeadIsReassembled) {
  // A scraper's head may arrive in several segments; the responder must
  // wait for the terminating blank line before routing.
  start();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(admin_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char* part1 = "GET /met";
  const char* part2 = "rics HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, part1, std::strlen(part1), MSG_NOSIGNAL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_GT(::send(fd, part2, std::strlen(part2), MSG_NOSIGNAL), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
}

TEST_F(HttpAdminTest, ServedCounterAdvancesPerRoutedRequest) {
  start();
  EXPECT_EQ(admin_->requests_served(), 0u);
  (void)http_exchange(admin_->port(), "GET /metrics HTTP/1.0\r\n\r\n");
  (void)http_exchange(admin_->port(), "GET /nope HTTP/1.0\r\n\r\n");
  (void)http_exchange(admin_->port(), "GET /stats HTTP/1.0\r\n\r\n");
  // 404s do not count as served scrapes. The counter is written on the
  // loop thread; stop the loop before reading it.
  loop_.stop();
  thread_.join();
  EXPECT_EQ(admin_->requests_served(), 2u);
}

TEST_F(HttpAdminTest, EphemeralPortIsReported) {
  start();
  EXPECT_GT(admin_->port(), 0);
}

}  // namespace
}  // namespace idem::rpc

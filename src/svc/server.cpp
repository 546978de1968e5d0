#include "svc/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <utility>

#include "alloc/io.hpp"
#include "obs/trace.hpp"

namespace optalloc::svc {

namespace {

constexpr int kPollMs = 200;  ///< stop-flag poll granularity

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
#ifdef MSG_NOSIGNAL
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
#endif
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : scheduler_(options.scheduler) {}

Server::~Server() {
  scheduler_.shutdown(/*drain=*/false);
  for (std::thread& t : connections_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

bool Server::listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  ::unlink(path.c_str());  // stale socket from a crashed predecessor
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  unix_path_ = path;
  return true;
}

bool Server::listen_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  listen_fd_ = fd;
  return true;
}

void Server::run() {
  while (!stop_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kPollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    connections_.emplace_back([this, client] { serve_connection(client); });
  }
  // Graceful drain: stop taking work, answer everything already accepted,
  // then let the connection loops deliver those answers and wind down.
  scheduler_.shutdown(drain_on_stop_.load(std::memory_order_relaxed));
  if (obs::trace_enabled()) {
    // Last scheduler-side event of a graceful shutdown: its presence in a
    // trace certifies the drain completed AND the sink was flushed after
    // the final request (the trace_truncated guard test keys on it).
    obs::TraceEvent("service_stop")
        .boolean("drain", drain_on_stop_.load(std::memory_order_relaxed));
  }
  drained_.store(true, std::memory_order_relaxed);
  for (std::thread& t : connections_) {
    if (t.joinable()) t.join();
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

void Server::serve_connection(int fd) {
  std::string buffer;
  std::size_t scanned = 0;  // buffer[0, scanned) holds no newline
  char chunk[4096];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kPollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) {
      // Idle tick: once the drain has finished, close out the session.
      if (stop_requested() && drained_.load(std::memory_order_relaxed)) break;
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or error
    buffer.append(chunk, static_cast<std::size_t>(n));
    bool closed = false;
    bool too_long = false;
    std::size_t nl;
    while ((nl = buffer.find('\n', scanned)) != std::string::npos) {
      scanned = 0;
      if (nl > kMaxLineBytes) {
        too_long = true;
        break;
      }
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.empty()) continue;
      if (!send_all(fd, handle_line(line) + "\n")) {
        closed = true;
        break;
      }
    }
    if (closed) break;
    if (!too_long) {
      // What is left is one unterminated line.
      scanned = buffer.size();
      too_long = buffer.size() > kMaxLineBytes;
    }
    if (too_long) {
      send_all(fd, error_line("request line exceeds " +
                                  std::to_string(kMaxLineBytes) + " bytes",
                              "line_too_long") +
                       "\n");
      break;
    }
  }
  ::close(fd);
}

std::string Server::handle_line(const std::string& line) {
  std::string error;
  std::string code;
  const auto req = parse_request(line, &error, &code);
  if (!req) return error_line(error, code);

  switch (req->verb) {
    case Request::Verb::kSubmit: {
      JobRequest job;
      try {
        std::istringstream in(req->problem_text);
        job.problem = alloc::parse_problem(in, "submitted problem");
        job.objective = alloc::parse_objective(req->objective);
      } catch (const std::exception& e) {
        return error_line(e.what(), "bad_problem");
      }
      job.deadline_s = req->deadline_ms / 1000.0;
      job.conflict_budget = req->conflicts;
      const auto id = scheduler_.submit(std::move(job));
      if (!id) return error_line("queue full or shutting down", "queue_full");
      if (!req->wait) return submit_ack_line(*id);
      for (;;) {
        if (const auto snap = scheduler_.wait(*id, 0.25)) {
          return snapshot_line(*snap);
        }
      }
    }
    case Request::Verb::kStatus: {
      const auto snap = scheduler_.status(req->id);
      if (!snap) {
        return error_line("unknown request id \"" + req->id + "\"",
                          "unknown_id");
      }
      return snapshot_line(*snap);
    }
    case Request::Verb::kResult: {
      if (!scheduler_.status(req->id)) {
        return error_line("unknown request id \"" + req->id + "\"",
                          "unknown_id");
      }
      for (;;) {
        if (const auto snap = scheduler_.wait(req->id, 0.25)) {
          return snapshot_line(*snap);
        }
      }
    }
    case Request::Verb::kCancel: {
      if (!scheduler_.cancel(req->id)) {
        return error_line("unknown or already finished request id \"" +
                              req->id + "\"",
                          "unknown_id");
      }
      return submit_ack_line(req->id);
    }
    case Request::Verb::kInspect: {
      const auto ins = scheduler_.inspect(req->id);
      if (!ins) {
        return error_line("unknown request id \"" + req->id + "\"",
                          "unknown_id");
      }
      return inspect_line(*ins);
    }
    case Request::Verb::kDump: {
      std::uint64_t flight_req = 0;  // 0 = every ring, unfiltered
      if (!req->id.empty()) {
        const auto r = scheduler_.request_trace_id(req->id);
        if (!r) {
          return error_line("unknown request id \"" + req->id + "\"",
                            "unknown_id");
        }
        flight_req = *r;
      }
      return dump_line(flight_req);
    }
    case Request::Verb::kStats:
      return stats_line(scheduler_.stats());
    case Request::Verb::kMetrics:
      return metrics_line();
    case Request::Verb::kQuery:
      return query_line(*req);
    case Request::Verb::kSessionOpen: {
      JobRequest job;
      try {
        std::istringstream in(req->problem_text);
        job.problem = alloc::parse_problem(in, "submitted problem");
        job.objective = alloc::parse_objective(req->objective);
      } catch (const std::exception& e) {
        return error_line(e.what(), "bad_problem");
      }
      job.deadline_s = req->deadline_ms / 1000.0;
      job.conflict_budget = req->conflicts;
      bool full = false;
      const auto opened = scheduler_.session_open(std::move(job), &full);
      if (full) {
        return error_line("session limit reached: " +
                              std::to_string(kMaxSessions) +
                              " sessions open; close one first",
                          "too_many_sessions");
      }
      if (!opened) return error_line("shutting down", "queue_full");
      return session_line(opened->first, opened->second);
    }
    case Request::Verb::kRevise: {
      const auto answer = scheduler_.session_revise(
          req->session, req->patch, req->deadline_ms / 1000.0,
          req->conflicts);
      if (!answer) {
        return error_line("unknown session id \"" + req->session + "\"",
                          "unknown_session");
      }
      return session_line(req->session, *answer);
    }
    case Request::Verb::kSessionClose: {
      if (!scheduler_.session_close(req->session)) {
        return error_line("unknown session id \"" + req->session + "\"",
                          "unknown_session");
      }
      return session_close_line(req->session);
    }
    case Request::Verb::kShutdown: {
      drain_on_stop_.store(req->drain, std::memory_order_relaxed);
      request_stop();
      return shutdown_ack_line(req->drain);
    }
  }
  return error_line("unhandled verb", "unknown_verb");
}

}  // namespace optalloc::svc

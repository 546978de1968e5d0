#pragma once
// Client-side socket plumbing for the NDJSON protocol, shared by the
// alloc_client CLI, the alloc_top dashboard and the perfbench service
// workload: connect to the daemon, send one request line, read one
// response line.

#include <string>

namespace optalloc::svc {

/// Connect to a Unix-domain socket; -1 on failure.
int connect_unix(const std::string& path);

/// Connect to a TCP endpoint (numeric IPv4 host, e.g. "127.0.0.1");
/// -1 on failure.
int connect_tcp(const std::string& host, int port);

/// Bounded-retry connect for transient failures (daemon still binding
/// its socket, connection backlog momentarily full): up to `attempts`
/// tries with exponential backoff starting at `initial_backoff_ms`
/// (doubling per retry, so the default 5/50 waits 50+100+200+400 ms
/// worst case). Returns the fd, or -1 once every attempt failed.
int connect_unix_retry(const std::string& path, int attempts = 5,
                       int initial_backoff_ms = 50);
int connect_tcp_retry(const std::string& host, int port, int attempts = 5,
                      int initial_backoff_ms = 50);

/// Write `line` plus the terminating newline; false on a broken pipe.
bool send_line(int fd, const std::string& line);

/// Read up to the next newline (buffering any over-read in `buffer`
/// across calls). Returns false on EOF/error before a complete line.
bool recv_line(int fd, std::string& buffer, std::string& line);

}  // namespace optalloc::svc

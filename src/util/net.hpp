// Small socket helpers shared by the job-service daemon (`parcl --server`)
// and its clients: unix-domain stream sockets first (the default transport,
// no network exposure), with an optional numeric-IPv4 TCP path for
// --listen/--connect. All functions throw util::SystemError (or ConfigError
// for unparseable addresses) instead of returning -1, and every returned fd
// has O_CLOEXEC set.
#pragma once

#include <cstdint>
#include <string>

namespace parcl::util {

/// Binds and listens on a unix-domain stream socket at `path`. `path`
/// appears only once the socket listens, so a client may connect as soon
/// as it exists; an existing socket file there is replaced (a daemon
/// restarting after a crash must be able to rebind its own address).
/// Throws SystemError.
int unix_listen(const std::string& path, int backlog = 64);

/// Connects to the unix-domain socket at `path`. Throws SystemError when
/// the socket cannot be created; returns -1 when the connection itself is
/// refused or the path does not exist (callers report "server not running").
int unix_connect(const std::string& path);

/// Parsed "host:port" endpoint. `host` must be a numeric IPv4 address;
/// empty host (":9000") means 127.0.0.1 — for listeners too. Binding all
/// interfaces takes an explicit 0.0.0.0.
struct Ipv4Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "host:port". Throws ConfigError on a malformed address, a
/// non-numeric host, or an out-of-range port.
Ipv4Endpoint parse_ipv4_endpoint(const std::string& spec);

/// True when `endpoint` can only be reached from this host: empty (the
/// loopback default) or a 127.0.0.0/8 address.
bool is_loopback(const Ipv4Endpoint& endpoint);

/// Binds and listens on a TCP socket (SO_REUSEADDR). Throws SystemError.
int tcp_listen(const Ipv4Endpoint& endpoint, int backlog = 64);

/// Connects to a TCP endpoint. Same error contract as unix_connect().
int tcp_connect(const Ipv4Endpoint& endpoint);

/// Sets O_NONBLOCK on `fd`. Throws SystemError.
void set_nonblocking(int fd);

}  // namespace parcl::util

#include "util/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace parcl::util {

namespace {

int cloexec_socket(int domain) {
  int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw SystemError("socket", errno);
  return fd;
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw ConfigError("unix socket path must be 1.." +
                      std::to_string(sizeof(addr.sun_path) - 1) +
                      " bytes: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in ipv4_address(const Ipv4Endpoint& endpoint, bool for_listen) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  std::string host = endpoint.host;
  // An empty host defaults to loopback in BOTH directions. A listener must
  // say 0.0.0.0 explicitly to accept off-host clients — the server runs
  // whatever a connected client submits, so a wildcard bind is an explicit
  // decision, never a default.
  (void)for_listen;
  if (host.empty()) host = "127.0.0.1";
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw ConfigError("expected a numeric IPv4 address, got '" + host + "'");
  }
  return addr;
}

}  // namespace

int unix_listen(const std::string& path, int backlog) {
  // The socket is bound under a sibling name and renamed onto `path` only
  // once it listens, so a client that connects the moment `path` exists
  // is never refused. The sibling differs in the first byte of the last
  // component, so it is as long as `path`. A rename replaces a stale
  // socket file at `path`.
  sockaddr_un addr = unix_address(path);
  const std::size_t slash = path.rfind('/');
  const std::size_t first = slash == std::string::npos ? 0 : slash + 1;
  if (first < path.size()) addr.sun_path[first] = path[first] == '~' ? '#' : '~';
  const char* temp = addr.sun_path;
  // A stale socket file from a daemon killed mid-start blocks bind() with
  // EADDRINUSE even though nobody is listening; restarting in place is the
  // service's whole crash-tolerance story, so clear it.
  struct stat st {};
  if (::lstat(temp, &st) == 0 && S_ISSOCK(st.st_mode)) ::unlink(temp);
  int fd = cloexec_socket(AF_UNIX);
  auto fail = [&](const std::string& what, bool bound) {
    int saved = errno;
    if (bound) ::unlink(temp);
    ::close(fd);
    throw SystemError(what, saved);
  };
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    fail("bind unix socket '" + path + "'", false);
  }
  if (::listen(fd, backlog) < 0) fail("listen on '" + path + "'", true);
  if (::rename(temp, path.c_str()) < 0) fail("rename onto '" + path + "'", true);
  return fd;
}

int unix_connect(const std::string& path) {
  sockaddr_un addr = unix_address(path);
  int fd = cloexec_socket(AF_UNIX);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

Ipv4Endpoint parse_ipv4_endpoint(const std::string& spec) {
  std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    throw ConfigError("expected HOST:PORT, got '" + spec + "'");
  }
  Ipv4Endpoint endpoint;
  endpoint.host = trim(spec.substr(0, colon));
  long port = parse_long(trim(spec.substr(colon + 1)));
  if (port < 1 || port > 65535) {
    throw ConfigError("port out of range in '" + spec + "'");
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

bool is_loopback(const Ipv4Endpoint& endpoint) {
  if (endpoint.host.empty()) return true;
  in_addr addr{};
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr) != 1) return false;
  return (ntohl(addr.s_addr) >> 24) == 127;
}

int tcp_listen(const Ipv4Endpoint& endpoint, int backlog) {
  sockaddr_in addr = ipv4_address(endpoint, /*for_listen=*/true);
  int fd = cloexec_socket(AF_INET);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int saved = errno;
    ::close(fd);
    throw SystemError("bind " + endpoint.host + ":" + std::to_string(endpoint.port),
                      saved);
  }
  if (::listen(fd, backlog) < 0) {
    int saved = errno;
    ::close(fd);
    throw SystemError("listen", saved);
  }
  return fd;
}

int tcp_connect(const Ipv4Endpoint& endpoint) {
  sockaddr_in addr = ipv4_address(endpoint, /*for_listen=*/false);
  int fd = cloexec_socket(AF_INET);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw SystemError("set O_NONBLOCK", errno);
  }
}

}  // namespace parcl::util

#include "fabric/transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace gpufi::fabric {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::optional<std::uint16_t> parse_port(std::string_view s) {
  if (s.empty() || s.size() > 5) return std::nullopt;
  unsigned long v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<unsigned long>(c - '0');
  }
  if (v > 65535) return std::nullopt;
  return static_cast<std::uint16_t>(v);
}

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(unix)");
  ::unlink(path.c_str());  // a stale file from a dead process would EADDRINUSE
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, backlog) < 0) {
    const int e = errno;
    ::close(fd);
    ::unlink(path.c_str());
    errno = e;
    throw_errno("listen(" + path + ")");
  }
  return fd;
}

int listen_tcp(const std::string& host, std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(tcp)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0" || host == "*") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 || !res) {
      ::close(fd);
      throw std::runtime_error("cannot resolve host: " + host);
    }
    addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("bind(" + host + ":" + std::to_string(port) + ")");
  }
  if (::listen(fd, backlog) < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("listen(" + host + ":" + std::to_string(port) + ")");
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 || !res) {
      errno = EHOSTUNREACH;
      return -1;
    }
    addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // Shard frames are request/response sized, not a bulk stream: favor
  // latency over coalescing.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    return -1;
  }
  return fd;
}

}  // namespace

std::string Endpoint::describe() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

std::optional<Endpoint> parse_endpoint(std::string_view s) {
  if (s.empty()) return std::nullopt;
  Endpoint ep;
  if (s.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::Unix;
    ep.path = std::string(s.substr(5));
    if (ep.path.empty()) return std::nullopt;
    return ep;
  }
  std::string_view rest = s;
  if (rest.rfind("tcp:", 0) == 0) rest = rest.substr(4);
  const auto colon = rest.rfind(':');
  if (colon == std::string_view::npos) {
    if (rest.data() != s.data()) return std::nullopt;  // "tcp:" without port
    ep.kind = Endpoint::Kind::Unix;
    ep.path = std::string(rest);
    return ep;
  }
  const auto port = parse_port(rest.substr(colon + 1));
  if (!port || colon == 0) return std::nullopt;
  ep.kind = Endpoint::Kind::Tcp;
  ep.host = std::string(rest.substr(0, colon));
  ep.port = *port;
  return ep;
}

int listen_endpoint(const Endpoint& ep, int backlog) {
  return ep.kind == Endpoint::Kind::Unix ? listen_unix(ep.path, backlog)
                                         : listen_tcp(ep.host, ep.port,
                                                      backlog);
}

int connect_endpoint(const Endpoint& ep) {
  return ep.kind == Endpoint::Kind::Unix ? connect_unix(ep.path)
                                         : connect_tcp(ep.host, ep.port);
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    return 0;
  if (addr.sin_family != AF_INET) return 0;
  return ntohs(addr.sin_port);
}

}  // namespace gpufi::fabric

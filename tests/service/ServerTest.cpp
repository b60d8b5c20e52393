//===-- tests/service/ServerTest.cpp - In-process serve daemon tests -------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process tests of the socket side of `Server`: options set on the
/// sockets it accepts, and the release of a connection once its client
/// leaves. Both inspect the server's own descriptors under /proc/self/fd,
/// which only an in-process server exposes; the wire protocol itself is
/// tested against the real binary in tests/hyperviper/ServeTest.cpp.
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <cstdlib>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace commcsl;

namespace {

/// A `Server` on an ephemeral port, run on its own thread.
class RunningServer {
public:
  RunningServer() : Srv(SessionOptions{}) {
    EXPECT_TRUE(Srv.start()) << Srv.error();
    Runner = std::thread([this] { Srv.run(); });
  }
  ~RunningServer() {
    Srv.stop();
    Runner.join();
  }
  uint16_t port() const { return Srv.port(); }

private:
  Server Srv;
  std::thread Runner;
};

/// A connected client socket that can make one `stats` round trip.
class StatsClient {
public:
  explicit StatsClient(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    EXPECT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
  }
  ~StatsClient() { ::close(Fd); }

  /// Sends `stats` and reads until the response line ends.
  bool roundTrip() {
    const std::string Line = "{\"id\":1,\"verb\":\"stats\"}\n";
    if (::send(Fd, Line.data(), Line.size(), 0) !=
        static_cast<ssize_t>(Line.size()))
      return false;
    char C;
    do {
      if (::recv(Fd, &C, 1, 0) != 1)
        return false;
    } while (C != '\n');
    return true;
  }

  int fd() const { return Fd; }

private:
  int Fd = -1;
};

bool sameAddr(const sockaddr_in &A, const sockaddr_in &B) {
  return A.sin_family == B.sin_family &&
         A.sin_addr.s_addr == B.sin_addr.s_addr && A.sin_port == B.sin_port;
}

bool localAddr(int Fd, sockaddr_in &Out) {
  socklen_t Len = sizeof(Out);
  return ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Out), &Len) == 0 &&
         Out.sin_family == AF_INET;
}

bool peerAddr(int Fd, sockaddr_in &Out) {
  socklen_t Len = sizeof(Out);
  return ::getpeername(Fd, reinterpret_cast<sockaddr *>(&Out), &Len) == 0 &&
         Out.sin_family == AF_INET;
}

/// Every descriptor this process holds that is a socket.
std::vector<int> openSockets() {
  std::vector<int> Fds;
  DIR *D = ::opendir("/proc/self/fd");
  if (!D)
    return Fds;
  const int Self = ::dirfd(D);
  while (const dirent *E = ::readdir(D)) {
    const int Fd = std::atoi(E->d_name);
    if (E->d_name[0] == '.' || Fd == Self)
      continue;
    char Target[64] = {0};
    const std::string Link = std::string("/proc/self/fd/") + E->d_name;
    if (::readlink(Link.c_str(), Target, sizeof(Target) - 1) > 0 &&
        std::string(Target).rfind("socket:", 0) == 0)
      Fds.push_back(Fd);
  }
  ::closedir(D);
  return Fds;
}

/// The server's end of \p Client's connection, or -1.
int acceptedEnd(const StatsClient &Client) {
  sockaddr_in Mine{}, Theirs{};
  if (!localAddr(Client.fd(), Mine) || !peerAddr(Client.fd(), Theirs))
    return -1;
  for (int Fd : openSockets()) {
    sockaddr_in Local{}, Peer{};
    if (Fd != Client.fd() && localAddr(Fd, Local) && peerAddr(Fd, Peer) &&
        sameAddr(Local, Theirs) && sameAddr(Peer, Mine))
      return Fd;
  }
  return -1;
}

/// How many accepted (non-listening) sockets are bound to \p Port.
size_t acceptedOn(uint16_t Port) {
  size_t N = 0;
  for (int Fd : openSockets()) {
    sockaddr_in Local{};
    int Listening = 0;
    socklen_t Len = sizeof(Listening);
    if (localAddr(Fd, Local) && ntohs(Local.sin_port) == Port &&
        ::getsockopt(Fd, SOL_SOCKET, SO_ACCEPTCONN, &Listening, &Len) == 0 &&
        !Listening)
      ++N;
  }
  return N;
}

} // namespace

TEST(ServerTest, AcceptedSocketsSetNoDelay) {
  // Each response is one complete line; with Nagle on, a response written
  // while an earlier one is unacknowledged waits for the client's delayed
  // ACK. No timing is asserted (shared runners are noisy): the option is
  // read back from the server's own end of the connection.
  RunningServer S;
  StatsClient C(S.port());
  ASSERT_TRUE(C.roundTrip());
  const int Fd = acceptedEnd(C);
  ASSERT_GE(Fd, 0) << "the accepted socket is not among this process's fds";
  int NoDelay = 0;
  socklen_t Len = sizeof(NoDelay);
  ASSERT_EQ(::getsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &NoDelay, &Len), 0);
  EXPECT_EQ(NoDelay, 1);
}

TEST(ServerTest, ClosedConnectionsReleaseTheirSockets) {
  // A reader that sees its client leave drops the connection, so sequential
  // clients do not pile up descriptors until shutdown.
  RunningServer S;
  for (int I = 0; I < 40; ++I) {
    StatsClient C(S.port());
    ASSERT_TRUE(C.roundTrip()) << "connection " << I;
  }
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  size_t Held = acceptedOn(S.port());
  while (Held != 0 && std::chrono::steady_clock::now() < Deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Held = acceptedOn(S.port());
  }
  EXPECT_EQ(Held, 0u) << "accepted sockets still open after their clients "
                         "closed";
}

//===- daemon/Socket.cpp - AF_UNIX plumbing for susd ----------------------===//

#include "daemon/Socket.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace sus;
using namespace sus::daemon;

namespace {

std::string errnoMessage(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

} // namespace

int daemon::listenOn(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path '" + Path + "' is too long (max " +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes)";
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoMessage("socket");
    return -1;
  }
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE even though nobody is listening; remove it first. A *live*
  // daemon also loses its file this way — callers pick distinct paths.
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = errnoMessage("bind");
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, /*backlog=*/64) < 0) {
    Err = errnoMessage("listen");
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int daemon::acceptClient(int ListenFd, int TimeoutMs, std::string &Err) {
  pollfd P;
  P.fd = ListenFd;
  P.events = POLLIN;
  P.revents = 0;
  int N = ::poll(&P, 1, TimeoutMs);
  if (N == 0)
    return -1;
  if (N < 0) {
    if (errno == EINTR)
      return -1; // Treat a signal like a timeout: the loop re-polls.
    Err = errnoMessage("poll");
    return -2;
  }
  int Fd = ::accept(ListenFd, nullptr, nullptr);
  if (Fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED)
      return -1;
    Err = errnoMessage("accept");
    return -2;
  }
  return Fd;
}

int daemon::connectTo(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path '" + Path + "' is too long (max " +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes)";
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoMessage("socket");
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = "cannot connect to '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool daemon::readLine(int Fd, std::string &Line, size_t MaxLen,
                      std::string &Err, int DeadlineMs) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(std::max(DeadlineMs, 0));
  Line.clear();
  char Buf[4096];
  while (true) {
    if (DeadlineMs >= 0) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - Clock::now())
                      .count();
      pollfd P{Fd, POLLIN, 0};
      int Ready = Left > 0 ? ::poll(&P, 1, static_cast<int>(Left)) : 0;
      if (Ready < 0) {
        if (errno == EINTR)
          continue;
        Err = errnoMessage("poll");
        return false;
      }
      if (Ready == 0) {
        Err = "no complete line within " + std::to_string(DeadlineMs) + " ms";
        return false;
      }
    }
    // Peek first, then consume only through the newline.
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_PEEK);
    if (N == 0) {
      Err = "connection closed before end of line";
      return false;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = errnoMessage("read");
      return false;
    }
    const char *Newline =
        static_cast<const char *>(std::memchr(Buf, '\n', N));
    size_t Take = Newline ? Newline - Buf + 1 : static_cast<size_t>(N);
    size_t Text = Newline ? Take - 1 : Take;
    if (Line.size() + Text > MaxLen) {
      Err = "line exceeds " + std::to_string(MaxLen) + " bytes";
      return false;
    }
    // The peeked bytes are queued, so this read returns them at once.
    if (::read(Fd, Buf, Take) != static_cast<ssize_t>(Take)) {
      Err = errnoMessage("read");
      return false;
    }
    Line.append(Buf, Text);
    if (Newline)
      return true;
  }
}

bool daemon::readExact(int Fd, size_t Len, std::string &Out,
                       std::string &Err) {
  Out.clear();
  Out.reserve(Len);
  char Buf[4096];
  while (Out.size() < Len) {
    size_t Want = std::min(sizeof(Buf), Len - Out.size());
    ssize_t N = ::read(Fd, Buf, Want);
    if (N == 0) {
      Err = "connection closed mid-payload (" + std::to_string(Out.size()) +
            " of " + std::to_string(Len) + " bytes)";
      return false;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = errnoMessage("read");
      return false;
    }
    Out.append(Buf, static_cast<size_t>(N));
  }
  return true;
}

bool daemon::writeAll(int Fd, std::string_view Bytes, std::string &Err) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE here, not
    // as a SIGPIPE that kills the whole daemon mid-service.
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = errnoMessage("send");
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

void daemon::closeFd(int Fd) { ::close(Fd); }

//===- daemon/Socket.h - AF_UNIX plumbing for susd --------------*- C++ -*-===//
///
/// \file
/// Thin blocking AF_UNIX helpers shared by the daemon and the
/// `susc --connect` client: listen/accept with a poll()-based timeout
/// (so the daemon's accept loop can notice a shutdown flag), connect,
/// line-delimited reads with a hard cap and an optional deadline, and
/// write-all. Every function reports failure through an errno-derived
/// message instead of printing, so callers own the diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_DAEMON_SOCKET_H
#define SUS_DAEMON_SOCKET_H

#include <string>
#include <string_view>

namespace sus {
namespace daemon {

/// Creates, binds and listens on an AF_UNIX socket at \p Path (removing
/// a stale socket file first). Returns the listening fd, or -1 with a
/// diagnostic in \p Err. sun_path is finite: overlong paths are rejected
/// up front with a clear message.
int listenOn(const std::string &Path, std::string &Err);

/// Waits up to \p TimeoutMs for a connection. Returns the accepted fd,
/// -1 on timeout, -2 on a hard error (in \p Err).
int acceptClient(int ListenFd, int TimeoutMs, std::string &Err);

/// Connects to the daemon at \p Path. Returns the fd, or -1 with a
/// diagnostic in \p Err.
int connectTo(const std::string &Path, std::string &Err);

/// Reads bytes up to and including '\n' (stripped from \p Line), capped
/// at \p MaxLen. Reads in chunks, but never past the newline: what
/// follows stays queued on the socket. With \p DeadlineMs >= 0 the whole
/// line must arrive within that many milliseconds. False on
/// EOF-before-newline, overflow, a missed deadline, or error.
bool readLine(int Fd, std::string &Line, size_t MaxLen, std::string &Err,
              int DeadlineMs = -1);

/// Reads exactly \p Len bytes into \p Out. False on short read.
bool readExact(int Fd, size_t Len, std::string &Out, std::string &Err);

/// Writes all of \p Bytes. False on error (e.g. peer hung up).
bool writeAll(int Fd, std::string_view Bytes, std::string &Err);

/// close() wrapper (keeps <unistd.h> out of callers).
void closeFd(int Fd);

} // namespace daemon
} // namespace sus

#endif // SUS_DAEMON_SOCKET_H

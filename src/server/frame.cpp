#include "server/frame.hpp"

#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace sflow::server {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Reads exactly `n` bytes.  Returns false on EOF before the first byte
/// (clean close); throws on EOF mid-buffer or an I/O error.
bool read_exact(int fd, char* buffer, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, buffer + done, n - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_errno("read_frame");
    }
    if (got == 0) {
      if (done == 0) return false;
      throw std::runtime_error("read_frame: EOF mid-frame after " +
                               std::to_string(done) + " bytes");
    }
    done += static_cast<std::size_t>(got);
  }
  return true;
}

/// Writes every byte of `parts`, continuing after short writes.  `parts` is
/// consumed: entries are advanced past whatever was already sent.
void writev_all(int fd, iovec* parts, int count) {
  while (count > 0) {
    const ssize_t put = ::writev(fd, parts, count);
    if (put < 0) {
      if (errno == EINTR) continue;
      throw_errno("write_frame");
    }
    auto left = static_cast<std::size_t>(put);
    while (count > 0 && left >= parts->iov_len) {
      left -= parts->iov_len;
      ++parts;
      --count;
    }
    if (count > 0) {
      parts->iov_base = static_cast<char*>(parts->iov_base) + left;
      parts->iov_len -= left;
    }
  }
}

}  // namespace

bool read_frame(int fd, std::string& payload) {
  unsigned char header[4];
  if (!read_exact(fd, reinterpret_cast<char*>(header), sizeof header))
    return false;
  const std::uint32_t length = (std::uint32_t{header[0]} << 24) |
                               (std::uint32_t{header[1]} << 16) |
                               (std::uint32_t{header[2]} << 8) |
                               std::uint32_t{header[3]};
  if (length > kMaxFrameBytes)
    throw std::runtime_error("read_frame: announced length " +
                             std::to_string(length) + " exceeds the " +
                             std::to_string(kMaxFrameBytes) + "-byte cap");
  payload.resize(length);
  if (length > 0 && !read_exact(fd, payload.data(), length))
    throw std::runtime_error("read_frame: EOF between header and payload");
  return true;
}

void write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes)
    throw std::runtime_error("write_frame: payload exceeds the frame cap");
  const auto length = static_cast<std::uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(length >> 24),
      static_cast<unsigned char>(length >> 16),
      static_cast<unsigned char>(length >> 8),
      static_cast<unsigned char>(length),
  };
  // Header and payload leave in one writev: one syscall per frame, and the
  // peer never wakes to a header alone.
  iovec parts[2] = {
      {const_cast<unsigned char*>(header), sizeof header},
      {const_cast<char*>(payload.data()), payload.size()},
  };
  writev_all(fd, parts, payload.empty() ? 1 : 2);
}

}  // namespace sflow::server

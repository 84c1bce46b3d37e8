// Length-prefixed framing for sflowd's wire protocol (docs/formats.md).
//
// A frame is a 4-byte big-endian payload length followed by that many bytes
// of UTF-8 text.  The payload grammar is the daemon's: `GET /metrics` and
// `GET /catalog` query frames, anything else a service requirement in the
// text format of overlay/requirement_parser.hpp.  Framing keeps the daemon's
// parser trivial (no in-band delimiters to escape) and lets one connection
// carry any number of requests.
//
// These are thin blocking wrappers over POSIX read/writev with EINTR retry
// (write_frame sends header and payload in one writev per frame);
// they work on any stream fd (unix sockets, socketpairs, pipes), which is
// what lets the tests drive a real server through socketpair() without a
// filesystem socket.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sflow::server {

/// Upper bound on a frame payload (16 MiB); a larger announced length is a
/// protocol error, not an allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Reads one frame into `payload` (replacing its contents).  Returns false
/// on clean end-of-stream at a frame boundary; throws std::runtime_error on
/// an I/O error, a mid-frame EOF, or an oversized announced length.
bool read_frame(int fd, std::string& payload);

/// Writes one frame.  Throws std::runtime_error on any I/O error, including
/// a peer that stopped reading (EPIPE / send-timeout; callers install
/// SIG_IGN or MSG_NOSIGNAL-equivalents as appropriate).
void write_frame(int fd, std::string_view payload);

}  // namespace sflow::server

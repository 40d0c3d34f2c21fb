#include "src/machine/kinds.hpp"

#include <algorithm>
#include <cctype>
#include <string>

#include "src/support/error.hpp"

namespace automap {

std::string_view to_string(ProcKind k) {
  switch (k) {
    case ProcKind::kCpu:
      return "CPU";
    case ProcKind::kGpu:
      return "GPU";
  }
  AM_UNREACHABLE("bad ProcKind");
}

std::string_view to_string(MemKind k) {
  switch (k) {
    case MemKind::kSystem:
      return "System";
    case MemKind::kZeroCopy:
      return "ZeroCopy";
    case MemKind::kFrameBuffer:
      return "FrameBuffer";
  }
  AM_UNREACHABLE("bad MemKind");
}

std::ostream& operator<<(std::ostream& os, ProcKind k) {
  return os << to_string(k);
}
std::ostream& operator<<(std::ostream& os, MemKind k) {
  return os << to_string(k);
}

namespace {
std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}
}  // namespace

ProcKind parse_proc_kind(std::string_view name) {
  const std::string u = to_upper(name);
  if (u == "CPU") return ProcKind::kCpu;
  if (u == "GPU") return ProcKind::kGpu;
  throw Error("unknown processor kind '" + std::string(name) + "'");
}

MemKind parse_mem_kind(std::string_view name) {
  const std::string u = to_upper(name);
  if (u == "SYSTEM" || u == "SYSMEM") return MemKind::kSystem;
  if (u == "ZEROCOPY" || u == "ZC" || u == "ZERO-COPY")
    return MemKind::kZeroCopy;
  if (u == "FRAMEBUFFER" || u == "FB" || u == "FRAME-BUFFER")
    return MemKind::kFrameBuffer;
  throw Error("unknown memory kind '" + std::string(name) + "'");
}

}  // namespace automap

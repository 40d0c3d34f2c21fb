#include "src/machine/kinds.hpp"

#include <algorithm>
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
/// True when `name` spells `upper` in any letter case. ASCII only, as the
/// accepted spellings are; no locale and no copy of the token.
bool iequals(std::string_view name, std::string_view upper) {
  return std::equal(name.begin(), name.end(), upper.begin(), upper.end(),
                    [](char c, char u) {
                      return (c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c) == u;
                    });
}
}  // namespace

ProcKind parse_proc_kind(std::string_view name) {
  if (iequals(name, "CPU")) return ProcKind::kCpu;
  if (iequals(name, "GPU")) return ProcKind::kGpu;
  throw Error("unknown processor kind '" + std::string(name) + "'");
}

MemKind parse_mem_kind(std::string_view name) {
  // to_string's spellings first: every written mapping uses them.
  for (const MemKind k : kAllMemKinds)
    if (name == to_string(k)) return k;
  if (iequals(name, "SYSTEM") || iequals(name, "SYSMEM"))
    return MemKind::kSystem;
  if (iequals(name, "ZEROCOPY") || iequals(name, "ZC") ||
      iequals(name, "ZERO-COPY"))
    return MemKind::kZeroCopy;
  if (iequals(name, "FRAMEBUFFER") || iequals(name, "FB") ||
      iequals(name, "FRAME-BUFFER"))
    return MemKind::kFrameBuffer;
  throw Error("unknown memory kind '" + std::string(name) + "'");
}

}  // namespace automap

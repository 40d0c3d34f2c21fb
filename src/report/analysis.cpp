#include "src/report/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/support/format.hpp"

namespace automap {

std::string render_sparkline(const std::vector<double>& values) {
  static constexpr const char* kBlocks[8] = {"▁", "▂", "▃", "▄",
                                             "▅", "▆", "▇", "█"};
  std::string out;
  if (values.empty()) return out;
  double lo = values.front();
  double hi = values.front();
  for (const double v : values) {
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi - lo;
  for (const double v : values) {
    if (!std::isfinite(v)) {
      out += "x";  // failed/unbounded point
      continue;
    }
    const int bucket =
        span > 0.0
            ? std::min(7, static_cast<int>((v - lo) / span * 8.0))
            : 0;
    out += kBlocks[bucket];
  }
  return out;
}

std::string render_search_telemetry(const SearchResult& result,
                                    const std::string& journal_path,
                                    const std::string& metrics_path) {
  const SearchStats& s = result.stats;
  std::ostringstream os;
  os << result.algorithm << " telemetry:\n"
     << "  proposals: " << s.suggested << " suggested, " << s.evaluated
     << " evaluated, " << s.invalid << " invalid, " << s.oom << " oom, "
     << s.censored << " censored\n"
     << "  profiles cache: " << s.cache_hits << " hits / " << s.suggested
     << " lookups (" << format_fixed(100 * s.cache_hit_rate(), 1)
     << "% hit rate)\n"
     << "  clocks: simulated " << format_seconds(s.search_time_s) << " ("
     << format_fixed(100 * s.evaluation_fraction(), 0)
     << "% evaluating), wall " << format_seconds(s.wall_time_s) << "\n";
  if (s.transient_failures > 0 || s.retries > 0 || s.quarantined > 0 ||
      s.degraded) {
    os << "  resilience: " << s.transient_failures << " transient failures, "
       << s.retries << " retries, " << s.quarantined << " quarantined"
       << (s.degraded ? ", DEGRADED result" : "") << "\n";
  }
  if (result.trajectory.size() > 1) {
    // Incumbent best over the search, best-first-seen to final: a falling
    // staircase whose step positions show where the improvements happened.
    std::vector<double> bests;
    bests.reserve(result.trajectory.size());
    for (const TrajectoryPoint& p : result.trajectory)
      bests.push_back(p.best_exec_s);
    os << "  convergence: " << render_sparkline(bests) << " ("
       << bests.size() << " incumbents, "
       << format_seconds(bests.front()) << " -> "
       << format_seconds(bests.back()) << ")\n";
  }
  if (!s.rotations.empty()) {
    os << "  rotations (best before -> after, delta):\n";
    for (const RotationTelemetry& r : s.rotations) {
      os << "    #" << r.rotation << ": ";
      if (std::isinf(r.best_before_s))
        os << "(none)";
      else
        os << format_seconds(r.best_before_s);
      os << " -> " << format_seconds(r.best_after_s) << " (-"
         << format_seconds(r.improvement_s()) << "), " << r.evaluated
         << " evaluated, clock " << format_seconds(r.search_time_s) << "\n";
    }
  }
  if (!journal_path.empty())
    os << "  journal: " << journal_path
       << " (inspect with: automap_cli explain / replay)\n";
  if (!metrics_path.empty()) os << "  metrics: " << metrics_path << "\n";
  return os.str();
}

}  // namespace automap

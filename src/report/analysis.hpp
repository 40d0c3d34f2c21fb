#pragma once

// Search-side report rendering: the telemetry digest of a finished
// search and the sparkline it (and `automap replay`) draws the incumbent
// trajectory with. Where a finished run's time went is ExecutionProfile's
// question (src/report/profile.hpp).

#include <string>
#include <vector>

#include "src/search/search.hpp"

namespace automap {

/// Unicode block sparkline of a value series (min flat -> "▁", max ->
/// "█"); empty input renders empty. Shared by the telemetry convergence
/// line and `automap replay`'s offline re-render.
[[nodiscard]] std::string render_sparkline(const std::vector<double>& values);

/// Search telemetry digest of a finished search: counters, profiles-cache
/// hit rate, OOM count, wall vs simulated clocks, a convergence sparkline
/// of the incumbent trajectory, and per-rotation improvement deltas
/// (CCD/CD). The CLI/bench `--telemetry` output. When the search wrote a
/// provenance journal or a metrics dump, pass their paths so the digest
/// points at them.
[[nodiscard]] std::string render_search_telemetry(
    const SearchResult& result, const std::string& journal_path = "",
    const std::string& metrics_path = "");

}  // namespace automap

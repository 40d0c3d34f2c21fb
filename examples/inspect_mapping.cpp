// Developer utility: run the CCD search on a chosen app/input/nodes and
// print the discovered mapping's diff against the default mapper and the
// execution profile (utilization, per-task breakdown, critical path) of
// both mappings.
//
// Usage: inspect_mapping <circuit|stencil|pennant|htr> <nodes> <step>

#include <cstdlib>
#include <iostream>
#include <string>

#include "src/apps/circuit.hpp"
#include "src/apps/htr.hpp"
#include "src/apps/pennant.hpp"
#include "src/apps/stencil.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/report/profile.hpp"
#include "src/report/visualize.hpp"
#include "src/runtime/mapper.hpp"
#include "src/sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace automap;
  const std::string name = argc > 1 ? argv[1] : "circuit";
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 1;
  const int step = argc > 3 ? std::atoi(argv[3]) : 0;

  BenchmarkApp app = name == "stencil"
                         ? make_stencil(stencil_config_for(nodes, step))
                     : name == "pennant"
                         ? make_pennant(pennant_config_for(nodes, step))
                     : name == "htr" ? make_htr(htr_config_for(nodes, step))
                                     : make_circuit(
                                           circuit_config_for(nodes, step));
  const MachineModel machine = make_shepard(nodes);
  Simulator sim(machine, app.graph, app.sim);

  DefaultMapper dm;
  const Mapping def = dm.map_all(app.graph, machine);
  const SearchResult res =
      automap_optimize(sim, SearchAlgorithm::kCcd, {.seed = 42 + static_cast<std::uint64_t>(step)});

  std::cout << render_search_summary(res) << "\n\ndiff vs default:\n";
  for (const auto& d : def.diff(res.best, app.graph))
    std::cout << "  " << d << "\n";

  // Noise-free traced reruns, as `automap_cli search --profile` makes.
  Simulator traced(machine, app.graph,
                   {.iterations = 10,
                    .noise_sigma = 0.0,
                    .record_trace = true});
  auto profile = [&](const char* label, const Mapping& m) {
    const ExecutionReport r = traced.run(m, 1);
    std::cout << "\n" << label << " mapping ";
    if (!r.ok) {
      std::cout << "failed: " << r.failure << "\n";
      return;
    }
    std::cout << render_profile(app.graph, compute_profile(app.graph, r));
  };
  profile("default", def);
  profile("AM-CCD", res.best);

  std::cout << "\nFig. 3-style rendering:\n"
            << render_mapping(app.graph, res.best);
  return 0;
}

// perfbench harness entry point.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--commit C] [--out-dir D] [--reference FILE]
//   perfbench --recompute-optima [--reference FILE]
//
// The first form runs one workload and prints the result as the last line
// of stdout (see run.py). The second recomputes every pinned noise-free
// optimum with exhaustive_search and compares it with the reference file;
// it exits 1 on any difference (slow: stereo takes ~20 s per device).

#include <algorithm>
#include <exception>
#include <iostream>
#include <string>

#include "archsim/devices.hpp"
#include "benchmarks/registry.hpp"
#include "tuner/search.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload W --seed N --seconds S --trace 0|1"
               " [--commit C] [--out-dir D] [--reference FILE]\n"
               "       perfbench --recompute-optima [--reference FILE]\n";
  return 2;
}

int recompute_optima(const std::string& reference) {
  const std::vector<Optimum> pinned = load_optima(reference);
  const pt::clsim::Platform nf = noise_free_platform();
  int differences = 0;
  for (const Cell& cell : all_cells()) {
    const auto bench = pt::benchkit::make_benchmark(cell.benchmark);
    pt::benchkit::BenchmarkEvaluator eval(*bench, nf.device_by_name(cell.device));
    const pt::tuner::SearchResult best = pt::tuner::exhaustive_search(eval);
    Optimum fresh{cell, best.best_time_ms, best.best_config};
    std::cout << format_optimum(fresh) << std::endl;
    const auto it = std::find_if(pinned.begin(), pinned.end(), [&](const Optimum& o) {
      return o.cell.benchmark == cell.benchmark && o.cell.device == cell.device;
    });
    if (!best.success || it == pinned.end() || it->time_ms != fresh.time_ms ||
        it->config != fresh.config) {
      std::cerr << "perfbench: optimum of " << cell.label()
                << " differs from the reference\n";
      ++differences;
    }
  }
  return differences == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool recompute = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stoi(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") return usage("--trace must be 0 or 1");
        options.trace = t == "1";
        have_trace = true;
      } else if (arg == "--commit") {
        options.commit = value();
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else if (arg == "--reference") {
        options.reference = value();
      } else if (arg == "--recompute-optima") {
        recompute = true;
      } else {
        return usage("unknown argument " + arg);
      }
    }
    if (recompute) return recompute_optima(options.reference);
    if (!have_seed || !have_seconds || !have_trace)
      return usage("--seed, --seconds and --trace are required");
    if (options.seconds < 1) return usage("--seconds must be positive");
    if (options.workload == "serve_mixed") return run_serve_workload(options);
    if (is_tune_workload(options.workload)) return run_tune_workload(options);
    return usage("unknown workload '" + options.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}

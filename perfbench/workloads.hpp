// The benchmark's workloads and the report one run of them produces.
//
// Four workloads, each run inside one simulated world (ranks are
// threads, so a workload never asks for more ranks x threads than the
// machine has CPUs):
//
//   partition_rmat_r4  RMAT-17, 32 parts, 4 ranks x 1 thread: the core
//                      phases and the update exchange do the work.
//   partition_rmat_t4  the same graph on 1 rank x 4 threads: PhaseScan
//                      on the par:: pool and the serial commit do the
//                      work, the exchange sends nothing.
//   fig8_web_r4        webcrawl graph, XtraPuLP from a block layout
//                      (nparts = ranks), then the eight Fig-8 engine
//                      programs on the partitioned layout.
//   serve_mix_r2       ER graph on a random 2-rank layout, served an
//                      open-loop LoadGen trace through serve::Scheduler.
//
// An untraced run (trace off) reports the end-to-end metrics; a traced
// run records spans around the public calls into each layer and reports
// the per-layer metrics plus the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;  ///< names the run; the inputs are fixed
  double seconds = 10.0;  ///< measurement budget (at least two repeats run)
  bool trace = false;
  bool smoke = false;  ///< tiny inputs and one set-up: the self-test mode
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome, printed as the run's last line.
struct Report {
  bool correct = true;  ///< every output check against a reference held
  long attempted = 0;   ///< distinct checks made
  long failed = 0;      ///< distinct checks that did not hold (output or bound)
  std::vector<Metric> metrics;
  /// Untraced runs: the outputs that are exact on every run or belong to
  /// one workload only (quality, wire volume, analytics and serving
  /// figures), printed on their own line, outside the metric table.
  std::vector<Metric> details;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<std::string> checked;   ///< every check made, in order

  /// Record one check. A check is counted once per run however many
  /// repeats make it, so `attempted` and `failed` do not depend on how
  /// many repeats fit in the time budget; it fails if any repeat's
  /// instance fails. A failed output check also clears `correct`; a
  /// failed bound check (balance, span coverage, backlog) does not.
  void check(bool ok, const std::string& what, bool output_check);
  /// Set a metric declared in the run's metric table.
  void set(const std::string& name, double value);
  std::string json() const;
  /// {"details": {...}, "failed_checks": [...]}
  std::string details_json() const;
};

struct WorkloadShape {
  std::string name;
  int ranks = 1;
  int threads = 1;
};

const std::vector<WorkloadShape>& workloads();

/// CPUs this process may run on (what `nproc` prints).
int available_cpus();

/// Run one workload. Throws std::invalid_argument for an unknown
/// workload and std::runtime_error when its ranks x threads exceed
/// available_cpus().
Report run_workload(const Options& opt);

}  // namespace perfbench

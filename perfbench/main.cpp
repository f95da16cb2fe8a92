// perfbench: one workload, one run. Prints a line describing the
// machine, then the result object as the last line of standard output:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>]
//
// Normally driven through run.py, which builds this binary first.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __VERSION__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>]\nworkloads:",
               why);
  for (const perfbench::WorkloadShape& w : perfbench::workloads())
    std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--git-sha") {
        git_sha = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  const perfbench::WorkloadShape* shape = nullptr;
  for (const perfbench::WorkloadShape& w : perfbench::workloads())
    if (w.name == opt.workload) shape = &w;
  if (shape == nullptr) usage(("unknown workload " + opt.workload).c_str());

  try {
    std::printf(
        "{\"machine\": {\"nproc\": %d, \"hardware_concurrency\": %u, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
        "\"workload\": \"%s\", \"ranks\": %d, \"threads\": %d, "
        "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
        perfbench::available_cpus(), std::thread::hardware_concurrency(),
        PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, git_sha.c_str(),
        opt.workload.c_str(), shape->ranks, shape->threads,
        static_cast<unsigned long long>(opt.seed), opt.seconds,
        opt.trace ? 1 : 0);
    std::fflush(stdout);
    const perfbench::Report report = perfbench::run_workload(opt);
    for (const std::string& f : report.failures)
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    std::printf("%s\n", report.details_json().c_str());
    std::printf("%s\n", report.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

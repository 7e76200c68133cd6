// agora_bench: the AgoraDB benchmark binary. One workload per process,
// so set-up time and peak RSS belong to that workload. `run.py` builds
// and drives it; by hand:
//
//   agora_bench --workload tpch_olap --seed 1 --seconds 10 --trace 0
//               --out result.json
//
// Exit codes: 0 all answers correct, 1 an answer mismatched, 2 usage or
// set-up error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace agorabench {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: agora_bench --workload tpch_olap|tpch_budget|serve_mixed "
      "--seed N --seconds S --trace 0|1 --out FILE [--spans FILE] "
      "[--work-dir DIR] [--tiny] [--corrupt-reference]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> const char* {
      ++i;
      return value;
    };
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      options.workload = take();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(take(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(take());
    } else if (arg == "--trace") {
      options.trace = std::atoi(take()) != 0;
    } else if (arg == "--out") {
      options.out_path = take();
    } else if (arg == "--spans") {
      options.spans_path = take();
    } else if (arg == "--work-dir") {
      options.work_dir = take();
    } else {
      return Usage();
    }
  }
  if (options.tiny) options.warmup_seconds = 0.2;
  if (options.out_path.empty() || options.seconds <= 0) return Usage();
  // The engine's global pool reads AGORA_THREADS on first use; pin it so
  // the pool has the same size on any host.
  setenv("AGORA_THREADS", std::to_string(kPoolThreads).c_str(), 1);

  Report report;
  int code = 2;
  if (options.workload == "tpch_olap" || options.workload == "tpch_budget") {
    code = RunTpch(options, &report);
  } else if (options.workload == "serve_mixed") {
    code = RunServe(options, &report);
  } else {
    return Usage();
  }
  if (code != 0) return code;

  if (!report.Write(options.out_path, options)) {
    std::fprintf(stderr, "cannot write %s\n", options.out_path.c_str());
    return 2;
  }
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace agorabench

int main(int argc, char** argv) { return agorabench::Main(argc, argv); }

// perfbench: one pass of one benchmark workload, printed as one JSON line.
//
//   perfbench --workload NAME [--seed N] [--trace] [--trace-out PATH]
//             [--setup-only]
//
// run.py drives it (one fresh process per pass) and turns the passes into
// the benchmark's metrics; see perfbench/README.md.
#include <chrono>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME [--seed N] [--trace] "
               "[--trace-out PATH] [--setup-only]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a whole number, got '" + v + "'");
  }
  if (used != v.size() || v.front() == '-') {
    usage(flag + " needs a whole number, got '" + v + "'");
  }
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::PassOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = parse_u64(a, next());
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--trace-out") {
      o.trace_out = next();
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  try {
    std::cout << perfbench::run_pass(o, kProcessStart) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

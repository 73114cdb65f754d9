//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
//
// acebench: runs one benchmark workload and writes its result record.
//
//   acebench --workload resnet20|linear|serve --seed N --seconds S
//            --trace 0|1 --floor BITS --json OUT [--chrome-trace FILE]
//            [--compile-seconds S]
//
// perfbench/run.py builds this binary, runs it, and turns the record into
// the benchmark's one-line summary; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace ace;
using namespace acebench;

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Value = argv[I + 1];
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::atof(Value.c_str());
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--floor")
      O.PrecisionFloorBits = std::atof(Value.c_str());
    else if (Flag == "--json")
      O.JsonPath = Value;
    else if (Flag == "--chrome-trace")
      O.ChromeTracePath = Value;
    else if (Flag == "--compile-seconds")
      O.CompileSeconds = std::atof(Value.c_str());
    else {
      std::fprintf(stderr, "acebench: unknown flag %s\n", Flag.c_str());
      return 2;
    }
  }
  if (O.Workload.empty() || O.JsonPath.empty() || O.Seconds <= 0) {
    std::fprintf(stderr, "usage: acebench --workload W --seed N --seconds S "
                         "--trace 0|1 --floor BITS --json OUT "
                         "[--chrome-trace FILE] [--compile-seconds S]\n");
    return 2;
  }

  auto &Tel = telemetry::Telemetry::instance();
  Tel.setEnabled(false);
  O.Threads = poolThreads(O.Workload);
  if (Status S = ThreadPool::instance().setNumThreads(O.Threads)) {
    std::fprintf(stderr, "acebench: %s\n", S.message().c_str());
    return 1;
  }
  auto W = makeWorkload(O.Workload, O.Seed);
  if (!W.ok()) {
    std::fprintf(stderr, "acebench: %s\n", W.status().message().c_str());
    return 1;
  }

  Result R;
  if (O.CompileSeconds > 0)
    compileLeg(*W, R, O.CompileSeconds);
  else if (O.Workload == "serve")
    runServe(*W, O, R);
  else
    runClosedLoop(*W, O, R);

  double Attempted = static_cast<double>(std::max<uint64_t>(R.attempted(), 1));
  if (O.Trace) {
    R.metric("trace.dropped_events",
             static_cast<double>(Tel.droppedEventCount()), "count");
    if (!O.ChromeTracePath.empty())
      if (Status S = Tel.writeChromeTraceFile(O.ChromeTracePath))
        R.fail("chrome trace: " + S.message());
  } else if (O.CompileSeconds <= 0) {
    R.metric("ok_ratio",
             1.0 - static_cast<double>(R.failed()) / Attempted, "ratio");
  }
  std::ofstream Out(O.JsonPath);
  Out << R.json() << "\n";
  if (!Out) {
    std::fprintf(stderr, "acebench: cannot write %s\n", O.JsonPath.c_str());
    return 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
//
// Part of the ANT-ACE reproduction, under the Apache License v2.0 with LLVM
// Exceptions. See LICENSE for license information.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of acebench: the workload description, the
/// result record it writes, sample statistics, process CPU/RSS readers,
/// and the bench-side trace spans. Everything here sits *outside* the
/// program under test and reaches it only through public headers.
///
//===----------------------------------------------------------------------===//

#ifndef ACEBENCH_BENCH_H
#define ACEBENCH_BENCH_H

#include "codegen/CkksExecutor.h"
#include "driver/AceCompiler.h"
#include "nn/Executor.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace acebench {

using namespace ace;

/// Runtime pool width of a workload, the same in every run so results
/// compare across revisions. The host has four vCPUs shared with other
/// guests, which take 5-15% of their time (steal). Every fork/join waits
/// for the slowest thread: at four threads steal made the 5 ms linear
/// inference 4x slower, and at two threads a service request, with its
/// 4500 fork/joins, up to 4x slower. A two-thread linear inference, with
/// 430, held its median within 5%. So the service runs on one thread.
size_t poolThreads(const std::string &Workload);

struct Options {
  std::string Workload;
  size_t Threads = 1;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// When positive, the run is only the compile leg, for this long.
  double CompileSeconds = 0.0;
  /// Outputs with fewer bits of agreement than this fail the check.
  double PrecisionFloorBits = 0.0;
  std::string JsonPath;
  std::string ChromeTracePath;
};

/// A compiled workload: the model, its cleartext reference and the
/// seed-drawn inputs the benchmark feeds it.
struct Workload {
  onnx::Model Model;
  std::vector<nn::Tensor> Calibration;
  /// Inputs drawn from the run seed and the cleartext logits of each.
  std::vector<nn::Tensor> Inputs;
  std::vector<std::vector<double>> Reference;
  /// A second input set drawn from a different seed (the count gate
  /// compares op counts across the two).
  std::vector<nn::Tensor> OtherInputs;
  std::vector<std::vector<double>> OtherReference;
  std::unique_ptr<driver::CompileResult> Compiled;
};

/// Builds the named workload's model and inputs and compiles it with the
/// builtin defaults. Fails on an unknown name.
StatusOr<Workload> makeWorkload(const std::string &Name, uint64_t Seed);

/// The record one run writes: metrics by name with units, exact counts
/// (gated across runs by diff.py), context strings and numbers, and the
/// failure tally.
class Result {
public:
  void metric(const std::string &Name, double Value, const char *Unit);
  void count(const std::string &Name, uint64_t Value);
  void info(const std::string &Key, const std::string &Value);
  void info(const std::string &Key, double Value);
  /// Raw JSON (an object or array) stored under \p Key.
  void infoJson(const std::string &Key, const std::string &Json);
  void fail(const std::string &Why);
  void attempt(uint64_t N = 1) { Attempted += N; }

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  std::string json() const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      Metrics;
  std::vector<std::pair<std::string, uint64_t>> Counts;
  std::vector<std::pair<std::string, std::string>> Info; // raw JSON values
  std::vector<std::string> Errors;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Compares \p Logits with the cleartext \p Reference: records the
/// output's precision and argmax agreement, and counts it failed when it
/// falls below the floor.
class OutputCheck {
public:
  explicit OutputCheck(double FloorBits) : FloorBits(FloorBits) {}
  void check(const std::vector<double> &Logits,
             const std::vector<double> &Reference, Result &R,
             const std::string &What);
  /// Minimum over checked outputs of -log2 max |encrypted - cleartext|.
  double minBits() const { return MinBits; }
  double top1Agree() const {
    return Checked ? static_cast<double>(Agree) / Checked : 0.0;
  }

private:
  double FloorBits;
  double MinBits = 1e9;
  size_t Checked = 0, Agree = 0;
};

/// \name Sample statistics
/// @{
double median(std::vector<double> V);
/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
/// The highest percentile with at least ten samples beyond it, capped at
/// the 75th: the maximum below 20 samples (reported as percentile 100).
/// The cap keeps the metric reproducible: on the benchmark host 5-15% of
/// the CPU time goes to other guests in bursts, and the 90th percentile
/// of a 4 ms two-thread inference moved by 50% from run to run with it.
struct Tail {
  double Value = 0.0;
  double Percentile = 100.0;
  size_t Samples = 0;
};
Tail tailOf(std::vector<double> V);
/// @}

/// Process CPU seconds (user + system) so far.
double cpuSeconds();
/// Peak resident set size of the process, bytes.
double peakRssBytes();

/// A bench-side span recorded into the program's telemetry buffer (the
/// same one its internal spans use) when tracing is on. \p Id ties the
/// spans of one inference or request together.
class BenchSpan {
public:
  BenchSpan(const char *Name, uint64_t Id);
  ~BenchSpan();
  BenchSpan(const BenchSpan &) = delete;
  BenchSpan &operator=(const BenchSpan &) = delete;
  /// Wall seconds since construction.
  double seconds() const;

private:
  const char *Name;
  uint64_t Id;
  double StartUs;
  WallTimer Clock;
};

/// One encrypt -> run -> decrypt through CkksExecutor's public API.
struct Inference {
  double Encrypt = 0, Run = 0, Decrypt = 0, RunCpu = 0;
  /// Bootstrap-stage seconds (from the telemetry phases; traced only).
  double CoeffToSlot = 0, EvalMod = 0, SlotToCoeff = 0;
  /// The executor's region seconds of this run.
  std::map<std::string, double> Regions;
  /// Op-counter and limb-pool miss deltas (op counts: traced only).
  telemetry::CounterSnapshot Ops;
  uint64_t LimbMisses = 0;
  double total() const { return Encrypt + Run + Decrypt; }
};

/// Runs one inference of \p X with bench spans around each call, and
/// checks its logits against \p Reference. A failed call is recorded on
/// \p R and yields nullopt.
std::optional<Inference> infer(codegen::CkksExecutor &E, const nn::Tensor &X,
                               const std::vector<double> &Reference,
                               OutputCheck &Check, Result &R, uint64_t Id,
                               const char *What);

/// Telemetry FHE op counters, summed over all threads.
telemetry::CounterSnapshot opCounters();
/// Records the fhe.* counts of \p Delta as metrics and gated counts.
void recordOpCounts(Result &R, const telemetry::CounterSnapshot &Delta);
/// The fhe.* count names and their counters, in report order.
std::vector<std::pair<std::string, uint64_t>>
opCountList(const telemetry::CounterSnapshot &Delta);

/// \name Legs shared by every workload
/// @{
/// AceCompiler::compile timed back to back for \p Seconds, as the only
/// work of a fresh process (acebench --compile-seconds): records the 10th
/// percentile as compile_s. run.py runs several such processes and
/// reports their mean; README.md gives the measurements behind both.
void compileLeg(const Workload &W, Result &R, double Seconds);
/// Traced: the seconds of each public pass entry point, with a node-count
/// cross-check against AceCompiler::compile.
void passLeg(const Workload &W, Result &R);
/// ir.*, budget.* and the resolved pipeline configuration.
void recordCompiledShape(const Workload &W, Result &R);
/// Traced: an eager executor's per-inference op counts on two input
/// sets and at two pool widths (must be identical), the codegen stage
/// seconds, region and bootstrap-stage seconds, pool and limb-pool
/// counters, fhe micro-op costs and the attribution of exec.run_s and
/// setup_s to them, and trace.overhead over the same inputs.
void tracedExecutorLeg(const Workload &W, const Options &O, Result &R);
/// @}

/// mem.*, keycache.* from the ResourceGovernor's gauges and counters.
void recordGovernor(Result &R);

/// Workload runners.
void runClosedLoop(const Workload &W, const Options &O, Result &R);
void runServe(const Workload &W, const Options &O, Result &R);

/// The service and generator metrics of a closed-loop workload: it has
/// no queue, so they read 0 (the traced record lists every per-layer
/// metric on every workload).
void zeroServiceMetrics(Result &R);

} // namespace acebench

#endif // ACEBENCH_BENCH_H

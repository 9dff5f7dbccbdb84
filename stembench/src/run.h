// The stemcp benchmark runner: sets up a DesignService for one generated
// workload, drives it in a closed loop, checks every output against
// oracles, and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run).  See stembench/README.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen.h"
#include "service/design_service.h"

namespace stembench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = "stembench-out";  ///< journals and trace files
  std::string dump_stream;  ///< non-empty: write the stream as a trace file
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  ///< gate failures, one line each
  std::string meta;                 ///< run metadata as one JSON object
};

/// Run one workload.  Never throws for request-level failures; those lower
/// ok_frac or fail the gate.
Result run(const Options& opts);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_json(const Result& r);

/// Gate for one recovered session.  `recover` is the response to its
/// recover request, `journaled` the number of mutation records its journal
/// holds.  Empty when the session came back whole; otherwise why not — in
/// particular a recovery that replayed fewer records than were journaled
/// (the cold start a base resolved on the wrong shard produces).
std::string check_recovery(const stemcp::service::Response& recover,
                           const std::string& recovered_image,
                           const std::string& live_image,
                           std::uint64_t journaled);

/// Difference between a live response and the serial-replay oracle's
/// response to the same request; empty when they agree.
std::string compare_responses(const stemcp::service::Response& live,
                              const stemcp::service::Response& oracle);

}  // namespace stembench

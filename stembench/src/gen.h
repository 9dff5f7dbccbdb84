// Seeded generators for the stemcp benchmark: the designs each workload
// loads and the request stream its timed phase sends.  Everything here is a
// pure function of (workload name, seed, request count), so the same
// arguments give byte-identical library text and streams on every run and
// every commit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/design_service.h"

namespace stembench {

/// One generated library and the sizes the run metadata reports.
struct Design {
  std::string text;
  std::string top;  ///< the cell whose delay networks stem.build_delays_ms times
  std::size_t cells = 0;
  std::size_t instances = 0;  ///< subcell placements summed over all cells
};

/// One request of the timed phase, with the session it addresses.
struct Entry {
  stemcp::service::Request request;
  std::uint32_t session = 0;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<Design> designs;
  std::vector<std::string> sessions;         ///< session names
  std::vector<std::uint32_t> session_design; ///< index into designs
  /// `journal` request options for every session ("" = no journal).
  std::string journal_spec;
  std::vector<Entry> stream;
  /// The serial-replay oracle checks sessions [0, oracle_sessions).
  std::uint32_t oracle_sessions = 0;
  std::string mix;  ///< human-readable request mix, for the metadata line
};

/// The service shape every workload runs with.
constexpr std::size_t kShards = 2;
constexpr std::size_t kWorkersPerShard = 1;
constexpr std::size_t kInFlight = 4;

const std::vector<std::string>& workload_names();
bool is_workload(const std::string& name);

/// Timed-phase request count for a run of nominally `seconds`: a fixed
/// count per second per workload, so every commit does the same work.
std::uint64_t request_count(const std::string& workload, int seconds);

/// Build the designs, sessions and stream of `workload`.  Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& workload, std::uint64_t seed,
                       std::uint64_t requests);

bool is_write(stemcp::service::RequestType t);

}  // namespace stembench

// Traced-run support: an in-memory span log written out as one Chrome-trace
// file, and the per-layer re-execution that times the public calls of each
// stemcp layer on the same stream entries the timed phase sent.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen.h"
#include "run.h"

namespace stembench {

/// One timed interval.  Request spans carry the stream index as `id`;
/// layer spans carry the stream index of the entry they re-execute as
/// `parent` (-1 for spans that belong to no single entry, such as a load).
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::uint32_t tid = 0;
  std::string session;

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanLog {
 public:
  void add(Span s) { spans_.push_back(std::move(s)); }
  const std::vector<Span>& spans() const { return spans_; }
  /// Mean duration of the spans named `name`, in microseconds (0 if none).
  double mean_us(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  /// Write every span as a Chrome trace-event "X" slice.
  bool write_chrome(const std::string& path, std::string* error) const;

 private:
  std::vector<Span> spans_;
};

std::uint64_t now_ns();

/// Re-execute stream entries through the layers' public calls on the main
/// thread, recording one span per call, and fill the core / stem / fd /
/// persist.append / service.resolve metrics.  `live` is the service the
/// traced phase ran against (its sessions are still open); `out_dir`
/// receives the benchmark's own journal.
void measure_layers(const Workload& w, stemcp::service::DesignService& live,
                    const std::string& out_dir, SpanLog& log,
                    std::map<std::string, Metric>& metrics,
                    std::vector<std::string>& errors);

}  // namespace stembench

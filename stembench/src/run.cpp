#include "run.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "layers.h"
#include "persist/recovery.h"
#include "workload/trace.h"

#ifndef STEMBENCH_BUILD_TYPE
#define STEMBENCH_BUILD_TYPE "unknown"
#endif

namespace stembench {

namespace {

using stemcp::service::DesignService;
using stemcp::service::Request;
using stemcp::service::RequestType;
using stemcp::service::Response;

/// How often set-up and recovery are timed in one run; their metrics are
/// the medians.  Each repeat runs in its own forked child of the process as
/// it stands after the timed phase, so every repeat starts from the same
/// state, and the two kinds alternate, so a slow spell of the machine is
/// shared between them instead of falling on one.
constexpr int kRepeats = 15;
/// A timing child still running after this long is killed and counts as a
/// gate failure.
constexpr unsigned kChildSeconds = 60;
/// The timed phase is split into this many equal runs of stream entries;
/// throughput and CPU per request are medians over them, so a burst of
/// outside load on the machine moves one chunk, not the metric.
constexpr std::size_t kChunks = 10;
/// A request still unanswered this long after submission counts as failed.
constexpr auto kDeadline = std::chrono::seconds(10);

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Percentile by linear interpolation between closest ranks.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Peak resident set of the process so far (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Per-request record of the timed phase, in stream order.
struct Sample {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint8_t slot = 0;
  bool done = false;  ///< answered before its deadline
  bool ok = false;
  bool violation = false;
};

/// A request type's name in the per-type metrics; "" for types the streams
/// do not send.
std::string type_label(RequestType t) {
  switch (t) {
    case RequestType::kAssign: return "assign";
    case RequestType::kBatchAssign: return "batch_assign";
    case RequestType::kEdit: return "edit";
    case RequestType::kQuery: return "query";
    case RequestType::kSelect:
    case RequestType::kSelectStats: return "select";
    default: return "";
  }
}

Request make(RequestType t, const std::string& session, std::string text = {}) {
  Request r;
  r.type = t;
  r.session = session;
  r.text = std::move(text);
  return r;
}

std::string journal_base(const std::string& session) { return "j_" + session; }

DesignService::Config service_config(const std::string& journal_root) {
  DesignService::Config cfg;
  cfg.shards = kShards;
  cfg.workers_per_shard = kWorkersPerShard;
  cfg.journal_root = journal_root;
  return cfg;
}

/// Open, load and (when the workload journals) attach the journal of every
/// session; the requests of all sessions are in flight together, so each
/// shard works through its own sessions in parallel with the other.
double set_up(DesignService& svc, const Workload& w,
              std::vector<std::string>& errors) {
  const std::uint64_t t0 = now_ns();
  std::vector<std::future<Response>> replies;
  for (std::size_t s = 0; s < w.sessions.size(); ++s) {
    const std::string& name = w.sessions[s];
    replies.push_back(svc.submit(make(RequestType::kOpen, name)));
    replies.push_back(svc.submit(
        make(RequestType::kLoad, name, w.designs[w.session_design[s]].text)));
    if (!w.journal_spec.empty()) {
      replies.push_back(svc.submit(make(RequestType::kJournal, name,
                                        journal_base(name) + " " + w.journal_spec)));
    }
  }
  for (auto& f : replies) {
    const Response r = f.get();
    if (!r.ok) errors.push_back("set-up of " + r.session + " failed: " + r.error);
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// Run `timed` in a forked child and return the seconds it measured; the
/// child's gate failures are appended to `errors`.  The caller must be
/// single-threaded (no service alive), so the child inherits no lock held
/// by another thread.
double in_child(const std::function<double(std::vector<std::string>&)>& timed,
                std::vector<std::string>& errors) {
  int fds[2];
  if (pipe(fds) != 0) {
    errors.push_back("timing child: pipe failed");
    return 0.0;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    errors.push_back("timing child: fork failed");
    return 0.0;
  }
  if (pid == 0) {
    close(fds[0]);
    alarm(kChildSeconds);
    std::vector<std::string> errs;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g\n", timed(errs));
    std::string out = buf;
    for (const std::string& e : errs) out += e + "\n";
    for (std::size_t at = 0; at < out.size();) {
      const ssize_t k = write(fds[1], out.data() + at, out.size() - at);
      if (k <= 0) _exit(3);
      at += static_cast<std::size_t>(k);
    }
    // Leave without destructors: the child's service, which `timed`
    // allocates and never frees, goes with the process.  Tearing down a
    // big_design service takes longer than setting it up.
    _exit(0);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t k = read(fds[0], buf, sizeof buf);
    if (k > 0) {
      out.append(buf, static_cast<std::size_t>(k));
    } else if (k == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    errors.push_back("timing child failed (status " + std::to_string(status) + ")");
    return 0.0;
  }
  std::istringstream lines(out);
  std::string line;
  std::getline(lines, line);
  const double seconds = std::strtod(line.c_str(), nullptr);
  while (std::getline(lines, line)) errors.push_back(line);
  return seconds;
}

struct Phase {
  std::vector<Sample> samples;
  std::vector<Response> responses;  ///< kept for oracle sessions only
  /// Wall clock and process CPU seconds when chunk c's first entry was
  /// claimed; entry kChunks is the end of the phase.
  std::vector<double> chunk_wall, chunk_cpu;
  std::size_t unanswered = 0;

  std::size_t chunk_begin(std::size_t c) const {
    return c * samples.size() / kChunks;
  }
};

/// The closed loop: kInFlight slots, each submitting the next stream entry
/// as soon as its previous reply lands.  Claiming an entry and submitting it
/// happen under one lock, so the service receives the stream in order and
/// each session's requests run in stream order (one worker per shard).
Phase drive(DesignService& svc, const Workload& w) {
  Phase ph;
  const std::size_t n = w.stream.size();
  ph.samples.resize(n);
  ph.responses.resize(n);
  std::mutex mu;
  std::size_t next = 0;
  std::vector<std::vector<std::future<Response>>> abandoned(kInFlight);
  const std::uint64_t t0 = now_ns();
  auto stamp = [&] {
    ph.chunk_wall.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    ph.chunk_cpu.push_back(cpu_seconds());
  };
  auto slot = [&](std::size_t id) {
    for (;;) {
      std::size_t i = 0;
      std::future<Response> reply;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next == n) return;
        i = next++;
        if (i > 0 && i == ph.chunk_begin(ph.chunk_wall.size())) stamp();
        ph.samples[i].start_ns = now_ns();
        reply = svc.submit(w.stream[i].request);
      }
      Sample& s = ph.samples[i];
      s.slot = static_cast<std::uint8_t>(id);
      if (reply.wait_for(kDeadline) != std::future_status::ready) {
        abandoned[id].push_back(std::move(reply));
        continue;
      }
      s.end_ns = now_ns();
      Response r = reply.get();
      s.done = true;
      s.ok = r.ok;
      s.violation = r.violation;
      if (w.stream[i].session < w.oracle_sessions) ph.responses[i] = std::move(r);
    }
  };
  stamp();
  {
    std::vector<std::thread> slots;
    for (std::size_t k = 0; k < kInFlight; ++k) slots.emplace_back(slot, k);
    for (std::thread& t : slots) t.join();
  }
  stamp();
  for (const auto& a : abandoned) ph.unanswered += a.size();
  return ph;
}

std::vector<std::string> save_images(DesignService& svc, const Workload& w,
                                     std::vector<std::string>& errors) {
  std::vector<std::string> images;
  for (const std::string& name : w.sessions) {
    Response r = svc.call(make(RequestType::kSave, name));
    if (!r.ok) errors.push_back("save of " + name + " failed: " + r.error);
    images.push_back(std::move(r.text));
  }
  return images;
}

/// Serial replay oracle: each checked session's requests, in stream order,
/// through a fresh one-shard, one-worker service.  Every response and the
/// final image must match the live run.
void check_oracle(const Workload& w, const Phase& ph,
                  const std::vector<std::string>& live_images,
                  std::vector<std::string>& errors) {
  for (std::uint32_t s = 0; s < w.oracle_sessions; ++s) {
    DesignService oracle(DesignService::Config{1, 1, {}});
    const std::string& name = w.sessions[s];
    oracle.call(make(RequestType::kOpen, name));
    oracle.call(make(RequestType::kLoad, name, w.designs[w.session_design[s]].text));
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < w.stream.size(); ++i) {
      if (w.stream[i].session != s) continue;
      const Response want = oracle.call(w.stream[i].request);
      if (!ph.samples[i].done) continue;  // already counted as failed
      const std::string diff = compare_responses(ph.responses[i], want);
      if (!diff.empty() && mismatches++ < 3) {
        errors.push_back("request " + std::to_string(i) + " (" + name + ", " +
                         to_string(w.stream[i].request.type) + "): " + diff);
      }
    }
    if (mismatches > 3) {
      errors.push_back(name + ": " + std::to_string(mismatches) +
                       " responses differ from the serial replay");
    }
    const std::string image = oracle.call(make(RequestType::kSave, name)).text;
    if (image != live_images[s]) {
      errors.push_back(name + ": live image differs from the serial replay's");
    }
  }
}

/// Journal records each session holds after the timed phase: the mutation
/// records only (the journal also holds one "open" marker from attach).
/// Cross-checked against the successful mutating replies the closed loop saw.
std::vector<std::uint64_t> journaled_records(DesignService& svc,
                                             const Workload& w, const Phase& ph,
                                             std::vector<std::string>& errors) {
  std::vector<std::uint64_t> counted(w.sessions.size(), 0);
  for (std::size_t i = 0; i < w.stream.size(); ++i) {
    if (ph.samples[i].ok && is_write(w.stream[i].request.type)) {
      ++counted[w.stream[i].session];
    }
  }
  if (w.journal_spec.empty()) return std::vector<std::uint64_t>(w.sessions.size(), 0);
  for (std::size_t s = 0; s < w.sessions.size(); ++s) {
    auto session = svc.sessions().find(w.sessions[s]);
    std::uint64_t records = 0;
    if (session != nullptr) {
      std::lock_guard<std::mutex> lock(session->mutex());
      if (session->journal() != nullptr) records = session->journal()->records_written();
    }
    if (records != counted[s] + 1) {
      errors.push_back(w.sessions[s] + ": journal holds " + std::to_string(records) +
                       " record(s), expected " + std::to_string(counted[s] + 1) +
                       " (open marker + one per successful write)");
    }
  }
  return counted;
}

struct JournalTotals {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fsyncs = 0;
};

JournalTotals journal_totals(DesignService& svc, const Workload& w) {
  JournalTotals t;
  for (const std::string& name : w.sessions) {
    auto session = svc.sessions().find(name);
    if (session == nullptr) continue;
    std::lock_guard<std::mutex> lock(session->mutex());
    if (const auto* j = session->journal()) {
      t.records += j->records_written();
      t.bytes += j->bytes_written();
      t.fsyncs += j->fsyncs();
    }
  }
  return t;
}

/// Sessions of a workload without a journal get one now, after the timed
/// phase: attaching writes a checkpoint of the live state, which recovery
/// then reloads.
void attach_checkpoints(DesignService& svc, const Workload& w,
                        std::vector<std::string>& errors) {
  if (!w.journal_spec.empty()) return;
  std::vector<std::future<Response>> replies;
  for (const std::string& name : w.sessions) {
    replies.push_back(svc.submit(
        make(RequestType::kJournal, name, journal_base(name) + " none")));
  }
  for (auto& f : replies) {
    const Response r = f.get();
    if (!r.ok) errors.push_back("checkpoint of " + r.session + " failed: " + r.error);
  }
}

/// Recover every session into `svc`, a fresh service, all requests in
/// flight at once; returns the wall time.  With `log` set, recovers one
/// session at a time instead and records a scan span and a recover span per
/// session.
double recover_all(DesignService& svc, const Workload& w,
                   const std::vector<std::string>& live_images,
                   const std::vector<std::uint64_t>& journaled,
                   std::vector<std::string>& errors, SpanLog* log) {
  std::vector<Response> replies(w.sessions.size());
  const std::uint64_t t0 = now_ns();
  if (log == nullptr) {
    std::vector<std::future<Response>> pending;
    for (const std::string& name : w.sessions) {
      pending.push_back(
          svc.submit(make(RequestType::kRecover, name, journal_base(name))));
    }
    for (std::size_t s = 0; s < pending.size(); ++s) replies[s] = pending[s].get();
  } else {
    for (std::size_t s = 0; s < w.sessions.size(); ++s) {
      const std::string& name = w.sessions[s];
      const std::string base = svc.sessions().resolve_base(
          svc.sessions().shard_of(name), journal_base(name));
      Span scan{"persist.scan", now_ns(), 0, -1, -1, 0, name};
      const auto recovered = stemcp::persist::load_recovered_log(base);
      scan.end_ns = now_ns();
      if (!recovered.ok) errors.push_back(name + ": scan failed: " + recovered.error);
      log->add(std::move(scan));
      Span rec{"service.recover", now_ns(), 0, -1, -1, 0, name};
      replies[s] = svc.call(make(RequestType::kRecover, name, journal_base(name)));
      rec.end_ns = now_ns();
      log->add(std::move(rec));
    }
  }
  const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
  for (std::size_t s = 0; s < w.sessions.size(); ++s) {
    const std::string image =
        svc.call(make(RequestType::kSave, w.sessions[s])).text;
    const std::string why =
        check_recovery(replies[s], image, live_images[s], journaled[s]);
    if (!why.empty()) errors.push_back(w.sessions[s] + ": " + why);
  }
  return seconds;
}

void put(std::map<std::string, Metric>& m, const std::string& name, double v,
         const char* unit) {
  m[name] = Metric{std::isfinite(v) ? v : 0.0, unit};
}

bool is_read(RequestType t) {
  return t == RequestType::kQuery || t == RequestType::kSelectStats ||
         t == RequestType::kSelect;
}

/// Median over chunks of the phase's throughput.
double throughput(const Phase& ph) {
  std::vector<double> rps;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const double n = static_cast<double>(ph.chunk_begin(c + 1) - ph.chunk_begin(c));
    rps.push_back(n / (ph.chunk_wall[c + 1] - ph.chunk_wall[c]));
  }
  return median(rps);
}

/// End-to-end metrics of one timed phase.  Throughput and CPU are medians
/// over the chunks; the latency medians are over every sample.
void phase_metrics(const Workload& w, const Phase& ph,
                   std::map<std::string, Metric>& m) {
  std::vector<double> writes, reads;
  for (std::size_t i = 0; i < ph.samples.size(); ++i) {
    const Sample& s = ph.samples[i];
    if (!s.done) continue;
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    const RequestType t = w.stream[i].request.type;
    if (is_write(t)) writes.push_back(us);
    if (is_read(t)) reads.push_back(us);
  }
  std::vector<double> cpu;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const double n = static_cast<double>(ph.chunk_begin(c + 1) - ph.chunk_begin(c));
    cpu.push_back((ph.chunk_cpu[c + 1] - ph.chunk_cpu[c]) * 1e6 / n);
  }
  put(m, "throughput_rps", throughput(ph), "1/s");
  put(m, "write_p50_us", median(writes), "us");
  put(m, "read_p50_us", median(reads), "us");
  put(m, "cpu_us_per_req", median(cpu), "us");
}

void per_type_metrics(const Workload& w, const Phase& ph,
                      std::map<std::string, Metric>& m) {
  std::map<std::string, std::vector<double>> by_type;
  for (const char* t : {"assign", "batch_assign", "edit", "query", "select"}) {
    by_type[t];
  }
  for (std::size_t i = 0; i < ph.samples.size(); ++i) {
    const Sample& s = ph.samples[i];
    const std::string label = type_label(w.stream[i].request.type);
    if (!s.done || label.empty()) continue;
    by_type[label].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  for (const auto& [label, v] : by_type) {
    put(m, "service." + label + "_p50_us", percentile(v, 50), "us");
    put(m, "service." + label + "_p99_us", percentile(v, 99), "us");
    put(m, "service." + label + "_n", static_cast<double>(v.size()), "count");
  }
}

/// Mean of one folded telemetry phase over the timed phase only: the
/// histograms' (sum, count) difference between two folds.
double phase_mean_us(const stemcp::core::MetricsRegistry& before,
                     const stemcp::core::MetricsRegistry& after,
                     const std::string& name) {
  const auto* a = after.find_histogram(name);
  if (a == nullptr) return 0.0;
  const auto* b = before.find_histogram(name);
  const double count = static_cast<double>(a->count() - (b ? b->count() : 0));
  const double sum = static_cast<double>(a->sum() - (b ? b->sum() : 0));
  return count > 0 ? sum / count / 1e3 : 0.0;
}

std::string meta_json(const Options& o, const Workload& w) {
  std::size_t cells = 0, instances = 0, bytes = 0;
  for (std::uint32_t d : w.session_design) {
    cells += w.designs[d].cells;
    instances += w.designs[d].instances;
    bytes += w.designs[d].text.size();
  }
  std::ostringstream out;
  out << "{\"workload\":\"" << w.name << "\",\"seed\":" << o.seed
      << ",\"build_type\":\"" << STEMBENCH_BUILD_TYPE << "\",\"mode\":\""
      << (o.trace ? "traced" : "untraced") << "\",\"requests\":"
      << w.stream.size() << ",\"sessions\":" << w.sessions.size()
      << ",\"cells\":" << cells << ",\"instances\":" << instances
      << ",\"library_bytes\":" << bytes << ",\"journal\":\""
      << (w.journal_spec.empty() ? "none" : w.journal_spec) << "\",\"mix\":\""
      << w.mix << "\",\"shards\":" << kShards << ",\"workers_per_shard\":"
      << kWorkersPerShard << ",\"in_flight\":" << kInFlight
      << ",\"oracle_sessions\":" << w.oracle_sessions << "}";
  return out.str();
}

bool dump_stream(const Workload& w, const std::string& path, std::string* error) {
  auto writer = stemcp::workload::TraceWriter::open(path, error);
  if (writer == nullptr) return false;
  auto append = [&](const Request& r) {
    std::string line;
    return stemcp::workload::render_request(r, &line, error) &&
           writer->append(0, line, error);
  };
  for (std::size_t s = 0; s < w.sessions.size(); ++s) {
    if (!append(make(RequestType::kOpen, w.sessions[s])) ||
        !append(make(RequestType::kLoad, w.sessions[s],
                     w.designs[w.session_design[s]].text))) {
      return false;
    }
  }
  for (const Entry& e : w.stream) {
    if (!append(e.request)) return false;
  }
  return writer->finish(error);
}

}  // namespace

std::string compare_responses(const Response& live, const Response& oracle) {
  if (live.ok != oracle.ok) return "ok differs";
  if (live.error != oracle.error) return "error differs: '" + live.error + "'";
  if (live.violation != oracle.violation) return "violation differs";
  if (live.violation_message != oracle.violation_message) {
    return "violation message differs";
  }
  if (live.assignments_applied != oracle.assignments_applied) {
    return "assignments applied differ";
  }
  if (live.variables_restored != oracle.variables_restored) {
    return "variables restored differ";
  }
  if (live.text != oracle.text) return "response text differs";
  return "";
}

std::string check_recovery(const Response& recover,
                           const std::string& recovered_image,
                           const std::string& live_image,
                           std::uint64_t journaled) {
  if (!recover.ok) return "recover failed: " + recover.error;
  // "recovered <s> from <base>: checkpoint seq <n>, replayed <r> record(s),
  //  <m> outcome mismatch(es)"
  const std::string& t = recover.text;
  const std::size_t at = t.find("replayed ");
  const std::size_t mm = t.find(" outcome mismatch");
  unsigned long long replayed = 0, mismatches = 0;
  if (at == std::string::npos || mm == std::string::npos ||
      std::sscanf(t.c_str() + at, "replayed %llu", &replayed) != 1 ||
      std::sscanf(t.c_str() + t.rfind(", ", mm) + 2, "%llu", &mismatches) != 1) {
    return "unreadable recover reply: " + t;
  }
  if (replayed != journaled) {
    return "recovery replayed " + std::to_string(replayed) + " record(s), " +
           std::to_string(journaled) + " were journaled";
  }
  if (mismatches != 0) {
    return std::to_string(mismatches) + " replayed outcome(s) differ from the journal";
  }
  if (recovered_image != live_image) return "recovered image differs from the live image";
  return "";
}

std::string result_json(const Result& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : r.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

Result run(const Options& o) {
  Result res;
  // Progress on standard error: where a run spends its wall time.
  const std::uint64_t run_t0 = now_ns();
  auto progress = [&](const char* step) {
    std::fprintf(stderr, "stembench: %s at %.1f s\n", step,
                 static_cast<double>(now_ns() - run_t0) / 1e9);
  };
  const Workload w =
      make_workload(o.workload, o.seed, request_count(o.workload, o.seconds));
  res.meta = meta_json(o, w);
  res.attempted = w.stream.size();
  std::vector<std::string>& errors = res.errors;
  const std::string root = o.out_dir + "/" + w.name + "-journals";
  if (!o.dump_stream.empty()) {
    std::string err;
    if (!dump_stream(w, o.dump_stream, &err)) errors.push_back("stream dump: " + err);
  }

  reset_dir(root);
  auto svc = std::make_unique<DesignService>(service_config(root));
  set_up(*svc, w, errors);
  if (!errors.empty()) return res;

  const auto telemetry_before = svc->telemetry().fold();
  progress("set up");
  const Phase ph = drive(*svc, w);
  progress("timed phase done");
  const auto telemetry_after = svc->telemetry().fold();
  const double rss_mb = peak_rss_mb();
  std::uint64_t ok = 0;
  for (const Sample& s : ph.samples) ok += s.ok ? 1 : 0;
  res.failed = res.attempted - ok;
  if (ph.unanswered > 0) {
    // A wedged shard: its requests may never finish, so neither may the
    // service's destructor.  Report and leave without the gate.
    errors.push_back(std::to_string(ph.unanswered) +
                     " request(s) unanswered at their deadline");
    (void)svc.release();
    return res;
  }

  std::map<std::string, Metric>& m = res.metrics;
  const std::vector<std::string> live_images = save_images(*svc, w, errors);
  check_oracle(w, ph, live_images, errors);
  progress("oracle done");
  const std::vector<std::uint64_t> journaled = journaled_records(*svc, w, ph, errors);
  SpanLog log;
  // A traced run's timed phase is the untraced one: the closed loop stamps
  // every request either way.  What tracing adds is the work after it, from
  // here to the trace file, so its overhead is that time.
  const std::uint64_t trace_t0 = now_ns();
  if (o.trace) {
    const JournalTotals jt = journal_totals(*svc, w);
    put(m, "persist.records_per_fsync",
        jt.fsyncs ? static_cast<double>(jt.records) / static_cast<double>(jt.fsyncs) : 0.0,
        "count");
    put(m, "persist.bytes_per_record",
        jt.records ? static_cast<double>(jt.bytes) / static_cast<double>(jt.records) : 0.0,
        "B");
    const std::pair<const char*, const char*> phases[] = {
        {"service.queue_us", "svc.lat.queue_ns"},
        {"service.lock_us", "svc.lat.lock_ns"},
        {"service.work_us", "svc.lat.propagate_ns"},
        {"service.journal_us", "svc.lat.journal_ns"},
        {"service.fsync_us", "svc.lat.fsync_ns"},
        {"service.flush_wait_us", "svc.lat.flush_wait_ns"},
    };
    for (const auto& [metric, hist] : phases) {
      put(m, metric, phase_mean_us(telemetry_before, telemetry_after, hist), "us");
    }
    per_type_metrics(w, ph, m);
    std::uint64_t writes = 0, violations = 0;
    for (std::size_t i = 0; i < ph.samples.size(); ++i) {
      if (!is_write(w.stream[i].request.type)) continue;
      ++writes;
      violations += ph.samples[i].violation ? 1 : 0;
    }
    put(m, "core.violation_frac",
        writes ? static_cast<double>(violations) / static_cast<double>(writes) : 0.0,
        "frac");
    for (std::size_t i = 0; i < ph.samples.size(); ++i) {
      const Sample& s = ph.samples[i];
      log.add(Span{std::string("request.") + to_string(w.stream[i].request.type),
                   s.start_ns, s.end_ns, static_cast<std::int64_t>(i), -1,
                   1u + s.slot, w.stream[i].request.session});
    }
    measure_layers(w, *svc, o.out_dir, log, m, errors);
  }

  attach_checkpoints(*svc, w, errors);
  svc.reset();
  progress("checkpointed");
  if (o.trace) {
    // Each session is recovered alone, after a scan of its base, so
    // replay_ms is one recover request minus one scan, averaged.
    DesignService fresh(service_config(root));
    recover_all(fresh, w, live_images, journaled, errors, &log);
    const double scan_ms = log.mean_us("persist.scan") / 1e3;
    put(m, "persist.scan_ms", scan_ms, "ms");
    put(m, "persist.replay_ms", log.mean_us("service.recover") / 1e3 - scan_ms, "ms");
    std::string err;
    const std::string path = o.out_dir + "/" + w.name + "-seed" +
                             std::to_string(o.seed) + ".trace.json";
    if (!log.write_chrome(path, &err)) errors.push_back("trace file: " + err);
    put(m, "bench.trace_overhead_frac",
        static_cast<double>(now_ns() - trace_t0) / 1e9 / ph.chunk_wall.back(), "frac");
  } else {
    // Hand the freed serving heap back to the kernel, so each child faults
    // in fresh pages as a new process would rather than copying the
    // parent's.
    malloc_trim(0);
    const std::string setup_root = root + "-setup";
    std::vector<double> recoveries, setups;
    for (int k = 0; k < kRepeats; ++k) {
      recoveries.push_back(in_child(
          [&](std::vector<std::string>& errs) {
            return recover_all(*new DesignService(service_config(root)), w,
                               live_images, journaled, errs, nullptr);
          },
          errors));
      reset_dir(setup_root);
      setups.push_back(in_child(
          [&](std::vector<std::string>& errs) {
            return set_up(*new DesignService(service_config(setup_root)), w, errs);
          },
          errors));
    }
    std::filesystem::remove_all(setup_root);
    progress("repeats done");
    std::fprintf(stderr, "setup_s runs:");
    for (double v : setups) std::fprintf(stderr, " %.4f", v);
    std::fprintf(stderr, "\nrecover_s runs:");
    for (double v : recoveries) std::fprintf(stderr, " %.4f", v);
    std::fprintf(stderr, "\nchunk 1/s:");
    for (std::size_t c = 0; c < kChunks; ++c) {
      std::fprintf(stderr, " %.1f", static_cast<double>(ph.chunk_begin(c + 1) - ph.chunk_begin(c)) /
                                        (ph.chunk_wall[c + 1] - ph.chunk_wall[c]));
    }
    std::fprintf(stderr, "\n");
    phase_metrics(w, ph, m);
    put(m, "setup_s", median(setups), "s");
    put(m, "recover_s", median(recoveries), "s");
    put(m, "ok_frac", static_cast<double>(ok) / static_cast<double>(res.attempted),
        "frac");
    put(m, "peak_rss_mb", rss_mb, "MB");
  }
  std::filesystem::remove_all(root);
  res.correct = errors.empty();
  return res;
}

}  // namespace stembench

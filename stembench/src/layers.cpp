#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>

#include "fd/selection.h"
#include "fd/solver.h"
#include "persist/journal.h"
#include "service/session.h"
#include "stem/cell.h"
#include "stem/io.h"
#include "stem/library.h"

namespace stembench {

namespace {

using stemcp::service::Request;
using stemcp::service::RequestType;

/// Stream entries whose variable paths service.resolve times.
constexpr std::size_t kResolveEntries = 300;
/// Entries of session 0 re-executed on the benchmark's own library.
constexpr std::size_t kLayerEntries = 400;
/// Write entries appended to the benchmark's own journal.
constexpr std::size_t kAppendRecords = 300;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Time `fn` as one span.
template <typename F>
auto timed(SpanLog& log, const char* name, std::int64_t parent,
           const std::string& session, F&& fn) {
  Span s{name, now_ns(), 0, -1, parent, 0, session};
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    s.end_ns = now_ns();
    log.add(std::move(s));
  } else {
    auto r = fn();
    s.end_ns = now_ns();
    log.add(std::move(s));
    return r;
  }
}

/// Variable paths an entry addresses: its assignments' targets, or the
/// variable a query names.
std::vector<std::string> addressed_paths(const Request& r) {
  std::vector<std::string> paths;
  for (const auto& a : r.assignments) paths.push_back(a.variable);
  if (r.type == RequestType::kQuery && r.text.find('(') != std::string::npos) {
    paths.push_back(r.text);
  }
  return paths;
}

void measure_resolve(const Workload& w, stemcp::service::DesignService& live,
                     SpanLog& log, std::vector<std::string>& errors) {
  const std::size_t n = std::min(kResolveEntries, w.stream.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = w.stream[i].request;
    auto session = live.sessions().find(r.session);
    if (session == nullptr) {
      errors.push_back("resolve: session " + r.session + " is gone");
      return;
    }
    for (const std::string& path : addressed_paths(r)) {
      std::lock_guard<std::mutex> lock(session->mutex());
      const auto* v =
          timed(log, "service.resolve", static_cast<std::int64_t>(i), r.session,
                [&] { return session->find_variable(path); });
      if (v == nullptr) errors.push_back("resolve: unknown variable " + path);
    }
  }
}

struct CoreTotals {
  std::uint64_t waves = 0;
  std::uint64_t activations = 0;
  std::uint64_t runs = 0;
  std::uint64_t checks = 0;
  std::uint64_t restores = 0;
  std::uint64_t high_water = 0;
};

struct FdTotals {
  std::uint64_t selects = 0;
  std::uint64_t candidates = 0;
  std::uint64_t nodes = 0;
  std::uint64_t filter_runs = 0;
};

/// Apply one entry of session 0 to the benchmark's own copy of its design,
/// timing the layer call it exercises.
void reexecute(stemcp::service::DesignSession& ds, const Request& r,
               std::int64_t parent, SpanLog& log, CoreTotals& core,
               FdTotals& fd, std::vector<std::string>& errors) {
  using stemcp::core::Status;
  auto& lib = ds.library();
  const std::string& sess = r.session;
  std::istringstream in(r.text);
  if (r.type == RequestType::kAssign || r.type == RequestType::kBatchAssign) {
    std::vector<std::pair<stemcp::core::Variable*, double>> targets;
    for (const auto& a : r.assignments) {
      auto* v = ds.find_variable(a.variable);
      if (v == nullptr) {
        errors.push_back("layers: unknown variable " + a.variable);
        return;
      }
      targets.emplace_back(v, a.value);
    }
    auto& ctx = lib.context();
    const auto before = ctx.stats();
    timed(log, "core.wave", parent, sess, [&] {
      return ctx.run_session([&]() -> Status {
        for (auto& [var, value] : targets) {
          const Status st = var->set_in_session(
              stemcp::core::Value(value), stemcp::core::Justification::user());
          if (st.is_violation()) return st;
        }
        return Status::ok();
      });
    });
    const auto& after = ctx.stats();
    ++core.waves;
    core.activations += after.activations - before.activations;
    core.runs += after.scheduled_runs - before.scheduled_runs;
    core.checks += after.checks - before.checks;
    core.restores += after.restores - before.restores;
    core.high_water = std::max(core.high_water, after.agenda_high_water);
  } else if (r.type == RequestType::kEdit) {
    std::string op, cell, from, to;
    double seconds = 0.0;
    in >> op >> cell >> from >> to >> seconds;
    auto* c = lib.find(cell);
    if (op != "leaf-delay" || c == nullptr) {
      errors.push_back("layers: cannot re-execute edit '" + r.text + "'");
      return;
    }
    timed(log, "stem.leaf_delay", parent, sess,
          [&] { return c->set_leaf_delay(from, to, seconds); });
  } else if (r.type == RequestType::kSelect ||
             r.type == RequestType::kSelectStats) {
    std::string cell, word;
    std::size_t limit = 0;
    in >> cell;
    while (in >> word) {
      if (word == "limit") in >> limit;
    }
    auto* parent_cell = lib.find(cell);
    if (parent_cell == nullptr) {
      errors.push_back("layers: unknown cell " + cell);
      return;
    }
    stemcp::fd::SelectionSpace space(lib);
    for (const auto& sub : parent_cell->subcells()) {
      if (sub->cls().is_generic()) space.add_slot(sub->cls(), *sub);
    }
    timed(log, "fd.establish", parent, sess, [&] { return space.establish(); });
    timed(log, "fd.solve", parent, sess, [&] { return space.solve(limit); });
    ++fd.selects;
    fd.candidates += space.stats().candidates_explored;
    fd.nodes += space.stats().nodes;
    fd.filter_runs += space.problem().stats().filter_runs;
  }
}

void measure_append(const Workload& w, const std::string& dir, SpanLog& log,
                    std::vector<std::string>& errors) {
  namespace persist = stemcp::persist;
  persist::Journal::Options opts;
  opts.fsync = w.journal_spec.empty() ? persist::FsyncPolicy::kNone
                                      : persist::FsyncPolicy::kGroupCommit;
  opts.truncate = true;
  const std::string path = dir + "/" + w.name + "-layer.journal";
  std::string err;
  auto journal = persist::Journal::open(path, opts, &err);
  if (journal == nullptr) {
    errors.push_back("layers: journal: " + err);
    return;
  }
  std::size_t appended = 0;
  for (std::size_t i = 0; i < w.stream.size() && appended < kAppendRecords; ++i) {
    const Request& r = w.stream[i].request;
    if (!is_write(r.type)) continue;
    persist::JournalRecord rec;
    rec.op = to_string(r.type);
    rec.session = r.session;
    rec.text = r.type == RequestType::kEdit ? r.text : std::string();
    for (const auto& a : r.assignments) rec.assignments.emplace_back(a.variable, a.value);
    const bool durable = timed(log, "persist.append", static_cast<std::int64_t>(i),
                               r.session, [&] {
                                 auto ticket = journal->append_async(rec);
                                 return ticket.wait();
                               });
    if (!durable) errors.push_back("layers: journal append failed");
    ++appended;
  }
  journal.reset();
  std::filesystem::remove(path);
}

void put(std::map<std::string, Metric>& m, const std::string& name, double v,
         const char* unit) {
  m[name] = Metric{v, unit};
}

double per(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SpanLog::mean_us(const std::string& name) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    sum += s.us();
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

bool SpanLog::write_chrome(const std::string& path, std::string* error) const {
  std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::ofstream out(path);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) / 1e3, s.us());
    out << (k ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ',' << buf
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"session\":\"" << json_escape(s.session) << "\"}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) {
    *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

void measure_layers(const Workload& w, stemcp::service::DesignService& live,
                    const std::string& out_dir, SpanLog& log,
                    std::map<std::string, Metric>& m,
                    std::vector<std::string>& errors) {
  measure_resolve(w, live, log, errors);

  CoreTotals core;
  FdTotals fd;
  for (std::size_t s = 0; s < w.sessions.size(); ++s) {
    const Design& design = w.designs[w.session_design[s]];
    const std::string& name = w.sessions[s];
    stemcp::service::DesignSession ds(name);
    timed(log, "stem.load", -1, name, [&] {
      stemcp::env::LibraryReader::read_string(ds.library(), design.text);
    });
    if (s == 0) {
      std::size_t done = 0;
      for (std::size_t i = 0; i < w.stream.size() && done < kLayerEntries; ++i) {
        if (w.stream[i].session != 0) continue;
        reexecute(ds, w.stream[i].request, static_cast<std::int64_t>(i), log,
                  core, fd, errors);
        ++done;
      }
    }
    const std::string image = timed(log, "stem.save", -1, name, [&] {
      return stemcp::env::LibraryWriter::to_string(ds.library());
    });
    if (image.empty()) errors.push_back("layers: empty save image of " + name);
    if (s == 0) {
      auto* top = ds.library().find(design.top);
      if (top == nullptr) {
        errors.push_back("layers: no top cell " + design.top);
      } else {
        top->invalidate_delay_networks();
        timed(log, "stem.build_delays", -1, name,
              [&] { top->build_delay_networks(); });
      }
    }
  }

  measure_append(w, out_dir, log, errors);

  put(m, "service.resolve_us", log.mean_us("service.resolve"), "us");
  put(m, "core.wave_us", log.mean_us("core.wave"), "us");
  put(m, "core.activations_per_write", per(core.activations, core.waves), "count");
  put(m, "core.runs_per_write", per(core.runs, core.waves), "count");
  put(m, "core.checks_per_write", per(core.checks, core.waves), "count");
  put(m, "core.restores_per_write", per(core.restores, core.waves), "count");
  put(m, "core.agenda_high_water", static_cast<double>(core.high_water), "count");
  put(m, "stem.load_ms", log.mean_us("stem.load") / 1e3, "ms");
  put(m, "stem.build_delays_ms", log.mean_us("stem.build_delays") / 1e3, "ms");
  put(m, "stem.save_ms", log.mean_us("stem.save") / 1e3, "ms");
  put(m, "persist.append_us", log.mean_us("persist.append"), "us");
  put(m, "fd.establish_us", log.mean_us("fd.establish"), "us");
  put(m, "fd.solve_us", log.mean_us("fd.solve"), "us");
  put(m, "fd.candidates_per_select", per(fd.candidates, fd.selects), "count");
  put(m, "fd.nodes_per_select", per(fd.nodes, fd.selects), "count");
  put(m, "fd.filter_runs_per_select", per(fd.filter_runs, fd.selects), "count");
}

}  // namespace stembench

// The benchmark's own tests: generator determinism, library sizes, stream
// renderability, metric names, and the recovery gate.
#include <gtest/gtest.h>

#include <filesystem>
#include <regex>

#include "gen.h"
#include "run.h"
#include "service/protocol.h"
#include "stem/cell.h"
#include "stem/io.h"
#include "stem/library.h"

namespace {

using stemcp::service::DesignService;
using stemcp::service::Request;
using stemcp::service::RequestType;
using stemcp::service::Response;
using stemcp::service::ServiceFrontEnd;
using stemcp::service::ShardedSessionManager;

std::string rendered(const stembench::Workload& w) {
  std::string out;
  for (const auto& d : w.designs) out += d.text;
  for (const auto& e : w.stream) {
    EXPECT_TRUE(ServiceFrontEnd::render(e.request, &out));
    out += '\n';
  }
  return out;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "stembench_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(StembenchGen, SameSeedGivesSameBytesAndOtherSeedsDiffer) {
  for (const std::string& name : stembench::workload_names()) {
    const std::string a = rendered(stembench::make_workload(name, 7, 400));
    const std::string b = rendered(stembench::make_workload(name, 7, 400));
    const std::string c = rendered(stembench::make_workload(name, 8, 400));
    EXPECT_EQ(a, b) << name;
    EXPECT_NE(a, c) << name;
  }
}

TEST(StembenchGen, LibrariesLoadWithTheirCellAndInstanceCounts) {
  for (const std::string& name : stembench::workload_names()) {
    const stembench::Workload w = stembench::make_workload(name, 3, 10);
    for (const stembench::Design& d : w.designs) {
      stemcp::env::Library lib;
      stemcp::env::LibraryReader::read_string(lib, d.text);
      std::size_t instances = 0;
      for (const auto& c : lib.cells()) instances += c->subcells().size();
      EXPECT_EQ(lib.cells().size(), d.cells) << name;
      EXPECT_EQ(instances, d.instances) << name;
      EXPECT_NE(lib.find(d.top), nullptr) << name;
      EXPECT_EQ(lib.context().stats().violations, 0u) << name;
    }
  }
}

TEST(StembenchGen, SessionsAlternateShards) {
  for (const std::string& name : stembench::workload_names()) {
    const stembench::Workload w = stembench::make_workload(name, 1, 1);
    for (std::size_t s = 0; s < w.sessions.size(); ++s) {
      EXPECT_EQ(ShardedSessionManager::hash_of(w.sessions[s]) % stembench::kShards,
                s % stembench::kShards)
          << w.sessions[s];
    }
  }
}

TEST(StembenchGen, EveryRequestRoundTripsThroughTheProtocol) {
  for (const std::string& name : stembench::workload_names()) {
    const stembench::Workload w = stembench::make_workload(name, 5, 2000);
    for (const auto& e : w.stream) {
      std::string line, error;
      ASSERT_TRUE(ServiceFrontEnd::render(e.request, &line, &error)) << error;
      Request back;
      ASSERT_TRUE(ServiceFrontEnd::parse(line, &back, &error)) << line << ": " << error;
      EXPECT_EQ(back.type, e.request.type) << line;
      EXPECT_EQ(back.session, e.request.session) << line;
      EXPECT_EQ(back.text, e.request.text) << line;
      ASSERT_EQ(back.assignments.size(), e.request.assignments.size()) << line;
      for (std::size_t k = 0; k < back.assignments.size(); ++k) {
        EXPECT_EQ(back.assignments[k].variable, e.request.assignments[k].variable);
        EXPECT_EQ(back.assignments[k].value, e.request.assignments[k].value);
      }
    }
  }
}

// Runs the whole benchmark on its smallest workload in both modes: the gate
// passes and every metric name is well formed.
TEST(StembenchRun, RunsPassTheGateAndNameMetricsWell) {
  const std::regex well_formed("[A-Za-z0-9_.-]+");
  for (const bool trace : {false, true}) {
    stembench::Options o;
    o.workload = "read_select";
    o.seed = 2;
    o.seconds = 1;
    o.trace = trace;
    o.out_dir = fresh_dir(trace ? "traced" : "untraced");
    const stembench::Result r = stembench::run(o);
    for (const std::string& e : r.errors) ADD_FAILURE() << e;
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GE(r.metrics.size(), trace ? 40u : 8u);
    for (const auto& [name, m] : r.metrics) {
      EXPECT_TRUE(std::regex_match(name, well_formed)) << name;
      EXPECT_TRUE(std::regex_match(m.unit, std::regex("[A-Za-z0-9_/%.-]+"))) << m.unit;
    }
  }
}

Request req(RequestType t, const std::string& session, std::string text = {}) {
  Request r;
  r.type = t;
  r.session = session;
  r.text = std::move(text);
  return r;
}

/// A session name on `shard`.
std::string name_on(std::size_t shard, const std::string& prefix) {
  for (int k = 0;; ++k) {
    const std::string n = prefix + std::to_string(k);
    if (ShardedSessionManager::hash_of(n) % 2 == shard) return n;
  }
}

// Recovering under a session name that hashes to the other shard resolves
// the base to a directory with no checkpoint and no journal; the service
// reports that as a successful cold start.  The gate must not.
TEST(StembenchGate, CatchesTheColdStartRecoveryTrap) {
  const std::string root = fresh_dir("coldstart");
  const std::string name = name_on(0, "s");
  const std::string stranger = name_on(1, "t");
  const stembench::Workload w = stembench::make_workload("durable_edits", 4, 2000);
  std::string live_image;
  std::uint64_t journaled = 0;
  {
    DesignService svc(DesignService::Config{1, 2, root});
    ASSERT_TRUE(svc.call(req(RequestType::kOpen, name)).ok);
    ASSERT_TRUE(svc.call(req(RequestType::kLoad, name, w.designs[0].text)).ok);
    ASSERT_TRUE(svc.call(req(RequestType::kJournal, name, "j group-commit")).ok);
    for (const auto& e : w.stream) {
      if (e.session != 0) continue;
      Request r = e.request;
      r.session = name;
      if (svc.call(r).ok && stembench::is_write(r.type)) ++journaled;
    }
    live_image = svc.call(req(RequestType::kSave, name)).text;
  }
  ASSERT_GT(journaled, 0u);

  DesignService fresh(DesignService::Config{1, 2, root});
  const Response cold = fresh.call(req(RequestType::kRecover, stranger, "j"));
  ASSERT_TRUE(cold.ok) << cold.error;  // the service calls this a success
  const std::string cold_image = fresh.call(req(RequestType::kSave, stranger)).text;
  EXPECT_NE(stembench::check_recovery(cold, cold_image, live_image, journaled), "");

  const Response warm = fresh.call(req(RequestType::kRecover, name, "j"));
  const std::string warm_image = fresh.call(req(RequestType::kSave, name)).text;
  EXPECT_EQ(stembench::check_recovery(warm, warm_image, live_image, journaled), "");
  EXPECT_NE(stembench::check_recovery(warm, warm_image, live_image, journaled + 1), "");
}

TEST(StembenchGate, ComparesEveryResponseField) {
  Response a;
  a.ok = true;
  a.text = "x";
  Response b = a;
  EXPECT_EQ(stembench::compare_responses(a, b), "");
  b.variables_restored = 1;
  EXPECT_NE(stembench::compare_responses(a, b), "");
  b = a;
  b.text = "y";
  EXPECT_NE(stembench::compare_responses(a, b), "");
}

}  // namespace

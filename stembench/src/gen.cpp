#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace stembench {

namespace {

using stemcp::service::Request;
using stemcp::service::RequestType;
using stemcp::service::ShardedSessionManager;

/// xorshift64* seeded through splitmix64, so nearby seeds give unrelated
/// streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    s_ = (z ^ (z >> 31)) | 1;
  }
  std::uint64_t next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545F4914F6CDD1Dull;
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  std::size_t range(std::size_t lo, std::size_t hi) { return lo + below(hi - lo + 1); }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

/// Seconds rounded to whole femtoseconds, so values print compactly.
double fs(double seconds) { return std::round(seconds * 1e15) / 1e15; }

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Pick a uniformly random entry of weighted verbs.
template <std::size_t N>
std::size_t pick(Rng& rng, const int (&weights)[N]) {
  int total = 0;
  for (int w : weights) total += w;
  int roll = static_cast<int>(rng.below(static_cast<std::size_t>(total)));
  for (std::size_t i = 0; i < N; ++i) {
    if (roll < weights[i]) return i;
    roll -= weights[i];
  }
  return N - 1;
}

/// "verb weight verb weight ..." for the metadata line.
template <std::size_t N>
std::string mix_text(const char* const (&verbs)[N], const int (&weights)[N]) {
  std::string out;
  for (std::size_t i = 0; i < N; ++i) {
    out += (i ? " " : "") + std::string(verbs[i]) + " " + std::to_string(weights[i]);
  }
  return out;
}

/// `count` session names, dealt round-robin over the shards: session i lives
/// on shard i % kShards, so any prefix of the list spans every shard.
std::vector<std::string> session_names(const std::string& prefix,
                                       std::size_t count) {
  std::vector<std::vector<std::string>> by_shard(kShards);
  const std::size_t quota = (count + kShards - 1) / kShards;
  for (std::size_t k = 0;; ++k) {
    std::string name = prefix + std::to_string(k);
    auto& bucket = by_shard[ShardedSessionManager::hash_of(name) % kShards];
    if (bucket.size() < quota) bucket.push_back(std::move(name));
    bool full = true;
    for (const auto& b : by_shard) full = full && b.size() >= quota;
    if (full) break;
  }
  std::vector<std::string> out;
  for (std::size_t i = 0; out.size() < count; ++i) {
    out.push_back(by_shard[i % kShards][i / kShards]);
  }
  return out;
}

/// Requests per burst in burst_session().
constexpr std::uint64_t kBurst = 50;

/// Session of stream entry `i` when the stream comes in bursts: kBurst
/// requests on one pair of sessions (2p on shard 0, 2p + 1 on shard 1), as
/// a designer works on one design for a while, then a pair picked at random.
/// Both shards stay busy, and at any time only two sessions' data is hot, so
/// a request's cost follows the program rather than how much of the shared
/// cache the machine's other tenants leave to a working set of every
/// session.  `pair` carries the current pair between calls.
std::uint32_t burst_session(Rng& rng, std::uint64_t i, std::size_t sessions,
                            std::size_t& pair) {
  if (i % kBurst == 0) pair = rng.below(sessions / kShards);
  return static_cast<std::uint32_t>(kShards * pair + rng.below(kShards));
}

// ---------------------------------------------------------------------------
// Hierarchical delay designs (big_design, durable_edits)

/// A layered cell DAG: level 0 holds leaf cells with characteristic delays;
/// every cell of level k > 0 places subcells of level k-1 on two parallel
/// chains from `in` to `out`, so its class delay is the larger chain sum
/// (the UniMaximum-of-UniAddition network of thesis Fig 7.12).
struct Hierarchy {
  struct Cell {
    std::string name;
    int level = 0;
    std::vector<std::size_t> subcells;  ///< cell indices, u0, u1, ...
    std::size_t chain_split = 0;        ///< u0..u(split-1) | u(split)..
    double delay = 0.0;                 ///< nominal class delay
    double spec = 0.0;                  ///< 0 = no spec
  };
  std::vector<Cell> cells;
  std::vector<std::vector<std::size_t>> levels;
  std::size_t instances = 0;
};

Hierarchy make_hierarchy(Rng& rng, const std::vector<std::size_t>& level_sizes,
                         std::size_t fan_lo, std::size_t fan_hi,
                         double spec_share) {
  Hierarchy h;
  for (std::size_t level = 0; level < level_sizes.size(); ++level) {
    h.levels.emplace_back();
    std::vector<std::size_t> uncovered;
    if (level > 0) uncovered = h.levels[level - 1];
    for (std::size_t i = 0; i < level_sizes[level]; ++i) {
      Hierarchy::Cell c;
      c.level = static_cast<int>(level);
      const bool top = level + 1 == level_sizes.size() && level_sizes[level] == 1;
      c.name = top          ? std::string("TOP")
               : level == 0 ? "L" + std::to_string(i)
                            : "C" + std::to_string(level) + "_" + std::to_string(i);
      if (level == 0) {
        c.delay = fs(rng.uniform(0.5e-9, 2e-9));
      } else {
        // Cover every cell of the level below before picking at random, so
        // every cell is instantiated somewhere; the last cell of a level
        // takes all that are still uncovered.
        const std::size_t left = level_sizes[level] - i;
        std::size_t fanout = rng.range(fan_lo, fan_hi);
        if (left == 1) fanout = std::max(fanout, uncovered.size());
        const auto& below = h.levels[level - 1];
        for (std::size_t k = 0; k < fanout; ++k) {
          if (!uncovered.empty() && (k < fanout / 2 || left == 1)) {
            c.subcells.push_back(uncovered.back());
            uncovered.pop_back();
          } else {
            c.subcells.push_back(below[rng.below(below.size())]);
          }
        }
        c.chain_split = (c.subcells.size() + 1) / 2;
        double a = 0.0, b = 0.0;
        for (std::size_t k = 0; k < c.subcells.size(); ++k) {
          (k < c.chain_split ? a : b) += h.cells[c.subcells[k]].delay;
        }
        c.delay = std::max(a, b);
        if (rng.uniform(0.0, 1.0) < spec_share) {
          c.spec = fs(c.delay * rng.uniform(1.05, 1.3));
        }
        h.instances += c.subcells.size();
      }
      h.levels.back().push_back(h.cells.size());
      h.cells.push_back(std::move(c));
    }
  }
  return h;
}

std::string hierarchy_text(const Hierarchy& h) {
  std::string out;
  for (const Hierarchy::Cell& c : h.cells) {
    out += "cell " + c.name + "\n  signal in input\n  signal out output\n";
    if (c.level == 0) {
      out += "  delay in out value " + num(c.delay) + "\nend\n";
      continue;
    }
    out += "  delay in out\n";
    if (c.spec > 0.0) out += "    spec <= " + num(c.spec) + "\n";
    for (std::size_t k = 0; k < c.subcells.size(); ++k) {
      out += "  subcell u" + std::to_string(k) + " " +
             h.cells[c.subcells[k]].name + " R0 " + std::to_string(30 * k) +
             " 0\n";
    }
    const std::size_t n = c.subcells.size();
    const std::size_t split = c.chain_split;
    out += "  net n_in\n    io in\n    conn u0 in\n";
    if (split < n) out += "    conn u" + std::to_string(split) + " in\n";
    for (std::size_t k = 0; k + 1 < n; ++k) {
      if (k + 1 == split) continue;  // end of chain A
      out += "  net n" + std::to_string(k) + "\n    conn u" +
             std::to_string(k) + " out\n    conn u" + std::to_string(k + 1) +
             " in\n";
    }
    out += "  net n_out\n    conn u" + std::to_string(split - 1) + " out\n";
    if (split < n) out += "    conn u" + std::to_string(n - 1) + " out\n";
    out += "    io out\nend\n";
  }
  return out;
}

Design hierarchy_design(const Hierarchy& h) {
  Design d;
  d.text = hierarchy_text(h);
  d.top = h.cells.back().name;
  d.cells = h.cells.size();
  d.instances = h.instances;
  return d;
}

Request request(RequestType t, std::string text = {}) {
  Request r;
  r.type = t;
  r.text = std::move(text);
  return r;
}

/// The verbs hierarchy_request() picks from, by index.
constexpr const char* kHierarchyVerbs[] = {"assign", "batch-assign", "edit", "query"};

/// One request against a hierarchy: assign / batch-assign instance delays at
/// a random level, re-characterize a leaf (the edit re-propagates through
/// every instance of that leaf and up), or query a class delay.
Request hierarchy_request(Rng& rng, const Hierarchy& h, std::size_t verb) {
  auto instance_path = [&](std::size_t parent, std::size_t k) {
    return h.cells[parent].name + "/u" + std::to_string(k) + ".delay(in->out)";
  };
  auto random_parent = [&]() {
    const auto& lv = h.levels[rng.range(1, h.levels.size() - 1)];
    return lv[rng.below(lv.size())];
  };
  switch (verb) {
    case 0: {  // assign
      const std::size_t p = random_parent();
      const std::size_t k = rng.below(h.cells[p].subcells.size());
      Request r = request(RequestType::kAssign);
      r.assignments.push_back(
          {instance_path(p, k),
           fs(h.cells[h.cells[p].subcells[k]].delay * rng.uniform(0.8, 1.25))});
      return r;
    }
    case 1: {  // batch-assign: several instances of one parent, one wave
      const std::size_t p = random_parent();
      const std::size_t n = h.cells[p].subcells.size();
      const std::size_t first = rng.below(n);
      const std::size_t count = std::min<std::size_t>(n, 3);
      Request r = request(RequestType::kBatchAssign);
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t k = (first + j) % n;
        r.assignments.push_back(
            {instance_path(p, k),
             fs(h.cells[h.cells[p].subcells[k]].delay * rng.uniform(0.8, 1.25))});
      }
      return r;
    }
    case 2: {  // edit
      const auto& leaves = h.levels[0];
      const Hierarchy::Cell& leaf = h.cells[leaves[rng.below(leaves.size())]];
      return request(RequestType::kEdit,
                     "leaf-delay " + leaf.name + " in out " +
                         num(fs(leaf.delay * rng.uniform(0.8, 1.25))));
    }
    default: {  // query
      const Hierarchy::Cell& c = h.cells[rng.below(h.cells.size())];
      return request(RequestType::kQuery, c.name + ".delay(in->out)");
    }
  }
}

// ---------------------------------------------------------------------------
// Selection library (read_select)

struct SelectionLib {
  Design design;
  std::vector<std::string> parents;  ///< cells with generic slots
  struct Chain {
    std::string name;
    std::vector<double> stage_delays;
  };
  std::vector<Chain> chains;  ///< plain cells the assigns and queries address
};

SelectionLib make_selection_lib(Rng& rng) {
  constexpr std::size_t kGenerics = 10;
  constexpr std::size_t kParents = 36;
  constexpr std::size_t kLeaves = 8;
  constexpr std::size_t kChains = 12;
  SelectionLib lib;
  std::string& out = lib.design.text;
  // Realization r of a generic is slower and smaller the lower r is (so the
  // §8 cost order, smallest area first, tries the slow ones first), and
  // every delay and budget is a fixed multiple of one random unit delay.
  // The search a selection does is therefore the same for every seed (a
  // budget factor off the grid of realization delays keeps ties out); only
  // the delay values differ.
  const double unit = rng.uniform(1e-9, 2e-9);
  std::vector<double> base(kGenerics);
  for (std::size_t g = 0; g < kGenerics; ++g) {
    const std::string gen = "G" + std::to_string(g);
    out += "cell " + gen +
           " generic\n  signal a input\n  signal out output\n  delay a out\nend\n";
    ++lib.design.cells;
    base[g] = unit * (1.0 + 0.1 * static_cast<double>(g % 4));
    for (std::size_t r = 0; r < 6 + g % 3; ++r) {
      out += "cell " + gen + ".R" + std::to_string(r) + " super " + gen +
             "\n  bbox 0 0 " + std::to_string(6 + 2 * r) + " " +
             std::to_string(10 + 3 * r) +
             "\n  signal a input\n  signal out output\n  delay a out value " +
             num(fs(base[g] * (1.6 - 0.1 * static_cast<double>(r)))) + "\nend\n";
      ++lib.design.cells;
    }
  }
  for (std::size_t p = 0; p < kParents; ++p) {
    const std::string name = "SEL" + std::to_string(p);
    const std::size_t slots = 4 + p % 3;
    std::vector<std::size_t> gens;
    double budget = 0.0;
    for (std::size_t k = 0; k < slots; ++k) {
      gens.push_back((3 * p + k) % kGenerics);
      budget += 1.447 * base[gens.back()];
    }
    out += "cell " + name + "\n  signal a input\n  signal out output\n" +
           "  delay a out\n    spec <= " + num(fs(budget)) +
           "\n";
    for (std::size_t k = 0; k < slots; ++k) {
      out += "  subcell s" + std::to_string(k) + " G" + std::to_string(gens[k]) +
             " R0 " + std::to_string(40 * k) + " 0\n";
    }
    out += "  net n_in\n    io a\n    conn s0 a\n";
    for (std::size_t k = 0; k + 1 < slots; ++k) {
      out += "  net n" + std::to_string(k) + "\n    conn s" + std::to_string(k) +
             " out\n    conn s" + std::to_string(k + 1) + " a\n";
    }
    out += "  net n_out\n    conn s" + std::to_string(slots - 1) +
           " out\n    io out\nend\n";
    ++lib.design.cells;
    lib.design.instances += slots;
    lib.parents.push_back(name);
  }
  std::vector<double> leaf_delay(kLeaves);
  for (std::size_t i = 0; i < kLeaves; ++i) {
    leaf_delay[i] = fs(rng.uniform(0.5e-9, 2e-9));
    out += "cell PL" + std::to_string(i) +
           "\n  signal in input\n  signal out output\n  delay in out value " +
           num(leaf_delay[i]) + "\nend\n";
    ++lib.design.cells;
  }
  for (std::size_t c = 0; c < kChains; ++c) {
    SelectionLib::Chain chain;
    chain.name = "PC" + std::to_string(c);
    const std::size_t n = rng.range(3, 4);
    std::vector<std::size_t> stages;
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      stages.push_back(rng.below(kLeaves));
      chain.stage_delays.push_back(leaf_delay[stages.back()]);
      total += leaf_delay[stages.back()];
    }
    out += "cell " + chain.name +
           "\n  signal in input\n  signal out output\n  delay in out\n" +
           "    spec <= " + num(fs(total * 1.2)) + "\n";
    for (std::size_t k = 0; k < n; ++k) {
      out += "  subcell u" + std::to_string(k) + " PL" +
             std::to_string(stages[k]) + " R0 " + std::to_string(30 * k) +
             " 0\n";
    }
    out += "  net n_in\n    io in\n    conn u0 in\n";
    for (std::size_t k = 0; k + 1 < n; ++k) {
      out += "  net n" + std::to_string(k) + "\n    conn u" + std::to_string(k) +
             " out\n    conn u" + std::to_string(k + 1) + " in\n";
    }
    out += "  net n_out\n    conn u" + std::to_string(n - 1) +
           " out\n    io out\nend\n";
    ++lib.design.cells;
    lib.design.instances += n;
    lib.chains.push_back(std::move(chain));
  }
  lib.design.top = lib.parents.back();
  return lib;
}

/// The verbs selection_request() picks from, by index.
constexpr const char* kSelectionVerbs[] = {"select-stats", "select", "query", "assign"};

Request selection_request(Rng& rng, const SelectionLib& lib, std::size_t verb) {
  const std::string& parent = lib.parents[rng.below(lib.parents.size())];
  switch (verb) {
    case 0:  // select-stats
      return request(RequestType::kSelectStats, parent + " limit 32");
    case 1:  // select without commit
      return request(RequestType::kSelect, parent + " limit 16");
    case 2: {  // query: a parent's or a chain's class delay
      if (rng.below(2) == 0) {
        return request(RequestType::kQuery, parent + ".delay(a->out)");
      }
      const auto& chain = lib.chains[rng.below(lib.chains.size())];
      return request(RequestType::kQuery, chain.name + ".delay(in->out)");
    }
    default: {  // assign a chain stage
      const auto& chain = lib.chains[rng.below(lib.chains.size())];
      const std::size_t k = rng.below(chain.stage_delays.size());
      Request r = request(RequestType::kAssign);
      r.assignments.push_back(
          {chain.name + "/u" + std::to_string(k) + ".delay(in->out)",
           fs(chain.stage_delays[k] * rng.uniform(0.8, 1.5))});
      return r;
    }
  }
}

// ---------------------------------------------------------------------------
// Workloads

/// Requests per nominal second of each workload's timed phase.
struct Shape {
  const char* name;
  std::uint64_t requests_per_second;
};
constexpr Shape kShapes[] = {
    {"big_design", 400},
    {"durable_edits", 2000},
    {"read_select", 2000},
};

Workload big_design(std::uint64_t seed, std::uint64_t requests) {
  Workload w;
  Rng rng(seed);
  const Hierarchy h = make_hierarchy(rng, {110, 130, 120, 100, 70, 29, 1}, 9, 13,
                                     0.1);
  w.designs.push_back(hierarchy_design(h));
  w.sessions = session_names("big", 16);
  w.session_design.assign(w.sessions.size(), 0);
  w.oracle_sessions = 1;
  const int weights[] = {60, 10, 10, 20};
  w.mix = mix_text(kHierarchyVerbs, weights);
  std::size_t pair = 0;
  for (std::uint64_t i = 0; i < requests; ++i) {
    Entry e;
    e.session = burst_session(rng, i, w.sessions.size(), pair);
    e.request = hierarchy_request(rng, h, pick(rng, weights));
    w.stream.push_back(std::move(e));
  }
  return w;
}

Workload durable_edits(std::uint64_t seed, std::uint64_t requests) {
  Workload w;
  Rng rng(seed);
  constexpr std::size_t kSessions = 192;
  std::vector<Hierarchy> hs;
  for (std::size_t s = 0; s < kSessions; ++s) {
    hs.push_back(make_hierarchy(rng, {12, 16, 10, 4, 1}, 3, 5, 0.15));
    w.designs.push_back(hierarchy_design(hs.back()));
    w.session_design.push_back(static_cast<std::uint32_t>(s));
  }
  w.sessions = session_names("dur", kSessions);
  w.journal_spec = "group-commit batch 64 delay-us 200";
  w.oracle_sessions = kSessions;
  const int weights[] = {55, 15, 20, 10};
  w.mix = mix_text(kHierarchyVerbs, weights);
  for (std::uint64_t i = 0; i < requests; ++i) {
    Entry e;
    e.session = static_cast<std::uint32_t>(rng.below(kSessions));
    e.request = hierarchy_request(rng, hs[e.session], pick(rng, weights));
    w.stream.push_back(std::move(e));
  }
  return w;
}

Workload read_select(std::uint64_t seed, std::uint64_t requests) {
  Workload w;
  Rng rng(seed);
  const SelectionLib lib = make_selection_lib(rng);
  w.designs.push_back(lib.design);
  constexpr std::size_t kSessions = 192;
  w.sessions = session_names("sel", kSessions);
  w.session_design.assign(kSessions, 0);
  w.oracle_sessions = 4;
  const int weights[] = {25, 25, 40, 10};
  w.mix = mix_text(kSelectionVerbs, weights);
  std::size_t pair = 0;
  for (std::uint64_t i = 0; i < requests; ++i) {
    Entry e;
    e.session = burst_session(rng, i, kSessions, pair);
    e.request = selection_request(rng, lib, pick(rng, weights));
    w.stream.push_back(std::move(e));
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Shape& s : kShapes) v.emplace_back(s.name);
    return v;
  }();
  return names;
}

bool is_workload(const std::string& name) {
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::uint64_t request_count(const std::string& workload, int seconds) {
  for (const Shape& s : kShapes) {
    if (workload == s.name) {
      return s.requests_per_second * static_cast<std::uint64_t>(std::max(seconds, 1));
    }
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

Workload make_workload(const std::string& workload, std::uint64_t seed,
                       std::uint64_t requests) {
  Workload w;
  if (workload == "big_design") {
    w = big_design(seed, requests);
  } else if (workload == "durable_edits") {
    w = durable_edits(seed, requests);
  } else if (workload == "read_select") {
    w = read_select(seed, requests);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  w.name = workload;
  w.seed = seed;
  for (Entry& e : w.stream) e.request.session = w.sessions[e.session];
  return w;
}

bool is_write(RequestType t) {
  return t == RequestType::kAssign || t == RequestType::kBatchAssign ||
         t == RequestType::kEdit;
}

}  // namespace stembench

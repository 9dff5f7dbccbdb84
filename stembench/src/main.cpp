// stembench: run one stemcp benchmark workload.
//
//   stembench --workload <big_design|durable_edits|read_select> --seed <n>
//             --seconds <n> --trace <0|1> [--out-dir <dir>]
//             [--dump-stream <trace-file>]
//
// Prints a metadata line, then the result as one JSON object on the last
// line of standard output.  Exits 1 when the correctness gate fails and 2
// on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "run.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "stembench: %s\nusage: stembench --workload <name> --seed <n> "
               "--seconds <n> --trace <0|1> [--out-dir <dir>] "
               "[--dump-stream <file>]\n",
               why);
  return 2;
}

bool parse_uint(const char* s, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  stembench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, &n)) return usage("--seed needs a whole number");
      o.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, &n) || n < 1 || n > 600) {
        return usage("--seconds needs a whole number from 1 to 600");
      }
      o.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        return usage("--trace needs 0 or 1");
      }
      o.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--dump-stream") {
      o.dump_stream = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!stembench::is_workload(o.workload)) return usage("unknown or missing --workload");

  stembench::Result r;
  try {
    std::filesystem::create_directories(o.out_dir);
    r = stembench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stembench: %s\n", e.what());
    return 1;
  }
  for (const std::string& e : r.errors) std::fprintf(stderr, "GATE: %s\n", e.c_str());
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("meta %s\n%s\n", r.meta.c_str(), stembench::result_json(r).c_str());
  std::fflush(stdout);
  // Unanswered requests mean a wedged shard; the service's destructor would
  // wait for them forever, and nothing of it is left to clean up.
  if (!r.correct) std::_Exit(1);
  return 0;
}

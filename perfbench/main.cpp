// pushbench: runs one workload and prints its report as one JSON
// line. perfbench/run.py builds this program, runs it and turns the line
// into the benchmark's result.
//
//   pushbench --workload <cold_wide|bursty_session|storm>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Exit code 0 when every outcome matched its known answer, 1 when some
// did not (the report is still printed), 2 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

/// Times a fixed integer loop: the host's speed when the run started,
/// kept with the result so that runs on one machine can be compared.
double host_calibration_s() {
  const auto start = Clock::now();
  std::uint64_t x = 1;
  for (int i = 0; i < 50'000'000; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  keep(x);
  return seconds_since(start);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pushbench: %s\nusage: pushbench --workload "
               "<cold_wide|bursty_session|storm> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

}  // namespace

void print_report(const Options& options, const Report& report) {
  std::printf("{\"workload\": ");
  print_json_string(options.workload);
  std::printf(", \"seed\": %llu, \"trace\": %d, \"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf(first ? "" : ", ");
    first = false;
    print_json_string(name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metric.value);
    print_json_string(metric.unit);
    std::printf("}");
  }
  std::printf("}, \"info\": {");
  first = true;
  for (const auto& [name, value] : report.info) {
    std::printf(first ? "" : ", ");
    first = false;
    print_json_string(name);
    std::printf(": %.17g", value);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload || argc % 2 == 0) usage("missing arguments");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  Report report;
  report.info["host_calibration_s"] = host_calibration_s();
  try {
    if (options.workload == "cold_wide") {
      run_cold_wide(options, report);
    } else if (options.workload == "bursty_session") {
      run_bursty_session(options, report);
    } else if (options.workload == "storm") {
      run_storm(options, report);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pushbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 2;
  }

  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "pushbench: FAILED %s\n", error.c_str());
  }
  print_report(options, report);
  return report.failed == 0 ? 0 : 1;
}

// hpcpower benchmark runner: one workload, one seed, one run.
//
//   perfbench --workload study|capped_chaos|ingest_recover --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Sets the workload up (once per input set, at least three times), then
// runs operations until S seconds are used and prints, as its last stdout
// line, one JSON object: whether every output check passed, the attempted
// and failed operation counts, and the metrics. An untraced run reports the
// end-to-end metrics; a traced run alternates untraced and traced
// operations and reports the per-layer metrics. The first stdout line is
// the provenance record (seed, host, compiler, build type, mmap support,
// WAL filesystem); an untraced run prints its unscaled medians just before
// the result. Each operation's time goes to stderr.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "host.hpp"
#include "obs/span.hpp"
#include "stats.hpp"
#include "storage/filebytes.hpp"
#include "trace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// Must match BENCHMARK.json.
const char* const kEndToEnd[][2] = {
    {"setup_s", "s"}, {"op_s", "s"}, {"peak_rss_mb", "MiB"}};

/// Host probe wall seconds that timed figures are scaled to (the median
/// probe on the 4-vCPU host the benchmark was tuned on).
constexpr double kNominalProbeS = 0.025;

const char* const kPerLayer[][2] = {
    {"workload.generate_ms", "ms"},
    {"sched.self_ms", "ms"},
    {"telemetry.tick_ms", "ms"},
    {"telemetry.tick_calls", "count"},
    {"telemetry.tick_p50_us", "us"},
    {"telemetry.tick_p99_us", "us"},
    {"telemetry.node_samples", "count"},
    {"telemetry.ns_per_node_sample", "ns"},
    {"telemetry.job_events_ms", "ms"},
    {"core.trim_ms", "ms"},
    {"util.cpu_per_wall", "ratio"},
    {"util.parallel_speedup", "ratio"},
    {"core.analyze_ms", "ms"},
    {"ml.evaluate_ms", "ms"},
    {"core.render_ms", "ms"},
    {"power.minute_ms", "ms"},
    {"power.admission_ms", "ms"},
    {"power.job_events_ms", "ms"},
    {"serve.predict_calls", "count"},
    {"serve.predict_ns", "ns"},
    {"obs.monitor_ms", "ms"},
    {"telemetry.samples_expected", "count"},
    {"telemetry.samples_gap", "count"},
    {"sched.requeues", "count"},
    {"sched.attempts_killed", "count"},
    {"power.minutes_throttle", "count"},
    {"ingest_rows_per_s", "1/s"},
    {"offer_p99_us", "us"},
    {"recover_rows_per_s", "1/s"},
    {"window_queries_per_s", "1/s"},
    {"stream.offer_ms", "ms"},
    {"stream.apply_ms", "ms"},
    {"stream.encode_ms", "ms"},
    {"stream.wal_append_us", "us"},
    {"stream.wal_bytes", "bytes"},
    {"stream.checkpoint_ms", "ms"},
    {"stream.checkpoint_bytes", "bytes"},
    {"storage.spill_finish_ms", "ms"},
    {"serve.observe_ms", "ms"},
    {"serve.retrains", "count"},
    {"stream.recover_ms", "ms"},
    {"stream.wal_replay_ms", "ms"},
    {"stream.decode_ms", "ms"},
    {"storage.scan_pruned_ms", "ms"},
    {"storage.scan_full_ms", "ms"},
    {"storage.blocks_pruned_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage_frac", "ratio"},
    {"trace.op_ms", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload study|capped_chaos|ingest_recover "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing value");
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    seen.insert(key);
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') usage("--seed must be a whole number");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace", "--work-dir"})
    if (seen.count(required) == 0) usage((std::string("missing ") + required).c_str());
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  // Sizes: study and capped_chaos campaigns cover 10 simulated days after a
  // 3-day warm-up, on three input sets each; ingest_recover streams 6 days
  // after the same warm-up (about 13k batches). Pilots that train the
  // served model cover 3 days.
  if (a.workload == "study") return std::make_unique<StudyWorkload>(a.seed, 10.0, 3.0, 3);
  if (a.workload == "capped_chaos")
    return std::make_unique<CappedChaosWorkload>(a.seed, 10.0, 3.0, 3.0, 3);
  if (a.workload == "ingest_recover")
    return std::make_unique<IngestRecoverWorkload>(a.seed, 6.0, 3.0, 3.0, a.work_dir);
  usage(("unknown workload " + a.workload).c_str());
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Keeps starting loop turns while the next one, at the median length so
/// far, still fits in the run; at least three, but never past four times
/// the run length.
bool another_op(double elapsed_s, const std::vector<double>& turn_s, double budget_s) {
  if (turn_s.empty()) return true;
  const double next = median(turn_s);
  if (elapsed_s + next > 4.0 * budget_s) return false;
  return turn_s.size() < 3 || elapsed_s + next <= budget_s;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  hpcpower::util::set_log_level(hpcpower::util::LogLevel::kWarn);
  hpcpower::obs::set_recording(false);
  try {
    std::filesystem::create_directories(args.work_dir);

    auto workload = make_workload(args);

    // Host speed on a shared machine drifts by tens of percent within a
    // minute, for all code alike. So host probes, on as many threads as the
    // timed step keeps busy, run before the first step and after each one,
    // and each phase's median time is scaled by kNominalProbeS over the
    // phase's median probe. The probe runs no hpcpower code.
    const auto probe = [](std::size_t threads, std::vector<double>& into) {
      into.push_back(host_probe_s(threads));
    };

    // Several set-ups: one per input set, and at least three in all.
    std::vector<double> raw_setup_s;
    std::vector<double> setup_probes;
    const std::size_t sets = workload->input_sets();
    const std::size_t setups = std::max<std::size_t>(3, sets);
    (void)host_probe_s(workload->setup_threads());  // first touch of the probe buffers
    probe(workload->setup_threads(), setup_probes);
    for (std::size_t i = 0; i < setups; ++i) {
      const std::int64_t t0 = now_ns();
      workload->setup(i % sets);
      raw_setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      probe(workload->setup_threads(), setup_probes);
    }
    const double setup_scale = kNominalProbeS / median(setup_probes);

    std::printf(
        "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
        "\"nproc\": %ld, \"threads\": %zu, \"compiler\": %s, \"build_type\": %s, "
        "\"mmap_supported\": %s, \"wal_filesystem\": %s}}\n",
        quoted(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
        number(args.seconds).c_str(), args.trace ? 1 : 0, online_cpus(),
        hpcpower::util::global_thread_count(), quoted(compiler()).c_str(),
        quoted(build_type()).c_str(),
        hpcpower::storage::FileBytes::mmap_supported() ? "true" : "false",
        quoted(filesystem_of(args.work_dir)).c_str());
    std::fflush(stdout);

    Tally tally;
    std::vector<double> op_s;      // untraced operations
    std::vector<double> traced_s;  // traced operations
    std::vector<double> op_probes;
    std::vector<double> pace_s;    // one loop turn: an op, or an untraced+traced pair
    std::map<std::string, std::vector<double>> layers;
    (void)host_probe_s(workload->busy_threads());
    probe(workload->busy_threads(), op_probes);
    const std::int64_t start = now_ns();
    const auto elapsed = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
    // A check that fails is booked and the run goes on; an operation that
    // throws ends the run, since the workload's state is then unknown.
    bool threw = false;
    while (!threw && another_op(elapsed(), pace_s, args.seconds)) {
      const std::int64_t turn0 = now_ns();
      for (const bool traced : {false, true}) {
        if (traced && !args.trace) break;
        OpResult r;
        try {
          r = workload->run(traced);
        } catch (const std::exception& e) {
          r = OpResult{};
          r.failures.push_back(std::string("operation threw: ") + e.what());
          threw = true;
        }
        tally.book(r);
        if (threw) break;
        probe(workload->busy_threads(), op_probes);
        std::fprintf(stderr, "perfbench: %s op %llu: %.4f s, probe %.4f s%s\n",
                     traced ? "traced" : "untraced",
                     static_cast<unsigned long long>(tally.attempted), r.op_s,
                     op_probes.back(), r.failures.empty() ? "" : ", FAILED");
        if (traced) {
          traced_s.push_back(r.op_s);
          for (const auto& [name, value] : r.layers) layers[name].push_back(value);
        } else {
          op_s.push_back(r.op_s);
        }
      }
      pace_s.push_back(static_cast<double>(now_ns() - turn0) * 1e-9);
    }
    const double op_scale = kNominalProbeS / median(op_probes);

    std::map<std::string, double> values;
    if (!args.trace && !op_s.empty()) {
      values["setup_s"] = median(raw_setup_s) * setup_scale;
      values["op_s"] = median(op_s) * op_scale;
      values["peak_rss_mb"] = peak_rss_mb();
      std::printf("{\"unscaled\": {\"setup_s\": %s, \"op_s\": %s, \"setup_probe_s\": %s, "
                  "\"op_probe_s\": %s, \"nominal_probe_s\": %s}}\n",
                  number(median(raw_setup_s)).c_str(), number(median(op_s)).c_str(),
                  number(median(setup_probes)).c_str(), number(median(op_probes)).c_str(),
                  number(kNominalProbeS).c_str());
    } else if (args.trace && !traced_s.empty() && tally.failed == 0) {
      // Layer figures only from a run whose every composed campaign matched
      // core::run_campaign and whose every check passed.
      std::set<std::string> known;
      for (const auto& m : kPerLayer) known.insert(m[0]);
      for (const auto& [name, v] : layers)
        if (known.count(name) == 0) throw std::logic_error("unlisted per-layer metric " + name);
      // A layer a workload bypasses reads zero.
      for (const auto& m : kPerLayer) values[m[0]] = 0.0;
      for (const auto& [name, v] : layers) values[name] = median(v);
      values["trace.overhead_frac"] = median(traced_s) / median(op_s) - 1.0;
      if (workload->serial_reference_s() > 0.0)
        values["util.parallel_speedup"] = workload->serial_reference_s() * setup_scale /
                                          (median(op_s) * op_scale);
    }
    for (const auto& m : tally.messages) std::fprintf(stderr, "perfbench: FAILED %s\n", m.c_str());

    std::string out = "{\"correct\": ";
    out += tally.failed == 0 && !values.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    bool first = true;
    using Names = std::span<const char* const[2]>;
    for (const auto& [name, unit] : args.trace ? Names(kPerLayer) : Names(kEndToEnd)) {
      const auto it = values.find(name);
      if (it == values.end()) continue;
      if (!first) out += ", ";
      first = false;
      out += quoted(name) + ": {\"value\": " + number(it->second) +
             ", \"unit\": " + quoted(unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    hpcpower::util::shutdown_global_pool();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    hpcpower::util::shutdown_global_pool();
    return 1;
  }
}

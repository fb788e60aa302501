#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <utility>

#include "campaign.hpp"
#include "cluster/system_spec.hpp"
#include "core/job_analysis.hpp"
#include "core/prediction.hpp"
#include "core/system_analysis.hpp"
#include "core/user_analysis.hpp"
#include "host.hpp"
#include "obs/monitor.hpp"
#include "stats.hpp"
#include "storage/scan.hpp"
#include "stream/daemon.hpp"
#include "stream/driver.hpp"
#include "stream/source.hpp"
#include "stream/wal.hpp"
#include "trace.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace hpcpower;
namespace fs = std::filesystem;

namespace {

/// Pilot campaigns that train the served model use a seed of their own, so
/// the model meets users it has not seen.
constexpr std::uint64_t kPilotSeedOffset = 0x9E3779B9u;
/// Live ingest checkpoints every this many applied batches.
constexpr std::uint64_t kCheckpointEvery = 2048;
/// Trailing windows (minutes) of the query sweep over the ingest spill.
constexpr std::int64_t kQueryWindows[] = {1, 5, 30, 120, 480, 1440};

/// Seed of input set `k` out of `sets`: distinct for every (seed, k).
std::uint64_t input_seed(std::uint64_t seed, std::size_t sets, std::size_t k) {
  return seed * sets + k;
}

double seconds(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double wall_ms(const TraceSummary& s, const char* layer) {
  return s.layer(layer).wall_ns / 1e6;
}

core::ReportOptions no_ml_report() {
  core::ReportOptions options;
  options.include_prediction = false;
  return options;
}

std::string render_one(core::CampaignData data, const core::ReportOptions& options) {
  std::vector<core::CampaignData> campaigns;
  campaigns.push_back(std::move(data));
  return core::render_markdown_report(campaigns, options);
}

std::shared_ptr<const serve::ModelSnapshot> pilot_snapshot(std::uint64_t seed, double days,
                                                           double warmup_days) {
  core::StudyConfig pilot;
  pilot.seed = seed + kPilotSeedOffset;
  pilot.days = days;
  pilot.warmup_days = warmup_days;
  pilot.instrument_begin_day = 0.0;
  pilot.instrument_end_day = days;
  const auto data = core::run_campaign(cluster::emmy_spec(), pilot);
  return serve::ModelSnapshot::train(core::build_prediction_dataset(data),
                                     serve::submission_schema(), {});
}

/// Layer figures every traced campaign has (study and capped_chaos).
void campaign_layers(const TraceSummary& s, std::uint64_t node_samples,
                     std::map<std::string, double>& out) {
  const LayerStats& tick = s.layer("telemetry.tick");
  out["workload.generate_ms"] = wall_ms(s, "workload.generate");
  out["sched.self_ms"] = wall_ms(s, "sched.drive");
  out["telemetry.tick_ms"] = wall_ms(s, "telemetry.tick");
  out["telemetry.tick_calls"] = static_cast<double>(tick.calls);
  out["telemetry.tick_p50_us"] = percentile(tick.durations_ns, 50.0) / 1e3;
  out["telemetry.tick_p99_us"] = percentile(tick.durations_ns, 99.0) / 1e3;
  out["telemetry.node_samples"] = static_cast<double>(node_samples);
  out["telemetry.ns_per_node_sample"] = tick.self_ns / static_cast<double>(node_samples);
  out["telemetry.job_events_ms"] = wall_ms(s, "telemetry.job_events");
  out["core.trim_ms"] = wall_ms(s, "core.trim");
}

serve::Completion to_completion(const telemetry::JobRecord& r) {
  serve::Completion c;
  c.job_id = r.job_id;
  c.user_id = r.user_id;
  c.nnodes = r.nnodes;
  c.walltime_req_min = r.walltime_req_min;
  c.node_power_w = r.mean_node_power_w;
  return c;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_table(const storage::Table& a, const storage::Table& b) {
  if (a.schema != b.schema || a.columns.size() != b.columns.size()) return false;
  for (std::size_t i = 0; i < a.columns.size(); ++i) {
    if (a.columns[i].i64 != b.columns[i].i64) return false;
    if (!same_bits(a.columns[i].f64, b.columns[i].f64)) return false;
  }
  return true;
}

std::vector<storage::ScanQuery> window_queries(std::int64_t last_minute) {
  std::vector<storage::ScanQuery> out;
  for (const std::int64_t window : kQueryWindows) {
    storage::ScanQuery q;
    q.where.push_back(
        storage::make_predicate("minute", storage::PredicateOp::kGt, last_minute - window));
    q.where.push_back(
        storage::make_predicate("minute", storage::PredicateOp::kLe, last_minute));
    out.push_back(std::move(q));
  }
  return out;
}

/// Removes a directory tree when it goes out of scope, errors ignored.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

double directory_bytes(const std::string& dir) {
  double total = 0.0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) total += static_cast<double>(entry.file_size());
  return total;
}

}  // namespace

void Tally::book(const OpResult& r) {
  ++attempted;
  if (r.failures.empty()) return;
  ++failed;
  for (const auto& m : r.failures)
    if (messages.size() < 20) messages.push_back(m);
}

void check_same(const std::string& what, const std::string& want, const std::string& got,
                std::vector<std::string>& failures) {
  if (want == got) return;
  const auto diff = std::mismatch(want.begin(), want.end(), got.begin(), got.end());
  failures.push_back(util::format("%s: first difference at byte %zu (%zu vs %zu bytes)",
                                  what.c_str(),
                                  static_cast<std::size_t>(diff.first - want.begin()),
                                  want.size(), got.size()));
}

// ---------------------------------------------------------------------------
// study

StudyWorkload::StudyWorkload(std::uint64_t seed, double days, double warmup_days,
                             std::size_t sets)
    : references(sets), configs_(sets), serial_s_(sets, 0.0) {
  for (std::size_t k = 0; k < sets; ++k) {
    configs_[k].seed = input_seed(seed, sets, k);
    configs_[k].days = days;
    configs_[k].warmup_days = warmup_days;
    configs_[k].instrument_begin_day = 0.0;
    configs_[k].instrument_end_day = days;
  }
}

void StudyWorkload::setup(std::size_t k) {
  util::set_global_thread_count(1);
  const std::int64_t t0 = now_ns();
  references[k] =
      core::render_markdown_report(core::run_both_systems(configs_[k]), report_options);
  serial_s_[k] = seconds(t0, now_ns());
  util::set_global_thread_count(2);
}

double StudyWorkload::serial_reference_s() const { return median(serial_s_); }

OpResult StudyWorkload::run(bool traced) {
  OpResult r;
  const std::size_t k = next_input(traced, configs_.size());
  const core::StudyConfig& config = configs_[k];
  const std::string& reference = references[k];
  std::vector<core::CampaignData> campaigns;
  std::string report;
  if (!traced) {
    const std::int64_t t0 = now_ns();
    campaigns = core::run_both_systems(config);
    report = core::render_markdown_report(campaigns, report_options);
    r.op_s = seconds(t0, now_ns());
  } else {
    trace_reset();
    const auto specs = cluster::studied_systems();
    std::vector<CampaignCounts> counts(specs.size());
    campaigns.resize(specs.size());
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    {
      // Both campaigns at once, the caller taking the first, as
      // core::run_both_systems does.
      std::vector<std::future<void>> pending;
      for (std::size_t i = 1; i < specs.size(); ++i) {
        pending.push_back(util::global_pool().submit([&, i] {
          campaigns[i] = traced_campaign(specs[i], config, nullptr, counts[i]);
        }));
      }
      std::exception_ptr error;
      try {
        campaigns[0] = traced_campaign(specs[0], config, nullptr, counts[0]);
      } catch (...) {
        error = std::current_exception();
      }
      for (auto& f : pending) {
        try {
          f.get();
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      if (error) std::rethrow_exception(error);
    }
    const std::int64_t t_campaigns = now_ns();
    const double cpu1 = process_cpu_s();
    {
      const Span span("core.report");
      report = core::render_markdown_report(campaigns, report_options);
    }
    const std::int64_t t1 = now_ns();
    r.op_s = seconds(t0, t1);
    const TraceSummary s = trace_summary();

    // The report runs the analyzers, the ML evaluation and the formatting
    // inside one call. The same calls, timed alone on the same data after
    // the operation, split it: the formatting is a report without the ML
    // section minus the analyzers.
    double analyze_ns = 0.0;
    double evaluate_ns = 0.0;
    for (const auto& data : campaigns) {
      const std::int64_t a0 = now_ns();
      (void)core::analyze_system_utilization(data, report_options.curve_points);
      (void)core::analyze_per_node_power(data);
      (void)core::analyze_correlations(data);
      (void)core::analyze_median_splits(data);
      (void)core::analyze_temporal(data);
      (void)core::analyze_spatial(data);
      (void)core::analyze_energy_spread(data);
      (void)core::analyze_concentration(data, {}, report_options.curve_points);
      (void)core::analyze_user_variability(data);
      (void)core::analyze_cluster_variability(data, core::ClusterKey::kUserNodes);
      (void)core::analyze_cluster_variability(data, core::ClusterKey::kUserWalltime);
      const std::int64_t a1 = now_ns();
      if (report_options.include_prediction)
        (void)core::analyze_prediction(data, {}, report_options.prediction_config);
      analyze_ns += static_cast<double>(a1 - a0);
      evaluate_ns += static_cast<double>(now_ns() - a1);
    }
    core::ReportOptions without_ml = report_options;
    without_ml.include_prediction = false;
    const std::int64_t f0 = now_ns();
    (void)core::render_markdown_report(campaigns, without_ml);
    const double report_no_ml_ns = static_cast<double>(now_ns() - f0);

    std::uint64_t node_samples = 0;
    for (const auto& c : counts) node_samples += c.node_samples;
    campaign_layers(s, node_samples, r.layers);
    r.layers["util.cpu_per_wall"] =
        (cpu1 - cpu0) /
        (seconds(t0, t_campaigns) * static_cast<double>(util::global_thread_count()));
    r.layers["core.analyze_ms"] = analyze_ns / 1e6;
    r.layers["ml.evaluate_ms"] = evaluate_ns / 1e6;
    r.layers["core.render_ms"] = std::max(0.0, report_no_ml_ns - analyze_ns) / 1e6;
    r.layers["trace.coverage_frac"] = s.covered_ns / static_cast<double>(t1 - t0);
    r.layers["trace.op_ms"] = static_cast<double>(t1 - t0) / 1e6;
  }
  check_same(traced ? "composed campaigns' report vs the core::run_campaign reference"
                    : "study report vs the 1-thread reference",
             reference, report, r.failures);
  return r;
}

// ---------------------------------------------------------------------------
// capped_chaos

CappedChaosWorkload::CappedChaosWorkload(std::uint64_t seed, double days, double warmup_days,
                                         double pilot_days, std::size_t sets)
    : first_reports(sets), pilot_days_(pilot_days), configs_(sets), predictors_(sets) {
  for (std::size_t k = 0; k < sets; ++k) {
    core::StudyConfig& config = configs_[k];
    config.seed = input_seed(seed, sets, k);
    config.days = days;
    config.warmup_days = warmup_days;
    config.instrument_begin_day = 0.0;
    config.instrument_end_day = days;
    config.power_manager.enabled = true;
    config.power_manager.site_cap_fraction = 0.65;
    config.power_manager.predictor_error_sigma = 0.2;
    config.power_manager.meter_fault_rate = 0.05;
    config.faults.enabled = true;
    config.node_failures.enabled = true;
  }
}

void CappedChaosWorkload::setup(std::size_t k) {
  util::set_global_thread_count(1);
  auto service = std::make_shared<serve::PredictionService>();
  service->install(pilot_snapshot(configs_[k].seed, pilot_days_, configs_[k].warmup_days));
  predictors_[k] = std::make_shared<serve::ServedPredictor>(
      std::move(service), cluster::emmy_spec().node_tdp_watts);
  first_reports[k].reset();
}

OpResult CappedChaosWorkload::run(bool traced) {
  OpResult r;
  const std::size_t k = next_input(traced, configs_.size());
  const auto& predictor = predictors_[k];
  std::optional<std::string>& first_report = first_reports[k];
  const auto spec = cluster::emmy_spec();
  obs::SelfMonitor monitor;
  core::StudyConfig cfg = configs_[k];
  cfg.monitor = &monitor;
  const auto& registry = util::counters();
  const std::uint64_t violations0 = registry.value("power.cap.violations");
  const std::uint64_t requeues0 = registry.value("sched.requeues");
  const std::uint64_t expected0 = registry.value("telemetry.samples.expected");

  core::CampaignData data;
  if (!traced) {
    const std::int64_t t0 = now_ns();
    data = core::run_campaign(spec, cfg, predictor);
    r.op_s = seconds(t0, now_ns());
  } else {
    trace_reset();
    CampaignCounts counts;
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    data = traced_campaign(spec, cfg, predictor, counts);
    const std::int64_t t1 = now_ns();
    const double cpu1 = process_cpu_s();
    r.op_s = seconds(t0, t1);
    const TraceSummary s = trace_summary();
    campaign_layers(s, counts.node_samples, r.layers);
    const LayerStats& predict = s.layer("serve.predict");
    r.layers["util.cpu_per_wall"] =
        (cpu1 - cpu0) / (r.op_s * static_cast<double>(util::global_thread_count()));
    r.layers["power.minute_ms"] = wall_ms(s, "power.minute");
    r.layers["power.admission_ms"] = wall_ms(s, "power.admission");
    r.layers["power.job_events_ms"] = wall_ms(s, "power.job_events");
    r.layers["serve.predict_calls"] = static_cast<double>(predict.calls);
    r.layers["serve.predict_ns"] =
        predict.calls ? predict.self_ns / static_cast<double>(predict.calls) : 0.0;
    r.layers["obs.monitor_ms"] = wall_ms(s, "obs.monitor");
    r.layers["trace.coverage_frac"] = s.covered_ns / static_cast<double>(t1 - t0);
    r.layers["trace.op_ms"] = static_cast<double>(t1 - t0) / 1e6;
  }

  const auto& a = data.availability;
  const auto& q = data.quality;
  if (traced) {
    r.layers["telemetry.samples_expected"] = static_cast<double>(q.samples_expected);
    r.layers["telemetry.samples_gap"] = static_cast<double>(q.samples_gap);
    r.layers["sched.requeues"] = static_cast<double>(a.requeues);
    r.layers["sched.attempts_killed"] = static_cast<double>(a.attempts_killed);
    r.layers["power.minutes_throttle"] =
        data.power ? static_cast<double>(data.power->minutes_throttle) : 0.0;
  }
  if (!data.power) {
    r.failures.push_back("managed campaign returned no power report");
  } else {
    if (data.power->cap_violation_minutes != 0)
      r.failures.push_back(util::format("site cap exceeded in %llu minutes",
                                        static_cast<unsigned long long>(
                                            data.power->cap_violation_minutes)));
    if (!data.power->ledger_reconciles) r.failures.push_back("power ledger does not reconcile");
  }
  if (!q.reconciles()) r.failures.push_back("data-quality ledger does not reconcile");
  if (a.node_minutes_down > a.node_minutes_total ||
      a.node_minutes_delivered() + a.node_minutes_down != a.node_minutes_total)
    r.failures.push_back("availability ledger: delivered + down != total");
  if (monitor.series().size() == 0) r.failures.push_back("self-monitor took no sample");
  if (!traced) {
    // The registry is process-wide: compare this repetition's deltas.
    const std::uint64_t violations = registry.value("power.cap.violations") - violations0;
    const std::uint64_t requeues = registry.value("sched.requeues") - requeues0;
    const std::uint64_t expected = registry.value("telemetry.samples.expected") - expected0;
    if (violations != 0 || (data.power && violations != data.power->cap_violation_minutes))
      r.failures.push_back("power.cap.violations counter disagrees with the power report");
    if (requeues != a.requeues)
      r.failures.push_back("sched.requeues counter disagrees with the availability ledger");
    if (expected != q.samples_expected)
      r.failures.push_back(
          "telemetry.samples.expected counter disagrees with the quality ledger");
  }

  const std::string report = render_one(std::move(data), no_ml_report());
  if (first_report) {
    check_same(traced ? "composed campaign's report vs core::run_campaign"
                      : "managed campaign report vs the first repetition",
               *first_report, report, r.failures);
  } else if (traced) {
    r.failures.push_back("no core::run_campaign report to compare the composed campaign with");
  } else {
    first_report = report;
  }
  return r;
}

// ---------------------------------------------------------------------------
// ingest_recover

IngestRecoverWorkload::IngestRecoverWorkload(std::uint64_t seed, double days,
                                             double warmup_days, double pilot_days,
                                             std::string work_dir)
    : seed_(seed), pilot_days_(pilot_days), work_dir_(std::move(work_dir)) {
  config_.seed = seed;
  config_.days = days;
  config_.warmup_days = warmup_days;
  config_.instrument_begin_day = 0.0;
  config_.instrument_end_day = days;
}

void IngestRecoverWorkload::setup(std::size_t) {
  util::set_global_thread_count(2);
  batches.clear();
  first_stats.reset();
  first_windows.clear();
  const std::string dir = work_dir_ + "/setup";
  fs::remove_all(dir);
  fs::create_directories(dir);
  setup_wal_ = dir + "/wal";
  snapshot_ = pilot_snapshot(seed_, pilot_days_, config_.warmup_days);

  const auto spec = cluster::emmy_spec();
  {
    stream::IngestConfig ingest;
    ingest.wal_dir = setup_wal_;
    stream::IngestDaemon daemon(spec, ingest);
    stream::StreamDriver driver(daemon);
    auto streamed = stream::run_streamed_campaign(spec, config_, daemon, driver);
    setup_summary = daemon.render_summary();
    batch_report = render_one(std::move(streamed.batch), no_ml_report());
  }

  stream::WalOptions options;
  options.dir = setup_wal_;
  stream::WriteAheadLog wal(options);
  stream::WalRecoveryStats stats;
  const auto records = wal.replay(0, stats);
  batches.reserve(records.size());
  last_minute_ = 0;
  for (const auto& [seq, payload] : records) {
    auto batch = stream::decode_batch_payload(payload);
    if (!batch || batch->seq != seq || seq != batches.size())
      throw std::runtime_error("set-up WAL does not decode to a gap-free batch stream");
    if (batch->kind == stream::BatchKind::kTick && batch->in_campaign)
      last_minute_ = std::max(last_minute_, batch->tick.minute);
    batches.push_back(std::move(*batch));
  }
  if (batches.empty() || batches.back().kind != stream::BatchKind::kEnd)
    throw std::runtime_error("set-up WAL does not end with the end batch");
}

OpResult IngestRecoverWorkload::run(bool traced) {
  OpResult r;
  const auto spec = cluster::emmy_spec();
  const RemoveOnExit cleanup{work_dir_ + "/live-" + std::to_string(ops_++)};
  const std::string& live = cleanup.path;
  fs::remove_all(live);
  fs::create_directories(live);
  const std::string wal_dir = live + "/wal";
  const std::string spill = live + "/spill.hpcb";

  auto service = std::make_shared<serve::PredictionService>();
  service->install(snapshot_);
  const std::uint64_t completions0 = util::counters().value("serve.completions");

  stream::IngestConfig ingest;
  ingest.wal_dir = wal_dir;
  ingest.spill_path = spill;
  // The traced run makes the same checkpoints itself, so it can time them.
  ingest.checkpoint_every = traced ? 0 : kCheckpointEvery;
  ingest.on_job_completed = [&service, traced](const telemetry::JobRecord& rec) {
    std::optional<Span> span;
    if (traced) span.emplace("serve.observe");
    (void)service->observe_completion(to_completion(rec));
  };
  const auto queries = window_queries(last_minute_);

  if (traced) trace_reset();
  // (a) live ingest: one producer offering every batch in seq order.
  std::vector<double> offer_ns;
  offer_ns.reserve(batches.size());
  std::uint64_t rejected = 0;
  double checkpoint_bytes = 0.0;
  const std::int64_t ta0 = now_ns();
  stream::IngestDaemon daemon(spec, ingest);
  for (const auto& batch : batches) {
    const std::int64_t o0 = now_ns();
    stream::OfferResult res;
    {
      std::optional<Span> span;
      if (traced) span.emplace("stream.offer");
      res = daemon.offer(batch);
    }
    offer_ns.push_back(static_cast<double>(now_ns() - o0));
    if (res != stream::OfferResult::kAccepted) ++rejected;
    if (traced && daemon.watermark() % kCheckpointEvery == 0 && daemon.watermark() > 0) {
      {
        const Span span("stream.checkpoint");
        daemon.checkpoint();
      }
      checkpoint_bytes += static_cast<double>(fs::file_size(
          wal_dir + util::format("/ckpt-%020llu.bin",
                                 static_cast<unsigned long long>(daemon.watermark()))));
    }
  }
  {
    std::optional<Span> span;
    if (traced) span.emplace("storage.spill_finish");
    daemon.finish_spill();
  }
  const std::int64_t ta1 = now_ns();

  // (b) recovery of a fresh daemon from the set-up WAL.
  const std::int64_t tb0 = now_ns();
  stream::IngestConfig recover_config;
  recover_config.wal_dir = setup_wal_;
  stream::IngestDaemon recovered(spec, recover_config);
  {
    std::optional<Span> span;
    if (traced) span.emplace("stream.recover");
    recovered.recover();
  }
  const std::int64_t tb1 = now_ns();

  // (c) trailing-window queries on the live spill.
  std::vector<storage::ScanResult> pruned;
  const std::int64_t tc0 = now_ns();
  for (const auto& q : queries) {
    std::optional<Span> span;
    if (traced) span.emplace("storage.scan_pruned");
    pruned.push_back(storage::scan_hpcb_file(spill, q, {}));
  }
  const std::int64_t tc1 = now_ns();

  const double a_s = seconds(ta0, ta1);
  const double b_s = seconds(tb0, tb1);
  const double c_s = seconds(tc0, tc1);
  r.op_s = a_s + b_s + c_s;

  // Checks.
  if (rejected != 0)
    r.failures.push_back(util::format("%llu offers were not accepted",
                                      static_cast<unsigned long long>(rejected)));
  if (!daemon.end_applied() || daemon.watermark() != batches.size())
    r.failures.push_back("live daemon did not apply the whole stream");
  check_same("live daemon summary vs the set-up daemon", setup_summary,
             daemon.render_summary(), r.failures);
  const serve::ServiceStats stats = service->stats();
  if (!first_stats)
    first_stats = stats;
  else if (stats != *first_stats)
    r.failures.push_back("serving stats differ from the first repetition");
  if (util::counters().value("serve.completions") - completions0 != stats.completions)
    r.failures.push_back("serve.completions counter disagrees with the service stats");
  if (!recovered.end_applied())
    r.failures.push_back("recovered daemon did not reach the end batch");
  else
    check_same("recovered daemon report vs the set-up batch report", batch_report,
               render_one(recovered.finalize(), no_ml_report()), r.failures);
  // Zone maps on and off must agree: checked on the first repetition and on
  // every traced one; the others must reproduce the first one's tables.
  double full_ns = 0.0;
  const bool full_check = traced || first_windows.empty();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (full_check) {
      storage::ScanOptions no_zone_maps;
      no_zone_maps.use_zone_maps = false;
      const std::int64_t f0 = now_ns();
      const auto full = storage::scan_hpcb_file(spill, queries[i], no_zone_maps);
      full_ns += static_cast<double>(now_ns() - f0);
      if (full.count != pruned[i].count || !same_table(full.table, pruned[i].table))
        r.failures.push_back(
            util::format("window query %zu differs with zone maps on and off", i));
    }
    if (first_windows.size() == queries.size() &&
        !same_table(first_windows[i], pruned[i].table))
      r.failures.push_back(
          util::format("window query %zu differs from the first repetition", i));
  }
  if (first_windows.empty() && r.failures.empty())
    for (const auto& p : pruned) first_windows.push_back(p.table);

  if (traced) {
    const TraceSummary s = trace_summary();
    std::size_t blocks = 0;
    std::size_t blocks_pruned = 0;
    for (const auto& p : pruned) {
      blocks += p.stats.blocks_total;
      blocks_pruned += p.stats.blocks_pruned;
    }
    r.layers["ingest_rows_per_s"] =
        static_cast<double>(daemon.apply_stats().rows_applied) / a_s;
    r.layers["offer_p99_us"] = percentile(offer_ns, 99.0) / 1e3;
    r.layers["recover_rows_per_s"] =
        static_cast<double>(recovered.apply_stats().rows_applied) / b_s;
    r.layers["window_queries_per_s"] = static_cast<double>(queries.size()) / c_s;
    r.layers["stream.offer_ms"] = wall_ms(s, "stream.offer");
    r.layers["serve.observe_ms"] = wall_ms(s, "serve.observe");
    r.layers["serve.retrains"] = static_cast<double>(stats.retrains);
    r.layers["stream.checkpoint_ms"] = wall_ms(s, "stream.checkpoint");
    r.layers["stream.checkpoint_bytes"] = checkpoint_bytes;
    r.layers["storage.spill_finish_ms"] = wall_ms(s, "storage.spill_finish");
    r.layers["stream.recover_ms"] = wall_ms(s, "stream.recover");
    r.layers["storage.scan_pruned_ms"] = wall_ms(s, "storage.scan_pruned");
    r.layers["storage.scan_full_ms"] = full_ns / 1e6;
    r.layers["storage.blocks_pruned_frac"] =
        blocks ? static_cast<double>(blocks_pruned) / static_cast<double>(blocks) : 0.0;
    r.layers["trace.coverage_frac"] = s.covered_ns / (r.op_s * 1e9);
    r.layers["trace.op_ms"] = r.op_s * 1e3;

    // Outside the operation: the same work split into the steps the daemon
    // runs inside offer() and recover().
    {
      stream::IngestDaemon memory_only(spec, {});
      const std::int64_t t0 = now_ns();
      for (const auto& batch : batches) (void)memory_only.offer(batch);
      r.layers["stream.apply_ms"] = static_cast<double>(now_ns() - t0) / 1e6;
    }
    std::vector<std::string> payloads;
    payloads.reserve(batches.size());
    {
      const std::int64_t t0 = now_ns();
      for (const auto& batch : batches) payloads.push_back(stream::encode_batch_payload(batch));
      r.layers["stream.encode_ms"] = static_cast<double>(now_ns() - t0) / 1e6;
    }
    {
      stream::WalOptions options;
      options.dir = live + "/scratch-wal";
      stream::WriteAheadLog scratch(options);
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < batches.size(); ++i) scratch.append(batches[i].seq, payloads[i]);
      r.layers["stream.wal_append_us"] =
          static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(batches.size());
      r.layers["stream.wal_bytes"] = directory_bytes(options.dir);
    }
    {
      stream::WalOptions options;
      options.dir = setup_wal_;
      stream::WriteAheadLog wal(options);
      stream::WalRecoveryStats replay_stats;
      const std::int64_t t0 = now_ns();
      const auto records = wal.replay(0, replay_stats);
      const std::int64_t t1 = now_ns();
      std::size_t decoded = 0;
      for (const auto& record : records)
        decoded += stream::decode_batch_payload(record.second).has_value() ? 1 : 0;
      r.layers["stream.wal_replay_ms"] = static_cast<double>(t1 - t0) / 1e6;
      r.layers["stream.decode_ms"] = static_cast<double>(now_ns() - t1) / 1e6;
      if (decoded != batches.size())
        r.failures.push_back("set-up WAL replay no longer decodes to the whole stream");
    }
  }
  return r;
}

}  // namespace perfbench

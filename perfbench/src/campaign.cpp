#include "campaign.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "obs/monitor.hpp"
#include "power/hooks.hpp"
#include "power/manager.hpp"
#include "sched/simulator.hpp"
#include "telemetry/pipeline.hpp"
#include "trace.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace hpcpower;

namespace {

/// Times every call into the wrapped predictor; forwards name() so the
/// rendered report names the same predictor core::run_campaign would.
class TracedPredictor final : public power::NodePowerPredictor {
 public:
  explicit TracedPredictor(std::shared_ptr<const power::NodePowerPredictor> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] double predict_node_w(const workload::JobRequest& job) const override {
    const Span span("serve.predict");
    return inner_->predict_node_w(job);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const power::NodePowerPredictor> inner_;
};

/// Wraps each hook of `inner` in a span; when `counts` is set, also counts
/// the node samples every per-minute call computes.
sched::SimulationHooks traced_hooks(sched::SimulationHooks inner, const char* minute_layer,
                                    const char* event_layer, CampaignCounts* counts) {
  sched::SimulationHooks out = std::move(inner);
  out.on_start = [f = std::move(out.on_start), event_layer](const sched::RunningJob& job) {
    const Span span(event_layer);
    if (f) f(job);
  };
  out.on_end = [f = std::move(out.on_end), event_layer](
                   const sched::RunningJob& job, const sched::JobAccountingRecord& rec) {
    const Span span(event_layer);
    if (f) f(job, rec);
  };
  out.per_minute = [f = std::move(out.per_minute), minute_layer, counts](
                       util::MinuteTime now,
                       const std::vector<const sched::RunningJob*>& running,
                       std::uint32_t down_nodes) {
    if (counts != nullptr)
      for (const sched::RunningJob* job : running) counts->node_samples += job->nodes.size();
    const Span span(minute_layer);
    if (f) f(now, running, down_nodes);
  };
  return out;
}

}  // namespace

core::CampaignData traced_campaign(const cluster::SystemSpec& spec,
                                   const core::StudyConfig& config,
                                   std::shared_ptr<const power::NodePowerPredictor> predictor,
                                   CampaignCounts& counts) {
  const util::MinuteTime warmup = util::MinuteTime::from_days(config.warmup_days);
  const bool managed = config.power_manager.enabled;

  workload::GeneratorConfig gcfg;
  gcfg.seed = config.seed;
  gcfg.duration = warmup + util::MinuteTime::from_days(config.days);
  gcfg.load_scale = config.load_scale;
  std::vector<workload::JobRequest> jobs;
  {
    const Span span("workload.generate");
    workload::WorkloadGenerator generator(spec, workload::calibration_for(spec.id), gcfg);
    jobs = generator.generate();
  }

  std::optional<power::ClusterPowerManager> manager;
  if (managed) {
    if (predictor)
      predictor = std::make_shared<TracedPredictor>(std::move(predictor));
    else
      predictor = std::make_shared<power::EstimatePredictor>(spec.node_tdp_watts);
    if (config.power_manager.predictor_error_sigma > 0.0) {
      predictor = std::make_shared<power::NoisyPredictor>(
          std::move(predictor), config.power_manager.predictor_error_sigma, config.seed);
    }
    const Span span("power.admission");
    manager.emplace(spec, config.power_manager, predictor, config.seed);
    for (auto& job : jobs) job.estimated_node_power_w = manager->admission_estimate_w(job);
  }

  telemetry::PipelineConfig pcfg;
  pcfg.seed = config.seed;
  pcfg.instrument_begin = warmup + util::MinuteTime::from_days(config.instrument_begin_day);
  pcfg.instrument_end = warmup + util::MinuteTime::from_days(config.instrument_end_day);
  pcfg.node_power_cap_w = config.node_power_cap_w;
  pcfg.faults = config.faults;
  pcfg.cleaning = config.cleaning;
  pcfg.tap = config.tap;
  if (managed) {
    pcfg.job_node_cap_w = [&m = *manager](workload::JobId id) { return m.node_cap_w(id); };
  }
  telemetry::MonitoringPipeline pipeline(spec, pcfg);

  sched::PowerBudget budget = config.power_budget;
  if (managed) {
    budget.watts = manager->pool_w();
    budget.fallback_node_power_w = spec.node_tdp_watts;
  }
  if (budget.enabled() && budget.fallback_node_power_w <= 0.0)
    budget.fallback_node_power_w = spec.node_tdp_watts;
  sched::CampaignSimulator simulator(spec.node_count, gcfg.duration, config.scheduler_policy,
                                     budget, config.node_failures, config.seed);

  sched::SimulationHooks hooks =
      traced_hooks(pipeline.hooks(), "telemetry.tick", "telemetry.job_events", &counts);
  if (managed) {
    hooks = traced_hooks(power::managed_hooks(*manager, std::move(hooks),
                                              [&pipeline]() {
                                                return pipeline.system_series()
                                                    .total_power_w.back();
                                              }),
                         "power.minute", "power.job_events", nullptr);
  }
  if (config.monitor) {
    hooks.per_minute = [monitor = config.monitor, per_minute = std::move(hooks.per_minute)](
                           util::MinuteTime now,
                           const std::vector<const sched::RunningJob*>& running,
                           std::uint32_t down_nodes) {
      if (per_minute) per_minute(now, running, down_nodes);
      const Span span("obs.monitor");
      monitor->on_minute(now.minutes());
    };
  }
  sched::SimulationResult sim_result;
  {
    const Span span("sched.drive");
    sim_result = simulator.run(jobs, hooks);
  }

  const Span span("core.trim");
  core::CampaignData data;
  data.spec = spec;
  data.records = std::move(pipeline.records());
  data.series = pipeline.system_series();
  data.scheduler = sim_result.scheduler;
  data.availability = sim_result.availability;
  data.throttled_samples = pipeline.throttled_samples();
  data.quality = pipeline.quality_report();
  if (managed) data.power = manager->report();
  if (warmup.minutes() > 0) {
    const auto w = static_cast<std::size_t>(std::min<std::int64_t>(
        warmup.minutes(), static_cast<std::int64_t>(data.series.total_power_w.size())));
    data.series.total_power_w.erase(data.series.total_power_w.begin(),
                                    data.series.total_power_w.begin() +
                                        static_cast<std::ptrdiff_t>(w));
    data.series.busy_nodes.erase(data.series.busy_nodes.begin(),
                                 data.series.busy_nodes.begin() +
                                     static_cast<std::ptrdiff_t>(w));
    std::erase_if(data.records,
                  [&](const telemetry::JobRecord& r) { return r.end <= warmup; });
  }
  return data;
}

}  // namespace perfbench

#pragma once
// One campaign rebuilt from the library's public calls, in the order
// core::run_campaign makes them (src/core/study.cpp):
//
//   1. WorkloadGenerator::generate               span workload.generate
//   2. admission estimates (managed campaigns)   span power.admission, with
//      every predictor call                      span serve.predict
//   3. MonitoringPipeline::hooks(), wrapped      spans telemetry.tick,
//                                                telemetry.job_events
//   4. power::managed_hooks over those           spans power.minute,
//                                                power.job_events
//   5. the SelfMonitor per-minute wrapper        span obs.monitor
//   6. CampaignSimulator::run                    span sched.drive
//   7. dataset assembly and warm-up trim         span core.trim
//
// A span's self time excludes the spans nested in it, so sched.drive's self
// time is the simulator minus the hooks, and power.minute's is the managed
// per-minute hook minus the telemetry tick inside it. The traced run checks
// that this composition renders byte-identically to core::run_campaign
// before it reports any layer figure.

#include <cstdint>
#include <memory>

#include "cluster/system_spec.hpp"
#include "core/study.hpp"
#include "power/predictor.hpp"

namespace perfbench {

struct CampaignCounts {
  std::uint64_t node_samples = 0;  ///< node power samples the ticks computed
};

[[nodiscard]] hpcpower::core::CampaignData traced_campaign(
    const hpcpower::cluster::SystemSpec& spec, const hpcpower::core::StudyConfig& config,
    std::shared_ptr<const hpcpower::power::NodePowerPredictor> predictor,
    CampaignCounts& counts);

}  // namespace perfbench

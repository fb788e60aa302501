#pragma once
// The benchmark's three workloads. Each one is set up once (or several
// times, to time set-up), then runs operations until the run's time is
// used. Every operation checks the program's outputs against the program
// itself — a reference rendered during set-up, or the first repetition —
// and reports each mismatch as a failure message.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/study.hpp"
#include "serve/adapter.hpp"
#include "serve/service.hpp"
#include "storage/hpcb.hpp"
#include "stream/batch.hpp"

namespace perfbench {

struct OpResult {
  double op_s = 0.0;  ///< wall seconds of the timed operation
  std::vector<std::string> failures;       ///< empty: every check passed
  std::map<std::string, double> layers;    ///< per-layer figures (traced ops)
};

/// Attempted/failed operation counts. An operation fails when any of its
/// checks fails.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;  ///< first failure messages, for stderr

  void book(const OpResult& r);
};

/// Appends a failure naming the first differing byte when `got` != `want`.
void check_same(const std::string& what, const std::string& want, const std::string& got,
                std::vector<std::string>& failures);

/// A workload draws `input_sets()` inputs from its seed. Set-up builds each
/// one, with its references; untraced operations cycle through them, and a
/// traced operation reuses the input of the untraced one before it. Cycling
/// makes a run's median cover several inputs, so it depends less on which
/// seed the run was given.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t input_sets() const = 0;
  /// Builds input set `k` and its references from scratch.
  virtual void setup(std::size_t k) = 0;
  /// One operation; `traced` records layer spans and fills OpResult::layers.
  virtual OpResult run(bool traced) = 0;
  /// Threads a set-up and an operation keep busy (caller plus pool workers).
  [[nodiscard]] virtual std::size_t setup_threads() const = 0;
  [[nodiscard]] virtual std::size_t busy_threads() const = 0;
  /// Median seconds of the set-up's serial references (0 when none).
  [[nodiscard]] virtual double serial_reference_s() const { return 0.0; }

 protected:
  /// Input set of the next operation.
  std::size_t next_input(bool traced, std::size_t sets) {
    if (!traced) last_input_ = next_input_++ % sets;
    return last_input_;
  }

 private:
  std::size_t next_input_ = 0;
  std::size_t last_input_ = 0;
};

/// The analyst's job: generate_report done in-process on both systems.
class StudyWorkload final : public Workload {
 public:
  StudyWorkload(std::uint64_t seed, double days, double warmup_days, std::size_t sets);
  [[nodiscard]] std::size_t input_sets() const override { return configs_.size(); }
  void setup(std::size_t k) override;
  OpResult run(bool traced) override;
  [[nodiscard]] std::size_t setup_threads() const override { return 1; }
  [[nodiscard]] std::size_t busy_threads() const override { return 3; }
  [[nodiscard]] double serial_reference_s() const override;

  hpcpower::core::ReportOptions report_options;
  std::vector<std::string> references;  ///< per input set, rendered at 1 thread

 private:
  std::vector<hpcpower::core::StudyConfig> configs_;
  std::vector<double> serial_s_;
};

/// The operator's closed loop: one managed Emmy campaign with telemetry
/// faults, node failures, a self-monitor and served admission predictions.
class CappedChaosWorkload final : public Workload {
 public:
  CappedChaosWorkload(std::uint64_t seed, double days, double warmup_days,
                      double pilot_days, std::size_t sets);
  [[nodiscard]] std::size_t input_sets() const override { return configs_.size(); }
  void setup(std::size_t k) override;
  OpResult run(bool traced) override;
  [[nodiscard]] std::size_t setup_threads() const override { return 1; }
  [[nodiscard]] std::size_t busy_threads() const override { return 1; }

  /// Per input set: the first repetition's report, the later ones' reference.
  std::vector<std::optional<std::string>> first_reports;

 private:
  double pilot_days_;
  std::vector<hpcpower::core::StudyConfig> configs_;
  std::vector<std::shared_ptr<const hpcpower::serve::ServedPredictor>> predictors_;
};

/// The daemon operator's job: live ingest, recovery and window queries.
class IngestRecoverWorkload final : public Workload {
 public:
  IngestRecoverWorkload(std::uint64_t seed, double days, double warmup_days,
                        double pilot_days, std::string work_dir);
  /// One stream: a second would double the decoded batches held in memory.
  [[nodiscard]] std::size_t input_sets() const override { return 1; }
  void setup(std::size_t k) override;
  OpResult run(bool traced) override;
  [[nodiscard]] std::size_t setup_threads() const override { return 3; }
  [[nodiscard]] std::size_t busy_threads() const override { return 3; }

  /// Every batch of the set-up stream, decoded from its WAL, in seq order.
  std::vector<hpcpower::stream::StreamBatch> batches;
  std::string setup_summary;   ///< set-up daemon's render_summary()
  std::string batch_report;    ///< set-up batch campaign's report
  std::optional<hpcpower::serve::ServiceStats> first_stats;
  /// First repetition's pruned query results, checked there with zone maps
  /// off; later repetitions must match them bit for bit.
  std::vector<hpcpower::storage::Table> first_windows;

 private:
  std::uint64_t seed_;
  double pilot_days_;
  std::string work_dir_;
  std::string setup_wal_;
  hpcpower::core::StudyConfig config_;
  std::shared_ptr<const hpcpower::serve::ModelSnapshot> snapshot_;
  std::int64_t last_minute_ = 0;  ///< newest in-campaign minute in the stream
  std::uint64_t ops_ = 0;
};

}  // namespace perfbench

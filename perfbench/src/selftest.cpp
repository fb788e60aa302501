// Tests of the benchmark's own logic, on small campaigns:
//
//   * median and percentile on fixed inputs;
//   * a one-byte change to a reference report is booked as a failed
//     operation (study, capped_chaos);
//   * a dropped batch is booked as a failed operation (ingest_recover);
//   * unchanged inputs pass every check, traced and untraced, so the traced
//     campaign composition renders what core::run_campaign renders;
//   * operations cycle through input sets, each checked against its own
//     reference.
//
//   perfbench_selftest DIR     (scratch files go under DIR)
//
// Exits 0 when every test passes.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool throws(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

/// Books one operation into a fresh tally, as perfbench's run loop does.
Tally book(Workload& w, bool traced) {
  Tally t;
  t.book(w.run(traced));
  for (const auto& m : t.messages) std::printf("     (%s)\n", m.c_str());
  return t;
}

bool passed(const Tally& t) { return t.attempted == 1 && t.failed == 0; }
bool failed(const Tally& t) { return t.attempted == 1 && t.failed == 1; }

void test_order_statistics() {
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
  expect(median({7.0}) == 7.0, "median of one value");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 99.0) == 99.0, "p99 of 1..100 is 99");
  expect(percentile(hundred, 50.0) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(hundred, 100.0) == 100.0, "p100 is the maximum");
  expect(percentile(hundred, 0.0) == 1.0, "p0 is the minimum");
  expect(percentile({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0}, 99.0) == 10.0,
         "p99 of ten values is the largest");
  expect(percentile({5.0, 1.0, 3.0}, 34.0) == 3.0, "nearest rank rounds up");
  expect(throws([] { (void)median({}); }), "median of nothing throws");
  expect(throws([] { (void)percentile({}, 50.0); }), "percentile of nothing throws");
  expect(throws([] { (void)percentile({1.0}, 101.0); }), "percentile above 100 throws");
  expect(throws([] { (void)percentile({1.0}, std::nan("")); }), "percentile of NaN throws");
}

void test_check_same() {
  std::vector<std::string> failures;
  check_same("same", "abc", "abc", failures);
  expect(failures.empty(), "equal bytes pass");
  check_same("flip", "abcd", "abXd", failures);
  expect(failures.size() == 1 && failures[0].find("byte 2") != std::string::npos,
         "one changed byte fails and names its offset");
  check_same("short", "abcd", "abc", failures);
  expect(failures.size() == 2, "a truncated copy fails");
}

void test_study() {
  StudyWorkload w(11, 1.0, 0.5, 1);
  w.setup(0);
  expect(passed(book(w, false)), "study: untraced op passes against its reference");
  expect(passed(book(w, true)), "study: composed campaigns render the run_campaign bytes");
  w.references[0][w.references[0].size() / 2] ^= 0x01;
  expect(failed(book(w, false)), "study: one changed reference byte fails the op");
  expect(failed(book(w, true)), "study: one changed reference byte fails the traced op");
}

void test_capped_chaos() {
  CappedChaosWorkload w(11, 1.0, 0.5, 1.0, 1);
  w.setup(0);
  expect(passed(book(w, false)), "capped_chaos: first op passes its ledger checks");
  expect(passed(book(w, false)), "capped_chaos: second op renders the first op's bytes");
  expect(passed(book(w, true)), "capped_chaos: composed campaign renders the run_campaign bytes");
  (*w.first_reports[0])[w.first_reports[0]->size() / 3] ^= 0x20;
  expect(failed(book(w, false)), "capped_chaos: one changed reference byte fails the op");

  CappedChaosWorkload two(12, 0.5, 0.25, 1.0, 2);
  two.setup(0);
  two.setup(1);
  for (int i = 0; i < 3; ++i) (void)book(two, false);
  expect(two.first_reports[0] && two.first_reports[1] &&
             *two.first_reports[0] != *two.first_reports[1],
         "capped_chaos: two input sets give two different references");
  expect(passed(book(two, false)), "capped_chaos: the second set repeats its own reference");
}

void test_ingest_recover(const std::string& dir) {
  IngestRecoverWorkload w(11, 0.5, 0.25, 1.0, dir);
  w.setup(0);
  expect(passed(book(w, false)), "ingest_recover: op passes against the set-up daemon");
  expect(passed(book(w, true)), "ingest_recover: traced op passes");
  expect(passed(book(w, false)), "ingest_recover: serving stats repeat");
  w.batches.erase(w.batches.begin() + static_cast<std::ptrdiff_t>(w.batches.size() / 2));
  expect(failed(book(w, false)), "ingest_recover: a dropped batch fails the op");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest DIR\n");
    return 2;
  }
  hpcpower::util::set_log_level(hpcpower::util::LogLevel::kError);
  try {
    std::filesystem::create_directories(argv[1]);
    test_order_statistics();
    test_check_same();
    test_study();
    test_capped_chaos();
    test_ingest_recover(argv[1]);
  } catch (const std::exception& e) {
    std::printf("FAIL selftest threw: %s\n", e.what());
    ++g_failures;
  }
  hpcpower::util::shutdown_global_pool();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "passed", g_failures);
  return g_failures ? 1 : 0;
}

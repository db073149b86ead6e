#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/crawl_result.h"

namespace smartcrawl::core {
class CrawlPlan;
}  // namespace smartcrawl::core

/// \file bench.h
/// Shared declarations of the benchmark program: run options, the report
/// every workload fills, and small statistics helpers.

namespace crawlbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every input size (1.0 = the sizes in README.md; the smoke
  /// test uses a tiny scale).
  double scale = 1.0;
  /// Corrupts one reference fingerprint so the output check must fail
  /// (used only by the smoke test).
  bool tamper_fingerprint = false;
  /// Directory for snapshot files and the trace output.
  std::string work_dir = ".";
  /// Worker and build threads: nproc.
  unsigned threads = 1;
};

/// What one run prints: metrics, run context, the correctness verdict and
/// the operation counts.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// `value_json` must already be valid JSON (a number, a quoted string).
  void Context(const std::string& key, const std::string& value_json);
  void Context(const std::string& key, double value);
  void ContextString(const std::string& key, const std::string& value);

  /// Marks the run incorrect, with a reason printed to stderr.
  void Fail(const std::string& why);
  /// Fails unless `got == want`.
  void CheckFingerprint(const std::string& what, uint64_t want, uint64_t got);
  /// Adds one finished session's query counts to attempted/failed.
  void CountSession(const smartcrawl::core::CrawlResult& result);
  /// A session that ended with an error: one failed operation.
  void CountSessionError(const std::string& why);

  bool correct() const { return failures_.empty(); }
  std::string ContextJson() const;
  std::string ResultJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 if empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
double Sum(const std::vector<double>& values);

/// Order-sensitive digest of everything a crawl decided and saw: issued
/// queries, page sizes and entities, coverage and stop reason.
uint64_t Fingerprint(const smartcrawl::core::CrawlResult& result);

/// Digest of a plan's query pool and initial per-query statistics.
uint64_t PlanFingerprint(const smartcrawl::core::CrawlPlan& plan);

/// Formats a double with all its digits (shortest round-trip form).
std::string Num(double v);
std::string Quote(const std::string& s);

/// Peak resident set since the last ResetPeakRss, in MiB.
void ResetPeakRss();
double PeakRssMb();
/// While counting is on, every operator new/delete in the process adds or
/// subtracts its block size; CountedHeapBytes is the running total. Turn
/// counting on only while no other thread allocates.
void CountHeap(bool on);
double CountedHeapBytes();

/// Workload entry points. Each generates its inputs from opt.seed, runs for
/// about opt.seconds, and fills `report` with end-to-end metrics (untraced)
/// or per-layer metrics (traced).
void RunPaperCrawl(const Options& opt, Report* report);
void RunFleetShared(const Options& opt, Report* report);
void RunFleetDistinct(const Options& opt, Report* report);

}  // namespace crawlbench

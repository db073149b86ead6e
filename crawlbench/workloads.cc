/// The three benchmark workloads (see README.md for why each exists):
///
///   paper_crawl    — one SmartCrawl-B plan at paper scale, crawled by fresh
///                    sessions through the step API.
///   fleet_shared   — 1,000 tenants over 8 shared plans in one Drive.
///   fleet_distinct — 64 tenants with a plan each, loaded from snapshots,
///                    over one paper-scale hidden database.
///
/// Untraced runs report the end-to-end metrics; traced runs time each layer
/// from outside, at the public calls into it, and report the per-layer
/// metrics. Input generation (datagen, sampling, snapshot writing, page
/// re-fetching for replays) is never inside a timed region.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/crawl_plan.h"
#include "core/crawl_service.h"
#include "core/crawl_session.h"
#include "core/metrics.h"
#include "core/query_pool.h"
#include "datagen/error_inject.h"
#include "datagen/scenario.h"
#include "match/er_config.h"
#include "match/similarity_join.h"
#include "net/caching_interface.h"
#include "sample/sampler.h"
#include "text/document.h"
#include "trace.h"

namespace crawlbench {

namespace {

using namespace smartcrawl;  // NOLINT

using PlanPtr = std::shared_ptr<const core::CrawlPlan>;

// Latency tails: the highest percentile with at least ten samples beyond it
// in every pass (a crawl or a Drive) that is steady run to run. On the
// fleets it must also stay below the last finishing cohort, whose finish
// time is the Drive's end (wall_sessions_per_s already measures that).
// 2,000 queries per crawl, 1,000 and 64 tenants per Drive.
constexpr double kPaperTailPct = 95.0;
constexpr double kFleetSharedTailPct = 90.0;
constexpr double kFleetDistinctTailPct = 80.0;

// Setup is repeated at least kSetupReps times and, untraced, until
// kSetupSeconds of it were measured (a single setup varies by 8-25%).
constexpr int kSetupReps = 5;
constexpr int kMaxSetupReps = 64;
constexpr double kSetupSeconds = 3.0;
constexpr int kTraceSetupReps = 3;
constexpr double kJaccardThreshold = 0.6;
/// Upper bound on pages replayed through page preparation and the join.
constexpr size_t kMaxReplayPages = 4000;

bool MoreSetup(const Options& opt, int rep, Clock::time_point start) {
  if (opt.trace) return rep < kTraceSetupReps;
  return rep < kSetupReps ||
         (rep < kMaxSetupReps && SecondsSince(start) < kSetupSeconds);
}

size_t Scaled(const Options& opt, double v, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(v * opt.scale)));
}

int64_t ErTag(const core::CrawlPlan& plan) {
  return plan.options().er.mode == match::ErMode::kJaccard ? 1 : 0;
}

core::SmartCrawlOptions PlanOptions(const datagen::Scenario& s,
                                    core::SelectionPolicy policy,
                                    match::ErMode er, unsigned threads) {
  core::SmartCrawlOptions o;
  o.policy = policy;
  o.local_text_fields = s.local_text_fields;
  o.num_threads = threads;
  o.er.mode = er;
  o.er.jaccard_threshold = kJaccardThreshold;
  return o;
}

std::optional<datagen::Scenario> MakeDblp(size_t hidden, size_t local,
                                          size_t corpus, double community,
                                          size_t k, double error,
                                          uint64_t seed, Report* report) {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = corpus;
  cfg.corpus.seed = seed * 7919 + 13;
  cfg.corpus.db_community_fraction = community;
  cfg.hidden_size = hidden;
  cfg.local_size = local;
  cfg.top_k = k;
  cfg.error_rate = error;
  cfg.seed = seed;
  auto s = datagen::BuildDblpScenario(cfg);
  if (!s.ok()) {
    report->Fail("datagen: " + s.status().ToString());
    return std::nullopt;
  }
  return std::move(s).value();
}

/// Paper-scale DBLP world as core::RunDblpExperiment builds it.
std::optional<datagen::Scenario> MakePaperDblp(size_t hidden, size_t local,
                                               uint64_t seed,
                                               Report* report) {
  const auto corpus = static_cast<size_t>(
      static_cast<double>(hidden + local) * 2.2);
  const double community = std::clamp(
      3.0 * static_cast<double>(local) / static_cast<double>(corpus), 0.3,
      0.9);
  return MakeDblp(hidden, local, corpus, community, 100, 0.0, seed, report);
}

/// One session crawled to completion through the step API. When
/// `query_ms` is given, appends each query's latency: from the start of
/// IssueNext to the end of ProcessPendingPage.
Result<core::CrawlResult> CrawlSteps(const core::CrawlPlan& plan,
                                     hidden::KeywordSearchInterface* iface,
                                     size_t budget, Tracer* tracer,
                                     std::vector<double>* query_ms) {
  std::optional<core::CrawlSession> session;
  {
    SpanScope span(tracer, "session.construct", ErTag(plan));
    session.emplace(plan);
  }
  {
    SpanScope span(tracer, "session.begin", ErTag(plan));
    Status st = session->Begin(iface->top_k(), budget);
    if (!st.ok()) return st;
  }
  while (true) {
    const auto t0 = Clock::now();
    Result<bool> more = false;
    {
      SpanScope span(tracer, "session.issue", ErTag(plan));
      more = session->IssueNext(iface);
    }
    if (!more.ok()) return more.status();
    if (!*more) break;
    {
      SpanScope span(tracer, "session.process", ErTag(plan));
      session->ProcessPendingPage();
    }
    if (query_ms != nullptr) query_ms->push_back(MsSince(t0));
  }
  return session->TakeResult();
}

/// One CrawlService::Drive over `specs` with default options apart from
/// the worker count; a fresh service (cold shared cache) every time.
struct DriveRun {
  bool ok = true;
  double seconds = 0.0;
  std::vector<double> finish_ms;  // Drive start -> the tenant's callback
  std::vector<core::SessionOutcome> outcomes;
  net::CacheStats cache;
};

DriveRun Drive(hidden::KeywordSearchInterface* origin,
               const std::vector<core::SessionSpec>& specs, unsigned threads,
               Tracer* tracer, Report* report) {
  DriveRun run;
  run.finish_ms.assign(specs.size(), 0.0);
  run.outcomes.resize(specs.size());
  core::CrawlServiceOptions options;
  options.num_threads = threads;
  core::CrawlService service(origin, options);
  const auto t0 = Clock::now();
  Status st;
  {
    SpanScope span(tracer, "service.drive");
    st = service.Drive(specs, [&](size_t i, core::SessionOutcome outcome) {
      run.finish_ms[i] = MsSince(t0);
      if (tracer != nullptr) {
        tracer->Event("service.finish", static_cast<int64_t>(i));
      }
      run.outcomes[i] = std::move(outcome);
    });
  }
  run.seconds = SecondsSince(t0);
  if (!st.ok()) {
    report->CountSessionError("Drive: " + st.ToString());
    run.ok = false;
  }
  if (auto c = service.shared_cache_stats()) run.cache = *c;
  return run;
}

double Coverage(const core::CrawlPlan& plan, const core::CrawlResult& r) {
  return static_cast<double>(core::FinalCoverage(plan.local(), r)) /
         static_cast<double>(plan.num_records());
}

void AddStats(const core::CrawlStats& s, core::CrawlStats* sum) {
  sum->pq_recomputes += s.pq_recomputes;
  sum->fanout_updates += s.fanout_updates;
  sum->delta_decrements += s.delta_decrements;
  sum->kernel_galloping += s.kernel_galloping;
  sum->kernel_merge += s.kernel_merge;
  sum->kernel_bitmap += s.kernel_bitmap;
  sum->kernel_simd_merge += s.kernel_simd_merge;
  sum->kernel_simd_gallop += s.kernel_simd_gallop;
  sum->kernel_bitmap_blocked += s.kernel_bitmap_blocked;
}

/// Per-tenant results of the first Drive: every later Drive, and every
/// replay of a tenant, must reproduce them.
struct FleetReference {
  std::vector<uint64_t> fingerprints;
  double coverage = 0.0;  // mean over tenants
  core::CrawlStats stats;  // summed over tenants
};

/// Accounts one Drive: counts operations, checks every tenant against the
/// reference (which the first Drive sets), returns false on any failure.
bool CheckDrive(const DriveRun& run, const std::vector<core::SessionSpec>& specs,
                const Options& opt, FleetReference* ref, Report* report) {
  if (!run.ok) return false;
  const bool first = ref->fingerprints.empty();
  bool ok = true;
  double coverage = 0.0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const core::SessionOutcome& o = run.outcomes[i];
    if (!o.status.ok()) {
      report->CountSessionError("tenant " + std::to_string(i) + ": " +
                                o.status.ToString());
      ok = false;
      continue;
    }
    report->CountSession(o.result);
    if (o.result.queries_issued > specs[i].budget) {
      report->Fail("tenant " + std::to_string(i) + " exceeded its budget");
      ok = false;
    }
    const uint64_t fp = Fingerprint(o.result);
    if (first) {
      ref->fingerprints.push_back(fp);
      coverage += Coverage(*specs[i].plan, o.result);
      AddStats(o.result.stats, &ref->stats);
    } else {
      report->CheckFingerprint("tenant " + std::to_string(i) + " across drives",
                               ref->fingerprints[i], fp);
    }
  }
  if (first && ok) {
    ref->coverage = coverage / static_cast<double>(specs.size());
    // The smoke test's tamper switch: the next Drive must be caught.
    if (opt.tamper_fingerprint) ref->fingerprints[0] ^= 1;
  }
  return ok && report->correct();
}

/// Crawls tenants [0, n) directly against the origin, one at a time, and
/// checks each against its Drive result.
void CheckDirect(const std::vector<core::SessionSpec>& specs, size_t n,
                 hidden::KeywordSearchInterface* origin,
                 const FleetReference& ref, Report* report) {
  for (size_t i = 0; i < std::min(n, specs.size()); ++i) {
    auto r = CrawlSteps(*specs[i].plan, origin, specs[i].budget, nullptr,
                        nullptr);
    if (!r.ok()) {
      report->Fail("direct crawl: " + r.status().ToString());
      return;
    }
    report->CheckFingerprint(
        "tenant " + std::to_string(i) + " Drive vs direct step-API crawl",
        ref.fingerprints[i], Fingerprint(*r));
  }
}

/// Untraced fleet measurement: one warm-up Drive, which sets the
/// fingerprint reference and ends the peak-memory window, then Drives for
/// opt.seconds.
struct FleetMeasure {
  bool ok = false;
  FleetReference ref;
  std::vector<double> rate;       // tenants / Drive wall time, per Drive
  std::vector<std::vector<double>> finish_ms;  // per timed Drive, per tenant
  double peak_rss_mb = 0.0;
};

FleetMeasure MeasureFleet(const std::vector<core::SessionSpec>& specs,
                          hidden::KeywordSearchInterface* origin,
                          const Options& opt, Report* report) {
  FleetMeasure m;
  DriveRun warm = Drive(origin, specs, opt.threads, nullptr, report);
  if (!CheckDrive(warm, specs, opt, &m.ref, report)) return m;
  m.peak_rss_mb = PeakRssMb();
  const auto t0 = Clock::now();
  for (int i = 0; i < 2 || SecondsSince(t0) < opt.seconds; ++i) {
    DriveRun run = Drive(origin, specs, opt.threads, nullptr, report);
    if (!CheckDrive(run, specs, opt, &m.ref, report)) return m;
    m.rate.push_back(static_cast<double>(specs.size()) / run.seconds);
    m.finish_ms.push_back(std::move(run.finish_ms));
  }
  m.ok = true;
  return m;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(values[i]);
  }
  return out + "]";
}

/// Median over passes of each pass's p-th latency percentile. A pass slowed
/// by host noise moves one value of the median instead of filling the top
/// of a pooled distribution.
double PassPercentile(const std::vector<std::vector<double>>& latency_ms,
                      double p) {
  std::vector<double> per_pass;
  per_pass.reserve(latency_ms.size());
  for (const std::vector<double>& pass : latency_ms) {
    per_pass.push_back(Percentile(pass, p));
  }
  return Median(std::move(per_pass));
}

/// `latency_ms` holds one sample vector per timed pass.
void EmitEndToEnd(Report* report, const std::vector<double>& setup_s,
                  double sessions_per_s,
                  const std::vector<std::vector<double>>& latency_ms,
                  double tail_pct, double coverage, double peak_rss_mb) {
  report->Metric("setup_s", Median(setup_s), "s");
  report->Context("setup_reps", static_cast<double>(setup_s.size()));
  report->Metric("wall_sessions_per_s", sessions_per_s, "1/s");
  report->Metric("latency_ms.p50", PassPercentile(latency_ms, 50.0), "ms");
  report->Metric("latency_ms.tail", PassPercentile(latency_ms, tail_pct),
                 "ms");
  report->Metric("coverage_frac", coverage, "fraction");
  report->Metric("peak_rss_mb", peak_rss_mb, "MiB");
  const size_t per_pass = latency_ms.empty() ? 0 : latency_ms[0].size();
  report->Context("latency_passes", static_cast<double>(latency_ms.size()));
  report->Context("latency_samples_per_pass", static_cast<double>(per_pass));
  report->Context("latency_tail_percentile", tail_pct);
  std::string pcts = "{";
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (pcts.size() > 1) pcts += ", ";
    pcts += Quote("p" + Num(p)) + ": " + Num(PassPercentile(latency_ms, p));
  }
  report->Context("latency_ms_percentiles", pcts + "}");
  std::vector<double> tails;
  for (const std::vector<double>& pass : latency_ms) {
    tails.push_back(Percentile(pass, tail_pct));
  }
  report->Context("pass_latency_ms_tail", JsonList(tails));
  report->Context("latency_samples_beyond_tail_per_pass",
                  std::floor(static_cast<double>(per_pass) *
                             (100.0 - tail_pct) / 100.0));
}

// ----- traced runs ----------------------------------------------------------

/// Every per-layer metric, zero where the workload leaves the layer idle.
struct Layers {
  double plan_count = 0, plan_build_ms = 0, pool_generate_ms = 0,
         pool_size = 0;
  double snapshot_load_ms = 0, snapshot_bytes = 0;
  /// Spans of the session step replay and how many crawl passes it covers.
  std::vector<Span> steps;
  double step_passes = 1;
  double heap_kb = 0;
  double page_prep_us = 0, join_us = 0, pages = 0;
  /// Origin calls and time of one crawl pass (a session or a Drive).
  double search_calls = 0, search_us = 0;
  net::CacheStats cache;
  double drive_ms = 0, first_finish_ms = 0;
  core::CrawlStats index;
  double overhead_frac = 0;
};

void EmitLayers(const Layers& l, size_t spans, Report* report) {
  report->Metric("plan.count", l.plan_count, "count");
  report->Metric("plan.build_ms", l.plan_build_ms, "ms");
  report->Metric("plan.pool_generate_ms", l.pool_generate_ms, "ms");
  report->Metric("plan.build_other_ms", l.plan_build_ms - l.pool_generate_ms,
                 "ms");
  report->Metric("plan.pool_size", l.pool_size, "count");
  report->Metric("snapshot.load_ms", l.snapshot_load_ms, "ms");
  report->Metric("snapshot.bytes", l.snapshot_bytes, "bytes");

  const auto& s = l.steps;
  report->Metric("session.construct_us",
                 Median(DurationsUs(s, "session.construct")), "us");
  report->Metric("session.begin_us", Median(DurationsUs(s, "session.begin")),
                 "us");
  report->Metric("session.issue_us.p50",
                 Median(DurationsUs(s, "session.issue")), "us");
  report->Metric("session.issue_us.total",
                 Sum(DurationsUs(s, "session.issue")) / l.step_passes, "us");
  report->Metric("session.issue_self_us.total",
                 SelfTimeUs(s, "session.issue") / l.step_passes, "us");
  report->Metric("session.process_us.p50",
                 Median(DurationsUs(s, "session.process")), "us");
  report->Metric("session.process_us.total",
                 Sum(DurationsUs(s, "session.process")) / l.step_passes, "us");
  report->Metric("session.process_us.oracle",
                 Median(DurationsUs(s, "session.process", 0)), "us");
  report->Metric("session.process_us.jaccard",
                 Median(DurationsUs(s, "session.process", 1)), "us");
  report->Metric("session.heap_kb", l.heap_kb, "KiB");

  report->Metric("text.page_prep_us", l.page_prep_us, "us");
  report->Metric("match.join_us", l.join_us, "us");
  report->Metric("text.pages", l.pages, "count");

  report->Metric("hidden.search_calls", l.search_calls, "count");
  report->Metric("hidden.search_us.total", l.search_us, "us");
  report->Metric("hidden.search_us.per_call",
                 l.search_calls > 0 ? l.search_us / l.search_calls : 0.0, "us");

  const double lookups = static_cast<double>(l.cache.hits + l.cache.misses);
  report->Metric("net.cache_hit_frac",
                 lookups > 0 ? static_cast<double>(l.cache.hits) / lookups : 0,
                 "fraction");
  report->Metric("net.cache_insertions",
                 static_cast<double>(l.cache.insertions), "count");
  report->Metric("net.cache_evictions", static_cast<double>(l.cache.evictions),
                 "count");

  report->Metric("service.drive_ms", l.drive_ms, "ms");
  report->Metric("service.first_finish_ms", l.first_finish_ms, "ms");

  const core::CrawlStats& x = l.index;
  report->Metric("index.pq_recomputes", static_cast<double>(x.pq_recomputes),
                 "count");
  report->Metric("index.fanout_updates", static_cast<double>(x.fanout_updates),
                 "count");
  report->Metric("index.delta_decrements",
                 static_cast<double>(x.delta_decrements), "count");
  report->Metric("index.kernel_galloping",
                 static_cast<double>(x.kernel_galloping), "count");
  report->Metric("index.kernel_merge", static_cast<double>(x.kernel_merge),
                 "count");
  report->Metric("index.kernel_bitmap", static_cast<double>(x.kernel_bitmap),
                 "count");
  report->Metric("index.kernel_simd_merge",
                 static_cast<double>(x.kernel_simd_merge), "count");
  report->Metric("index.kernel_simd_gallop",
                 static_cast<double>(x.kernel_simd_gallop), "count");
  report->Metric("index.kernel_bitmap_blocked",
                 static_cast<double>(x.kernel_bitmap_blocked), "count");

  report->Metric("trace.overhead_frac", l.overhead_frac, "fraction");
  report->Metric("trace.spans", static_cast<double>(spans), "count");
}

std::vector<Span> SpansSince(const Tracer& tracer, size_t mark) {
  std::vector<Span> all = tracer.Spans();
  return std::vector<Span>(all.begin() + static_cast<std::ptrdiff_t>(mark),
                           all.end());
}

/// Median over repetitions of the per-plan mean of the `name` spans
/// recorded since `mark` (spans come in repetition-major order).
double PerPlanMs(const Tracer& tracer, size_t mark, const char* name,
                 size_t plans) {
  std::vector<double> us = DurationsUs(SpansSince(tracer, mark), name);
  std::vector<double> per_rep;
  for (size_t i = 0; i + plans <= us.size(); i += plans) {
    per_rep.push_back(
        Sum(std::vector<double>(us.begin() + static_cast<std::ptrdiff_t>(i),
                                us.begin() +
                                    static_cast<std::ptrdiff_t>(i + plans))));
  }
  return Median(per_rep) / 1e3 / static_cast<double>(plans);
}

/// Replays query-pool generation on each plan's own documents and
/// dictionary ("plan.pool_generate" spans).
void ReplayPoolGeneration(const std::vector<PlanPtr>& plans, unsigned threads,
                          Tracer* tracer, Report* report) {
  for (const PlanPtr& plan : plans) {
    std::vector<text::Document> docs(plan->local_docs().begin(),
                                     plan->local_docs().end());
    core::QueryPoolOptions options = plan->options().pool;
    options.num_threads = threads;
    size_t size = 0;
    {
      SpanScope span(tracer, "plan.pool_generate");
      size = core::GenerateQueryPool(docs, plan->dict(), options).size();
    }
    if (size != plan->pool().size()) {
      report->Fail("pool replay size differs from the plan's pool");
    }
  }
}

/// Writes each plan to a snapshot (untimed) and times LoadSnapshot on it.
void ReplaySnapshotLoads(const std::vector<PlanPtr>& plans,
                         const std::string& dir, Tracer* tracer, Layers* l,
                         Report* report) {
  const size_t mark = tracer->size();
  double bytes = 0;
  for (int rep = 0; rep < kTraceSetupReps; ++rep) {
    for (size_t i = 0; i < plans.size(); ++i) {
      const std::string path = dir + "/replay_" + std::to_string(i) + ".snap";
      if (rep == 0) {
        Status st = plans[i]->Serialize(path);
        if (!st.ok()) {
          report->Fail("serialize: " + st.ToString());
          return;
        }
        bytes += static_cast<double>(std::filesystem::file_size(path));
      }
      Result<std::unique_ptr<core::CrawlPlan>> loaded =
          Status::Internal("unset");
      {
        SpanScope span(tracer, "snapshot.load");
        loaded = core::CrawlPlan::LoadSnapshot(path);
      }
      if (!loaded.ok()) {
        report->Fail("snapshot load: " + loaded.status().ToString());
        return;
      }
      if (PlanFingerprint(**loaded) != PlanFingerprint(*plans[i])) {
        report->Fail("snapshot-loaded plan differs from the built plan");
      }
    }
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    std::filesystem::remove(dir + "/replay_" + std::to_string(i) + ".snap");
  }
  l->snapshot_load_ms = PerPlanMs(*tracer, mark, "snapshot.load", plans.size());
  l->snapshot_bytes = bytes / static_cast<double>(plans.size());
}

/// Heap bytes a constructed session holds, averaged over sessions on up to
/// 64 of `plans`. (RSS growth per session is not measurable from outside:
/// the allocator reuses pages freed by earlier work.)
double SessionHeapKb(const std::vector<PlanPtr>& plans) {
  const size_t n = std::min<size_t>(64, plans.size());
  std::vector<std::unique_ptr<core::CrawlSession>> sessions;
  sessions.reserve(n);
  const double before = CountedHeapBytes();
  CountHeap(true);
  for (size_t i = 0; i < n; ++i) {
    sessions.push_back(std::make_unique<core::CrawlSession>(*plans[i]));
  }
  CountHeap(false);
  return (CountedHeapBytes() - before) / static_cast<double>(n) / 1024.0;
}

/// Replays page preparation (Document::FromText per record) and the
/// similarity join over the pages the Jaccard tenants were served. Pages are
/// re-fetched from the origin outside every timed region.
void ReplayPagesAndJoins(const std::vector<core::SessionSpec>& specs,
                         const std::vector<core::SessionOutcome>& outcomes,
                         hidden::KeywordSearchInterface* origin,
                         Tracer* tracer, Layers* l, Report* report) {
  struct PlanState {
    std::unordered_map<std::string, core::QueryIdx> query_index;
    text::TermDictionary dict;
  };
  std::map<const core::CrawlPlan*, PlanState> states;
  const size_t mark = tracer->size();
  size_t pages = 0;
  size_t pairs = 0;
  for (size_t t = 0; t < specs.size() && pages < kMaxReplayPages; ++t) {
    const core::CrawlPlan& plan = *specs[t].plan;
    if (ErTag(plan) != 1) continue;
    PlanState& st = states[&plan];
    if (st.query_index.empty()) {
      for (size_t q = 0; q < plan.pool().size(); ++q) {
        st.query_index.emplace(plan.pool().queries[q].Display(),
                               static_cast<core::QueryIdx>(q));
      }
      st.dict = plan.dict();
    }
    for (const auto& it : outcomes[t].result.iterations) {
      if (pages >= kMaxReplayPages) break;
      auto qi = st.query_index.find(it.query);
      if (qi == st.query_index.end()) {
        report->Fail("logged query not in the plan's pool: " + it.query);
        return;
      }
      const core::Query& query = plan.pool().queries[qi->second];
      auto page = origin->Search(query.keywords);
      if (!page.ok()) {
        report->Fail("page re-fetch: " + page.status().ToString());
        return;
      }
      std::vector<std::string> texts;
      for (const auto& rec : *page) {
        std::string text;
        for (size_t f = 0; f < rec.fields.size(); ++f) {
          if (f > 0) text += ' ';
          text += rec.fields[f];
        }
        texts.push_back(std::move(text));
      }
      std::vector<text::Document> left;
      for (auto d : plan.pool().local_postings[qi->second]) {
        left.push_back(plan.local_docs()[d]);
      }
      std::vector<text::Document> right;
      right.reserve(texts.size());
      {
        SpanScope span(tracer, "text.page_prep");
        for (const std::string& text : texts) {
          right.push_back(text::Document::FromText(text, st.dict));
        }
      }
      {
        SpanScope span(tracer, "match.join");
        pairs += match::JaccardJoin(left, right, kJaccardThreshold).size();
      }
      ++pages;
    }
  }
  const std::vector<Span> spans = SpansSince(*tracer, mark);
  l->page_prep_us = Median(DurationsUs(spans, "text.page_prep"));
  l->join_us = Median(DurationsUs(spans, "match.join"));
  l->pages = static_cast<double>(pages);
  report->Context("replay_join_pairs", static_cast<double>(pairs));
}

/// The traced part every fleet shares: untraced and traced Drives in
/// alternation (overhead, service, origin and cache layers), then a
/// sequential step-API replay of every spec over a bench-owned cache
/// (session layers), the session heap, and the page/join replay.
FleetReference TraceFleet(const std::vector<core::SessionSpec>& specs,
                          hidden::KeywordSearchInterface* origin,
                          const Options& opt, Tracer* tracer, Layers* l,
                          Report* report) {
  FleetReference ref;
  TimedOrigin timed(origin, tracer);
  std::vector<double> plain_s, traced_s, first_ms, search_calls, search_us;
  DriveRun last;
  DriveRun warm = Drive(origin, specs, opt.threads, nullptr, report);
  if (!CheckDrive(warm, specs, opt, &ref, report)) return ref;
  const auto t0 = Clock::now();
  for (int pair = 0; pair < 2 || SecondsSince(t0) < opt.seconds * 0.5;
       ++pair) {
    DriveRun plain = Drive(origin, specs, opt.threads, nullptr, report);
    if (!CheckDrive(plain, specs, opt, &ref, report)) return ref;
    plain_s.push_back(plain.seconds);

    const size_t mark = tracer->size();
    const uint64_t calls_before = timed.calls();
    DriveRun traced = Drive(&timed, specs, opt.threads, tracer, report);
    if (!CheckDrive(traced, specs, opt, &ref, report)) return ref;
    traced_s.push_back(traced.seconds);
    first_ms.push_back(
        *std::min_element(traced.finish_ms.begin(), traced.finish_ms.end()));
    search_calls.push_back(static_cast<double>(timed.calls() - calls_before));
    search_us.push_back(
        Sum(DurationsUs(SpansSince(*tracer, mark), "hidden.search")));
    last = std::move(traced);
  }
  l->overhead_frac = Median(traced_s) / Median(plain_s) - 1.0;
  l->drive_ms = 1e3 * Median(traced_s);
  l->first_finish_ms = Median(first_ms);
  l->search_calls = Median(search_calls);
  l->search_us = Median(search_us);
  l->cache = last.cache;
  l->index = ref.stats;

  // Sequential step-API replay: the session layers, per tenant.
  net::CachingInterface cache(&timed, core::CrawlServiceOptions{}
                                          .shared_cache_capacity);
  const size_t mark = tracer->size();
  for (size_t i = 0; i < specs.size(); ++i) {
    RequestScope request(static_cast<int64_t>(i));
    auto r = CrawlSteps(*specs[i].plan, &cache, specs[i].budget, tracer,
                        nullptr);
    if (!r.ok()) {
      report->CountSessionError("replay: " + r.status().ToString());
      return ref;
    }
    report->CheckFingerprint(
        "tenant " + std::to_string(i) + " Drive vs traced replay",
        ref.fingerprints[i], Fingerprint(*r));
  }
  l->steps = SpansSince(*tracer, mark);
  l->step_passes = 1;

  std::vector<PlanPtr> plans;
  for (const auto& spec : specs) plans.push_back(spec.plan);
  l->heap_kb = SessionHeapKb(plans);
  ReplayPagesAndJoins(specs, last.outcomes, origin, tracer, l, report);
  return ref;
}

void FinishTrace(const Options& opt, const Tracer& tracer, const Layers& l,
                 Report* report) {
  EmitLayers(l, tracer.size(), report);
  const std::string path = opt.work_dir + "/trace_" + opt.workload + "_" +
                           std::to_string(opt.seed) + ".jsonl";
  if (tracer.WriteJsonLines(path, report->ContextJson())) {
    report->ContextString("trace_file", path);
  } else {
    report->Fail("cannot write " + path);
  }
}

}  // namespace

// ----- paper_crawl ----------------------------------------------------------

void RunPaperCrawl(const Options& opt, Report* report) {
  const size_t hidden = Scaled(opt, 100000, 400);
  const size_t local = Scaled(opt, 10000, 40);
  const size_t budget = Scaled(opt, 2000, 8);
  const double theta = 0.005;
  report->Context("hidden_records", static_cast<double>(hidden));
  report->Context("local_records", static_cast<double>(local));
  report->Context("top_k", 100.0);
  report->Context("budget", static_cast<double>(budget));
  report->Context("theta", theta);
  report->ContextString("policy", "SmartCrawl-B, entity-oracle ER");

  auto scenario = MakePaperDblp(hidden, local, opt.seed, report);
  if (!scenario) return;
  const sample::HiddenSample sample =
      sample::BernoulliSample(*scenario->hidden, theta, opt.seed ^ 0x5a5a5aULL);
  const core::SmartCrawlOptions options =
      PlanOptions(*scenario, core::SelectionPolicy::kEstBiased,
                  match::ErMode::kEntityOracle, opt.threads);
  hidden::KeywordSearchInterface* origin = scenario->hidden.get();
  ResetPeakRss();

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;

  // Setup: repeated plan builds; the last one is crawled.
  const auto setup_start = Clock::now();
  const size_t build_mark = tracer.size();
  std::vector<double> setup_s;
  PlanPtr plan;
  for (int rep = 0; MoreSetup(opt, rep, setup_start); ++rep) {
    const auto t0 = Clock::now();
    Result<std::unique_ptr<core::CrawlPlan>> built = Status::Internal("unset");
    {
      SpanScope span(tr, "plan.build");
      built = core::CrawlPlan::Build(&scenario->local, options, &sample);
    }
    setup_s.push_back(SecondsSince(t0));
    if (!built.ok()) {
      report->Fail("plan build: " + built.status().ToString());
      return;
    }
    if (plan && PlanFingerprint(**built) != PlanFingerprint(*plan)) {
      report->Fail("plan builds differ between repeats");
    }
    plan = std::move(built).value();
  }

  uint64_t reference = 0;
  bool have_reference = false;
  double coverage = 0.0;
  core::CrawlStats stats;
  // One crawl pass; returns its wall time, or a negative value on failure.
  auto pass = [&](hidden::KeywordSearchInterface* iface, Tracer* t,
                  std::vector<double>* query_ms) {
    const auto t0 = Clock::now();
    auto r = CrawlSteps(*plan, iface, budget, t, query_ms);
    const double s = SecondsSince(t0);
    if (!r.ok()) {
      report->CountSessionError(r.status().ToString());
      return -1.0;
    }
    report->CountSession(*r);
    if (r->queries_issued > budget) report->Fail("budget exceeded");
    const uint64_t fp = Fingerprint(*r);
    if (!have_reference) {
      have_reference = true;
      reference = opt.tamper_fingerprint ? fp ^ 1 : fp;
      coverage = Coverage(*plan, *r);
      stats = r->stats;
    } else {
      report->CheckFingerprint("crawl repeat", reference, fp);
    }
    return report->correct() ? s : -1.0;
  };

  // Warm-up crawl: sets the fingerprint reference and ends the
  // peak-memory window.
  if (pass(origin, nullptr, nullptr) < 0) return;
  const double peak_rss_mb = PeakRssMb();

  const auto t_start = Clock::now();
  if (!opt.trace) {
    std::vector<double> crawl_s;
    std::vector<std::vector<double>> query_ms;
    for (int i = 0; i < 3 || SecondsSince(t_start) < opt.seconds; ++i) {
      const double s = pass(origin, nullptr, &query_ms.emplace_back());
      if (s < 0) return;
      crawl_s.push_back(s);
    }
    report->Context("pass_s", JsonList(crawl_s));
    EmitEndToEnd(report, setup_s, 1.0 / Median(crawl_s), query_ms,
                 kPaperTailPct, coverage, peak_rss_mb);
    return;
  }

  Layers l;
  l.plan_count = 1;
  l.plan_build_ms = PerPlanMs(tracer, build_mark, "plan.build", 1);
  l.pool_size = static_cast<double>(plan->pool().size());
  const size_t pool_mark = tracer.size();
  for (int rep = 0; rep < kTraceSetupReps; ++rep) {
    ReplayPoolGeneration({plan}, opt.threads, tr, report);
  }
  l.pool_generate_ms = PerPlanMs(tracer, pool_mark, "plan.pool_generate", 1);
  ReplaySnapshotLoads({plan}, opt.work_dir, tr, &l, report);

  // Untraced and traced crawls in alternation.
  TimedOrigin timed(origin, tr);
  std::vector<double> plain_s, traced_s;
  const size_t step_mark = tracer.size();
  for (int i = 0; i < 2 || SecondsSince(t_start) < opt.seconds * 0.5; ++i) {
    const double p = pass(origin, nullptr, nullptr);
    RequestScope request(i);
    const double t = pass(&timed, tr, nullptr);
    if (p < 0 || t < 0) return;
    plain_s.push_back(p);
    traced_s.push_back(t);
  }
  l.overhead_frac = Median(traced_s) / Median(plain_s) - 1.0;
  l.steps = SpansSince(tracer, step_mark);
  l.step_passes = static_cast<double>(traced_s.size());
  l.search_calls = static_cast<double>(timed.calls()) / l.step_passes;
  l.search_us = Sum(DurationsUs(l.steps, "hidden.search")) / l.step_passes;
  l.index = stats;
  l.heap_kb = SessionHeapKb({plan, plan, plan, plan});
  FinishTrace(opt, tracer, l, report);
}

// ----- fleet_shared ---------------------------------------------------------

void RunFleetShared(const Options& opt, Report* report) {
  const size_t corpus = Scaled(opt, 4000, 600);
  const size_t hidden = Scaled(opt, 1500, 200);
  const size_t local = Scaled(opt, 250, 40);
  const size_t tenants = Scaled(opt, 1000, 32);
  const double theta = 0.025;
  report->Context("corpus_records", static_cast<double>(corpus));
  report->Context("hidden_records", static_cast<double>(hidden));
  report->Context("local_records", static_cast<double>(local));
  report->Context("top_k", 50.0);
  report->Context("error_rate", 0.2);
  report->Context("theta", theta);
  report->Context("plans", 8.0);
  report->Context("tenants", static_cast<double>(tenants));
  report->ContextString("budgets", "5..30");

  auto scenario =
      MakeDblp(hidden, local, corpus, 0.5, 50, 0.2, opt.seed, report);
  if (!scenario) return;
  const sample::HiddenSample sample =
      sample::BernoulliSample(*scenario->hidden, theta, opt.seed ^ 0x5a5a5aULL);
  hidden::KeywordSearchInterface* origin = scenario->hidden.get();
  ResetPeakRss();

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;

  // Setup: the 8 shared plans, {4 policies} x {entity oracle, Jaccard 0.6}.
  constexpr core::SelectionPolicy kPolicies[] = {
      core::SelectionPolicy::kSimple, core::SelectionPolicy::kBound,
      core::SelectionPolicy::kEstBiased, core::SelectionPolicy::kEstUnbiased};
  constexpr match::ErMode kModes[] = {match::ErMode::kEntityOracle,
                                      match::ErMode::kJaccard};
  const auto setup_start = Clock::now();
  const size_t build_mark = tracer.size();
  std::vector<double> setup_s;
  std::vector<PlanPtr> plans;
  std::vector<uint64_t> plan_fps;
  for (int rep = 0; MoreSetup(opt, rep, setup_start); ++rep) {
    std::vector<PlanPtr> built_plans;
    const auto t0 = Clock::now();
    for (core::SelectionPolicy p : kPolicies) {
      for (match::ErMode er : kModes) {
        Result<std::unique_ptr<core::CrawlPlan>> built =
            Status::Internal("unset");
        {
          SpanScope span(tr, "plan.build", er == match::ErMode::kJaccard);
          built = core::CrawlPlan::Build(
              &scenario->local, PlanOptions(*scenario, p, er, opt.threads),
              &sample);
        }
        if (!built.ok()) {
          report->Fail("plan build: " + built.status().ToString());
          return;
        }
        built_plans.push_back(std::move(built).value());
      }
    }
    setup_s.push_back(SecondsSince(t0));
    for (size_t i = 0; i < built_plans.size(); ++i) {
      const uint64_t fp = PlanFingerprint(*built_plans[i]);
      if (rep == 0) {
        plan_fps.push_back(fp);
      } else if (fp != plan_fps[i]) {
        report->Fail("plan builds differ between repeats");
      }
    }
    plans = std::move(built_plans);
  }

  std::vector<core::SessionSpec> specs(tenants);
  for (size_t i = 0; i < tenants; ++i) {
    specs[i].plan = plans[i % plans.size()];
    specs[i].budget = 5 + i % 26;
  }

  if (!opt.trace) {
    FleetMeasure m = MeasureFleet(specs, origin, opt, report);
    if (!m.ok) return;
    report->Context("pass_sessions_per_s", JsonList(m.rate));
    CheckDirect(specs, plans.size(), origin, m.ref, report);
    EmitEndToEnd(report, setup_s, Median(m.rate), m.finish_ms,
                 kFleetSharedTailPct, m.ref.coverage, m.peak_rss_mb);
    return;
  }

  Layers l;
  l.plan_count = static_cast<double>(plans.size());
  l.plan_build_ms = PerPlanMs(tracer, build_mark, "plan.build", plans.size());
  for (const PlanPtr& p : plans) {
    l.pool_size += static_cast<double>(p->pool().size());
  }
  l.pool_size /= static_cast<double>(plans.size());
  const size_t pool_mark = tracer.size();
  for (int rep = 0; rep < kTraceSetupReps; ++rep) {
    ReplayPoolGeneration(plans, opt.threads, tr, report);
  }
  l.pool_generate_ms =
      PerPlanMs(tracer, pool_mark, "plan.pool_generate", plans.size());
  ReplaySnapshotLoads(plans, opt.work_dir, tr, &l, report);
  TraceFleet(specs, origin, opt, tr, &l, report);
  FinishTrace(opt, tracer, l, report);
}

// ----- fleet_distinct -------------------------------------------------------

void RunFleetDistinct(const Options& opt, Report* report) {
  const size_t hidden = Scaled(opt, 100000, 800);
  const size_t tenants = Scaled(opt, 64, 4);
  const size_t local = Scaled(opt, 1000, 40);
  const double theta = 0.005;
  report->Context("hidden_records", static_cast<double>(hidden));
  report->Context("top_k", 100.0);
  report->Context("tenants", static_cast<double>(tenants));
  report->Context("local_records_per_tenant", static_cast<double>(local));
  report->Context("error_rate", 0.2);
  report->Context("theta", theta);
  report->ContextString("policy", "SmartCrawl-B, entity-oracle ER, one plan per tenant");
  report->ContextString("budgets", "200..599");

  auto scenario = MakePaperDblp(hidden, local, opt.seed, report);
  if (!scenario) return;
  hidden::KeywordSearchInterface* origin = scenario->hidden.get();

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;

  // Prepare (untimed, except for the traced build spans): each tenant's
  // local table drawn from H with 20% title errors, its own sample of H,
  // its plan built and written to a snapshot, one tenant at a time.
  // Per-tenant samples keep one unlucky sample from skewing every plan.
  const table::Table& h = scenario->hidden->OracleTable();
  std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<uint32_t> rows(h.size());
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<std::string> paths;
  std::vector<uint64_t> plan_fps;
  std::vector<PlanPtr> built_plans;  // traced runs replay pools on them
  table::Table first_local;  // outlives `first_built`
  PlanPtr first_built;  // tenant 0's built plan, for the load-vs-build check
  const size_t build_mark = tracer.size();
  double pool_size = 0;
  for (size_t t = 0; t < tenants; ++t) {
    table::Table tenant_local(h.schema());
    for (size_t i = 0; i < local; ++i) {
      std::uniform_int_distribution<size_t> pick(i, rows.size() - 1);
      std::swap(rows[i], rows[pick(rng)]);
      const table::Record& rec = h.record(rows[i]);
      if (!tenant_local.Append(rec.fields, rec.entity_id).ok()) {
        report->Fail("local table append");
        return;
      }
    }
    datagen::ErrorInjectOptions err;
    err.error_rate = 0.2;
    err.seed = rng();
    err.target_field = "title";
    datagen::InjectErrors(&tenant_local, err);
    const table::Table* local_ptr = &tenant_local;
    if (t == 0) {
      first_local = std::move(tenant_local);
      local_ptr = &first_local;
    }
    const sample::HiddenSample sample =
        sample::BernoulliSample(*scenario->hidden, theta, rng());
    Result<std::unique_ptr<core::CrawlPlan>> built = Status::Internal("unset");
    {
      SpanScope span(tr, "plan.build");
      built = core::CrawlPlan::Build(
          local_ptr,
          PlanOptions(*scenario, core::SelectionPolicy::kEstBiased,
                      match::ErMode::kEntityOracle, opt.threads),
          &sample);
    }
    if (!built.ok()) {
      report->Fail("plan build: " + built.status().ToString());
      return;
    }
    paths.push_back(opt.work_dir + "/tenant_" + std::to_string(t) + ".snap");
    Status st = (*built)->Serialize(paths.back());
    if (!st.ok()) {
      report->Fail("serialize: " + st.ToString());
      return;
    }
    plan_fps.push_back(PlanFingerprint(**built));
    pool_size += static_cast<double>((*built)->pool().size());
    PlanPtr plan = std::move(built).value();
    if (t == 0) first_built = plan;
    if (opt.trace) {
      // The local table dies with this iteration; replay its pool now.
      ReplayPoolGeneration({plan}, opt.threads, tr, report);
    }
  }
  ResetPeakRss();

  // Setup: load every tenant's plan from its snapshot, repeatedly.
  const auto setup_start = Clock::now();
  std::vector<double> setup_s;
  std::vector<PlanPtr> plans;
  const size_t load_mark = tracer.size();
  for (int rep = 0; MoreSetup(opt, rep, setup_start); ++rep) {
    std::vector<PlanPtr> loaded_plans;
    const auto t0 = Clock::now();
    for (const std::string& path : paths) {
      Result<std::unique_ptr<core::CrawlPlan>> loaded =
          Status::Internal("unset");
      {
        SpanScope span(tr, "snapshot.load");
        loaded = core::CrawlPlan::LoadSnapshot(path);
      }
      if (!loaded.ok()) {
        report->Fail("snapshot load: " + loaded.status().ToString());
        return;
      }
      loaded_plans.push_back(std::move(loaded).value());
    }
    setup_s.push_back(SecondsSince(t0));
    plans = std::move(loaded_plans);
  }
  for (size_t t = 0; t < tenants; ++t) {
    if (PlanFingerprint(*plans[t]) != plan_fps[t]) {
      report->Fail("snapshot-loaded plan " + std::to_string(t) +
                   " differs from the built plan");
    }
  }

  std::vector<core::SessionSpec> specs(tenants);
  for (size_t i = 0; i < tenants; ++i) {
    specs[i].plan = plans[i];
    specs[i].budget =
        std::max<size_t>(2, static_cast<size_t>(std::llround(
                                static_cast<double>(200 + (i * 251) % 400) *
                                opt.scale)));
  }

  // Tenant 0 crawled over its built plan must match its loaded plan.
  auto check_loaded_vs_built = [&](const FleetReference& ref) {
    auto r = CrawlSteps(*first_built, origin, specs[0].budget, nullptr,
                        nullptr);
    if (!r.ok()) {
      report->Fail("built-plan crawl: " + r.status().ToString());
      return;
    }
    report->CheckFingerprint("tenant 0 snapshot-loaded vs built plan",
                             ref.fingerprints[0], Fingerprint(*r));
  };

  if (!opt.trace) {
    FleetMeasure m = MeasureFleet(specs, origin, opt, report);
    if (!m.ok) return;
    report->Context("pass_sessions_per_s", JsonList(m.rate));
    CheckDirect(specs, 2, origin, m.ref, report);
    check_loaded_vs_built(m.ref);
    EmitEndToEnd(report, setup_s, Median(m.rate), m.finish_ms,
                 kFleetDistinctTailPct, m.ref.coverage, m.peak_rss_mb);
  } else {
    Layers l;
    l.plan_count = static_cast<double>(tenants);
    l.plan_build_ms = PerPlanMs(tracer, build_mark, "plan.build", tenants);
    l.pool_size = pool_size / static_cast<double>(tenants);
    l.pool_generate_ms =
        PerPlanMs(tracer, build_mark, "plan.pool_generate", tenants);
    l.snapshot_load_ms = PerPlanMs(tracer, load_mark, "snapshot.load", tenants);
    double bytes = 0;
    for (const std::string& path : paths) {
      bytes += static_cast<double>(std::filesystem::file_size(path));
    }
    l.snapshot_bytes = bytes / static_cast<double>(tenants);
    const FleetReference ref = TraceFleet(specs, origin, opt, tr, &l, report);
    if (!ref.fingerprints.empty()) check_loaded_vs_built(ref);
    FinishTrace(opt, tracer, l, report);
  }
  for (const std::string& path : paths) std::filesystem::remove(path);
}

}  // namespace crawlbench

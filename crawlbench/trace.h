#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "hidden/search_interface.h"

/// \file trace.h
/// In-memory span recorder for the benchmark's traced runs.
///
/// Spans are recorded from the benchmark's own code, around its calls into
/// each layer of the library (plan build, snapshot load, session steps,
/// service drive, origin search, page preparation, matching). Each span
/// has a name, start and end, the span that was open around it on the same
/// thread (its parent), the request it belongs to (session or tenant
/// index) and one integer tag (e.g. the ER mode). Spans stay in memory and
/// are written out once, when the run ends.
///
/// A null Tracer* turns every SpanScope into a no-op, so traced and
/// untraced runs execute the same benchmark code.

namespace crawlbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) { return 1e3 * SecondsSince(t0); }

struct Span {
  const char* name = "";
  int64_t start_ns = 0;  // since the tracer was created
  int64_t end_ns = 0;
  uint32_t id = 0;
  int64_t parent = -1;   // id of the enclosing span on the same thread
  int64_t request = -1;  // session / tenant index, -1 when unknown
  int64_t tag = 0;

  double us() const { return 1e-3 * static_cast<double>(end_ns - start_ns); }
};

class Tracer {
 public:
  Tracer();

  int64_t Now() const;
  uint32_t NextId() { return next_id_.fetch_add(1); }
  void Record(const Span& span);
  /// A zero-length span marking a moment (e.g. a tenant's finish).
  void Event(const char* name, int64_t request, int64_t tag = 0);

  /// Copy of every span recorded so far, in completion order.
  std::vector<Span> Spans() const;
  size_t size() const;

  /// Writes one JSON object per line: a header line holding `context_json`,
  /// then one line per span.
  bool WriteJsonLines(const std::string& path,
                      const std::string& context_json) const;

 private:
  Clock::time_point origin_;
  std::atomic<uint32_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span around one call into a layer. Nested scopes on one thread
/// become parent and child.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int64_t tag = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
};

/// Sets the request id that spans opened on this thread carry until the
/// guard goes out of scope.
class RequestScope {
 public:
  explicit RequestScope(int64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  int64_t saved_;
};

/// Search decorator over the origin: counts calls and, when tracing, records
/// one "hidden.search" span per call. Holds no page copies, so it adds no
/// work but the clock reads.
class TimedOrigin : public smartcrawl::hidden::KeywordSearchInterface {
 public:
  TimedOrigin(smartcrawl::hidden::KeywordSearchInterface* inner,
              Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  smartcrawl::Result<std::vector<smartcrawl::table::Record>> Search(
      const std::vector<std::string>& keywords) override;
  size_t top_k() const override { return inner_->top_k(); }
  size_t num_queries_issued() const override {
    return inner_->num_queries_issued();
  }

  uint64_t calls() const { return calls_.load(); }

 private:
  smartcrawl::hidden::KeywordSearchInterface* inner_;
  Tracer* tracer_;
  std::atomic<uint64_t> calls_{0};
};

/// Durations (us) of every span called `name`; when `tag` is not -1, only
/// spans carrying that tag.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name, int64_t tag = -1);

/// Total duration (us) of the spans called `name` minus the time covered by
/// their direct children — the layer's self time.
double SelfTimeUs(const std::vector<Span>& spans, const char* name);

}  // namespace crawlbench

#include "trace.h"

#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace crawlbench {

namespace {

thread_local std::vector<uint32_t> t_open;  // ids of open spans, innermost last
thread_local int64_t t_request = -1;

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::Event(const char* name, int64_t request, int64_t tag) {
  Span s;
  s.name = name;
  s.start_ns = s.end_ns = Now();
  s.id = NextId();
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.request = request;
  s.tag = tag;
  Record(s);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path,
                            const std::string& context_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"context\": %s}\n", context_json.c_str());
  for (const Span& s : Spans()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %u, \"parent\": %lld, "
                 "\"request\": %lld, \"tag\": %lld, \"start_ns\": %lld, "
                 "\"end_ns\": %lld}\n",
                 s.name, s.id, static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.tag),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer* tracer, const char* name, int64_t tag)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = t_open.empty() ? -1 : t_open.back();
  span_.request = t_request;
  span_.tag = tag;
  t_open.push_back(span_.id);
  span_.start_ns = tracer_->Now();
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->Now();
  t_open.pop_back();
  tracer_->Record(span_);
}

RequestScope::RequestScope(int64_t request) : saved_(t_request) {
  t_request = request;
}

RequestScope::~RequestScope() { t_request = saved_; }

smartcrawl::Result<std::vector<smartcrawl::table::Record>> TimedOrigin::Search(
    const std::vector<std::string>& keywords) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  SpanScope span(tracer_, "hidden.search");
  return inner_->Search(keywords);
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name, int64_t tag) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    if (tag != -1 && s.tag != tag) continue;
    out.push_back(s.us());
  }
  return out;
}

double SelfTimeUs(const std::vector<Span>& spans, const char* name) {
  std::unordered_map<uint32_t, double> total;  // span id -> duration
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) total[s.id] = s.us();
  }
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    auto it = total.find(static_cast<uint32_t>(s.parent));
    if (it != total.end()) it->second -= s.us();
  }
  double sum = 0.0;
  for (const auto& [id, us] : total) sum += us;
  return sum;
}

}  // namespace crawlbench

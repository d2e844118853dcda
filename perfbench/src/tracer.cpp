#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::uint64_t tl_current = 0;
thread_local std::vector<Span>* tl_buffer = nullptr;

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(const Span& span) {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buf = std::make_unique<Buffer>();
    buf->thread = static_cast<std::uint32_t>(buffers_.size());
    buf->spans.reserve(4096);
    tl_buffer = &buf->spans;
    buffers_.push_back(std::move(buf));
  }
  tl_buffer->push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (Span s : b->spans) {
      s.thread = b->thread;
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

std::size_t Tracer::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.capacity() * sizeof(Span);
  return n;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,thread,name,start_ns,end_ns,c0,c1,c2,c3,c4,c5\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "%llu,%llu,%u,%s,%lld,%lld", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread, s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    for (const std::int64_t c : s.c) std::fprintf(f, ",%lld", static_cast<long long>(c));
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

std::uint64_t current_span() noexcept { return tl_current; }

SpanScope::SpanScope(const char* name, std::uint64_t parent) {
  Tracer& t = Tracer::get();
  if (!t.on()) return;
  active_ = true;
  span_.name = name;
  span_.id = t.next_id();
  span_.parent = parent;
  saved_current_ = tl_current;
  tl_current = span_.id;
  span_.start_ns = t.now_ns();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  Tracer& t = Tracer::get();
  span_.end_ns = t.now_ns();
  tl_current = saved_current_;
  t.record(span_);
}

std::vector<Span> spans_under(const std::vector<Span>& spans, const char* root) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id.emplace(s.id, &s);
  std::vector<Span> out;
  for (const Span& s : spans) {
    const Span* top = &s;
    for (auto it = by_id.find(top->parent); it != by_id.end(); it = by_id.find(top->parent)) {
      top = it->second;
    }
    if (std::strcmp(top->name, root) == 0) out.push_back(s);
  }
  return out;
}

std::vector<const Span*> spans_named(const std::vector<Span>& spans, const char* name) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(&s);
  }
  return out;
}

std::vector<double> durations_us(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span* s : spans_named(spans, name)) out.push_back(s->seconds() * 1e6);
  return out;
}

double total_seconds(const std::vector<Span>& spans, const char* name) {
  double sum = 0.0;
  for (const Span* s : spans_named(spans, name)) sum += s->seconds();
  return sum;
}

std::int64_t total_count(const std::vector<Span>& spans, const char* name, int k) {
  std::int64_t sum = 0;
  for (const Span* s : spans_named(spans, name)) sum += s->c[k];
  return sum;
}

}  // namespace perfbench

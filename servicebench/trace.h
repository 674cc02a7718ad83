// Span recording for the traced run (--trace 1).
//
// Spans are timed from the benchmark's side of each layer boundary: around
// Service::submit, around the epoll thread's submit (through a wrapper
// passed as BasicNetServer's service type), around Service::recover and
// the single-thread tx::atomically probe, and at the client's send and
// receive.  They are kept in memory and written out when the run ends.
// Spans inside the program (queue wait, execute, WAL wait, egress) are not
// recorded here.
//
// To keep the traced run close to the untraced one, only requests whose id
// is a multiple of kTraceEvery are traced; every span of a traced request
// carries that request's id.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace sbench {

inline constexpr std::uint64_t kTraceEvery = 64;
inline bool traced_id(std::uint64_t id) { return id % kTraceEvery == 0; }

enum class SpanName : std::uint8_t {
  kNone = 0,
  kRequest,     // client: request sent -> reply observed (root)
  kSubmit,      // client thread inside Service::submit
  kQueued,      // Service: enqueue -> completion (ResponseFuture::latency_ns)
  kObserve,     // completion -> client observed it
  kNetSubmit,   // epoll thread inside Service::submit
  kNetQueued,   // epoll thread's submit -> completion hook
  kClientSend,  // frame encoded -> its last byte handed to send()
  kClientRecv,  // recv() returned the reply's last byte -> reply decoded
  kRecover,     // Service::recover
  kProbeGet,    // one single-thread tx::atomically get
  kProbePut,    // one single-thread tx::atomically put
};

inline const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kNone: return "-";
    case SpanName::kRequest: return "request";
    case SpanName::kSubmit: return "submit";
    case SpanName::kQueued: return "queued";
    case SpanName::kObserve: return "observe";
    case SpanName::kNetSubmit: return "net.submit";
    case SpanName::kNetQueued: return "net.queued";
    case SpanName::kClientSend: return "client.send";
    case SpanName::kClientRecv: return "client.recv";
    case SpanName::kRecover: return "recover";
    case SpanName::kProbeGet: return "probe.get";
    case SpanName::kProbePut: return "probe.put";
  }
  return "?";
}

struct Span {
  std::uint64_t id = 0;  // request id; 0 for spans outside a request
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanName name = SpanName::kNone;
  SpanName parent = SpanName::kNone;  // the span of the same id that caused it
  bool read_only = false;             // the request has no write step
};

/// Fixed-capacity span store.  add() is safe from any number of threads
/// (one atomic slot claim); spans past the capacity are counted, not kept.
class SpanStore {
 public:
  explicit SpanStore(std::size_t capacity) : spans_(capacity) {}

  void add(const Span& s) {
    const std::size_t at = next_.fetch_add(1, std::memory_order_relaxed);
    if (at < spans_.size()) spans_[at] = s;
  }

  /// Call only after every recording thread has been joined.
  std::vector<Span> collect() const {
    const std::size_t n = std::min(next_.load(), spans_.size());
    return std::vector<Span>(spans_.begin(),
                             spans_.begin() + static_cast<std::ptrdiff_t>(n));
  }
  std::size_t dropped() const {
    const std::size_t n = next_.load();
    return n > spans_.size() ? n - spans_.size() : 0;
  }

  /// One span per line: name, parent, id, start_ns, end_ns, read_only.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name\tparent\tid\tstart_ns\tend_ns\tread_only\n");
    for (const Span& s : collect()) {
      std::fprintf(f, "%s\t%s\t%llu\t%llu\t%llu\t%d\n", to_string(s.name),
                   to_string(s.parent), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   s.read_only ? 1 : 0);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
};

}  // namespace sbench

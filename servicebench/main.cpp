// Service benchmark: runs one closed-loop workload against the
// transactional service plane (src/service), checks every result against
// its own record of what it sent, and prints the metrics.
//
//   servicebench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Workloads (README.md gives the make-up and why each exists):
//   kv-large        in-process, 1 client (window 4) x 1 worker, 60/30/10
//                   get/put/erase over 4096 keys, no WAL
//   swap-hot-wal    in-process, 1 client (window 16) x 2 workers, 4-step
//                   swap scripts over 256 keys (90% of key draws on 8 hot
//                   keys), 5% full-range scans, WAL without fsync,
//                   recovery at the end
//   net-readmostly  one client thread, 1 pipelined loopback connection
//                   (window 32, v2 frames), 1 epoll thread x 1 worker,
//                   90/10 get/put over 256 keys, no WAL
//
// Every workload keeps at most three of its threads runnable: on a host
// whose CPUs are shared, a run with as many busy threads as CPUs measures
// how often a neighbour preempts one of them (each preemption stretches
// every request in that thread's window), not the program.  README.md gives
// the figures behind these sizes.
//
// Every client keeps a fixed window of requests outstanding (closed loop).
// The first kWarmupS seconds after set-up are not measured.  With --trace 0
// the metrics are the end-to-end ones; with --trace 1 spans are recorded
// (trace.h), written to DIR/trace-<workload>.tsv, and the metrics are the
// per-layer ones.  The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics.  Exit status: 0 when every check
// passed, 1 when a result check failed, 2 on a usage or environment error.
#include <sys/socket.h>
#include <sys/utsname.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "metrics/registry.h"
#include "otb/otb_list_map.h"
#include "otb/runtime.h"
#include "service/net.h"
#include "service/service.h"
#include "trace.h"

#ifndef SBENCH_BUILD_TYPE
#define SBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Read during static initialisation, before main: set-up time is measured
// from here, so it includes everything the process does before it serves.
const std::uint64_t g_process_start_ns = otb::now_ns();

namespace fs = std::filesystem;
namespace metrics = otb::metrics;
using otb::now_ns;
using otb::service::Request;
using otb::service::ResponseFuture;
using otb::service::Service;
using otb::service::ServiceConfig;
using otb::service::Targets;
using otb::tx::OtbListMap;
using sbench::OpKind;
using sbench::OpRecord;
using sbench::Span;
using sbench::SpanName;
using sbench::SpanStore;
using sbench::Verdict;

constexpr double kWarmupS = 1.0;
constexpr unsigned kBatchMax = 16;
constexpr std::size_t kQueueCapacity = 1024;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;
constexpr int kProbeOps = 2000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "servicebench: %s\nusage: servicebench --workload "
               "kv-large|swap-hot-wal|net-readmostly --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("flag without a value");
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--out") a.out = v;
    else usage("unknown flag");
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds out of range");
  return a;
}

// ---- host fingerprint -------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

void print_fingerprint() {
  utsname u{};
  ::uname(&u);
  std::printf("host: cpus=%u model=\"%s\" kernel=\"%s %s\" compiler=\"%s\" "
              "build=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              u.sysname, u.release,
#if defined(__clang__)
              "clang " __clang_version__,
#elif defined(__GNUC__)
              "g++ " __VERSION__,
#else
              "unknown",
#endif
              SBENCH_BUILD_TYPE);
}

// ---- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Report {
  Verdict verdict;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> absent;  // per-layer metrics with no source here

  void e2e(const char* name, double v, const char* unit) {
    end_to_end.push_back({name, v, unit});
  }
  /// An absent metric (the layer is not on this workload's path, or the
  /// program no longer exports the counter) is printed as 0 and listed on
  /// the `absent:` line.
  void layer(const char* name, std::optional<double> v, const char* unit) {
    if (!v || !std::isfinite(*v)) absent.emplace_back(name);
    per_layer.push_back({name, v && std::isfinite(*v) ? *v : 0.0, unit});
  }
};

// ---- per-client request log -------------------------------------------------
//
// Requests are logged to a file rather than kept in memory so that the
// process's peak RSS reflects the service, not the length of the history.

class OpLog {
 public:
  explicit OpLog(std::string path) : path_(std::move(path)) {
    f_ = std::fopen(path_.c_str(), "wb");
    if (f_ == nullptr) {
      std::fprintf(stderr, "servicebench: cannot write %s: %s\n",
                   path_.c_str(), std::strerror(errno));
      std::exit(2);
    }
    std::setvbuf(f_, nullptr, _IOFBF, std::size_t{1} << 20);
  }
  ~OpLog() {
    if (f_ != nullptr) std::fclose(f_);
    std::remove(path_.c_str());
  }
  OpLog(const OpLog&) = delete;
  OpLog& operator=(const OpLog&) = delete;

  void add(const OpRecord& r) { std::fwrite(&r, sizeof(r), 1, f_); }

  /// Close the log and append its records to `out`.
  void read_into(std::vector<OpRecord>* out) {
    std::fclose(f_);
    f_ = nullptr;
    std::FILE* in = std::fopen(path_.c_str(), "rb");
    if (in == nullptr) {
      std::fprintf(stderr, "servicebench: cannot reread %s\n", path_.c_str());
      std::exit(2);
    }
    OpRecord r;
    while (std::fread(&r, sizeof(r), 1, in) == 1) out->push_back(r);
    std::fclose(in);
  }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
};

// ---- end-to-end summary -----------------------------------------------------

struct Window {
  std::uint64_t start = 0;  // measured window [start, end)
  std::uint64_t end = 0;
  double seconds() const { return double(end - start) / 1e9; }
};

double percentile_us(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  const auto idx = std::min(v.size() - 1, static_cast<std::size_t>(
                                              p * double(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return double(v[idx]) / 1e3;
}

/// End-to-end figures of one run.  The measured window is cut into
/// kSlices equal slices; each figure is the median over the slices of that
/// slice's value, so a burst of interference from outside the process that
/// covers a few slices does not move it.
constexpr int kSlices = 30;

struct Summary {
  double ok_per_s = 0;
  double read_p50_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p99_us = 0;
  std::vector<double> ok_per_s_by_slice;
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Summary summarise(const std::vector<OpRecord>& ops, const Window& w) {
  struct Slice {
    std::uint64_t ok = 0;
    std::vector<std::uint64_t> reads, writes;
  };
  std::vector<Slice> slices(kSlices);
  const double slice_ns = double(w.end - w.start) / kSlices;
  for (const OpRecord& r : ops) {
    if (r.status != sbench::kStatusOk || r.t_done < w.start ||
        r.t_done >= w.end) {
      continue;
    }
    const auto i = std::min<std::size_t>(
        kSlices - 1, static_cast<std::size_t>(double(r.t_done - w.start) /
                                               slice_ns));
    Slice& sl = slices[i];
    sl.ok += 1;
    (sbench::is_write(r.kind) ? sl.writes : sl.reads)
        .push_back(r.t_done - r.t_send);
  }
  std::vector<double> ok, r50, r99, w50, w99;
  for (Slice& sl : slices) {
    ok.push_back(double(sl.ok) / (slice_ns / 1e9));
    r50.push_back(percentile_us(sl.reads, 0.50));
    r99.push_back(percentile_us(sl.reads, 0.99));
    w50.push_back(percentile_us(sl.writes, 0.50));
    w99.push_back(percentile_us(sl.writes, 0.99));
  }
  Summary s;
  s.ok_per_s_by_slice = ok;
  s.ok_per_s = median_of(ok);
  s.read_p50_us = median_of(r50);
  s.read_p99_us = median_of(r99);
  s.write_p50_us = median_of(w50);
  s.write_p99_us = median_of(w99);
  return s;
}

void count_outcomes(const std::vector<OpRecord>& ops, Report* rep) {
  rep->attempted += ops.size();
  for (const OpRecord& r : ops) {
    if (r.status != sbench::kStatusOk) rep->failed += 1;
  }
}

/// Peak resident set of this process image.  VmHWM rather than
/// getrusage's ru_maxrss, which Linux carries over from the parent across
/// fork and exec and so reports the launcher's footprint.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void add_end_to_end(Report* rep, const Summary& s, double setup_s,
                    double rss_mb) {
  rep->e2e("ok_per_s", s.ok_per_s, "req/s");
  rep->e2e("read_p50_us", s.read_p50_us, "us");
  rep->e2e("read_p99_us", s.read_p99_us, "us");
  rep->e2e("write_p50_us", s.write_p50_us, "us");
  rep->e2e("write_p99_us", s.write_p99_us, "us");
  rep->e2e("setup_s", setup_s, "s");
  rep->e2e("peak_rss_mb", rss_mb, "MiB");
}

// ---- program counters, read by name -----------------------------------------
//
// Counters are looked up by their exported name, so one the program no
// longer has reads as absent instead of breaking the build.

std::optional<std::uint64_t> counter(const metrics::Snapshot& s,
                                     std::string_view domain,
                                     std::string_view name) {
  const metrics::SinkSnapshot* d = s.find(domain);
  if (d == nullptr) return std::nullopt;
  for (std::size_t i = 0; i < metrics::kCounterCount; ++i) {
    if (metrics::to_string(static_cast<metrics::CounterId>(i)) == name) {
      return d->counters[i];
    }
  }
  return std::nullopt;
}

struct CounterDelta {
  const metrics::Snapshot& before;
  const metrics::Snapshot& after;

  std::optional<double> operator()(std::string_view domain,
                                   std::string_view name) const {
    const auto b = counter(after, domain, name);
    if (!b) return std::nullopt;
    // A domain registers on first use, possibly after `before` was taken.
    return double(*b - counter(before, domain, name).value_or(0));
  }
};

std::optional<double> ratio(std::optional<double> num,
                            std::optional<double> den) {
  if (!num || !den || *den == 0) return std::nullopt;
  return *num / *den;
}

std::optional<double> sum(std::optional<double> a, std::optional<double> b) {
  if (!a || !b) return std::nullopt;
  return *a + *b;
}

/// Layer metrics every workload derives from the service and OTB counters.
void add_counter_layers(Report* rep, const CounterDelta& d, double seconds) {
  const metrics::SinkSnapshot* sb = d.after.find("otb.service");
  const metrics::SinkSnapshot* sa = d.before.find("otb.service");
  std::optional<double> batch_mean;
  if (sb != nullptr) {
    const metrics::SeriesSnapshot zero{};
    const metrics::SeriesSnapshot& a = sa != nullptr ? sa->batch_size : zero;
    if (sb->batch_size.count > a.count) {
      batch_mean = double(sb->batch_size.total - a.total) /
                   double(sb->batch_size.count - a.count);
    }
  }
  rep->layer("service.batch_size_mean", batch_mean, "req");
  const auto batches = d("otb.service", "svc_batches");
  rep->layer("service.batches_per_s",
             batches ? std::optional<double>(*batches / seconds) : std::nullopt,
             "1/s");
  rep->layer("service.split_retries", d("otb.service", "svc_split_retries"),
             "count");
  rep->layer("service.fused_share",
             ratio(d("otb.service", "svc_fused"),
                   d("otb.service", "svc_enqueued")),
             "ratio");
  rep->layer("otb.commit_ratio",
             ratio(d("otb.tx", "commits"), d("otb.tx", "attempts")), "ratio");
  rep->layer("otb.validations_fast_share",
             ratio(d("otb.tx", "validations_fast"),
                   sum(d("otb.tx", "validations_fast"),
                       d("otb.tx", "validations_full"))),
             "ratio");
  const auto hits =
      sum(d("otb.tx", "hint_hit_local"), d("otb.tx", "hint_hit_cached"));
  rep->layer("otb.hint_hit_ratio",
             ratio(hits, sum(hits, d("otb.tx", "hint_miss"))), "ratio");
  const auto misses = d("otb.service", "mv_version_misses");
  rep->layer("otb.mv_miss_ratio",
             ratio(misses, sum(misses, d("otb.service", "mv_snapshot_reads"))),
             "ratio");
}

// ---- spans ------------------------------------------------------------------

std::optional<double> median_span_ns(const std::vector<Span>& spans,
                                     SpanName name,
                                     std::optional<bool> read_only = {}) {
  std::vector<std::uint64_t> d;
  for (const Span& s : spans) {
    if (s.name == name && (!read_only || s.read_only == *read_only)) {
      d.push_back(s.end_ns - s.start_ns);
    }
  }
  if (d.empty()) return std::nullopt;
  const auto mid = d.begin() + static_cast<std::ptrdiff_t>(d.size() / 2);
  std::nth_element(d.begin(), mid, d.end());
  return double(*mid);
}

std::optional<double> us(std::optional<double> ns) {
  if (!ns) return std::nullopt;
  return *ns / 1e3;
}

/// Single-thread tx::atomically probe on the workload's own map, run after
/// the measured window with the service stopped: the cost of one OTB get
/// and one put with nothing else running.
template <typename ValueFor>
void probe_map(OtbListMap& map, std::int64_t nkeys, std::uint64_t seed,
               SpanStore& spans, ValueFor&& value_for) {
  otb::Xorshift rng{seed * 0x9e3779b97f4a7c15ull + 17};
  for (int i = 0; i < kProbeOps; ++i) {
    const auto k = static_cast<std::int64_t>(
        rng.next_bounded(static_cast<std::uint64_t>(nkeys)));
    std::int64_t v = 0;
    const std::uint64_t t0 = now_ns();
    otb::tx::atomically([&](otb::tx::Transaction& t) { map.get(t, k, &v); });
    spans.add({0, t0, now_ns(), SpanName::kProbeGet, SpanName::kNone, true});
  }
  for (int i = 0; i < kProbeOps; ++i) {
    const auto k = static_cast<std::int64_t>(
        rng.next_bounded(static_cast<std::uint64_t>(nkeys)));
    const std::int64_t v = value_for(k, i);
    const std::uint64_t t0 = now_ns();
    otb::tx::atomically([&](otb::tx::Transaction& t) { map.put(t, k, v); });
    spans.add({0, t0, now_ns(), SpanName::kProbePut, SpanName::kNone, false});
  }
}

void add_probe_layers(Report* rep, const std::vector<Span>& spans) {
  rep->layer("otb.get_ns", median_span_ns(spans, SpanName::kProbeGet), "ns");
  rep->layer("otb.put_ns", median_span_ns(spans, SpanName::kProbePut), "ns");
}

void add_absent(Report* rep, std::initializer_list<std::pair<const char*,
                                                             const char*>> ms) {
  for (const auto& [name, unit] : ms) rep->layer(name, std::nullopt, unit);
}

// ---- in-process closed loop -------------------------------------------------

/// One request in flight from an in-process client.
struct Sent {
  ResponseFuture fut;
  OpRecord rec;
  std::uint64_t id = 0;
};

/// Keep `window` requests outstanding until `t_end`, then drain.  `make`
/// builds the next request and fills the Sent's id and record; `on_reply`
/// sees each completed request, oldest first, with t_done and status set.
template <typename Make, typename OnReply>
void run_client(Service& svc, unsigned window, std::uint64_t t_end,
                SpanStore* spans, Make&& make, OnReply&& on_reply) {
  std::deque<Sent> inflight;
  for (;;) {
    if (now_ns() < t_end) {
      while (inflight.size() < window) {
        Sent s;
        Request req = make(s);
        s.rec.t_send = now_ns();
        s.fut = svc.submit(std::move(req));
        if (spans != nullptr && sbench::traced_id(s.id)) {
          spans->add({s.id, s.rec.t_send, now_ns(), SpanName::kSubmit,
                      SpanName::kRequest, !sbench::is_write(s.rec.kind)});
        }
        inflight.push_back(std::move(s));
      }
    }
    if (inflight.empty()) return;
    Sent& s = inflight.front();
    s.fut.wait();
    s.rec.t_done = now_ns();
    s.rec.status = static_cast<std::uint8_t>(s.fut.status());
    on_reply(s);
    if (spans != nullptr && sbench::traced_id(s.id)) {
      const bool ro = !sbench::is_write(s.rec.kind);
      spans->add({s.id, s.rec.t_send, s.rec.t_done, SpanName::kRequest,
                  SpanName::kNone, ro});
      if (!ro) {
        // Enqueue time is not exported; the queued span starts at the
        // submit call that enqueued it.
        const std::uint64_t done = s.rec.t_send + s.fut.latency_ns();
        spans->add({s.id, s.rec.t_send, done, SpanName::kQueued,
                    SpanName::kRequest, ro});
        spans->add({s.id, done, std::max(done, s.rec.t_done),
                    SpanName::kObserve, SpanName::kRequest, ro});
      }
    }
    inflight.pop_front();
  }
}

/// Run `clients` closed-loop clients: client 0 on the calling thread, the
/// rest on their own threads (the thread budget is clients + workers).
template <typename ClientFn>
void run_clients(unsigned clients, ClientFn&& fn) {
  std::vector<std::thread> threads;
  for (unsigned c = 1; c < clients; ++c) threads.emplace_back(fn, c);
  fn(0u);
  for (auto& t : threads) t.join();
}

ServiceConfig service_config(unsigned workers) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.batch_max = kBatchMax;
  cfg.queue_capacity = kQueueCapacity;
  return cfg;
}

sbench::KeyState to_key_state(const OtbListMap& map, std::int64_t nkeys,
                              Verdict* v) {
  sbench::KeyState st(static_cast<std::size_t>(nkeys));
  for (const auto& [k, val] : map.snapshot_unsafe()) {
    if (k < 0 || k >= nkeys) {
      v->fail("map holds key %lld outside [0, %lld)", k, nkeys);
      continue;
    }
    st[static_cast<std::size_t>(k)] = val;
  }
  return st;
}

/// Even keys start present with their seed value, odd keys absent.
sbench::KeyState kv_seed(std::int64_t nkeys) {
  sbench::KeyState st(static_cast<std::size_t>(nkeys));
  for (std::int64_t k = 0; k < nkeys; k += 2) {
    st[static_cast<std::size_t>(k)] = sbench::seed_value(k);
  }
  return st;
}

void seed_map(OtbListMap& map, const sbench::KeyState& st) {
  for (std::size_t k = 0; k < st.size(); ++k) {
    if (st[k]) map.put_seq(static_cast<std::int64_t>(k), *st[k]);
  }
}

double since_start_s(std::uint64_t t) {
  return double(t - g_process_start_ns) / 1e9;
}

Window measured_window(std::uint64_t setup_end, const Args& a) {
  Window w;
  w.start = setup_end + static_cast<std::uint64_t>(kWarmupS * 1e9);
  w.end = w.start + static_cast<std::uint64_t>(a.seconds * 1e9);
  return w;
}

std::string log_path(const Args& a, unsigned client) {
  return a.out + "/ops-" + a.workload + "-" + std::to_string(::getpid()) +
         "-" + std::to_string(client) + ".bin";
}


std::vector<std::unique_ptr<OpLog>> make_logs(const Args& a, unsigned n) {
  std::vector<std::unique_ptr<OpLog>> logs;
  for (unsigned c = 0; c < n; ++c) {
    logs.push_back(std::make_unique<OpLog>(log_path(a, c)));
  }
  return logs;
}

/// Request stream of one kv writer: uniform keys, get/put/erase mix.
class KvGen {
 public:
  KvGen(std::uint64_t seed, unsigned writer, std::int64_t nkeys,
        unsigned get_pct, unsigned put_pct)
      : rng_(seed * 1000003 + writer),
        writer_(writer),
        nkeys_(nkeys),
        get_pct_(get_pct),
        put_pct_(put_pct),
        next_id_(std::uint64_t{writer} << 40) {}

  /// The next step; fills the request id and the record's key, kind and
  /// (for a put) value.
  otb::service::Step next(std::uint64_t* id, OpRecord* rec) {
    *id = next_id_++;
    const auto key = static_cast<std::int64_t>(
        rng_.next_bounded(static_cast<std::uint64_t>(nkeys_)));
    const auto pick = rng_.next_bounded(100);
    rec->key = key;
    if (pick < get_pct_) {
      rec->kind = OpKind::kGet;
      return otb::service::map_get(key);
    }
    if (pick < get_pct_ + put_pct_) {
      rec->kind = OpKind::kPut;
      rec->value = sbench::encode_value(key, writer_, put_seq_++);
      return otb::service::map_put(key, rec->value);
    }
    rec->kind = OpKind::kErase;
    return otb::service::map_erase(key);
  }

 private:
  otb::Xorshift rng_;
  unsigned writer_;
  std::int64_t nkeys_;
  unsigned get_pct_;
  unsigned put_pct_;
  std::uint32_t put_seq_ = 0;
  std::uint64_t next_id_;
};

/// What every workload measured, handed to the reporting step.
struct Run {
  std::vector<OpRecord> ops;
  Window window;
  std::uint64_t setup_end = 0;
  std::uint64_t drained = 0;
  double rss_mb = 0;
  metrics::Snapshot before;  // at the end of set-up
  metrics::Snapshot after;   // once the service has drained

  /// Call right after the service has stopped, before anything else
  /// allocates: peak RSS covers set-up and the run, not the checks.
  void mark_drained() {
    drained = now_ns();
    after = metrics::Registry::global().snapshot();
    rss_mb = peak_rss_mb();
  }
  double seconds_since_setup() const {
    return double(drained - setup_end) / 1e9;
  }
};

/// Shared end of every run: count outcomes and, untraced, the end-to-end
/// metrics; traced, the counter-derived layer metrics.  Returns the
/// client-side summary for workload-specific layer metrics.
Summary report_run(const Run& run, Report* rep, bool traced) {
  count_outcomes(run.ops, rep);
  const Summary s = summarise(run.ops, run.window);
  std::printf("slices: ok_per_s");
  for (double v : s.ok_per_s_by_slice) std::printf(" %.0f", v);
  std::printf("\n");
  if (!traced) {
    add_end_to_end(rep, s, since_start_s(run.setup_end), run.rss_mb);
  } else {
    add_counter_layers(rep, CounterDelta{run.before, run.after},
                       run.seconds_since_setup());
    std::printf("traced: ok_per_s=%.1f read_p50_us=%.3f write_p50_us=%.3f\n",
                s.ok_per_s, s.read_p50_us, s.write_p50_us);
  }
  return s;
}

void add_submit_layers(Report* rep, const std::vector<Span>& sp,
                       SpanName submit, SpanName queued) {
  rep->layer("service.submit_us", us(median_span_ns(sp, submit, false)), "us");
  rep->layer("service.inline_read_us", us(median_span_ns(sp, submit, true)),
             "us");
  rep->layer("service.queued_p50_us", us(median_span_ns(sp, queued)), "us");
}

void add_absent_wal(Report* rep) {
  add_absent(rep, {{"wal.writes_per_append", "writes/append"},
                   {"wal.recover_s", "s"},
                   {"wal.records_replayed", "count"},
                   {"wal.log_bytes_per_write", "bytes"},
                   {"wal.recover_ops_per_s", "ops/s"}});
}

void add_absent_net(Report* rep) {
  add_absent(rep, {{"net.submit_us", "us"},
                   {"net.overhead_us", "us"},
                   {"net.frames_per_s", "1/s"},
                   {"net.backpressure", "count"}});
}

std::int64_t probe_kv_value(std::int64_t key, int i) {
  return sbench::encode_value(key, 255, static_cast<std::uint32_t>(i));
}

// ---- kv-large ---------------------------------------------------------------

void run_kv_large(const Args& a, Report* rep, SpanStore* spans) {
  constexpr std::int64_t kKeys = 4096;
  constexpr unsigned kClients = 1;
  constexpr unsigned kWorkers = 1;
  constexpr unsigned kWindow = 4;
  const sbench::KeyState seed = kv_seed(kKeys);
  OtbListMap map;
  seed_map(map, seed);
  Service svc(Targets::standard(&map), service_config(kWorkers));
  svc.start();
  Run run;
  run.setup_end = now_ns();
  run.before = metrics::Registry::global().snapshot();
  run.window = measured_window(run.setup_end, a);

  auto logs = make_logs(a, kClients);
  run_clients(kClients, [&](unsigned c) {
    KvGen gen(a.seed, c + 1, kKeys, 60, 30);
    run_client(
        svc, kWindow, run.window.end, spans,
        [&](Sent& s) { return Request{gen.next(&s.id, &s.rec)}; },
        [&](Sent& s) {
          if (s.rec.status == sbench::kStatusOk) {
            s.rec.ok = s.fut.ok();
            if (s.rec.kind == OpKind::kGet) s.rec.value = s.fut.value();
          }
          logs[c]->add(s.rec);
        });
  });
  svc.stop();
  run.mark_drained();

  for (auto& l : logs) l->read_into(&run.ops);
  const sbench::KeyState fin = to_key_state(map, kKeys, &rep->verdict);
  rep->verdict.merge(sbench::check_kv_history(seed, run.ops, fin));
  report_run(run, rep, spans != nullptr);
  if (spans == nullptr) return;

  probe_map(map, kKeys, a.seed, *spans, probe_kv_value);
  const std::vector<Span> sp = spans->collect();
  add_submit_layers(rep, sp, SpanName::kSubmit, SpanName::kQueued);
  add_probe_layers(rep, sp);
  add_absent_wal(rep);
  add_absent_net(rep);
}

// ---- swap-hot-wal -----------------------------------------------------------

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

void run_swap_hot_wal(const Args& a, Report* rep, SpanStore* spans) {
  constexpr std::int64_t kKeys = 256;
  constexpr std::size_t kHot = 8;
  constexpr unsigned kHotPct = 90;
  constexpr unsigned kScanPct = 5;
  constexpr unsigned kClients = 1;
  constexpr unsigned kWorkers = 2;  // a single-worker plane never fuses
  constexpr unsigned kWindow = 16;
  const sbench::SwapUniverse u{kKeys, 1'000'000, 7};

  // Seed values dealt to keys by a seeded permutation; hot keys drawn from
  // the same stream.
  otb::Xorshift srng{a.seed * 7919 + 3};
  std::vector<std::int64_t> perm(static_cast<std::size_t>(kKeys));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<std::int64_t>(i);
  }
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[srng.next_bounded(i + 1)]);
  }
  std::vector<std::int64_t> hot;
  while (hot.size() < kHot) {
    const auto k = static_cast<std::int64_t>(srng.next_bounded(kKeys));
    if (std::find(hot.begin(), hot.end(), k) == hot.end()) hot.push_back(k);
  }
  const auto seed_into = [&](OtbListMap& m) {
    for (std::int64_t k = 0; k < kKeys; ++k) {
      m.put_seq(k, u.base + u.stride * perm[static_cast<std::size_t>(k)]);
    }
  };

  const std::string wal_dir =
      a.out + "/wal-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(wal_dir, ec);
  ServiceConfig cfg = service_config(kWorkers);
  cfg.wal_dir = wal_dir;
  // Every commit record is appended, but not fsynced: with fsync=group the
  // run's throughput follows the shared disk's fsync latency, which moved
  // it by a quarter between consecutive runs of the same seed.
  cfg.wal_fsync = otb::service::WalFsync::kOff;

  OtbListMap map;
  seed_into(map);
  Run run;
  std::vector<Verdict> verdicts(kClients);
  {
    Service svc(Targets::standard(&map), cfg);
    svc.start();
    run.setup_end = now_ns();
    run.before = metrics::Registry::global().snapshot();
    run.window = measured_window(run.setup_end, a);

    auto logs = make_logs(a, kClients);
    run_clients(kClients, [&](unsigned c) {
      otb::Xorshift rng{a.seed * 1000003 + c + 1};
      std::uint64_t next_id = std::uint64_t{c + 1} << 40;
      const auto draw = [&] {
        if (rng.next_bounded(100) < kHotPct) return hot[rng.next_bounded(kHot)];
        return static_cast<std::int64_t>(rng.next_bounded(kKeys));
      };
      run_client(
          svc, kWindow, run.window.end, spans,
          [&](Sent& s) -> Request {
            s.id = next_id++;
            if (rng.next_bounded(100) < kScanPct) {
              s.rec.kind = OpKind::kScan;
              return Request{otb::service::map_range(0, kKeys - 1)};
            }
            const std::int64_t ka = draw();
            std::int64_t kb = draw();
            while (kb == ka) kb = draw();
            s.rec.kind = OpKind::kSwap;
            s.rec.key = ka;
            s.rec.value = kb;
            return Request{otb::service::map_get(ka),
                           otb::service::map_get(kb),
                           otb::service::map_put(ka, 0).value_from_step(1),
                           otb::service::map_put(kb, 0).value_from_step(0)};
          },
          [&](Sent& s) {
            if (s.rec.status == sbench::kStatusOk) {
              s.rec.ok = s.fut.ok();
              if (s.rec.kind == OpKind::kScan) {
                verdicts[c].merge(
                    sbench::check_permutation(u, s.fut.range(), "scan"));
              } else {
                sbench::SwapSteps st;
                for (std::size_t i = 0; i < 4 && i < s.fut.step_count(); ++i) {
                  st.ran[i] = s.fut.step(i).ran;
                  st.ok[i] = s.fut.step(i).ok;
                  st.value[i] = s.fut.step(i).value;
                }
                verdicts[c].merge(sbench::check_swap(u, s.rec.status, st));
              }
            }
            logs[c]->add(s.rec);
          });
    });
    svc.stop();
    run.mark_drained();
    for (auto& l : logs) l->read_into(&run.ops);
  }
  for (const Verdict& v : verdicts) rep->verdict.merge(v);

  const auto live = map.snapshot_unsafe();
  rep->verdict.merge(sbench::check_permutation(u, live, "live map"));

  // Recover a new service from the log the run left behind.
  OtbListMap rmap;
  otb::service::RecoveryReport rr;
  std::uint64_t t_rec0 = 0, t_rec1 = 0;
  {
    Service rsvc(Targets::standard(&rmap), cfg);
    t_rec0 = now_ns();
    rr = rsvc.recover([&] { seed_into(rmap); });
    t_rec1 = now_ns();
  }
  if (!rr.ok()) {
    rep->verdict.fail("recovery failed with status %lld",
                      static_cast<long long>(rr.status));
    rep->verdict.first_error += ": " + rr.detail;
  }
  rep->verdict.merge(sbench::check_same_map(live, rmap.snapshot_unsafe()));
  const std::uint64_t wal_bytes = dir_bytes(wal_dir);
  fs::remove_all(wal_dir, ec);

  report_run(run, rep, spans != nullptr);
  std::uint64_t write_steps = 0, write_steps_after_setup = 0;
  for (const OpRecord& r : run.ops) {
    if (r.kind != OpKind::kSwap || r.status != sbench::kStatusOk) continue;
    write_steps += 2;
    if (r.t_done >= run.setup_end) write_steps_after_setup += 2;
  }
  const double recover_s = double(t_rec1 - t_rec0) / 1e9;
  const double log_bytes_per_write =
      write_steps != 0 ? double(wal_bytes) / double(write_steps) : 0;
  const double recover_ops_per_s =
      recover_s > 0 ? double(rr.ops_replayed) / recover_s : 0;
  std::printf("wal: bytes=%llu write_steps=%llu log_bytes_per_write=%.3f "
              "recover_s=%.4f ops_replayed=%llu recover_ops_per_s=%.1f\n",
              static_cast<unsigned long long>(wal_bytes),
              static_cast<unsigned long long>(write_steps),
              log_bytes_per_write, recover_s,
              static_cast<unsigned long long>(rr.ops_replayed),
              recover_ops_per_s);
  if (spans == nullptr) return;

  spans->add({0, t_rec0, t_rec1, SpanName::kRecover, SpanName::kNone, false});
  // Probe puts write back the value a key already holds.
  probe_map(map, kKeys, a.seed, *spans, [&](std::int64_t k, int) {
    return live[static_cast<std::size_t>(k)].second;
  });
  const std::vector<Span> sp = spans->collect();
  const CounterDelta d{run.before, run.after};
  add_submit_layers(rep, sp, SpanName::kSubmit, SpanName::kQueued);
  add_probe_layers(rep, sp);
  rep->layer("wal.writes_per_append",
             ratio(double(write_steps_after_setup),
                   d("otb.service", "wal_appends")),
             "writes/append");
  rep->layer("wal.recover_s", recover_s, "s");
  rep->layer("wal.records_replayed", double(rr.records_replayed), "count");
  rep->layer("wal.log_bytes_per_write", log_bytes_per_write, "bytes");
  rep->layer("wal.recover_ops_per_s", recover_ops_per_s, "ops/s");
  add_absent_net(rep);
}

// ---- net-readmostly ---------------------------------------------------------

/// BasicNetServer's service type.  Forwards to the Service; in the traced
/// run it also times each submit on the epoll thread and, for a queued
/// request, the interval from that submit to the completion hook.  The
/// client puts the request id in the first step's `expect` field, which
/// the service ignores unless the step's has_expect flag is set.
class NetTap {
 public:
  NetTap(Service& svc, SpanStore* spans) : svc_(svc), spans_(spans) {}
  NetTap(const NetTap&) = delete;
  NetTap& operator=(const NetTap&) = delete;

  ResponseFuture submit(Request req) {
    if (spans_ == nullptr || req.steps.empty()) {
      return svc_.submit(std::move(req));
    }
    const auto id = static_cast<std::uint64_t>(req.steps[0].expect);
    if (!sbench::traced_id(id)) return svc_.submit(std::move(req));
    bool ro = true;
    for (const otb::service::Step& s : req.steps) {
      ro = ro && (s.verb == otb::service::Verb::kGet ||
                  s.verb == otb::service::Verb::kRange);
    }
    const std::uint64_t t0 = now_ns();
    if (!ro) {
      req.on_complete_arg =
          new HookCtx{req.on_complete, req.on_complete_arg, id, t0, spans_};
      req.on_complete = &NetTap::on_complete;
    }
    ResponseFuture f = svc_.submit(std::move(req));
    spans_->add({id, t0, now_ns(), SpanName::kNetSubmit, SpanName::kRequest,
                 ro});
    return f;
  }

  void stop() { svc_.stop(); }

 private:
  struct HookCtx {
    void (*fn)(void*);
    void* arg;
    std::uint64_t id;
    std::uint64_t t0;
    SpanStore* spans;
  };

  static void on_complete(void* p) {
    const HookCtx c = *static_cast<HookCtx*>(p);
    delete static_cast<HookCtx*>(p);
    c.spans->add({c.id, c.t0, now_ns(), SpanName::kNetQueued,
                  SpanName::kNetSubmit, false});
    if (c.fn != nullptr) c.fn(c.arg);
  }

  Service& svc_;
  SpanStore* spans_;
};

struct NetPending {
  OpRecord rec;
  std::uint64_t id = 0;
};

/// One client connection: its own writer id and request stream, an output
/// buffer, and the FIFO of requests awaiting replies (the server answers
/// each connection in order).
struct NetConn {
  int fd = -1;
  KvGen gen;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::deque<NetPending> sent;
  std::vector<Span> unsent;  // traced client.send spans awaiting the flush

  NetConn(int f, KvGen g) : fd(f), gen(std::move(g)) {}
  NetConn(const NetConn&) = delete;
  NetConn& operator=(const NetConn&) = delete;
  ~NetConn() {
    if (fd >= 0) ::close(fd);
  }
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int one = 1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Append one v2 request frame holding a single step.
void encode_frame(std::vector<std::uint8_t>& out, const otb::service::Step& s,
                  std::uint64_t id) {
  namespace wire = otb::service::wire;
  wire::put<std::uint32_t>(
      out, static_cast<std::uint32_t>(otb::service::kNetWireV2HeaderLen +
                                      otb::service::kNetWireStepLen));
  wire::put<std::uint8_t>(out, otb::service::kNetWireV2);
  wire::put<std::uint8_t>(out, 1);           // nsteps
  wire::put<std::uint32_t>(out, 0);          // no deadline
  wire::put<std::uint64_t>(out, id);
  wire::put<std::uint8_t>(out, s.structure);
  wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(s.verb));
  wire::put<std::uint8_t>(out, 0);           // flags: no guard, no expect
  wire::put<std::int8_t>(out, -1);           // key_from
  wire::put<std::int8_t>(out, -1);           // value_from
  wire::put<std::int64_t>(out, s.key);
  wire::put<std::int64_t>(out, s.value);
  wire::put<std::int64_t>(out, static_cast<std::int64_t>(id));  // expect
}

class NetClient {
 public:
  NetClient(SpanStore* spans, Verdict* verdict) : spans_(spans), v_(verdict) {}

  void add(std::unique_ptr<NetConn> c, OpLog* log) {
    conns_.push_back(std::move(c));
    logs_.push_back(log);
  }

  void close_all() { conns_.clear(); }

  /// Top every connection up to `window` outstanding requests.
  void fill(unsigned window) {
    for (auto& c : conns_) {
      while (c->sent.size() < window) {
        NetPending p;
        const otb::service::Step step = c->gen.next(&p.id, &p.rec);
        p.rec.t_send = now_ns();
        encode_frame(c->out, step, p.id);
        if (spans_ != nullptr && sbench::traced_id(p.id)) {
          c->unsent.push_back({p.id, p.rec.t_send, 0, SpanName::kClientSend,
                               SpanName::kRequest,
                               !sbench::is_write(p.rec.kind)});
        }
        c->sent.push_back(p);
      }
    }
  }

  /// Flush, wait for readiness, read replies.  False once nothing is
  /// outstanding or a connection failed.
  bool pump() {
    bool outstanding = false;
    std::vector<pollfd> pfds;
    for (auto& c : conns_) {
      if (!flush(*c)) return false;
      outstanding = outstanding || !c->sent.empty();
      const short ev = static_cast<short>(
          POLLIN | (c->out_off < c->out.size() ? POLLOUT : 0));
      pfds.push_back({c->fd, ev, 0});
    }
    if (!outstanding) return false;
    if (::poll(pfds.data(), pfds.size(), 1000) < 0 && errno != EINTR) {
      v_->fail("poll failed: errno %lld", errno);
      return false;
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !read(*conns_[i], *logs_[i])) {
        return false;
      }
    }
    return true;
  }

  bool failed() const { return !v_->ok; }

 private:
  bool flush(NetConn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else if (!(n < 0 && errno == EINTR)) {
        v_->fail("send failed: errno %lld", errno);
        return false;
      }
    }
    c.out.clear();
    c.out_off = 0;
    const std::uint64_t t = now_ns();
    for (Span& s : c.unsent) {
      s.end_ns = t;
      spans_->add(s);
    }
    c.unsent.clear();
    return true;
  }

  bool read(NetConn& c, OpLog& log) {
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        if (!parse(c, log, now_ns())) return false;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      v_->fail("connection closed by the server (errno %lld)",
               n < 0 ? errno : 0);
      return false;
    }
  }

  /// Decode every complete v2 reply in the input buffer.
  bool parse(NetConn& c, OpLog& log, std::uint64_t t_recv) {
    namespace wire = otb::service::wire;
    std::size_t off = 0;
    while (c.in.size() - off >= 4) {
      const auto len = wire::get<std::uint32_t>(c.in.data() + off);
      if (c.in.size() - off - 4 < len) break;
      const std::uint8_t* p = c.in.data() + off + 4;
      if (len < 16 || p[0] != otb::service::kNetWireV2 || c.sent.empty() ||
          std::size_t{len} < 16 + std::size_t{p[11]} * 10) {
        v_->fail("malformed reply frame of %lld bytes", len);
        return false;
      }
      NetPending& f = c.sent.front();
      if (wire::get<std::uint64_t>(p + 1) != f.id) {
        v_->fail("reply for id %lld arrived while %lld was oldest",
                 static_cast<long long>(wire::get<std::uint64_t>(p + 1)),
                 static_cast<long long>(f.id));
        return false;
      }
      f.rec.t_done = now_ns();
      f.rec.status = p[9];
      if (f.rec.status == sbench::kStatusOk && p[11] >= 1) {
        f.rec.ok = p[12 + 1] != 0;  // step 0: ran, ok, value
        if (f.rec.kind == OpKind::kGet) {
          f.rec.value = wire::get<std::int64_t>(p + 12 + 2);
        }
      }
      log.add(f.rec);
      if (spans_ != nullptr && sbench::traced_id(f.id)) {
        const bool ro = !sbench::is_write(f.rec.kind);
        spans_->add({f.id, f.rec.t_send, f.rec.t_done, SpanName::kRequest,
                     SpanName::kNone, ro});
        spans_->add({f.id, t_recv, f.rec.t_done, SpanName::kClientRecv,
                     SpanName::kRequest, ro});
      }
      c.sent.pop_front();
      off += 4 + std::size_t{len};
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
  }

  SpanStore* spans_;
  Verdict* v_;
  std::vector<std::unique_ptr<NetConn>> conns_;
  std::vector<OpLog*> logs_;
};

void run_net_readmostly(const Args& a, Report* rep, SpanStore* spans) {
  constexpr std::int64_t kKeys = 256;
  constexpr unsigned kConns = 1;
  constexpr unsigned kWorkers = 1;
  constexpr unsigned kWindow = 32;
  const sbench::KeyState seed = kv_seed(kKeys);
  OtbListMap map;
  seed_map(map, seed);
  Service svc(Targets::standard(&map), service_config(kWorkers));
  svc.start();
  NetTap tap(svc, spans);
  otb::service::NetServerConfig ncfg;
  ncfg.net_threads = 1;
  otb::service::BasicNetServer<NetTap> server(tap, 0, ncfg);
  if (!server.listening()) {
    std::fprintf(stderr, "servicebench: cannot listen on loopback\n");
    std::exit(2);
  }
  std::thread server_thread([&] { server.run(); });

  Run run;
  auto logs = make_logs(a, kConns);
  NetClient client(spans, &rep->verdict);
  for (unsigned c = 0; c < kConns; ++c) {
    const int fd = connect_loopback(server.bound_port());
    if (fd < 0) {
      rep->verdict.fail("connect to the server failed: errno %lld", errno);
      break;
    }
    client.add(std::make_unique<NetConn>(fd, KvGen(a.seed, c + 1, kKeys, 90, 10)),
               logs[c].get());
  }
  // Set-up ends once every connection has been served one request.
  if (!client.failed()) {
    client.fill(1);
    while (client.pump()) {
    }
  }
  run.setup_end = now_ns();
  run.before = metrics::Registry::global().snapshot();
  run.window = measured_window(run.setup_end, a);
  while (!client.failed()) {
    if (now_ns() < run.window.end) client.fill(kWindow);
    if (!client.pump()) break;
  }
  server.request_stop();
  server_thread.join();  // run() stops the service once replies are flushed
  run.mark_drained();
  client.close_all();

  for (auto& l : logs) l->read_into(&run.ops);
  const sbench::KeyState fin = to_key_state(map, kKeys, &rep->verdict);
  rep->verdict.merge(sbench::check_kv_history(seed, run.ops, fin));
  const Summary s = report_run(run, rep, spans != nullptr);
  if (spans == nullptr) return;

  probe_map(map, kKeys, a.seed, *spans, probe_kv_value);
  const std::vector<Span> sp = spans->collect();
  const CounterDelta d{run.before, run.after};
  add_submit_layers(rep, sp, SpanName::kNetSubmit, SpanName::kNetQueued);
  add_probe_layers(rep, sp);
  add_absent_wal(rep);
  rep->layer("net.submit_us", us(median_span_ns(sp, SpanName::kNetSubmit)),
             "us");
  const auto queued = us(median_span_ns(sp, SpanName::kNetQueued));
  rep->layer("net.overhead_us",
             queued ? std::optional<double>(s.write_p50_us - *queued)
                    : std::nullopt,
             "us");
  const auto frames = d("otb.service.net", "net_frames_in");
  rep->layer("net.frames_per_s",
             frames ? std::optional<double>(*frames / run.seconds_since_setup())
                    : std::nullopt,
             "1/s");
  rep->layer("net.backpressure", d("otb.service.net", "net_backpressure"),
             "count");
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  std::error_code ec;
  fs::create_directories(a.out, ec);
  if (ec) {
    std::fprintf(stderr, "servicebench: cannot create %s: %s\n",
                 a.out.c_str(), ec.message().c_str());
    return 2;
  }
  print_fingerprint();
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::fflush(stdout);

  Report rep;
  std::unique_ptr<SpanStore> spans;
  if (a.trace) spans = std::make_unique<SpanStore>(kSpanCapacity);
  if (a.workload == "kv-large") {
    run_kv_large(a, &rep, spans.get());
  } else if (a.workload == "swap-hot-wal") {
    run_swap_hot_wal(a, &rep, spans.get());
  } else if (a.workload == "net-readmostly") {
    run_net_readmostly(a, &rep, spans.get());
  } else {
    usage("unknown workload");
  }

  if (spans != nullptr) {
    const std::string path = a.out + "/trace-" + a.workload + ".tsv";
    if (!spans->write_tsv(path)) {
      std::fprintf(stderr, "servicebench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("trace: %zu spans (%zu over capacity, not kept) -> %s\n",
                spans->collect().size(), spans->dropped(), path.c_str());
  }
  const std::vector<Metric>& ms = a.trace ? rep.per_layer : rep.end_to_end;
  for (const Metric& m : ms) {
    std::printf("metric %-28s %16.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!rep.absent.empty()) {
    std::printf("absent:");
    for (const std::string& n : rep.absent) std::printf(" %s", n.c_str());
    std::printf("\n");
  }
  std::printf("checks: %s attempted=%llu failed=%llu",
              rep.verdict.ok ? "pass" : "FAIL",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  if (!rep.verdict.ok) {
    std::printf(" violations=%llu first: %s",
                static_cast<unsigned long long>(rep.verdict.failures),
                rep.verdict.first_error.c_str());
  }
  std::printf("\n");

  std::string json = "{\"correct\": ";
  json += rep.verdict.ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return rep.verdict.ok ? 0 : 1;
}

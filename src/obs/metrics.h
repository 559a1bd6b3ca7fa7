// Metrics instruments, the process-wide registry, and Prometheus exposition.
//
// Three instrument kinds; the registry keeps them by name + label set,
// alive for the rest of the process:
//   * Counter   — monotonic; writes are striped across cache-line-padded
//     atomic cells indexed by thread, so concurrent writers never contend
//     on one line.
//   * Gauge     — last-written double (open HTTP connections).
//   * Histogram — fixed upper-bound buckets with lock-free atomic counts,
//     plus running count/sum (latency distributions). A Histogram can also
//     be a plain member of the object that owns it (ServeShard does this).
//
// The registry itself is lock-sharded: registration and snapshotting take a
// per-shard mutex chosen by the metric name's hash; the instruments' hot
// paths (Increment/Set/Observe) are pure atomics and never touch a mutex.
//
// Exposition is one renderer over a vector of series snapshots: it sorts
// them and renders Prometheus text (# HELP / # TYPE preambles, `_bucket`-
// with-cumulative-`le`/`_sum`/`_count` histogram series). TextFormat()
// renders the registry alone; GlobalExposition() renders the registry plus
// series whose owners keep them outside it (a ServeShard's accounting
// record), so series owned by different objects never share an entry.
//
// Compile-time escape hatch: building with -DRPT_OBS_OFF turns every
// Counter/Gauge/Histogram write into a no-op (registration still works,
// values stay zero), so the hot path can be proven free of observability
// cost.

#ifndef RPT_OBS_METRICS_H_
#define RPT_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rpt {
namespace obs {

#ifdef RPT_OBS_OFF
inline constexpr bool kObsEnabled = false;
#else
inline constexpr bool kObsEnabled = true;
#endif

/// Sorted (key, value) label pairs; the map keeps exposition order stable.
using Labels = std::map<std::string, std::string>;

namespace internal {

/// Index of the calling thread's counter stripe, stable per thread.
size_t ThreadStripe();

/// Atomic double stored as bit-cast uint64 (works on every target without
/// std::atomic<double> RMW support).
class AtomicDouble {
 public:
  double Load() const;
  void Store(double value);
  void Add(double delta);  // CAS loop

 private:
  std::atomic<uint64_t> bits_{0};
};

}  // namespace internal

/// Monotonic counter with cache-line-padded write stripes.
class Counter {
 public:
  static constexpr size_t kStripes = 8;

  void Increment(uint64_t delta = 1) {
    if constexpr (!kObsEnabled) return;
    cells_[internal::ThreadStripe() % kStripes].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, kStripes> cells_;
};

/// Last-written double value.
class Gauge {
 public:
  void Set(double value) {
    if constexpr (!kObsEnabled) return;
    value_.Store(value);
  }
  void Add(double delta) {
    if constexpr (!kObsEnabled) return;
    value_.Add(delta);
  }
  double Value() const { return value_.Load(); }

 private:
  internal::AtomicDouble value_;
};

/// Fixed-bucket histogram. `bounds` are inclusive upper edges in ascending
/// order; one implicit +Inf bucket is appended. Observe is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts, one per bound plus +Inf last.
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.Load(); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  internal::AtomicDouble sum_;
};

/// Upper edges suiting millisecond latencies from 50us to 2.5s.
std::vector<double> DefaultLatencyBucketsMs();

/// 1, 2, 4, ... up to the first power of two >= max_rows (batch sizes).
std::vector<double> PowerOfTwoBuckets(size_t max_rows);

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One series in a point-in-time registry view.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::string help;
  Labels labels;
  double value = 0;  // counter / gauge
  // Histogram only:
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;  // per-bucket counts, +Inf last
  uint64_t count = 0;
  double sum = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Each Get* returns the existing series for (name, labels) or registers
  /// a new one; the pointer stays valid for the registry's lifetime.
  /// Registering one name under two kinds (or a histogram under two bucket
  /// layouts) is a programmer error and aborts.
  Counter* GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, const Labels& labels,
                          std::vector<double> bounds,
                          const std::string& help = "");

  /// All series, in no particular order (exposition sorts them).
  std::vector<MetricSnapshot> Snapshot() const;

  /// Prometheus text exposition of Snapshot().
  std::string TextFormat() const;

 private:
  struct Family;
  struct Shard;
  static constexpr size_t kShards = 8;

  Shard& ShardFor(const std::string& name);
  Family* GetFamily(Shard& shard, const std::string& name, MetricKind kind,
                    const std::string& help);

  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    std::vector<double> bounds;  // histograms: shared bucket layout
    // Keyed by the rendered label string so lookup and exposition agree.
    std::map<std::string, Series> series;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Family> families;
  };
  std::array<Shard, kShards> shards_;
};

/// The process-wide registry every subsystem records into.
MetricsRegistry& GlobalMetrics();

/// One counter or gauge series.
MetricSnapshot ValueSnapshot(std::string name, MetricKind kind,
                             std::string help, Labels labels, double value);

/// One histogram series read from `histogram`. `count` is derived from the
/// bucket reads, not Count(): Observe bumps a bucket and the count in two
/// steps, so a concurrent read could otherwise render `_count` != the +Inf
/// bucket.
MetricSnapshot HistogramSnapshot(std::string name, std::string help,
                                 Labels labels, const Histogram& histogram);

/// Prometheus text exposition of the process-wide registry's series plus
/// `owned`, series kept by their owners outside any registry. Series are
/// sorted by (name, labels) so repeated scrapes are stable; each family's
/// # HELP / # TYPE preamble comes from its first series.
std::string GlobalExposition(std::vector<MetricSnapshot> owned);

/// `{key="value",...}` with keys sorted and values escaped; "" when empty.
std::string RenderLabels(const Labels& labels);

}  // namespace obs
}  // namespace rpt

#endif  // RPT_OBS_METRICS_H_

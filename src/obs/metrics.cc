#include "obs/metrics.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <sstream>
#include <thread>

#include "util/hash.h"
#include "util/logging.h"

namespace rpt {
namespace obs {

namespace internal {

size_t ThreadStripe() {
  // Hash the thread id once per thread; the stripe is stable afterwards.
  static thread_local const size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return stripe;
}

namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

double AtomicDouble::Load() const {
  return BitsDouble(bits_.load(std::memory_order_relaxed));
}

void AtomicDouble::Store(double value) {
  bits_.store(DoubleBits(value), std::memory_order_relaxed);
}

void AtomicDouble::Add(double delta) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t updated = DoubleBits(BitsDouble(observed) + delta);
    if (bits_.compare_exchange_weak(observed, updated,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace internal

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  RPT_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bucket bounds must be ascending";
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  if constexpr (!kObsEnabled) return;
  // First bucket whose upper edge admits the value; +Inf catches the rest.
  size_t bucket = bounds_.size();
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.Add(value);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<double> DefaultLatencyBucketsMs() {
  return {0.05, 0.1, 0.25, 0.5, 1,   2.5, 5,    10,
          25,   50,  100,  250, 500, 1000, 2500};
}

std::vector<double> PowerOfTwoBuckets(size_t max_rows) {
  std::vector<double> bounds;
  for (size_t edge = 1; edge < max_rows; edge *= 2) {
    bounds.push_back(static_cast<double>(edge));
  }
  bounds.push_back(static_cast<double>(max_rows));
  return bounds;
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += key;
    out += "=\"";
    for (char c : value) {
      // Prometheus label-value escapes: backslash, quote, newline.
      if (c == '\\' || c == '"') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

MetricsRegistry::Shard& MetricsRegistry::ShardFor(const std::string& name) {
  return shards_[Fnv1a64(name) % kShards];
}

MetricsRegistry::Family* MetricsRegistry::GetFamily(Shard& shard,
                                                    const std::string& name,
                                                    MetricKind kind,
                                                    const std::string& help) {
  Family& family = shard.families[name];
  if (family.series.empty()) {
    family.kind = kind;
    family.help = help;
  } else {
    RPT_CHECK(family.kind == kind)
        << "metric '" << name << "' registered under two kinds";
  }
  return &family;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels,
                                     const std::string& help) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  Family* family = GetFamily(shard, name, MetricKind::kCounter, help);
  Series& series = family->series[RenderLabels(labels)];
  if (!series.counter) {
    series.labels = labels;
    series.counter = std::make_unique<Counter>();
  }
  return series.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const Labels& labels,
                                 const std::string& help) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  Family* family = GetFamily(shard, name, MetricKind::kGauge, help);
  Series& series = family->series[RenderLabels(labels)];
  if (!series.gauge) {
    series.labels = labels;
    series.gauge = std::make_unique<Gauge>();
  }
  return series.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  Family* family = GetFamily(shard, name, MetricKind::kHistogram, help);
  if (family->bounds.empty()) {
    family->bounds = bounds;
  } else {
    RPT_CHECK(family->bounds == bounds)
        << "histogram '" << name << "' registered with two bucket layouts";
  }
  Series& series = family->series[RenderLabels(labels)];
  if (!series.histogram) {
    series.labels = labels;
    series.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return series.histogram.get();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, family] : shard.families) {
      for (const auto& [label_key, series] : family.series) {
        const Labels& labels = series.labels;
        if (family.kind == MetricKind::kHistogram) {
          const Histogram& h = *series.histogram;
          out.push_back(HistogramSnapshot(name, family.help, labels, h));
          continue;
        }
        const double value = family.kind == MetricKind::kCounter
                                 ? static_cast<double>(series.counter->Value())
                                 : series.gauge->Value();
        out.push_back(
            ValueSnapshot(name, family.kind, family.help, labels, value));
      }
    }
  }
  return out;
}

MetricSnapshot ValueSnapshot(std::string name, MetricKind kind,
                             std::string help, Labels labels, double value) {
  MetricSnapshot snap;
  snap.name = std::move(name);
  snap.kind = kind;
  snap.help = std::move(help);
  snap.labels = std::move(labels);
  snap.value = value;
  return snap;
}

MetricSnapshot HistogramSnapshot(std::string name, std::string help,
                                 Labels labels, const Histogram& histogram) {
  MetricSnapshot snap;
  snap.name = std::move(name);
  snap.kind = MetricKind::kHistogram;
  snap.help = std::move(help);
  snap.labels = std::move(labels);
  snap.bounds = histogram.bounds();
  snap.buckets = histogram.BucketCounts();
  for (uint64_t b : snap.buckets) snap.count += b;
  snap.sum = histogram.Sum();
  return snap;
}

namespace {

std::string FormatValue(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

/// Renders one histogram series: cumulative `le` buckets, _sum, _count.
void RenderHistogram(const MetricSnapshot& snap, std::ostringstream* out) {
  Labels with_le = snap.labels;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < snap.bounds.size(); ++i) {
    cumulative += snap.buckets[i];
    with_le["le"] = FormatValue(snap.bounds[i]);
    *out << snap.name << "_bucket" << RenderLabels(with_le) << ' '
         << cumulative << '\n';
  }
  cumulative += snap.buckets.back();
  with_le["le"] = "+Inf";
  *out << snap.name << "_bucket" << RenderLabels(with_le) << ' ' << cumulative
       << '\n';
  *out << snap.name << "_sum" << RenderLabels(snap.labels) << ' '
       << FormatValue(snap.sum) << '\n';
  *out << snap.name << "_count" << RenderLabels(snap.labels) << ' '
       << snap.count << '\n';
}

/// The one exposition renderer: sorts by (name, labels) so repeated
/// scrapes are stable and takes each family's preamble from its first
/// series.
std::string RenderExposition(std::vector<MetricSnapshot> series) {
  std::stable_sort(series.begin(), series.end(),
                   [](const MetricSnapshot& a, const MetricSnapshot& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return a.labels < b.labels;
                   });
  std::ostringstream out;
  std::string current_family;
  for (const MetricSnapshot& snap : series) {
    if (snap.name != current_family) {
      current_family = snap.name;
      if (!snap.help.empty()) {
        out << "# HELP " << snap.name << ' ' << snap.help << '\n';
      }
      out << "# TYPE " << snap.name << ' ' << KindName(snap.kind) << '\n';
    }
    if (snap.kind == MetricKind::kHistogram) {
      RenderHistogram(snap, &out);
    } else {
      out << snap.name << RenderLabels(snap.labels) << ' '
          << FormatValue(snap.value) << '\n';
    }
  }
  return out.str();
}

}  // namespace

std::string MetricsRegistry::TextFormat() const {
  return RenderExposition(Snapshot());
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::string GlobalExposition(std::vector<MetricSnapshot> owned) {
  std::vector<MetricSnapshot> series = GlobalMetrics().Snapshot();
  std::move(owned.begin(), owned.end(), std::back_inserter(series));
  return RenderExposition(std::move(series));
}

}  // namespace obs
}  // namespace rpt

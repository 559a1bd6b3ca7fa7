#include "serve/shard.h"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <utility>

#include "eval/metrics.h"
#include "eval/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hash.h"
#include "util/logging.h"

namespace rpt {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Appends one span to the global tracer (which drops it when disabled).
/// `link_trace`/`link_span` carry an optional follows-from link to a span
/// in another request's trace (in-flight joiners link to the
/// representative execution they rode).
void RecordSpan(const char* name, uint64_t trace_id, uint64_t span_id,
                uint64_t parent_id, std::chrono::steady_clock::time_point begin,
                std::chrono::steady_clock::time_point end,
                uint64_t link_trace = 0, uint64_t link_span = 0) {
  obs::GlobalTracer().Record({trace_id, span_id, parent_id, name, begin, end,
                              obs::CurrentThreadId(), link_trace, link_span});
}

Status ShutDownStatus() {
  return Status::Unavailable("server is shut down, not accepting work");
}

}  // namespace

std::string ServerStatsSnapshot::Render(const std::string& name) const {
  std::ostringstream out;
  out << "==== " << name << " serving stats ====\n";
  ReportTable counters({"metric", "value"});
  counters.AddRow({"submitted", std::to_string(submitted)});
  counters.AddRow({"completed", std::to_string(completed)});
  counters.AddRow({"rejected (queue full)", std::to_string(rejected)});
  counters.AddRow({"rejected (shutdown)", std::to_string(shutdown_rejected)});
  counters.AddRow({"expired (deadline)", std::to_string(expired)});
  counters.AddRow({"invalid (rejected by session)", std::to_string(invalid)});
  counters.AddRow({"cache hits", std::to_string(cache_hits)});
  counters.AddRow({"cache hit rate", Fixed(cache_hit_rate, 3)});
  counters.AddRow({"coalesced (dupes folded)", std::to_string(coalesced)});
  counters.AddRow({"coalesced in-flight (cross-batch)",
                   std::to_string(inflight_coalesced)});
  counters.AddRow({"near-dup cache hits", std::to_string(neardup_hits)});
  counters.AddRow({"forward passes", std::to_string(batches)});
  counters.AddRow({"mean batch size", Fixed(mean_batch_size, 2)});
  counters.AddRow({"queue depth", std::to_string(queue_depth)});
  counters.AddRow({"latency p50 (ms)", Fixed(p50_ms, 3)});
  counters.AddRow({"latency p95 (ms)", Fixed(p95_ms, 3)});
  counters.AddRow({"latency p99 (ms)", Fixed(p99_ms, 3)});
  counters.AddRow({"latency max (ms)", Fixed(max_ms, 3)});
  out << counters.Render();
  if (!batch_size_histogram.empty()) {
    ReportTable hist({"batch size", "passes"});
    for (const auto& [size, count] : batch_size_histogram) {
      hist.AddRow({std::to_string(size), std::to_string(count)});
    }
    out << hist.Render();
  }
  return out.str();
}

ServerStatsSnapshot AggregateStats(
    const std::vector<ServerStatsSnapshot>& parts,
    const std::vector<double>& latencies_ms) {
  ServerStatsSnapshot total;
  for (const ServerStatsSnapshot& p : parts) {
    total.submitted += p.submitted;
    total.completed += p.completed;
    total.rejected += p.rejected;
    total.shutdown_rejected += p.shutdown_rejected;
    total.expired += p.expired;
    total.invalid += p.invalid;
    total.cache_hits += p.cache_hits;
    total.cache_misses += p.cache_misses;
    total.coalesced += p.coalesced;
    total.inflight_coalesced += p.inflight_coalesced;
    total.neardup_hits += p.neardup_hits;
    total.batches += p.batches;
    total.queue_depth += p.queue_depth;
    for (const auto& [size, count] : p.batch_size_histogram) {
      total.batch_size_histogram[size] += count;
    }
  }
  const uint64_t lookups = total.cache_hits + total.cache_misses;
  if (lookups > 0) {
    total.cache_hit_rate = static_cast<double>(total.cache_hits) /
                           static_cast<double>(lookups);
  }
  uint64_t pass_rows = 0;
  for (const auto& [size, count] : total.batch_size_histogram) {
    pass_rows += size * count;
  }
  if (total.batches > 0) {
    total.mean_batch_size =
        static_cast<double>(pass_rows) / static_cast<double>(total.batches);
  }
  if (!latencies_ms.empty()) {
    total.p50_ms = Percentile(latencies_ms, 50);
    total.p95_ms = Percentile(latencies_ms, 95);
    total.p99_ms = Percentile(latencies_ms, 99);
    total.max_ms = *std::max_element(latencies_ms.begin(), latencies_ms.end());
  }
  return total;
}

ServeShard::ServeShard(std::shared_ptr<ModelSession> session,
                       ServerConfig config)
    : session_(std::move(session)),
      config_(std::move(config)),
      queue_(config_.queue_capacity),
      cache_(config_.cache_capacity),
      // Reservoir sampling seeded from the shard name: bounded memory with
      // run-reproducible sampling decisions.
      latencies_ms_(LatencyReservoir::kDefaultCapacity,
                    Fnv1a64(config_.name)) {
  RPT_CHECK(session_ != nullptr);
  RPT_CHECK_GE(config_.max_batch_size, 1u);
  if (config_.exactness == Exactness::kNearDup && config_.cache_capacity > 0) {
    RPT_CHECK_GE(config_.neardup_max_hamming, 0);
    neardup_index_ = std::make_unique<SimHashIndex>(config_.cache_capacity);
  }
  collector_ = std::thread([this] { CollectorLoop(); });
}

ServeShard::~ServeShard() { Shutdown(); }

std::future<ServeResponse> ServeShard::Submit(
    std::string input, std::chrono::milliseconds timeout) {
  // Shared-ptr because ServeCallback (std::function) requires a copyable
  // callable; the promise itself is move-only.
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  SubmitAsync(
      std::move(input),
      [promise](ServeResponse r) { promise->set_value(std::move(r)); },
      timeout);
  return future;
}

void ServeShard::SubmitAsync(std::string input, ServeCallback done,
                             std::chrono::milliseconds timeout) {
  RPT_CHECK(done != nullptr) << "SubmitAsync needs a completion callback";
  Pending p;
  p.done = std::move(done);
  p.submitted = std::chrono::steady_clock::now();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const double interval_ms = arrivals_.OnArrival(p.submitted);
  if (interval_ms > 0) arrival_interval_ms_.Observe(interval_ms);

  // Trace stamp: inherit the caller's trace (RoutedServer::Submit opens
  // one), or start a fresh one for direct shard submissions. The root
  // "serve.submit" span id is reserved now and recorded by Finish.
  obs::Tracer& tracer = obs::GlobalTracer();
  if (tracer.enabled()) {
    p.trace_id = obs::CurrentTraceContext().trace_id;
    if (p.trace_id == 0) p.trace_id = tracer.NewTraceId();
    p.root_span = tracer.NewSpanId();
  }

  if (!accepting_.load(std::memory_order_acquire)) {
    ServeResponse r;
    r.status = ShutDownStatus();
    Finish(p, std::move(r), Outcome::kShutdownRejected,
           std::chrono::steady_clock::now());
    return;
  }
  // Dedup identity: exact payload under kStrict, normalized payload
  // otherwise (empty key means "same as input", avoiding the copy on the
  // strict hot path and whenever normalization is the identity).
  if (config_.exactness != Exactness::kStrict) {
    p.key = NormalizeForDedup(input, config_.normalize);
    if (p.key == input) p.key.clear();
  }
  p.input = std::move(input);

  if (config_.cache_capacity > 0) {
    const std::string& lookup_key = p.key.empty() ? p.input : p.key;
    auto hit = cache_.Get(lookup_key);
    bool near_dup = false;
    if (!hit && neardup_index_ != nullptr) {
      // Miss: probe the LSH index for a cached key within the Hamming
      // threshold of this payload's signature. A stale candidate (evicted
      // from the LRU since it was indexed) falls through to a plain miss.
      const SimHash128 signature = ComputeSimHash(lookup_key);
      std::optional<std::string> candidate;
      {
        std::lock_guard<std::mutex> lock(neardup_mu_);
        candidate =
            neardup_index_->FindNearest(signature, config_.neardup_max_hamming);
      }
      if (candidate && *candidate != lookup_key) {
        hit = cache_.Get(*candidate);
        near_dup = hit.has_value();
      }
    }
    const auto looked_up = std::chrono::steady_clock::now();
    if (p.trace_id != 0) {
      RecordSpan("serve.cache_lookup", p.trace_id, tracer.NewSpanId(),
                 p.root_span, p.submitted, looked_up);
    }
    if (hit) {
      // The lookup is counted before Finish counts the hit, so a snapshot
      // that reads hits first never sees more hits than lookups.
      cache_lookups_.fetch_add(1, std::memory_order_relaxed);
      if (near_dup) neardup_hits_.fetch_add(1, std::memory_order_relaxed);
      ServeResponse r;
      r.output = std::move(*hit);
      r.cache_hit = true;
      Finish(p, std::move(r), Outcome::kCacheHit, looked_up);
      return;
    }
  }

  // milliseconds::max() means "no deadline"; adding it to now() would
  // overflow the steady_clock representation.
  p.has_deadline = timeout != std::chrono::milliseconds::max();
  if (p.has_deadline) p.deadline = p.submitted + timeout;

  PushResult pushed;
  {
    // The map insert and the queue push are one atomic step under
    // inflight_mu_ (lock order: inflight before the queue's internal
    // mutex, never the reverse), so an entry in the map always has a live
    // representative behind it and a failed push never leaks an entry a
    // joiner could attach to.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    const auto [it, inserted] = inflight_.try_emplace(std::string(KeyOf(p)));
    if (!inserted) {
      // Coalesce: attach to the execution already queued or running.
      // Joiners inherit the in-flight result and never extend (or apply)
      // a deadline of their own. Their counts land before the lock is
      // released, i.e. before TakeJoiners can fold them: one lookup
      // outcome per admitted request, its miss converted into a hit when
      // the execution it rode completes.
      it->second.push_back(std::move(p));  // the Request part of it
      inflight_coalesced_.fetch_add(1, std::memory_order_relaxed);
      if (config_.cache_capacity > 0) {
        cache_lookups_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    pushed = queue_.TryPush(std::move(p));
    if (pushed != PushResult::kOk) inflight_.erase(it);
  }
  if (pushed != PushResult::kOk) {
    // The queue distinguishes full from closed: a Shutdown() racing this
    // Submit between the accepting_ check above and the push must surface
    // as a shutdown rejection, not be miscounted as backpressure. A failed
    // TryPush never moved `p`, so its callback is still ours to complete.
    const bool closed = pushed == PushResult::kClosed;
    ServeResponse r;
    r.status = closed ? ShutDownStatus()
                      : Status::Unavailable("request queue is full");
    Finish(p, std::move(r),
           closed ? Outcome::kShutdownRejected : Outcome::kRejected,
           std::chrono::steady_clock::now());
    return;
  }
  // Counted only after the push succeeds: a rejected request never produces
  // a model execution, so it is not a lookup outcome and must not inflate
  // the hit-rate denominator under backpressure.
  if (config_.cache_capacity > 0) {
    cache_lookups_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServeShard::Finish(const Request& request, ServeResponse response,
                        Outcome outcome,
                        std::chrono::steady_clock::time_point at) {
  response.latency_ms = ElapsedMs(request.submitted, at);
  // Release pairs with Count()'s acquire: a snapshot that sees this
  // outcome also sees the lookup counted before it.
  std::atomic<uint64_t>& counter = outcomes_[static_cast<size_t>(outcome)];
  counter.fetch_add(1, std::memory_order_release);
  if (outcome != Outcome::kRejected && outcome != Outcome::kShutdownRejected) {
    latency_ms_.Observe(response.latency_ms);
  }
  if (outcome == Outcome::kCompleted) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    latencies_ms_.Add(response.latency_ms);
  }
  if (request.trace_id != 0) {
    RecordSpan("serve.submit", request.trace_id, request.root_span, 0,
               request.submitted, at);
  }
  request.done(std::move(response));
}

void ServeShard::CollectorLoop() {
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    if (!queue_.PopBatch(&batch, config_.max_batch_size,
                         config_.max_batch_delay)) {
      return;  // closed and drained
    }
    CompleteBatch(&batch);
  }
}

void ServeShard::CompleteBatch(std::vector<Pending>* batch) {
  const auto now = std::chrono::steady_clock::now();
  obs::Tracer& tracer = obs::GlobalTracer();
  std::vector<Pending*> live;
  live.reserve(batch->size());
  for (Pending& p : *batch) {
    // Every popped request waited enqueue -> pickup, whatever its fate.
    queue_wait_ms_.Observe(ElapsedMs(p.submitted, now));
    if (p.trace_id != 0) {
      RecordSpan("serve.queue_wait", p.trace_id, tracer.NewSpanId(),
                 p.root_span, p.submitted, now);
    }
    // An expired request fails here without reaching the model. So does a
    // payload the session's Validate rejects: validation runs on the single
    // scheduler thread, so a malformed or over-long payload fails its own
    // request instead of tripping a model-side check that would abort the
    // process.
    ServeResponse failed;
    Outcome outcome;
    if (p.has_deadline && p.deadline < now) {
      failed.status = Status::DeadlineExceeded(
          "deadline passed while the request was queued");
      outcome = Outcome::kExpired;
    } else {
      failed.status = session_->Validate(p.input);
      if (failed.status.ok()) {
        live.push_back(&p);
        continue;
      }
      outcome = Outcome::kInvalid;
    }
    // Joiners share the representative's fate: its deadline governed the
    // execution they attached to, and they matched its dedup key, so the
    // validation verdict applies to them as well (under normalized keying
    // they may differ in surface form only, which Validate ignores by
    // intent).
    CompleteJoiners(TakeJoiners(KeyOf(p)), failed, outcome, now, 0, 0);
    Finish(p, std::move(failed), outcome, now);
  }
  if (live.empty()) return;

  // In-flight coalescing keeps each dedup key to one queued request, so
  // the live rows are distinct and output i answers live[i]. The collector
  // runs the pass under the first live request's execute-span context, so
  // model-layer stage spans (encode, prefill, decode steps —
  // profile/perf_hooks.h via obs/stage_exporter.h) nest inside one
  // representative request's trace.
  std::vector<std::string> inputs;
  inputs.reserve(live.size());
  for (const Pending* p : live) inputs.push_back(p->input);
  const uint64_t rep_exec_span =
      live[0]->trace_id != 0 ? tracer.NewSpanId() : 0;
  const auto run_begin = std::chrono::steady_clock::now();
  std::vector<std::string> outputs;
  {
    obs::ScopedTraceContext rep_context({live[0]->trace_id, rep_exec_span});
    outputs = session_->RunBatch(inputs);
  }
  RPT_CHECK_EQ(outputs.size(), inputs.size())
      << "session returned a mismatched batch";
  const auto done = std::chrono::steady_clock::now();
  execute_ms_.Observe(ElapsedMs(run_begin, done));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++batch_hist_[live.size()];
  }
  // The cache is populated under each request's dedup key *before* its
  // in-flight entry is resolved: a concurrent submit either attaches to
  // the entry (and is completed below) or, once the entry is gone, finds
  // the response already cached — no window re-runs the pass.
  std::vector<std::vector<Request>> joiners(live.size());
  uint64_t folded = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    const std::string key(KeyOf(*live[i]));
    cache_.Put(key, outputs[i]);
    if (neardup_index_ != nullptr) {
      const SimHash128 signature = ComputeSimHash(key);
      std::lock_guard<std::mutex> lock(neardup_mu_);
      neardup_index_->Add(signature, key);
    }
    joiners[i] = TakeJoiners(key);
    folded += joiners[i].size();
  }
  // Every joiner rode another request's execution; with the cache on its
  // submit-time miss thereby becomes a hit (Stats() derives hits from this
  // count), keeping hits + misses == one lookup outcome per admitted
  // request. Release pairs with Stats()'s acquire, as for the outcome
  // counters.
  coalesced_.fetch_add(folded, std::memory_order_release);

  const int64_t rows = static_cast<int64_t>(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    const Pending& p = *live[i];
    uint64_t exec_span = 0;
    if (p.trace_id != 0) {
      // Per-request view of the shared batch: formation (validation) and
      // execution; Finish adds the submit->completion root.
      RecordSpan("serve.batch", p.trace_id, tracer.NewSpanId(), p.root_span,
                 now, run_begin);
      exec_span = i == 0 ? rep_exec_span : tracer.NewSpanId();
      RecordSpan("serve.execute", p.trace_id, exec_span, p.root_span,
                 run_begin, done);
    }
    ServeResponse r;
    r.output = outputs[i];
    r.batch_size = rows;
    Finish(p, std::move(r), Outcome::kCompleted, done);
    if (joiners[i].empty()) continue;
    // Each joiner gets a copy of the output and a follows-from link to the
    // execution span it rode (in the representative's trace, possibly
    // batches ago from the joiner's point of view).
    ServeResponse base;
    base.output = std::move(outputs[i]);
    base.batch_size = rows;
    base.cache_hit = true;
    CompleteJoiners(std::move(joiners[i]), base, Outcome::kCompleted, done,
                    p.trace_id, exec_span);
  }
}

std::vector<ServeShard::Request> ServeShard::TakeJoiners(std::string_view key) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  const auto it = inflight_.find(std::string(key));
  if (it == inflight_.end()) return {};
  std::vector<Request> joiners = std::move(it->second);
  inflight_.erase(it);
  return joiners;
}

void ServeShard::CompleteJoiners(std::vector<Request> joiners,
                                 const ServeResponse& base, Outcome outcome,
                                 std::chrono::steady_clock::time_point done_at,
                                 uint64_t exec_trace, uint64_t exec_span) {
  obs::Tracer& tracer = obs::GlobalTracer();
  for (const Request& joiner : joiners) {
    if (joiner.trace_id != 0 && exec_span != 0) {
      // Cross-batch follows-from: the joiner's own trace shows the window
      // it spent attached, with an arrow to the execution (in the
      // representative's trace) that actually produced its bytes.
      RecordSpan("serve.execute", joiner.trace_id, tracer.NewSpanId(),
                 joiner.root_span, joiner.submitted, done_at, exec_trace,
                 exec_span);
    }
    Finish(joiner, base, outcome, done_at);
  }
}

void ServeShard::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    accepting_.store(false, std::memory_order_release);
    queue_.Close();  // collector drains the remainder, then exits
    if (collector_.joinable()) collector_.join();
  });
}

ServerStatsSnapshot ServeShard::Stats() const {
  ServerStatsSnapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = Count(Outcome::kCompleted);
  s.rejected = Count(Outcome::kRejected);
  s.shutdown_rejected = Count(Outcome::kShutdownRejected);
  s.expired = Count(Outcome::kExpired);
  s.invalid = Count(Outcome::kInvalid);
  s.coalesced = coalesced_.load(std::memory_order_acquire);
  s.inflight_coalesced = inflight_coalesced_.load(std::memory_order_relaxed);
  s.neardup_hits = neardup_hits_.load(std::memory_order_relaxed);
  // Hits are read before lookups, and a hit's lookup is counted before the
  // hit (a joiner's under inflight_mu_, before TakeJoiners can fold it), so
  // lookups >= hits; the clamp only guards the unsigned subtraction.
  s.cache_hits = Count(Outcome::kCacheHit) +
                 (config_.cache_capacity > 0 ? s.coalesced : 0);
  const uint64_t lookups = cache_lookups_.load(std::memory_order_relaxed);
  s.cache_misses = lookups > s.cache_hits ? lookups - s.cache_hits : 0;
  s.queue_depth = queue_.size();
  std::vector<double> lats;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.batch_size_histogram = batch_hist_;
    lats = latencies_ms_.samples();
  }
  for (const auto& [size, count] : s.batch_size_histogram) s.batches += count;
  // A single shard aggregates to itself: the shared helper derives the hit
  // rate, mean batch size and percentiles.
  return AggregateStats({s}, lats);
}

void ServeShard::AppendMetrics(std::vector<obs::MetricSnapshot>* out) const {
  const ServerStatsSnapshot s = Stats();
  const obs::Labels server = {{"server", config_.name}};
  constexpr obs::MetricKind kCounter = obs::MetricKind::kCounter;
  constexpr obs::MetricKind kGauge = obs::MetricKind::kGauge;
  const auto add = [&](obs::MetricKind kind, const char* name, double value,
                       const char* help) {
    out->push_back(obs::ValueSnapshot(name, kind, help, server, value));
  };
  const auto histogram = [&](const char* name, const obs::Histogram& h,
                             const char* help) {
    out->push_back(obs::HistogramSnapshot(name, help, server, h));
  };

  add(kCounter, "rpt_serve_submitted_total", s.submitted,
      "Requests submitted to the shard");
  add(kCounter, "rpt_serve_completed_total", s.completed,
      "Requests completed through the model path");
  const char* rejected_help = "Requests rejected at submit time";
  add(kCounter, "rpt_serve_rejected_total", s.rejected, rejected_help);
  out->back().labels["reason"] = "queue_full";
  add(kCounter, "rpt_serve_rejected_total", s.shutdown_rejected, rejected_help);
  out->back().labels["reason"] = "shutdown";
  add(kCounter, "rpt_serve_expired_total", s.expired,
      "Requests whose deadline passed while queued");
  add(kCounter, "rpt_serve_invalid_total", s.invalid,
      "Requests rejected by session Validate");
  // Lookups rather than misses: a coalesced duplicate upgrades its miss to
  // a hit, and a Prometheus counter must never decrement.
  add(kCounter, "rpt_serve_cache_lookups_total", s.cache_hits + s.cache_misses,
      "Response-cache lookup outcomes (hits + misses)");
  add(kCounter, "rpt_serve_cache_hits_total", s.cache_hits,
      "Submit-time LRU hits plus coalesced in-flight joiners");
  add(kCounter, "rpt_serve_coalesced_total", s.coalesced,
      "In-flight joiners folded into an execution that ran");
  add(kCounter, "rpt_serve_inflight_coalesced_total", s.inflight_coalesced,
      "Requests attached to an execution already queued or running");
  add(kCounter, "rpt_serve_neardup_hits_total", s.neardup_hits,
      "Cache misses served from a SimHash near-duplicate entry");
  add(kCounter, "rpt_serve_batches_total", s.batches,
      "Model forward passes executed");
  add(kGauge, "rpt_serve_queue_depth", s.queue_depth,
      "Requests waiting in the shard queue");
  add(kGauge, "rpt_serve_arrival_rate_rps",
      arrivals_.RateAt(std::chrono::steady_clock::now()),
      "EWMA request arrival rate in requests per second, decayed by idle "
      "time");
  histogram("rpt_serve_queue_wait_ms", queue_wait_ms_,
            "Time from enqueue to micro-batch pickup in milliseconds");
  histogram("rpt_serve_execute_ms", execute_ms_,
            "Model execution time per forward pass in milliseconds");
  histogram("rpt_serve_latency_ms", latency_ms_,
            "Submit-to-completion latency in milliseconds (all served paths)");
  histogram("rpt_serve_arrival_interval_ms", arrival_interval_ms_,
            "Gap between consecutive submits in milliseconds");

  // Batch rows are built from the exact map. One bucket layout spans every
  // plausible max_batch_size, so the family has one layout across shards.
  obs::MetricSnapshot rows;
  rows.name = "rpt_serve_batch_rows";
  rows.kind = obs::MetricKind::kHistogram;
  rows.help = "Unique rows per executed forward pass";
  rows.labels = server;
  rows.bounds = obs::PowerOfTwoBuckets(512);
  rows.buckets.assign(rows.bounds.size() + 1, 0);  // +Inf last
  for (const auto& [size, count] : s.batch_size_histogram) {
    size_t bucket = 0;
    while (bucket < rows.bounds.size() && rows.bounds[bucket] < size) {
      ++bucket;
    }
    rows.buckets[bucket] += count;
    rows.count += count;
    rows.sum += static_cast<double>(size * count);
  }
  out->push_back(std::move(rows));
}

std::vector<double> ServeShard::RawLatencies() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return latencies_ms_.samples();
}

}  // namespace rpt

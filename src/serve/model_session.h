// ModelSession: the model-side contract of the serving layer.
//
// The serving layer (ServeShard, serve/shard.h) is model-agnostic: it
// batches opaque string payloads and hands them to a ModelSession, which
// owns one loaded model (cleaner, matcher, or extractor — serve/sessions.h)
// and executes a whole micro-batch with a single forward pass. Payload formats are
// session-specific; the Format*/Parse* helpers in serve/sessions.h are the
// canonical encoders.
//
// RunBatch is called from exactly one scheduler thread at a time — each
// session instance is owned by exactly one ServeShard — so sessions need no
// internal locking as long as the underlying model is not trained
// concurrently. Replica sessions on the same route each need their own
// model instance: even inference mutates model state (the generators toggle
// train/eval mode), so two shards must not share one model.

#ifndef RPT_SERVE_MODEL_SESSION_H_
#define RPT_SERVE_MODEL_SESSION_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace rpt {

class ModelSession {
 public:
  virtual ~ModelSession() = default;

  /// Human-readable session name for stats/reports ("cleaner", ...).
  virtual std::string name() const = 0;

  /// Checks one payload before it is admitted into a micro-batch. A
  /// non-ok status (typically kInvalidArgument) completes the request with
  /// that status instead of reaching RunBatch — a malformed or over-long
  /// request must fail alone, not abort the server. Called from the same
  /// single scheduler thread as RunBatch.
  virtual Status Validate(const std::string& input) const {
    (void)input;
    return Status::Ok();
  }

  /// Executes one micro-batch: returns exactly one output per input, in
  /// order. Every input has already passed Validate. Must be safe to call
  /// repeatedly from one thread.
  virtual std::vector<std::string> RunBatch(
      const std::vector<std::string>& inputs) = 0;
};

}  // namespace rpt

#endif  // RPT_SERVE_MODEL_SESSION_H_

// Where enumerated solutions go. Every backend used to define its own
// std::function callback alias (SolutionCallback, ImbCallback, plain
// std::function in the inflation baseline); the unified API replaces them
// with one polymorphic sink so delivery policies — collect, count, stream,
// forward — compose with any backend.
#ifndef KBIPLEX_API_SOLUTION_SINK_H_
#define KBIPLEX_API_SOLUTION_SINK_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

#include "core/biplex.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace kbiplex {

/// Receives each delivered solution; Accept returning false stops the
/// enumeration (the run then reports completed = false).
///
/// Threading contract: a multi-threaded run (EnumerateRequest::threads !=
/// 1) may invoke Accept from worker threads. Calls are serialized — at
/// most one Accept executes at a time — but they arrive on changing
/// threads, so a sink must not rely on thread identity (thread-local
/// state, affinity to the constructing thread). A sink declares it
/// tolerates this by overriding ThreadCompatible() to return true; the
/// facade deterministically rejects every threads != 1 request whose sink
/// does not (even when the plan would not have split — plan selection
/// depends on graph and hardware, the contract must not), with an error
/// naming SynchronizedSink as the standard remedy. A threads = 1 run,
/// split or not, invokes Accept only from the calling thread.
/// All built-in sinks are thread-compatible; custom sinks default to the
/// conservative answer.
class SolutionSink {
 public:
  virtual ~SolutionSink() = default;
  virtual bool Accept(const Biplex& solution) = 0;

  /// True iff Accept may be invoked from worker threads (serialized, one
  /// call at a time). Defaults to false: a custom sink must opt in, or be
  /// wrapped in SynchronizedSink, before it can serve a parallel run.
  virtual bool ThreadCompatible() const { return false; }
};

/// Adapts a plain callback to the sink interface. Defaults to declaring
/// thread compatibility — parallel runs invoke the callback serialized
/// from worker threads, which plain lambdas tolerate — so the convenience
/// entry points (Enumerator::Run(cb), QuerySession::Run(cb)) keep working
/// with threads != 1. A callback that captures thread-affine state
/// (thread_local caches, single-threaded framework handles) should be
/// constructed with thread_compatible = false to get the same
/// deterministic rejection a custom sink subclass gets.
class CallbackSink final : public SolutionSink {
 public:
  explicit CallbackSink(std::function<bool(const Biplex&)> fn,
                        bool thread_compatible = true)
      : fn_(std::move(fn)), thread_compatible_(thread_compatible) {}

  bool Accept(const Biplex& solution) override { return fn_(solution); }

  bool ThreadCompatible() const override { return thread_compatible_; }

 private:
  std::function<bool(const Biplex&)> fn_;
  bool thread_compatible_;
};

/// Counts solutions without materializing them.
class CountingSink final : public SolutionSink {
 public:
  bool Accept(const Biplex&) override {
    ++count_;
    return true;
  }

  bool ThreadCompatible() const override { return true; }

  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Materializes every solution; Take() hands the batch out, sorted in the
/// canonical biplex order unless constructed with sorted = false.
class CollectingSink final : public SolutionSink {
 public:
  explicit CollectingSink(bool sorted = true) : sorted_(sorted) {}

  bool Accept(const Biplex& solution) override {
    solutions_.push_back(solution);
    return true;
  }

  bool ThreadCompatible() const override { return true; }

  size_t size() const { return solutions_.size(); }

  /// Moves the collected solutions out, sorting first when requested.
  std::vector<Biplex> Take();

 private:
  bool sorted_;
  std::vector<Biplex> solutions_;
};

/// Serializes concurrent Accept calls onto a single-threaded inner sink
/// with a mutex. Wrap any of the sinks above (collecting, counting,
/// stream, callback) to share one sink between concurrently running
/// enumerations. Note a single parallel run does NOT need this: the
/// driver already serializes sink access internally (with result-cap
/// accounting this wrapper has no view of); the wrapper is for embedders
/// pointing several independent Run() calls at one sink. The inner sink
/// is not owned and must outlive the wrapper.
/// A stop request (inner Accept returning false) is sticky: once refused,
/// every later Accept returns false without reaching the inner sink, so
/// racing workers cannot deliver past a sink-initiated stop.
class SynchronizedSink final : public SolutionSink {
 public:
  explicit SynchronizedSink(SolutionSink* inner) : inner_(inner) {}

  bool Accept(const Biplex& solution) override {
    MutexLock lock(&mu_);
    if (stopped_) return false;
    if (!inner_->Accept(solution)) stopped_ = true;
    return !stopped_;
  }

  bool ThreadCompatible() const override { return true; }

 private:
  Mutex mu_;
  SolutionSink* const inner_;  // set at construction, never reseated
  bool stopped_ KBIPLEX_GUARDED_BY(mu_) = false;
};

/// Buffers solutions and forwards them to an inner sink in the canonical
/// biplex order (core/biplex.h operator<) on Flush(). Parallel runs
/// deliver a deterministic solution *set* but a scheduling-dependent
/// *order*; wrapping an order-sensitive sink (stream writers, diff-based
/// comparisons) in a SortingSink makes the full output byte-identical
/// across thread counts. The inner sink is not owned and must outlive the
/// wrapper; a destructor does not flush — an unflushed buffer is
/// discarded, so the owner decides whether a stopped run's partial batch
/// is still worth emitting.
class SortingSink final : public SolutionSink {
 public:
  explicit SortingSink(SolutionSink* inner) : inner_(inner) {}

  bool Accept(const Biplex& solution) override {
    buffer_.push_back(solution);
    return true;
  }

  /// Buffering tolerates worker threads (calls are serialized upstream).
  bool ThreadCompatible() const override { return true; }

  size_t buffered() const { return buffer_.size(); }

  /// Sorts the buffer and forwards every solution to the inner sink, in
  /// order, stopping early if the inner sink refuses one. Returns false
  /// on such a refusal. The buffer is emptied either way; Flush may be
  /// called repeatedly (each call emits the batch accepted since the
  /// previous one).
  bool Flush();

 private:
  SolutionSink* const inner_;
  std::vector<Biplex> buffer_;
};

/// Streams solutions to an output stream as they arrive.
class StreamWriterSink final : public SolutionSink {
 public:
  enum class Format {
    kText,       // "l1 l2 | r1 r2", one solution per line
    kJsonLines,  // {"left":[..],"right":[..]}, one object per line
  };

  /// `out` must outlive the sink.
  explicit StreamWriterSink(std::ostream* out, Format format = Format::kText)
      : out_(out), format_(format) {}

  bool Accept(const Biplex& solution) override;

  bool ThreadCompatible() const override { return true; }

  uint64_t written() const { return written_; }

 private:
  std::ostream* out_;
  Format format_;
  uint64_t written_ = 0;
};

}  // namespace kbiplex

#endif  // KBIPLEX_API_SOLUTION_SINK_H_

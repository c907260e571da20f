//===- support/Trace.h - Low-overhead span tracing --------------*- C++ -*-===//
///
/// \file
/// A process-wide span tracer for the verification pipeline. Call sites
/// open an RAII Span naming the phase ("plan.verify", "net.explore", ...);
/// completed spans land in a fixed-capacity thread-safe ring buffer and
/// can be exported as Chrome trace_event JSON (loadable in
/// chrome://tracing and Perfetto) via writeChromeTrace().
///
/// Overhead contract: while tracing is disabled (the default), opening a
/// span costs exactly one relaxed atomic load and a branch — no clock
/// read, no allocation, no lock. Enabled spans take two clock reads plus
/// one short critical section on destruction. Names, categories and tag
/// values must be string literals (or otherwise outlive the trace); the
/// ring stores only the pointers, so the hot path never copies strings.
///
/// The ring keeps the most recent spans: once full, new spans overwrite
/// the oldest and droppedSpans() counts the casualties, so a runaway
/// workload degrades the trace instead of memory.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_TRACE_H
#define SUS_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <ostream>

namespace sus {
namespace trace {

namespace detail {
extern std::atomic<bool> Enabled;
uint64_t nowNanos();
void record(const char *Name, const char *Category, uint64_t StartNanos,
            uint64_t EndNanos, const char *TagKey, const char *TagValue,
            const char *CountKey, int64_t CountValue);
} // namespace detail

/// True while span collection is on. The one-atomic-load gate every
/// disabled span bottoms out in.
///
/// Relaxed is deliberate and sufficient: the gate carries no data. Every
/// recorder that acts on a true reading still takes the ring mutex, and
/// that mutex (released by enable() after initializing the ring) provides
/// the happens-before edge for the ring state itself. See
/// trace::enable() in Trace.cpp for the full argument.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}

/// Starts collecting spans into a fresh ring of \p Capacity slots.
void enable(size_t Capacity = 1 << 16);

/// Stops collection; already-recorded spans remain exportable.
void disable();

/// Discards every recorded span and the drop count (collection state is
/// left as-is).
void reset();

/// Completed spans currently held in the ring.
size_t spanCount();

/// Spans overwritten because the ring was full.
size_t droppedSpans();

/// Exports every retained span as Chrome trace_event JSON ("X" complete
/// events, microsecond timestamps), oldest first, and the number of spans
/// the ring dropped as "otherData":{"dropped_spans":N}, so that a trace
/// whose totals miss overwritten spans says so.
void writeChromeTrace(std::ostream &OS);

/// An RAII scoped span. The span covers the scope's lifetime; optional
/// tag()/count() attach one string and one integer argument rendered into
/// the trace_event "args" object.
class Span {
public:
  Span(const char *Name, const char *Category)
      : Name(Name), Category(Category),
        StartNanos(enabled() ? detail::nowNanos() : 0) {}

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  ~Span() {
    if (StartNanos != 0)
      detail::record(Name, Category, StartNanos, detail::nowNanos(), TagKey,
                     TagValue, CountKey, CountValue);
  }

  /// Attaches a string argument; both pointers must be string literals.
  void tag(const char *Key, const char *Value) {
    TagKey = Key;
    TagValue = Value;
  }

  /// Attaches an integer argument; \p Key must be a string literal.
  void count(const char *Key, int64_t Value) {
    CountKey = Key;
    CountValue = Value;
  }

private:
  const char *Name;
  const char *Category;
  uint64_t StartNanos; ///< 0 = tracing was off when the span opened.
  const char *TagKey = nullptr;
  const char *TagValue = nullptr;
  const char *CountKey = nullptr;
  int64_t CountValue = 0;
};

} // namespace trace
} // namespace sus

#endif // SUS_SUPPORT_TRACE_H

//===- support/Trace.cpp - Low-overhead span tracing ----------------------===//

#include "support/Trace.h"

#include "support/Sync.h"

#include <chrono>
#include <thread>
#include <vector>

using namespace sus;

namespace {

struct SpanRecord {
  const char *Name;
  const char *Category;
  uint64_t StartNanos;
  uint64_t EndNanos;
  uint32_t Tid;
  const char *TagKey;
  const char *TagValue;
  const char *CountKey;
  int64_t CountValue;
};

/// The ring plus everything needed to drain it. One mutex serializes
/// writers; a span is recorded once, on destruction, so the critical
/// section is a handful of stores. M is a leaf lock: nothing else is
/// ever acquired while it is held.
struct Ring {
  Mutex M;
  std::vector<SpanRecord> Slots SUS_GUARDED_BY(M);
  size_t Capacity SUS_GUARDED_BY(M) = 0;
  size_t Next SUS_GUARDED_BY(M) = 0;    ///< Write cursor (wraps).
  size_t Count SUS_GUARDED_BY(M) = 0;   ///< Live records, <= Capacity.
  size_t Dropped SUS_GUARDED_BY(M) = 0; ///< Overwritten records.
};

Ring &ring() {
  static Ring *R = new Ring; // Leaked: spans may outlive static dtors.
  return *R;
}

/// Small dense thread ids for the trace output (std::thread::id values
/// are opaque and enormous).
std::atomic<uint32_t> NextTid{0};

uint32_t currentTid() {
  // Relaxed is enough: fetch_add is a single atomic RMW, so every thread
  // still draws a unique id — uniqueness is the only invariant; no other
  // data is published through this counter, so no ordering is needed.
  thread_local uint32_t Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

/// Escapes a (trusted, literal) string for a JSON string literal. Names
/// are call-site literals, but a stray quote must not corrupt the file.
void writeJsonString(std::ostream &OS, const char *S) {
  OS << '"';
  for (; *S; ++S) {
    char C = *S;
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (static_cast<unsigned char>(C) < 0x20)
      OS << "\\u00" << "0123456789abcdef"[(C >> 4) & 0xf]
         << "0123456789abcdef"[C & 0xf];
    else
      OS << C;
  }
  OS << '"';
}

} // namespace

std::atomic<bool> trace::detail::Enabled{false};

uint64_t trace::detail::nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void trace::detail::record(const char *Name, const char *Category,
                           uint64_t StartNanos, uint64_t EndNanos,
                           const char *TagKey, const char *TagValue,
                           const char *CountKey, int64_t CountValue) {
  uint32_t Tid = currentTid();
  Ring &R = ring();
  MutexLock Lock(R.M);
  if (R.Capacity == 0)
    return; // Disabled (or never enabled) between open and close.
  SpanRecord &Slot = R.Slots[R.Next];
  if (R.Count == R.Capacity)
    ++R.Dropped;
  else
    ++R.Count;
  Slot = {Name,   Category, StartNanos, EndNanos,  Tid,
          TagKey, TagValue, CountKey,   CountValue};
  R.Next = (R.Next + 1) % R.Capacity;
}

void trace::enable(size_t Capacity) {
  Ring &R = ring();
  {
    MutexLock Lock(R.M);
    R.Capacity = Capacity == 0 ? 1 : Capacity;
    R.Slots.assign(R.Capacity, SpanRecord{});
    R.Next = R.Count = R.Dropped = 0;
  }
  // Relaxed store is safe even though it publishes the gate *after* the
  // ring was initialized above: Enabled is only a hint. A recorder that
  // observes Enabled==true must still acquire R.M before touching the
  // ring, and that acquire synchronizes with the release of R.M in the
  // block above, making the initialized Capacity/Slots visible. A
  // recorder that races ahead of that handoff sees Capacity==0 under the
  // lock and drops the span — never a torn ring.
  detail::Enabled.store(true, std::memory_order_relaxed);
}

void trace::disable() {
  // Relaxed: disabling is advisory. In-flight spans that already loaded
  // Enabled==true still record through R.M, which is the real serializer.
  detail::Enabled.store(false, std::memory_order_relaxed);
}

void trace::reset() {
  Ring &R = ring();
  MutexLock Lock(R.M);
  R.Next = R.Count = R.Dropped = 0;
}

size_t trace::spanCount() {
  Ring &R = ring();
  MutexLock Lock(R.M);
  return R.Count;
}

size_t trace::droppedSpans() {
  Ring &R = ring();
  MutexLock Lock(R.M);
  return R.Dropped;
}

void trace::writeChromeTrace(std::ostream &OS) {
  Ring &R = ring();
  MutexLock Lock(R.M);
  // Chrome wants microseconds; keep nanosecond resolution as a
  // zero-padded fractional part.
  auto WriteMicros = [&OS](uint64_t Nanos) {
    OS << Nanos / 1000 << '.' << static_cast<char>('0' + (Nanos / 100) % 10)
       << static_cast<char>('0' + (Nanos / 10) % 10)
       << static_cast<char>('0' + Nanos % 10);
  };
  OS << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  // Oldest record first: when the ring has wrapped, the write cursor
  // points at it; otherwise it is slot 0.
  size_t First = R.Count == R.Capacity ? R.Next : 0;
  for (size_t I = 0; I < R.Count; ++I) {
    const SpanRecord &S = R.Slots[(First + I) % R.Capacity];
    if (I != 0)
      OS << ",";
    OS << "\n{\"name\":";
    writeJsonString(OS, S.Name);
    OS << ",\"cat\":";
    writeJsonString(OS, S.Category);
    OS << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Tid;
    OS << ",\"ts\":";
    WriteMicros(S.StartNanos);
    OS << ",\"dur\":";
    WriteMicros(S.EndNanos - S.StartNanos);
    if (S.TagKey || S.CountKey) {
      OS << ",\"args\":{";
      if (S.TagKey) {
        writeJsonString(OS, S.TagKey);
        OS << ":";
        writeJsonString(OS, S.TagValue ? S.TagValue : "");
      }
      if (S.CountKey) {
        if (S.TagKey)
          OS << ",";
        writeJsonString(OS, S.CountKey);
        OS << ":" << S.CountValue;
      }
      OS << "}";
    }
    OS << "}";
  }
  OS << "\n],\"otherData\":{\"dropped_spans\":" << R.Dropped << "}}\n";
}

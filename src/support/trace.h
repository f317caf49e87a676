// Pipeline-wide tracing and metrics (the observability layer).
//
// Design:
//   - A process-global TraceRecorder that is OFF by default. Every probe
//     (Span, count, gauge, addStageSeconds) starts with a single relaxed
//     atomic load; when tracing is disabled nothing else happens, so hot
//     paths (interpreter dispatch, selector DP) pay one predictable branch.
//   - Work units register a TaskScope (workload name + stable index). All
//     probes on that thread then record into the scope's private buffer —
//     no locking, no cross-thread contention — and the buffer is published
//     to the recorder when the scope closes. Records are drained sorted by
//     index, so parallel runs export byte-identically to sequential ones
//     (the same discipline as parallelIndexMap). A task's record is
//     exactly what fired on its own thread while its scope was open, so
//     work whose counters belong to a task (candidate generation included)
//     runs on that task's thread, never fanned out to another one.
//   - Probes fired outside any TaskScope go to a per-thread "orphan" buffer
//     (worker-lifetime spans) or a global counter map. Orphan data is
//     inherently schedule-dependent and is only exported in wall-clock mode.
//
// Export: Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev) with
// balanced B/E pairs. Two time modes:
//   - deterministic (default): timestamps are per-task event ordinals, so
//     the file is a pure function of the work and bit-identical across jobs
//     counts and runs. Use for regression diffing and CI artifacts.
//   - wall: real steady-clock microseconds. Use for actual profiling.
//
// Env: CAYMAN_TRACE=1 enables the global recorder at first use (for
// instrumenting binaries that take no CLI flags, e.g. the benches).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.h"

namespace cayman::support::trace {

/// Fast path: is the global recorder recording? Single relaxed atomic load.
bool on();

/// One Begin or End event. Complete spans are always recorded as a balanced
/// B/E pair in buffer order, which keeps nesting explicit for the exporter.
struct Event {
  enum class Phase : uint8_t { Begin, End };
  Phase phase = Phase::Begin;
  std::string name;
  std::string category;
  uint64_t wallNs = 0;  ///< steady-clock, common process epoch
};

/// Everything one task (workload) recorded, published on TaskScope close.
struct TaskRecord {
  std::string unit;   ///< workload / module name
  size_t index = 0;   ///< stable output position (workload registry order)
  std::vector<Event> events;
  /// Monotonic counters, sorted by name at publish time.
  std::vector<std::pair<std::string, uint64_t>> counters;
  /// Per-stage wall seconds accumulated by the pipeline checkpoints.
  std::vector<std::pair<std::string, double>> stageSeconds;
  double totalSeconds = 0.0;  ///< TaskScope open -> close
};

/// Schedule-dependent data recorded outside any TaskScope (one per thread
/// that fired orphan probes, e.g. pool workers). Wall-mode export only.
struct OrphanRecord {
  std::string label;  ///< "thread-<registration order>"
  std::vector<Event> events;
};

class TraceRecorder {
 public:
  /// The process-global recorder used by all probes. First call honours
  /// CAYMAN_TRACE=1.
  static TraceRecorder& global();

  /// Turns recording on or off. Existing records are kept.
  void setEnabled(bool enabled);

  /// Discards all published records and global counters.
  void clear();

  /// Global (out-of-task) counters: schedule-independent totals like
  /// pool.tasks. Thread-safe.
  void countGlobal(std::string_view name, uint64_t delta);
  /// Global gauges: last-written values (e.g. pool.workers). Thread-safe.
  void setGauge(std::string_view name, int64_t value);

  /// Takes every published task record, sorted by (index, unit); the
  /// recorder keeps running. Orphan buffers of live threads stay attached.
  std::vector<TaskRecord> drainTasks();
  std::vector<OrphanRecord> drainOrphans();
  std::vector<std::pair<std::string, uint64_t>> globalCounters() const;
  std::vector<std::pair<std::string, int64_t>> gauges() const;

  // Internal publication API used by TaskScope / orphan buffers.
  void publishTask(TaskRecord record);
  void publishOrphan(OrphanRecord record);

 private:
  mutable std::mutex mutex_;
  std::vector<TaskRecord> tasks_;
  std::vector<OrphanRecord> orphans_;
  std::vector<std::pair<std::string, uint64_t>> globalCounters_;
  std::vector<std::pair<std::string, int64_t>> gauges_;
  size_t orphanLabels_ = 0;
};

/// Declares "this thread is now running work unit `unit` at output position
/// `index`". Probes on the thread record into this scope until it closes;
/// closing publishes the record. Scopes nest (the inner one wins); a scope
/// created while tracing is off is inert even if tracing turns on later.
class TaskScope {
 public:
  TaskScope(std::string unit, size_t index);
  ~TaskScope();
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

  /// Implementation detail (defined in trace.cpp; public so the thread-local
  /// current-scope pointer can name it).
  struct State;

 private:
  State* state_ = nullptr;
  State* previous_ = nullptr;
  uint64_t beginNs_ = 0;
};

/// RAII span. Constructing records a Begin event, destroying the matching
/// End. No-op when tracing is off (the names are not even copied) or (for
/// task-attributed data) outside any scope — outside a scope it records into
/// the thread's orphan buffer.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "stage");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  std::string name_;
  std::string category_;
};

// The probes below take names as string_view so a disabled probe costs the
// `on()` check alone: no std::string is built for a literal name.

/// Adds `delta` to counter `name`: task-local inside a TaskScope (fully
/// deterministic), else global.
void count(std::string_view name, uint64_t delta);

/// Adds `delta` directly to the global counter map, bypassing any TaskScope.
/// For schedule-dependent pool internals (pool.tasks) that must never enter
/// a deterministic task record.
void countGlobal(std::string_view name, uint64_t delta);

/// Accumulates pipeline-stage wall seconds into the current TaskScope.
void addStageSeconds(std::string_view stage, double seconds);

/// Sets a global gauge (no-op when tracing is off).
void gauge(std::string_view name, int64_t value);

/// Names this thread's orphan record (e.g. "pool-worker-3") instead of the
/// default publish-order "thread-<n>" label. Wall-mode traces only.
void setThreadLabel(std::string label);

/// Steady-clock nanoseconds since the recorder's process epoch.
uint64_t nowNs();

enum class TimeMode {
  Deterministic,  ///< ordinal timestamps; bit-identical across runs
  Wall,           ///< real steady-clock timestamps
};

/// Builds a Chrome trace-event document ({"traceEvents": [...]}).
/// Deterministic mode exports task records only; wall mode adds orphan
/// (worker) timelines and global gauges as metadata.
json::Value chromeTrace(const std::vector<TaskRecord>& tasks,
                        const std::vector<OrphanRecord>& orphans,
                        TimeMode mode);

}  // namespace cayman::support::trace

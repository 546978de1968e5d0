#pragma once
// Hardware performance counters via the raw perf_event_open(2) syscall —
// no library dependency. One counter group per thread (cycles leads;
// instructions, cache-references, cache-misses and branch-misses follow)
// is opened lazily on first use and read as a unit, so per-phase deltas
// (encode vs. SOLVE vs. certify) are consistent snapshots of the same
// scheduling intervals.
//
// Graceful degradation is part of the contract: on non-Linux builds, in
// containers that mask the syscall (EPERM/ENOSYS), under restrictive
// perf_event_paranoid settings, or when OPTALLOC_NO_PERFCTR is set in
// the environment, every call keeps working — perf_available() is false,
// reads return {available:false}, perf_json() renders well-formed nulls,
// and obs::Span emits no "perf_counters" event. Individual siblings that
// fail to open (e.g. cache counters on VMs without a PMU event for them)
// degrade to -1 / null while the rest of the group keeps counting.

#include <cstdint>
#include <string>

namespace optalloc::obs {

/// Counter totals (or a delta of two readings). `available` is false
/// when the calling thread has no usable group; individual counters that
/// could not be opened read -1 and render as JSON null.
struct PerfCounts {
  bool available = false;
  std::int64_t cycles = -1;
  std::int64_t instructions = -1;
  std::int64_t cache_references = -1;
  std::int64_t cache_misses = -1;
  std::int64_t branch_misses = -1;
};

/// True when the calling thread has an open, readable counter group.
/// The first call per thread pays the perf_event_open() setup.
bool perf_available();

/// Current totals for the calling thread ({available:false} when the
/// group is unavailable).
PerfCounts perf_read();

/// a - b per counter; a counter absent (-1) on either side stays -1.
PerfCounts perf_delta(const PerfCounts& a, const PerfCounts& b);

/// {"cycles":N,...} with JSON null for absent counters — the "well-formed
/// nulls" contract for bench JSON on perf-less hosts.
std::string perf_json(const PerfCounts& c);

}  // namespace optalloc::obs

/**
 * @file
 * The traced run: a workload's stack rebuilt from public constructors
 * (EventQueue, DramSystem/DramBackend or NetBackend, OramController
 * or ShardedOram, CoreModels) with a TimedBackend over each store and
 * the request seam inside spans, driven one eq.step() at a time. Its
 * simulated outcome must equal the untraced run's bit for bit.
 */

#ifndef FP_BENCH_PERF_TRACED_HH
#define FP_BENCH_PERF_TRACED_HH

#include <cstdint>
#include <string>

#include "spans.hh"
#include "workloads.hh"

namespace fp::perf
{

struct TraceResult
{
    SimMetrics sim;
    SpanRecorder spans;
    /** Host seconds to build (and, for kv, bulk-load) the stack. */
    double setupS = 0.0;
    std::uint64_t events = 0;   //!< eq.step() calls in the timed phase.
    std::uint64_t rejected = 0; //!< request() calls that returned 0.

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error;

    /** Host time from request() to its response, per op kind. */
    double readUsSum = 0.0;
    double writeUsSum = 0.0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    // Simulated counters, from the components' public accessors.
    std::uint64_t accesses = 0;
    std::uint64_t dummyAccesses = 0;
    double dramBucketsPerAccess = 0.0;
    std::uint64_t mergedLevelsSkipped = 0;
    std::uint64_t onchipBucketReads = 0;
    std::uint64_t stashPeak = 0;
    std::uint64_t shardWindowRejects = 0;
    double memAvgLatencyNs = 0.0;
    double rowHitRate = 0.0;
    std::uint64_t materializedBuckets = 0;
};

TraceResult runTraced(const Workload &w, const Options &opt);

} // namespace fp::perf

#endif // FP_BENCH_PERF_TRACED_HH

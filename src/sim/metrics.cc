#include "sim/metrics.hh"

#include <cmath>
#include <cstdio>

#include "util/json.hh"
#include "util/logging.hh"

namespace fp::sim
{

double
controllerEnergyNj(const core::OramController &ctrl, Tick sim_time,
                   const ControllerEnergyParams &params)
{
    const unsigned z = ctrl.params().oram.z;
    double accesses = static_cast<double>(ctrl.totalAccesses());
    double blocks_moved =
        static_cast<double>(ctrl.bucketsReadTotal() +
                            ctrl.bucketsWrittenTotal()) *
        static_cast<double>(z);

    double dynamic = accesses * params.stashSearchNj +
                     blocks_moved * params.blockMoveNj +
                     static_cast<double>(ctrl.realAccesses()) *
                         params.posmapLookupNj +
                     static_cast<double>(ctrl.onChipBucketReads()) *
                         params.cacheAccessNj;

    // Leakage over on-chip structures: stash + cache budget.
    double onchip_mb =
        static_cast<double>(ctrl.params().oram.stashCapacity *
                            (core::ControllerParams::blockPhysBytes + 16)) /
        (1024.0 * 1024.0);
    if (ctrl.params().cachePolicy != core::CachePolicy::none) {
        onchip_mb += static_cast<double>(
                         ctrl.params().cacheBudgetBytes) /
                     (1024.0 * 1024.0);
    }
    double seconds = static_cast<double>(sim_time) /
                     static_cast<double>(ticksPerSecond);
    double leakage_nj =
        params.leakageMwPerMb * onchip_mb * seconds * 1e6;

    return dynamic + leakage_nj;
}

std::string
toJson(const RunResult &r)
{
    JsonWriter w;
    w.beginObject();
    if (!r.specName.empty()) {
        // Provenance block, present only for spec-driven runs so
        // results produced outside the experiment-spec runtime stay
        // byte-identical to the historical format.
        char hash[24];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      static_cast<unsigned long long>(r.specHash));
        w.field("spec_name", r.specName).field("spec_hash", hash);
    }
    w.field("hit_tick_limit", r.hitTickLimit)
        .field("execution_ticks", std::uint64_t{r.executionTicks})
        .field("avg_llc_latency_ns", r.avgLlcLatencyNs)
        .field("avg_read_path_len", r.avgReadPathLen)
        .field("avg_dram_buckets_read", r.avgDramBucketsRead)
        .field("avg_dram_service_ns", r.avgDramServiceNs)
        .field("real_accesses", r.realAccesses)
        .field("dummy_accesses", r.dummyAccesses)
        .field("total_accesses", r.totalAccesses())
        .field("dummy_replacements", r.dummyReplacements)
        .field("pending_swaps", r.pendingSwaps)
        .field("stash_shortcuts", r.stashShortcuts)
        .field("llc_requests", r.llcRequests)
        .field("merged_levels_skipped", r.mergedLevelsSkipped)
        .field("row_hits", r.rowHits)
        .field("row_misses", r.rowMisses)
        .field("row_hit_rate", r.rowHitRate())
        .field("dram_energy_nj", r.dramEnergyNj)
        .field("controller_energy_nj", r.controllerEnergyNj)
        .field("stash_peak", std::uint64_t{r.stashPeak})
        .field("stash_overflows", r.stashOverflows)
        .field("cache_hits", r.cacheHits)
        .field("cache_misses", r.cacheMisses)
        .field("cache_hit_rate", r.cacheHitRate());
    if (r.backendKind != "dram") {
        // Non-DRAM backends carry their own summary block. DRAM runs
        // omit it so their JSON stays byte-identical to the format
        // that predates the backend seam.
        w.field("backend_kind", r.backendKind)
            .field("backend_read_bursts", r.backendReadBursts)
            .field("backend_write_bursts", r.backendWriteBursts)
            .field("backend_bytes_read", r.backendBytesRead)
            .field("backend_bytes_written", r.backendBytesWritten)
            .field("backend_avg_latency_ns", r.backendAvgLatencyNs);
    }
    if (r.faultsEnabled || r.retryEnabled) {
        // Resilience block, present only when a fault/retry stack was
        // configured (fault-free output stays byte-identical).
        w.field("fault_injection_enabled", r.faultsEnabled)
            .field("retry_enabled", r.retryEnabled)
            .field("fault_loss_injected", r.faultLossInjected)
            .field("fault_error_injected", r.faultErrorInjected)
            .field("fault_spike_injected", r.faultSpikeInjected)
            .field("fault_outage_dropped", r.faultOutageDropped)
            .field("retry_attempts", r.retryAttempts)
            .field("retry_timeouts", r.retryTimeouts)
            .field("retry_dedup_dropped", r.retryDedupDropped)
            .field("retry_exhausted", r.retryExhausted)
            .field("retry_max_attempts", r.retryMaxAttempts)
            .field("fault_run_failed", r.failed)
            .field("fault_failure", r.failureMessage)
            // Hex string: a 64-bit fingerprint survives JSON parsers
            // that read numbers as doubles.
            .field("fault_stream_fingerprint",
                   strprintf("%016llx",
                             static_cast<unsigned long long>(
                                 r.reqStreamFingerprint)));
    }
    if (r.profiled) {
        // Per-request profile block, present only under
        // --profile-requests (profiling-off output stays
        // byte-identical; tests/test_obs.cc pins both directions).
        w.key("profile").beginObject();
        w.field("completed_requests", r.profiledRequests);
        w.key("stages").beginArray();
        for (const obs::ProfileStageSummary &s : r.profileStages) {
            s.writeFields(w.beginObject());
            w.endObject();
        }
        w.endArray();
        r.profileEffectiveness.writeFields(
            w.key("effectiveness").beginObject());
        w.endObject();
        w.endObject();
    }
    if (r.shards > 1) {
        // Shard block, present only when the run actually sharded
        // (--shards=1 output stays byte-identical to the
        // single-controller format).
        w.key("shard").beginObject();
        w.field("shards", std::uint64_t{r.shards})
            .field("shard_window", std::uint64_t{r.shardWindow})
            .field("shard_window_rejects", r.shardWindowRejects)
            .field("shard_busy_rejects", r.shardBusyRejects);
        w.key("shard_dispatched").beginArray();
        for (std::uint64_t n : r.shardDispatched)
            w.value(n);
        w.endArray();
        w.key("shard_real_accesses").beginArray();
        for (std::uint64_t n : r.shardRealAccesses)
            w.value(n);
        w.endArray();
        w.key("shard_dummy_accesses").beginArray();
        for (std::uint64_t n : r.shardDummyAccesses)
            w.value(n);
        w.endArray();
        w.key("shard_avg_llc_latency_ns").beginArray();
        for (double v : r.shardAvgLlcLatencyNs)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.key("merge_skips_per_level").beginArray();
    for (std::uint64_t n : r.mergeSkipsPerLevel)
        w.value(n);
    w.endArray().endObject();
    return w.str();
}

double
geomean(const std::vector<double> &values)
{
    fp_assert(!values.empty(), "geomean of nothing");
    double acc = 0.0;
    for (double v : values) {
        fp_assert(v > 0.0, "geomean needs positive values");
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace fp::sim

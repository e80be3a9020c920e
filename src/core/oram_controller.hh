/**
 * @file
 * The ORAM controller: owner and orchestrator of the staged access
 * pipeline (paper Section 4, Figure 9). The heavy lifting lives in
 * four stages sharing one PipelineContext —
 *
 *   AdmissionStage    address queue -> scheduler (core/admission_stage.hh)
 *   PathScheduler     label queue + access pool   (core/path_scheduler.hh)
 *   ReadEngine        fork-shaped path fetches    (core/read_engine.hh)
 *   WritebackEngine   windowed refills            (core/writeback_engine.hh)
 *
 * — while the controller keeps the LLC request table, the per-access
 * phase machine, and the run-level stats. Which of the paper's
 * techniques are active is decided by the ControllerParams::policy
 * scheduling policy (core/controller_params.hh): `traditional` is the
 * baseline Path ORAM machine, `forkpath` (default) the paper's
 * design, `batched` a batch-draining variant.
 *
 * The controller is event-driven against a mem::MemoryBackend for
 * timing (the DDR3 model behind dram::DramBackend, or mem::NetBackend
 * for a remote store) and carries real blocks through the
 * stash/TreeStore for functional correctness; both concerns are
 * exercised by one code path.
 *
 * Phase machine per ORAM access (Figure 1(c)):
 *
 *   readIssue -> [DRAM reads] -> readDone -(idle gap)-> writeIssue
 *     -> [windowed DRAM writes, leaf -> stop level] -> writeDone
 *
 * The scheduled next access is chosen at writeIssue (its overlap with
 * the current path defines the refill stop level); while the refill
 * has not yet issued the crossing bucket, a dummy `pending` may still
 * be replaced by a late-arriving real request (Cases 1-3 of Section
 * 3.3). When an access's write completes with a dummy `pending` and
 * no real work exists anywhere, the controller parks: the committed
 * dummy runs when the next real request arrives (its refill stop
 * already revealed it, so it cannot be skipped).
 */

#ifndef FP_CORE_ORAM_CONTROLLER_HH
#define FP_CORE_ORAM_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/address_queue.hh"
#include "core/admission_stage.hh"
#include "core/controller_params.hh"
#include "core/label_queue.hh"
#include "core/merging_cache.hh"
#include "core/path_scheduler.hh"
#include "core/pipeline.hh"
#include "core/plb.hh"
#include "core/read_engine.hh"
#include "core/writeback_engine.hh"
#include "dram/address_mapping.hh"
#include "mem/backend.hh"
#include "mem/tree_store.hh"
#include "obs/tracer.hh"
#include "oram/oram_params.hh"
#include "oram/integrity.hh"
#include "oram/position_map.hh"
#include "oram/stash.hh"
#include "oram/treetop_cache.hh"
#include "util/event_queue.hh"
#include "util/stats.hh"

namespace fp::obs
{
class RequestProfiler;
} // namespace fp::obs

namespace fp::core
{

/** Revealed (adversary-visible) shape of one ORAM access. */
struct RevealedAccess
{
    LeafLabel label = invalidLeaf;
    unsigned readStartLevel = 0;  //!< First level fetched (fork point).
    unsigned writeStopLevel = 0;  //!< Last level refilled toward root.
    bool dummy = false;
    Tick readStartTick = 0;       //!< Bus-visible start time.
};

class OramController
{
  public:
    using DataCallback =
        std::function<void(Tick, const std::vector<std::uint8_t> &)>;

    /** Drive the controller against any memory backend (the seam
     *  every production configuration uses). */
    OramController(const ControllerParams &params, EventQueue &eq,
                   mem::MemoryBackend &backend);

    /** True if a new LLC request can be accepted right now. */
    bool canAccept() const;

    /**
     * Submit an LLC request.
     * @return the request id (0 when rejected; retry later).
     */
    std::uint64_t request(oram::Op op, BlockAddr addr,
                          std::vector<std::uint8_t> payload,
                          DataCallback cb);

    /** Real requests accepted but not yet answered. */
    std::size_t inFlight() const { return outstandingLlc_; }
    bool busy() const { return outstandingLlc_ > 0; }

    // --- experiment metrics ---------------------------------------------
    /** Per-LLC-request completion latency (ns), queueing included. */
    const fp::Histogram &oramLatency() const { return llcLatency_; }

    /** Average tree-path length fetched per ORAM access (buckets). */
    double avgReadPathLength() const
    {
        return read_.readLenStat().mean();
    }

    /** Average buckets actually fetched from DRAM per access. */
    double avgDramBucketsRead() const
    {
        return read_.dramReadLenStat().mean();
    }

    /** Average DRAM busy time per ORAM access (ns, read+write). */
    double avgDramServiceNs() const { return dramService_.mean(); }

    // Underlying running averages, for cross-shard aggregation via
    // Average::merge (a mean of per-shard means would weight shards
    // equally regardless of how many accesses each one served).
    const fp::Average &readPathLengthStat() const
    {
        return read_.readLenStat();
    }
    const fp::Average &dramBucketsReadStat() const
    {
        return read_.dramReadLenStat();
    }
    const fp::Average &dramServiceStat() const { return dramService_; }

    std::uint64_t realAccesses() const { return realAccesses_.value(); }
    std::uint64_t dummyAccessesRun() const
    {
        return dummyAccesses_.value();
    }
    std::uint64_t totalAccesses() const
    {
        return realAccesses_.value() + dummyAccesses_.value();
    }
    std::uint64_t dummyReplacements() const
    {
        return scheduler_.dummyReplacements();
    }
    std::uint64_t pendingSwaps() const
    {
        return scheduler_.pendingSwaps();
    }
    std::uint64_t stashShortcuts() const
    {
        return admission_.stashShortcuts();
    }
    std::uint64_t bucketsReadTotal() const
    {
        return static_cast<std::uint64_t>(read_.readLenStat().sum());
    }
    std::uint64_t bucketsWrittenTotal() const
    {
        return wb_.bucketsWritten();
    }
    std::uint64_t dramBucketWrites() const
    {
        return wb_.dramBucketWrites();
    }
    std::uint64_t onChipBucketReads() const
    {
        return read_.onChipBucketReads();
    }
    /** MAC victims the refills wrote back to the backend. */
    std::uint64_t macVictimWrites() const
    {
        return wb_.macVictimWritesStat().value();
    }
    /** Total tree levels skipped by path merging (summed forks). */
    std::uint64_t mergedLevelsSkipped() const
    {
        return read_.mergedLevelsSkipped();
    }
    /** Accesses that skipped level l, indexed by l (merge benefit). */
    const std::vector<std::uint64_t> &mergeSkipsPerLevel() const
    {
        return read_.mergeSkipsPerLevel();
    }
    /**
     * FNV-1a fingerprint of every backend request this controller
     * has issued, folded over (addr, isWrite, bytes) in issue order.
     * Taken at the seam *above* any fault/retry decorators, so a
     * faulty run and a fault-free run of the same config must agree
     * — the obliviousness-under-retry check (docs/ROBUSTNESS.md).
     */
    std::uint64_t reqStreamFingerprint() const
    {
        return ctx_.reqFingerprint;
    }

    /** Distribution of read-phase fork levels. */
    const fp::Histogram &forkLevelHist() const
    {
        return read_.forkLevelHist();
    }
    /** Distribution of scheduled overlap (refill stop levels). */
    const fp::Histogram &overlapHist() const
    {
        return scheduler_.overlapHist();
    }

    // --- component access (tests, examples) ------------------------------
    const ControllerParams &params() const { return params_; }
    const mem::TreeGeometry &geometry() const { return geo_; }
    oram::Stash &stash() { return stash_; }
    mem::TreeStore &store() { return store_; }
    oram::PositionMap &positionMap() { return posMap_; }
    LabelQueue &labelQueue() { return scheduler_.labelQueue(); }
    AddressQueue &addressQueue() { return admission_.queue(); }
    MergingAwareCache *mac() { return mac_.get(); }
    const oram::TreetopCache *treetop() const { return treetop_.get(); }
    oram::MerkleTree *merkle() { return merkle_.get(); }
    PosmapLookasideBuffer *plb() { return plb_.get(); }
    mem::MemoryBackend &memory() { return mem_; }

    // --- pipeline stage access -------------------------------------------
    AdmissionStage &admission() { return admission_; }
    PathScheduler &scheduler() { return scheduler_; }

    /** Record the adversary-visible access shapes (security tests). */
    void setRevealTraceEnabled(bool enabled)
    {
        revealTraceEnabled_ = enabled;
    }
    const std::vector<RevealedAccess> &revealTrace() const
    {
        return revealTrace_;
    }

    fp::StatGroup &stats() { return stats_; }

    /**
     * Attach the event tracer; fans out to the label queue, stash,
     * and MAC, and names every track. The revealed-access track the
     * tracer carries mirrors revealTrace() event for event.
     */
    void setTracer(obs::Tracer *tracer);

    /**
     * Attach the per-request lifecycle profiler; fans out to the
     * label queue and stash (the backend is wired separately by the
     * System, which owns both sides of that seam). Null detaches.
     */
    void setProfiler(obs::RequestProfiler *prof);

    /**
     * Make this controller hand out LLC request ids @p first,
     * @p first + @p stride, @p first + 2*@p stride, ... instead of
     * the default 1, 2, 3, ... Shard s of a core::ShardedOram uses
     * (s + 1, num_shards) so ids are globally unique across shards
     * (and never 0, the rejection sentinel) — required by the
     * profiler's async trace spans, which key on the id. Call before
     * the first request.
     */
    void setRequestIdStream(std::uint64_t first, std::uint64_t stride);

  private:
    /** A live LLC request. */
    struct LlcRequest
    {
        std::uint64_t id = 0;
        BlockAddr addr = invalidBlockAddr;
        oram::Op op = oram::Op::read;
        std::vector<std::uint8_t> payload;
        Tick arrival = 0;
        DataCallback cb;
    };

    enum class Phase
    {
        idle,       //!< Nothing in the backend.
        readWait,   //!< Read phase scheduled, not yet started.
        reading,
        idleGap,    //!< Between read and write phases.
        writing,
        /**
         * Eager-read / lazy-refill park: a committed dummy has
         * finished its read phase with no real work anywhere, so its
         * refill waits. When a real request arrives, the refill runs
         * with that request as its merge target — the dummy's read
         * happened off the critical path during idle time.
         */
        writeParked,
    };

    /** fp_fatal on invalid params, pass through otherwise. */
    static const ControllerParams &checked(const ControllerParams &p);

    // --- frontend --------------------------------------------------------
    void pumpFrontend();
    bool realWorkPending() const;
    bool shouldRunBackend() const;
    void respond(std::uint64_t llc_id,
                 const std::vector<std::uint8_t> &data);

    // --- backend phase machine --------------------------------------------
    void maybeStartBackend();
    void startRead();
    /** Stage boundary: the ReadEngine finished the current fetch. */
    void onReadDone();
    void startWrite();
    /** Stage boundary: the WritebackEngine finished the refill. */
    void onWriteDone();

    ControllerParams params_;
    EventQueue &eq_;
    mem::MemoryBackend &mem_;

    mem::TreeGeometry geo_;
    oram::PositionMap posMap_;
    oram::Stash stash_;
    mem::TreeStore store_;
    dram::BucketLayout layout_;
    std::unique_ptr<oram::TreetopCache> treetop_;
    std::unique_ptr<MergingAwareCache> mac_;
    std::unique_ptr<oram::MerkleTree> merkle_;
    std::unique_ptr<PosmapLookasideBuffer> plb_;
    Rng rng_;

    /** Shared stage substrate; must follow the components above and
     *  precede the stages, whose constructors bind to it. */
    PipelineContext ctx_;
    WritebackEngine wb_;
    ReadEngine read_;
    PathScheduler scheduler_;
    AdmissionStage admission_;

    std::unordered_map<std::uint64_t, LlcRequest> llc_;
    std::uint64_t nextId_ = 1;
    std::uint64_t idStride_ = 1;
    std::size_t outstandingLlc_ = 0;

    // Backend state.
    Phase phase_ = Phase::idle;
    std::optional<ActiveAccess> current_;

    /** Next access slot in periodic mode. */
    Tick periodicNextStart_ = 0;

    bool revealTraceEnabled_ = false;
    std::vector<RevealedAccess> revealTrace_;

    // Run-level stats (per-phase stats live in the stages).
    fp::Histogram llcLatency_;
    fp::Average dramService_;
    fp::Counter realAccesses_;
    fp::Counter dummyAccesses_;
    fp::StatGroup stats_;
};

} // namespace fp::core

#endif // FP_CORE_ORAM_CONTROLLER_HH

/**
 * @file
 * Shared substrate of the staged ORAM access pipeline.
 *
 * The controller is decomposed into four stages (see
 * docs/ARCHITECTURE.md, "Access pipeline & scheduling policies"):
 *
 *   AdmissionStage   drains the address queue into the scheduler
 *                    (stash shortcut, MAC data hit, PLB chain start,
 *                    policy-gated batching);
 *   PathScheduler    owns the label queue and the access pool;
 *                    picks paths and handles dummy replacing /
 *                    pending swaps;
 *   ReadEngine       runs one fork-shaped read phase against the
 *                    memory backend;
 *   WritebackEngine  runs one windowed refill phase.
 *
 * PipelineContext is the bag of references every stage shares: the
 * functional ORAM substrate (position map, stash, tree store, caches,
 * integrity tree), the timing seam (event queue + memory backend),
 * and the observability hooks. The OramController owns the
 * components, fills the context in its constructor, and orchestrates
 * the stages through the unchanged phase machine.
 */

#ifndef FP_CORE_PIPELINE_HH
#define FP_CORE_PIPELINE_HH

#include <cstdint>

#include "core/controller_params.hh"
#include "dram/address_mapping.hh"
#include "mem/backend.hh"
#include "mem/tree_store.hh"
#include "obs/tracer.hh"
#include "oram/position_map.hh"
#include "oram/stash.hh"
#include "util/event_queue.hh"

namespace fp::obs
{
class RequestProfiler;
} // namespace fp::obs

namespace fp::oram
{
class TreetopCache;
class MerkleTree;
} // namespace fp::oram

namespace fp::core
{

class MergingAwareCache;
class PosmapLookasideBuffer;

/** One ORAM access being processed or scheduled next. */
struct ActiveAccess
{
    LeafLabel label = invalidLeaf;
    bool dummy = true;
    std::uint64_t llcId = 0;       //!< Owning LLC request.
    unsigned chainIndex = 0;       //!< Recursion chain position.
    BlockAddr addr = invalidBlockAddr; //!< Data element only.
    LeafLabel newLeaf = invalidLeaf;   //!< Remap target.
};

/**
 * References to the shared pipeline substrate, owned by the
 * controller and outliving every stage. The cache/integrity pointers
 * are null when the corresponding feature is off; trc/prof are
 * mutable observability attachments (setTracer/setProfiler).
 */
struct PipelineContext
{
    const ControllerParams &params;
    EventQueue &eq;
    mem::MemoryBackend &mem;
    const mem::TreeGeometry &geo;
    oram::PositionMap &posMap;
    oram::Stash &stash;
    mem::TreeStore &store;
    const dram::BucketLayout &layout;

    oram::TreetopCache *treetop = nullptr;
    MergingAwareCache *mac = nullptr;
    oram::MerkleTree *merkle = nullptr;
    PosmapLookasideBuffer *plb = nullptr;

    obs::Tracer *trc = nullptr;
    obs::RequestProfiler *prof = nullptr;

    /**
     * FNV-1a fingerprint of every backend request the pipeline has
     * issued, folded over (addr, isWrite, bytes) in issue order.
     * Shared between the read and writeback engines so the stream is
     * fingerprinted exactly as the bus sees it.
     */
    std::uint64_t reqFingerprint = 14695981039346656037ULL;

    bool traceOn() const
    {
        return trc && trc->on(obs::TraceLevel::access);
    }

    /** Fold one issued request into reqFingerprint. */
    void fingerprintRequest(Addr addr, bool is_write,
                            std::uint64_t bytes)
    {
        constexpr std::uint64_t prime = 1099511628211ULL;
        auto fold = [this, prime](std::uint64_t v, unsigned bytes_of) {
            for (unsigned i = 0; i < bytes_of; ++i) {
                reqFingerprint ^= (v >> (8 * i)) & 0xffu;
                reqFingerprint *= prime;
            }
        };
        fold(addr, 8);
        fold(is_write ? 1 : 0, 1);
        fold(bytes, 8);
    }
};

} // namespace fp::core

#endif // FP_CORE_PIPELINE_HH

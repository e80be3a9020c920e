/**
 * @file
 * Admission stage of the access pipeline: drains the address queue
 * (hazard-checked LLC requests) into the path scheduler. Per entry it
 * tries, in order: the stash shortcut, a MAC data hit, then builds
 * the head of the access chain (PLB-accelerated under modelled
 * recursion) and offers it to the scheduler — first as a
 * dummy-replacing candidate against the in-flight refill, else into
 * the label queue (with backpressure when the queue's real share is
 * full).
 *
 * The drain itself is policy-gated: ControllerParams::admits is
 * consulted once per pump, which is how the `batched` policy holds
 * arrivals until a full batch is issuable while the backend is busy.
 */

#ifndef FP_CORE_ADMISSION_STAGE_HH
#define FP_CORE_ADMISSION_STAGE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/address_queue.hh"
#include "core/path_scheduler.hh"
#include "core/pipeline.hh"
#include "util/stats.hh"

namespace fp::core
{

class AdmissionStage
{
  public:
    /** Callbacks into the controller (LLC completion) and across to
     *  the replace/swap path, which needs the in-flight current. */
    struct Hooks
    {
        std::function<void(std::uint64_t,
                           const std::vector<std::uint8_t> &)>
            respond;
        std::function<bool(const ActiveAccess &)> tryReplaceOrSwap;
    };

    /** Address-queue capacity: LLC requests accepted and not yet
     *  answered, beyond which OramController::request rejects. */
    static constexpr std::size_t addressQueueSize = 128;

    AdmissionStage(PipelineContext &ctx, PathScheduler &sched);

    void setHooks(Hooks hooks) { hooks_ = std::move(hooks); }

    AddressQueue &queue() { return addrQueue_; }
    const AddressQueue &queue() const { return addrQueue_; }

    /**
     * Drain issuable address-queue entries into the scheduler.
     * @p pipeline_busy is true while an ORAM access is in flight
     * (any phase, parked included) — the batched policy's hold
     * condition.
     */
    void pump(bool pipeline_busy);

    const fp::Counter &stashShortcutsStat() const
    {
        return stashShortcuts_;
    }
    std::uint64_t stashShortcuts() const
    {
        return stashShortcuts_.value();
    }
    /** Entries admitted into the scheduler (chain heads built). */
    std::uint64_t admitted() const { return admitted_.value(); }
    /** Pumps where the policy held issuable entries back. */
    std::uint64_t heldPumps() const { return heldPumps_.value(); }
    std::uint64_t macDataHits() const { return macDataHits_.value(); }

    fp::StatGroup &stats() { return stats_; }

  private:
    /**
     * MAC data hit (paper Section 4): the block may sit in a cached
     * bucket along its current path; if so it is promoted to the
     * stash and the request completes without a DRAM access, exactly
     * like a stash hit.
     */
    bool tryMacDataHit(AddressEntry &entry);

    PipelineContext &ctx_;
    PathScheduler &sched_;
    Hooks hooks_;

    AddressQueue addrQueue_;

    fp::Counter stashShortcuts_;
    fp::Counter admitted_;
    fp::Counter heldPumps_;
    fp::Counter macDataHits_;
    fp::StatGroup stats_;
};

} // namespace fp::core

#endif // FP_CORE_ADMISSION_STAGE_HH

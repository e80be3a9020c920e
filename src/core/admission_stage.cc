#include "core/admission_stage.hh"

#include "core/merging_cache.hh"
#include "core/plb.hh"
#include "obs/request_profiler.hh"
#include "oram/integrity.hh"
#include "util/logging.hh"

namespace fp::core
{

AdmissionStage::AdmissionStage(PipelineContext &ctx,
                               PathScheduler &sched)
    : ctx_(ctx), sched_(sched),
      addrQueue_(addressQueueSize), stats_("admission")
{
    stats_.regCounter("admitted", admitted_,
                      "address-queue entries issued downstream");
    stats_.regCounter("held_pumps", heldPumps_,
                      "pumps the policy held back (batching)");
    stats_.regCounter("mac_data_hits", macDataHits_,
                      "requests completed by a MAC data hit");
    stats_.regGauge(
        "issuable", [this] { return double(addrQueue_.issuableCount()); },
        "hazard-free entries awaiting admission");
}

void
AdmissionStage::pump(bool pipeline_busy)
{
    if (!ctx_.params.admits(addrQueue_.issuableCount(),
                            pipeline_busy)) {
        if (addrQueue_.issuableCount() > 0) {
            heldPumps_.inc();
            if (ctx_.traceOn())
                ctx_.trc->instant(
                    obs::Track::admission, "batch_hold",
                    {obs::TraceArg::num(
                        "issuable", addrQueue_.issuableCount())});
        }
        return;
    }

    std::uint64_t admitted_before = admitted_.value();
    while (AddressEntry *e = addrQueue_.nextIssuable()) {
        // Step 1: stash shortcut.
        if (ctx_.params.oram.stashShortcut) {
            if (mem::Block *blk = ctx_.stash.find(e->addr)) {
                stashShortcuts_.inc();
                if (ctx_.traceOn())
                    ctx_.trc->instant(
                        obs::Track::cache, "stash_shortcut",
                        {obs::TraceArg::num("addr", e->addr)});
                std::vector<std::uint8_t> data = blk->payload;
                if (e->op == oram::Op::write)
                    blk->payload = e->payload;
                addrQueue_.markIssued(e->id);
                hooks_.respond(e->id, data);
                continue;
            }
        }

        // Step 2: MAC data hit, completing without an ORAM access.
        if (ctx_.mac && tryMacDataHit(*e))
            continue;

        // Build the head of this request's access chain. With
        // modelled recursion the head is a position-map access with a
        // uniform label; otherwise it is the data access itself. A
        // PLB hit lets the chain start below the cached translation.
        ActiveAccess acc;
        acc.dummy = false;
        acc.llcId = e->id;
        acc.chainIndex =
            ctx_.plb ? ctx_.plb->lookupChainStart(e->addr) : 0;
        if (acc.chainIndex > 0 && ctx_.traceOn()) {
            ctx_.trc->instant(obs::Track::cache, "plb_hit",
                              {obs::TraceArg::num("addr", e->addr),
                               obs::TraceArg::num("chain_start",
                                                  acc.chainIndex)});
        }
        bool is_data = acc.chainIndex == ctx_.params.recursionDepth;
        if (is_data) {
            acc.addr = e->addr;
            acc.label = ctx_.posMap.lookupOrAssign(e->addr);
        } else {
            acc.label = ctx_.posMap.randomLabel();
        }

        // Admission: dummy-replace / swap into pending, else the
        // label queue proper.
        bool admitted = hooks_.tryReplaceOrSwap(acc);
        if (!admitted) {
            if (!sched_.hasSpaceForReal())
                break; // backpressure; retry on next pump
            if (is_data)
                acc.newLeaf = ctx_.posMap.remap(e->addr);
            sched_.enqueue(acc);
        } else if (is_data) {
            // Remap only once the access is definitely in flight.
            // (tryReplaceOrSwap cannot be reached before the label
            // lookup above, which it uses for the overlap.)
            sched_.pending()->newLeaf = ctx_.posMap.remap(e->addr);
        }
        addrQueue_.markIssued(e->id);
        admitted_.inc();
        if (ctx_.prof)
            ctx_.prof->onIssue(e->id);
    }

    std::uint64_t batch = admitted_.value() - admitted_before;
    if (batch > 0 && ctx_.params.policy == PolicyKind::batched &&
        ctx_.traceOn()) {
        ctx_.trc->instant(obs::Track::admission, "batch_flush",
                          {obs::TraceArg::num("count", batch)});
    }
}

bool
AdmissionStage::tryMacDataHit(AddressEntry &entry)
{
    // The block, if not stashed, lives somewhere on the path of its
    // current label; probe the cached band's positions along it.
    LeafLabel label = ctx_.posMap.lookupOrAssign(entry.addr);
    for (unsigned level = ctx_.mac->m1(); level <= ctx_.mac->m2();
         ++level) {
        BucketIndex idx = ctx_.geo.bucketAt(label, level);
        auto blk = ctx_.mac->extractBlock(idx, entry.addr);
        if (!blk)
            continue;
        if (ctx_.merkle) {
            const mem::Bucket *rest = ctx_.mac->peek(idx);
            fp_assert(rest != nullptr, "MAC hit bucket vanished");
            ctx_.merkle->updateBucket(idx, *rest);
        }
        blk->leaf = ctx_.posMap.remap(entry.addr);
        std::vector<std::uint8_t> data = blk->payload;
        if (entry.op == oram::Op::write)
            blk->payload = entry.payload;
        ctx_.stash.insert(std::move(*blk));
        addrQueue_.markIssued(entry.id);
        macDataHits_.inc();
        hooks_.respond(entry.id, data);
        return true;
    }
    return false;
}

} // namespace fp::core

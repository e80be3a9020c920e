#include "core/path_scheduler.hh"

#include <algorithm>

#include "util/logging.hh"

namespace fp::core
{

PathScheduler::PathScheduler(PipelineContext &ctx,
                             WritebackEngine &wb)
    : ctx_(ctx), wb_(wb),
      labelQueue_(ctx.geo, ctx.params.labelQueueSize,
                  ctx.params.agingThreshold, ctx.params.dummyPolicy,
                  ctx.params.oram.seed ^ 0x1abe1),
      overlapHist_(ctx.geo.numLevels() + 1, 1.0),
      stats_("path_scheduler")
{
    stats_.regCounter("writebacks_scheduled", scheduled_,
                      "pending selections at write issue");
    stats_.regGauge(
        "selections",
        [this] { return double(labelQueue_.selections()); },
        "label-queue selections performed");
    stats_.regGauge(
        "dummies_selected",
        [this] { return double(labelQueue_.dummiesSelected()); },
        "selections that picked a padding dummy");
    stats_.regGauge(
        "aging_promotions",
        [this] { return double(labelQueue_.agingPromotions()); },
        "real entries force-promoted by aging");
}

void
PathScheduler::enqueue(const ActiveAccess &access)
{
    std::uint64_t token = nextToken_++;
    accessPool_.emplace(token, access);
    bool ok = labelQueue_.insertReal(access.label, token,
                                     /*allow_overflow=*/true);
    fp_assert(ok, "label queue rejected an overflow insert");
}

std::optional<LabelEntry>
PathScheduler::selectNext(LeafLabel from)
{
    if (ctx_.params.merging())
        labelQueue_.ensureFull();
    return labelQueue_.selectNext(from);
}

std::optional<ActiveAccess>
PathScheduler::selectFresh()
{
    auto entry = selectNext(prevLabel_);
    if (!entry)
        return std::nullopt;
    return toActive(*entry);
}

unsigned
PathScheduler::scheduleWriteback(const ActiveAccess &cur)
{
    unsigned stop = 0;
    if (ctx_.params.merging()) {
        auto entry = selectNext(cur.label);
        fp_assert(entry.has_value(), "full queue returned nothing");
        pending_ = toActive(*entry);
        stop = std::min<unsigned>(
            ctx_.geo.overlap(cur.label, pending_->label),
            ctx_.geo.numLevels());
    } else {
        pending_.reset();
        stop = 0;
    }
    scheduled_.inc();
    overlapHist_.sample(static_cast<double>(stop));
    return stop;
}

bool
PathScheduler::tryReplaceOrSwap(
    const ActiveAccess &incoming,
    const std::optional<ActiveAccess> &current)
{
    if (!ctx_.params.replacing())
        return false;
    if (!wb_.active() || !pending_ || !current)
        return false;

    unsigned k_in = ctx_.geo.overlap(current->label, incoming.label);
    // The crossing bucket (deepest shared level, k_in - 1) must not
    // have been issued yet: the refill sweeps leaf -> root, so levels
    // strictly above wb_.nextLevel() are already committed to the
    // command stream (paper Cases 1-3).
    bool crossing_free =
        static_cast<int>(k_in) - 1 <= wb_.nextLevel();
    if (!crossing_free) {
        // Case 2: the crossing bucket is already in the command
        // stream, so the committed pending cannot change.
        if (ctx_.traceOn())
            ctx_.trc->instant(
                obs::Track::schedule, "replace_reject",
                {obs::TraceArg::num("case", 2),
                 obs::TraceArg::num("label", incoming.label),
                 obs::TraceArg::num("overlap", k_in)});
        return false;
    }

    if (pending_->dummy) {
        pending_ = incoming;
        wb_.setStopLevel(
            std::min<unsigned>(k_in, ctx_.geo.numLevels()));
        dummyReplacements_.inc();
        // Case 1: a not-yet-committed padding dummy gives its slot
        // to the late-arriving real request.
        if (ctx_.traceOn())
            ctx_.trc->instant(
                obs::Track::schedule, "dummy_replace",
                {obs::TraceArg::num("case", 1),
                 obs::TraceArg::num("label", incoming.label),
                 obs::TraceArg::num("overlap", k_in)});
        wb_.pump();
        return true;
    }

    unsigned k_pend =
        ctx_.geo.overlap(current->label, pending_->label);
    if (k_in > k_pend) {
        // Swap: the better-overlapping incoming becomes pending; the
        // old pending rejoins the pool (Algorithm 1).
        ActiveAccess old_pending = *pending_;
        pending_ = incoming;
        wb_.setStopLevel(
            std::min<unsigned>(k_in, ctx_.geo.numLevels()));
        pendingSwaps_.inc();
        // Case 3: a real pending is displaced by a better-overlapping
        // real newcomer and rejoins the pool.
        if (ctx_.traceOn())
            ctx_.trc->instant(
                obs::Track::schedule, "pending_swap",
                {obs::TraceArg::num("case", 3),
                 obs::TraceArg::num("label", incoming.label),
                 obs::TraceArg::num("overlap", k_in),
                 obs::TraceArg::num("old_overlap", k_pend)});
        enqueue(old_pending);
        wb_.pump();
        return true;
    }
    return false;
}

ActiveAccess
PathScheduler::toActive(const LabelEntry &entry)
{
    if (entry.dummy) {
        ActiveAccess acc;
        acc.dummy = true;
        acc.label = entry.label;
        return acc;
    }
    auto it = accessPool_.find(entry.token);
    fp_assert(it != accessPool_.end(), "label entry without access");
    ActiveAccess acc = it->second;
    accessPool_.erase(it);
    return acc;
}

} // namespace fp::core

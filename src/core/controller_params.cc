#include "core/controller_params.hh"

#include "mem/bucket.hh"
#include "util/logging.hh"

namespace fp::core
{

void
ControllerParams::validate() const
{
    if (oram.z == 0)
        fp_fatal("ControllerParams: oram.z must be positive");
    if (oram.z > mem::Bucket::maxZ)
        fp_fatal("ControllerParams: oram.z=%u exceeds %u (bucket "
                 "slots are held inline)",
                 oram.z, mem::Bucket::maxZ);
    if (labelQueueSize == 0)
        fp_fatal("ControllerParams: labelQueueSize must be positive "
                 "(policy '%s' schedules from the label queue)",
                 policyKindName(policy));
    if (addressQueueSize == 0)
        fp_fatal("ControllerParams: addressQueueSize must be "
                 "positive");
    if (recursionFanout == 0)
        fp_fatal("ControllerParams: recursionFanout must be positive "
                 "(posmap blocks hold at least one translation)");
    if (writeWindow == 0)
        fp_fatal("ControllerParams: writeWindow must be positive "
                 "(a zero window never issues a refill)");
    if (policy == PolicyKind::batched && batchSize == 0)
        fp_fatal("ControllerParams: batchSize must be positive for "
                 "the batched policy");
    if (cachePolicy == CachePolicy::mac && macBucketsPerSet == 0)
        fp_fatal("ControllerParams: macBucketsPerSet must be "
                 "positive with the MAC cache");
    if (blockPhysBytes == 0)
        fp_fatal("ControllerParams: blockPhysBytes must be positive");
}

ControllerParams
ControllerParams::traditional()
{
    ControllerParams p;
    applyPolicyPreset(p, PolicyKind::traditional);
    return p;
}

ControllerParams
ControllerParams::forkPath()
{
    ControllerParams p;
    applyPolicyPreset(p, PolicyKind::forkpath);
    return p;
}

} // namespace fp::core

#include "core/controller_params.hh"

#include "mem/bucket.hh"
#include "util/logging.hh"

namespace fp::core
{

namespace
{

struct PolicyInfo
{
    PolicyKind kind;
    const char *name;
};

constexpr PolicyInfo kRegistry[] = {
    {PolicyKind::traditional, "traditional"},
    {PolicyKind::forkpath, "forkpath"},
    {PolicyKind::batched, "batched"},
};

} // anonymous namespace

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
    if (recursionFanout == 0)
        fp_fatal("ControllerParams: recursionFanout must be positive "
                 "(posmap blocks hold at least one translation)");
    if (policy == PolicyKind::batched && batchSize == 0)
        fp_fatal("ControllerParams: batchSize must be positive for "
                 "the batched policy");
}

ControllerParams
ControllerParams::traditional()
{
    ControllerParams p;
    p.policy = PolicyKind::traditional;
    p.enableDummyReplacing = false;
    p.labelQueueSize = 1;
    return p;
}

ControllerParams
ControllerParams::forkPath()
{
    ControllerParams p; // forkpath, replacing on, a 64-entry queue
    p.cachePolicy = CachePolicy::mac;
    return p;
}

PolicyKind
parsePolicyKind(const std::string &name)
{
    for (const PolicyInfo &info : kRegistry) {
        if (name == info.name)
            return info.kind;
    }
    std::string known;
    for (const PolicyInfo &info : kRegistry) {
        if (!known.empty())
            known += "|";
        known += info.name;
    }
    fp_fatal("unknown access policy '%s' (%s)", name.c_str(),
             known.c_str());
}

const char *
policyKindName(PolicyKind kind)
{
    for (const PolicyInfo &info : kRegistry) {
        if (kind == info.kind)
            return info.name;
    }
    fp_fatal("policyKindName: unregistered PolicyKind %d",
             static_cast<int>(kind));
}

std::vector<std::string>
policyKindNames()
{
    std::vector<std::string> names;
    for (const PolicyInfo &info : kRegistry)
        names.emplace_back(info.name);
    return names;
}

} // namespace fp::core

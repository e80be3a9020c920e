/**
 * @file
 * Configuration of the staged ORAM access pipeline (the
 * core::OramController and its admission / scheduling / read /
 * writeback stages). Split out of oram_controller.hh so the stage
 * headers can share it without circular includes.
 *
 * It is also the one owner of the scheduling policy. The three
 * registered policies differ only in which of the paper's techniques
 * are on, and the stages read that from the predicates below:
 *
 *   traditional  baseline Path ORAM (Stefanov et al.): no merging, no
 *                replacing, an unpadded label queue.
 *   forkpath     the paper's design (the default): a label queue
 *                padded with dummies, path merging and dummy replacing
 *                (the last gated by enableDummyReplacing so the
 *                ablation can switch it off alone).
 *   batched      merging without replacing; while an access is in
 *                flight the address queue drains into the scheduler
 *                only in batches of batchSize.
 *
 * The registry functions (parsePolicyKind / policyKindName /
 * policyKindNames) are the single path by which the CLI
 * (--policy=NAME) and the benches select a policy by name.
 */

#ifndef FP_CORE_CONTROLLER_PARAMS_HH
#define FP_CORE_CONTROLLER_PARAMS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/label_queue.hh"
#include "dram/address_mapping.hh"
#include "oram/oram_params.hh"
#include "util/types.hh"

namespace fp::core
{

/** The registered scheduling policies (see file comment). */
enum class PolicyKind
{
    traditional,
    forkpath,
    batched,
};

enum class CachePolicy
{
    none,
    treetop,
    mac,
};

struct ControllerParams
{
    oram::OramParams oram;

    // --- scheduling policy ---------------------------------------------
    /** The path-scheduling policy (see the file comment). */
    PolicyKind policy = PolicyKind::forkpath;
    unsigned labelQueueSize = 64;
    /**
     * Selection rounds a real request may lose to better-overlapping
     * entries before it is force-promoted (the Cnt threshold of
     * Figure 9). Small values bound the dummy-competition penalty of
     * low-intensity workloads; large values let the overlap
     * heuristic act freely under backlog.
     */
    unsigned agingThreshold = 4;
    DummySelectPolicy dummyPolicy = DummySelectPolicy::compete;
    /** Dummy replacing (forkpath only; the ablation's off-switch). */
    bool enableDummyReplacing = true;
    /** Admission batch of the `batched` policy (ignored otherwise). */
    unsigned batchSize = 8;

    // --- caching -------------------------------------------------------
    CachePolicy cachePolicy = CachePolicy::none;
    std::uint64_t cacheBudgetBytes = std::uint64_t{1} << 20;

    // --- structure -------------------------------------------------------
    /** Position-map recursion levels modelled as access chains. */
    unsigned recursionDepth = 0;
    /** Translations per posmap block (PLB geometry). */
    unsigned recursionFanout = 8;
    /** PLB capacity in translations (0 = no PLB). */
    std::size_t plbEntries = 0;

    /**
     * Maintain and check a Merkle hash tree over the ORAM tree
     * (paper Section 2.2's combinable integrity protection). A
     * failed verification is a detected active attack and panics.
     */
    bool enableIntegrity = false;

    // --- timing ----------------------------------------------------------
    /**
     * Periodic (nonstop-stream) operation, paper Section 2.2: when
     * non-zero, an ORAM access starts every this many ticks whether
     * or not real requests exist, fully sealing the timing channel.
     * 0 = demand-driven operation (what the paper's evaluation
     * uses). In periodic mode the event queue never drains; drive
     * the simulation with a bounded run.
     */
    Tick periodicIntervalTicks = 0;
    dram::LayoutPolicy layout = dram::LayoutPolicy::subtree;

    /** DRAM footprint of one block (meta folded in). */
    static constexpr std::uint64_t blockPhysBytes = 64;

    std::uint64_t bucketBytes() const
    {
        return blockPhysBytes * oram.z;
    }

    /** Fork-shaped path merging: read phases start at the retained
     *  overlap and the refill stops at the scheduled one. Merging
     *  policies also keep the label queue padded to capacity. */
    bool merging() const { return policy != PolicyKind::traditional; }

    /** Dummy replacing / pending swap (paper Section 3.3 Cases 1-3). */
    bool replacing() const
    {
        return policy == PolicyKind::forkpath && enableDummyReplacing;
    }

    /**
     * May the admission stage drain the address queue now, with
     * @p issuable entries ready and an ORAM access in flight when
     * @p busy? Only `batched` ever holds; a later pump (at the latest
     * the one that runs when the pipeline drains) flushes the rest.
     */
    bool admits(std::size_t issuable, bool busy) const
    {
        return policy != PolicyKind::batched || !busy ||
               issuable >= batchSize;
    }

    /**
     * Reject configurations the pipeline cannot run (zero-sized
     * queues, an empty batch, ...) with fp_fatal instead of silently
     * misbehaving. Called by every OramController constructor, which
     * covers sim::System, SyncOram and core::ShardedOram alike.
     */
    void validate() const;

    /** The paper's traditional (baseline) Path ORAM configuration. */
    static ControllerParams traditional();

    /** The paper's default Fork Path configuration (queue 64, a
     *  1 MiB MAC). */
    static ControllerParams forkPath();
};

/** Parse a registry name ("traditional", "forkpath", "batched");
 *  unknown names are fatal with the list of valid ones. */
PolicyKind parsePolicyKind(const std::string &name);

/** The registry name of @p kind. */
const char *policyKindName(PolicyKind kind);

/** Every registered policy name, in registry order. */
std::vector<std::string> policyKindNames();

} // namespace fp::core

#endif // FP_CORE_CONTROLLER_PARAMS_HH

#include "sim/sync_oram.hh"

#include <algorithm>
#include <cstdio>
#include <cstdint>

#include "mem/tree_store.hh"
#include "oram/integrity.hh"
#include "util/flat_table.hh"
#include "util/logging.hh"

namespace fp::sim
{

SyncOram::SyncOram(core::ControllerParams controller,
                   const SimConfig &memory)
    : eq_(std::make_unique<EventQueue>()),
      stack_(std::make_unique<BackendStack>(memory, *eq_))
{
    fp_assert(controller.oram.payloadBytes > 0,
              "SyncOram needs a non-zero payload size");
    ctrl_ = std::make_unique<core::OramController>(controller, *eq_,
                                                   stack_->top());
}

SyncOram::~SyncOram() = default;

std::vector<std::uint8_t>
SyncOram::read(BlockAddr addr)
{
    std::vector<std::uint8_t> out;
    bool done = false;
    std::uint64_t id =
        ctrl_->request(oram::Op::read, addr, {},
                       [&](Tick, const auto &data) {
                           out = data;
                           done = true;
                       });
    fp_assert(id != 0, "SyncOram: request rejected");
    // runWhile (not run): in periodic mode the controller's access
    // stream never ends, so only advance until the answer arrives.
    eq_->runWhile([&done] { return !done; });
    fp_assert(done, "SyncOram: read did not complete");
    return out;
}

void
SyncOram::write(BlockAddr addr, std::vector<std::uint8_t> data)
{
    fp_assert(data.size() == ctrl_->params().oram.payloadBytes,
              "SyncOram: write of %zu bytes into %zu-byte blocks",
              data.size(), ctrl_->params().oram.payloadBytes);
    bool done = false;
    std::uint64_t id =
        ctrl_->request(oram::Op::write, addr, std::move(data),
                       [&](Tick, const auto &) { done = true; });
    fp_assert(id != 0, "SyncOram: request rejected");
    eq_->runWhile([&done] { return !done; });
    fp_assert(done, "SyncOram: write did not complete");
}

std::size_t
SyncOram::bulkLoad(
    const std::vector<std::pair<BlockAddr,
                                std::vector<std::uint8_t>>> &blocks)
{
    auto &ctrl = *ctrl_;
    fp_assert(ctrl.totalAccesses() == 0 && ctrl.inFlight() == 0,
              "bulkLoad must run before the first access");

    const auto &geo = ctrl.geometry();
    mem::TreeStore &store = ctrl.store();
    oram::MerkleTree *merkle = ctrl.merkle();
    // Keep planted blocks out of the on-chip cache band so the
    // pre-warmed MAC (and pinned treetop) stay coherent with memory.
    unsigned floor_level = 0;
    if (ctrl.mac())
        floor_level = ctrl.mac()->m2() + 1;
    if (ctrl.treetop())
        floor_level =
            std::max(floor_level, ctrl.treetop()->numCachedLevels());
    fp_assert(floor_level <= geo.leafLevel(),
              "bulkLoad: cache band covers the whole tree");

    // Blocks placed but not yet in the store, and the digests of the
    // buckets a commit seals.
    struct Placement
    {
        BucketIndex bucket;
        std::size_t block; //!< Index into @p blocks: the load order.
        LeafLabel label;
    };
    std::vector<Placement> staged;
    staged.reserve(blocks.size());
    std::vector<oram::MerkleTree::BucketDigest> digests;
    // Block counts of the buckets looked at so far. A count is read
    // from the store the first time its bucket is looked at in the
    // current epoch; a timed write changes the store under the
    // counts, so it starts a new epoch.
    struct Occupancy
    {
        std::uint64_t epoch;
        unsigned count;
    };
    FlatTable<Occupancy> occupancy;
    std::uint64_t epoch = 0;

    // Seal each touched bucket once, in ascending bucket order, with
    // its new blocks after the ones it held, in load order (the sort
    // key includes the block index, so it acts as a stable sort by
    // bucket); then derive the Merkle tree once, bottom-up.
    auto commit = [&] {
        std::sort(staged.begin(), staged.end(),
                  [](const Placement &a, const Placement &b) {
                      return a.bucket != b.bucket ? a.bucket < b.bucket
                                                  : a.block < b.block;
                  });
        for (std::size_t i = 0; i < staged.size();) {
            const BucketIndex idx = staged[i].bucket;
            mem::Bucket bucket = store.readBucket(idx);
            for (; i < staged.size() && staged[i].bucket == idx; ++i) {
                const auto &[addr, payload] = blocks[staged[i].block];
                bucket.add(mem::Block(addr, staged[i].label, payload));
            }
            store.writeBucket(idx, bucket);
            if (merkle)
                digests.push_back({idx, merkle->hashBucket(bucket)});
        }
        if (merkle)
            merkle->updateBuckets(digests);
        staged.clear();
        digests.clear();
    };

    std::size_t slow_path = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto &[addr, payload] = blocks[b];
        fp_assert(payload.size() == ctrl.params().oram.payloadBytes,
                  "bulkLoad: bad payload size for addr %llu",
                  static_cast<unsigned long long>(addr));
        if (ctrl.positionMap().contains(addr))
            fp_fatal("bulkLoad: address %llu is already loaded",
                     static_cast<unsigned long long>(addr));
        LeafLabel label = ctrl.positionMap().lookupOrAssign(addr);

        bool placed = false;
        for (unsigned level = geo.leafLevel() + 1;
             level-- > floor_level;) {
            BucketIndex idx = geo.bucketAt(label, level);
            Occupancy &seen = occupancy.insert(idx, {~0ULL, 0});
            if (seen.epoch != epoch)
                seen = {epoch, store.readBucket(idx).occupancy()};
            if (seen.count >= store.z())
                continue;
            ++seen.count;
            staged.push_back({idx, b, label});
            placed = true;
            break;
        }
        if (!placed) {
            // Path congested near the leaves: a regular timed write,
            // which must see every earlier block in the store.
            ++slow_path;
            commit();
            write(addr, payload);
            ++epoch;
        }
    }
    commit();
    return slow_path;
}

std::size_t
SyncOram::blockSize() const
{
    return ctrl_->params().oram.payloadBytes;
}

void
SyncOram::printStats() const
{
    const auto &c = *ctrl_;
    std::printf("---- SyncOram statistics ----\n");
    std::printf("simulated time:        %.3f us\n",
                fp::ticksToNs(eq_->now()) / 1e3);
    std::printf("real ORAM accesses:    %llu\n",
                static_cast<unsigned long long>(c.realAccesses()));
    std::printf("dummy ORAM accesses:   %llu\n",
                static_cast<unsigned long long>(c.dummyAccessesRun()));
    std::printf("stash shortcuts:       %llu\n",
                static_cast<unsigned long long>(c.stashShortcuts()));
    std::printf("dummy replacements:    %llu\n",
                static_cast<unsigned long long>(
                    c.dummyReplacements()));
    std::printf("avg fetched path len:  %.2f buckets (full: %u)\n",
                c.avgReadPathLength(), c.geometry().numLevels());
    std::printf("avg DRAM buckets/acc:  %.2f\n",
                c.avgDramBucketsRead());
    std::printf("avg request latency:   %.1f ns\n",
                c.oramLatency().mean());
    if (const dram::DramSystem *dram = stack_->dram()) {
        std::printf(
            "dram row hits/misses:  %llu / %llu\n",
            static_cast<unsigned long long>(dram->rowHits()),
            static_cast<unsigned long long>(dram->rowMisses()));
    } else {
        const mem::BackendStats bs = stack_->base().statsSnapshot();
        std::printf("%s bursts (r/w):     %llu / %llu\n",
                    stack_->base().kind(),
                    static_cast<unsigned long long>(bs.readBursts),
                    static_cast<unsigned long long>(bs.writeBursts));
    }
}

} // namespace fp::sim

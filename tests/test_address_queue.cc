/**
 * @file
 * Tests of the address queue's hazard rules: RbR piggybacking, RbW
 * holds, WbR forwarding, WbW cancellation, and retirement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "core/address_queue.hh"
#include "util/random.hh"

namespace fp::core
{
namespace
{

AddressEntry
entry(std::uint64_t id, BlockAddr addr, oram::Op op,
      std::vector<std::uint8_t> data = {})
{
    AddressEntry e;
    e.id = id;
    e.addr = addr;
    e.op = op;
    e.payload = std::move(data);
    return e;
}

TEST(AddressQueue, AcceptsUpToCapacity)
{
    AddressQueue q(2);
    EXPECT_TRUE(q.insert(entry(1, 10, oram::Op::read)).accepted);
    EXPECT_TRUE(q.insert(entry(2, 11, oram::Op::read)).accepted);
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.insert(entry(3, 12, oram::Op::read)).accepted);
}

TEST(AddressQueue, IndependentAddressesAllIssuable)
{
    AddressQueue q(8);
    q.insert(entry(1, 10, oram::Op::read));
    q.insert(entry(2, 11, oram::Op::write, {1}));
    EXPECT_EQ(q.issuableCount(), 2u);
    EXPECT_EQ(q.nextIssuable()->id, 1u);
}

TEST(AddressQueue, ReadAfterReadPiggybacks)
{
    AddressQueue q(8);
    q.insert(entry(1, 10, oram::Op::read));
    q.insert(entry(2, 10, oram::Op::read));
    // Only the first is issuable; the second rides along.
    EXPECT_EQ(q.issuableCount(), 1u);
    EXPECT_EQ(q.piggybacks(), 1u);
    q.markIssued(1);
    auto released = q.complete(1, {42});
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0], 2u);
}

TEST(AddressQueue, ReadAfterWriteForwards)
{
    AddressQueue q(8);
    q.insert(entry(1, 10, oram::Op::write, {9, 9}));
    auto res = q.insert(entry(2, 10, oram::Op::read));
    EXPECT_TRUE(res.accepted);
    EXPECT_TRUE(res.forwarded);
    EXPECT_EQ(res.forwardData, (std::vector<std::uint8_t>{9, 9}));
    EXPECT_EQ(q.forwards(), 1u);
    // The forwarded read never occupies the queue.
    EXPECT_EQ(q.size(), 1u);
}

TEST(AddressQueue, WriteAfterReadHeld)
{
    AddressQueue q(8);
    q.insert(entry(1, 10, oram::Op::read));
    q.insert(entry(2, 10, oram::Op::write, {5}));
    EXPECT_EQ(q.issuableCount(), 1u);
    q.markIssued(1);
    q.complete(1, {1});
    // Read done: the write becomes issuable.
    EXPECT_EQ(q.issuableCount(), 1u);
    EXPECT_EQ(q.nextIssuable()->id, 2u);
}

TEST(AddressQueue, WriteAfterWriteCancelsOlder)
{
    AddressQueue q(8);
    q.insert(entry(1, 10, oram::Op::write, {1}));
    auto res = q.insert(entry(2, 10, oram::Op::write, {2}));
    EXPECT_EQ(res.cancelledId, 1u);
    EXPECT_EQ(q.cancels(), 1u);
    // Only the younger write issues.
    EXPECT_EQ(q.issuableCount(), 1u);
    EXPECT_EQ(q.nextIssuable()->id, 2u);
}

TEST(AddressQueue, WriteAfterIssuedWriteOrders)
{
    AddressQueue q(8);
    q.insert(entry(1, 10, oram::Op::write, {1}));
    q.markIssued(1);
    auto res = q.insert(entry(2, 10, oram::Op::write, {2}));
    EXPECT_EQ(res.cancelledId, 0u);
    EXPECT_EQ(q.issuableCount(), 0u); // held behind the issued write
    q.complete(1, {});
    EXPECT_EQ(q.issuableCount(), 1u);
}

TEST(AddressQueue, ForwardFromCompletedRead)
{
    AddressQueue q(8);
    q.insert(entry(1, 10, oram::Op::read));
    // Hold retirement by keeping a dependent in the queue.
    q.insert(entry(2, 10, oram::Op::write, {7}));
    q.markIssued(1);
    q.complete(1, {3});
    // A read arriving now forwards from the completed read's data if
    // the entry is still resident, or misses cleanly if retired.
    auto res = q.insert(entry(3, 10, oram::Op::read));
    EXPECT_TRUE(res.accepted);
}

TEST(AddressQueue, RetiresCompletedEntries)
{
    AddressQueue q(2);
    q.insert(entry(1, 10, oram::Op::read));
    q.markIssued(1);
    q.complete(1, {});
    EXPECT_EQ(q.size(), 0u);
    // Space reclaimed.
    EXPECT_TRUE(q.insert(entry(2, 11, oram::Op::read)).accepted);
    EXPECT_TRUE(q.insert(entry(3, 12, oram::Op::read)).accepted);
}

TEST(AddressQueue, ChainedPiggybacks)
{
    AddressQueue q(8);
    q.insert(entry(1, 10, oram::Op::read));
    q.insert(entry(2, 10, oram::Op::read));
    q.insert(entry(3, 10, oram::Op::read));
    q.markIssued(1);
    EXPECT_EQ(q.issuableCount(), 0u);
    auto released = q.complete(1, {8});
    // Releasing 1 frees 2 (and possibly 3 transitively through 2).
    EXPECT_GE(released.size(), 1u);
    for (std::uint64_t id : released) {
        for (std::uint64_t sub : q.complete(id, {8}))
            q.complete(sub, {8});
    }
    EXPECT_EQ(q.size(), 0u);
}

TEST(AddressQueue, HazardsOnlyApplyPerAddress)
{
    AddressQueue q(8);
    q.insert(entry(1, 10, oram::Op::write, {1}));
    q.insert(entry(2, 11, oram::Op::write, {2}));
    EXPECT_EQ(q.cancels(), 0u);
    EXPECT_EQ(q.issuableCount(), 2u);
}

/**
 * The address queue as it was before complete() collected its
 * blockers in one walk: insert() is the same, and complete() rescans
 * the whole queue for every retired entry. The seeded test below
 * drives it and AddressQueue through the same calls.
 */
class ReferenceQueue
{
  public:
    explicit ReferenceQueue(std::size_t capacity) : capacity_(capacity) {}

    AddressQueue::InsertResult
    insert(AddressEntry entry)
    {
        AddressQueue::InsertResult result;
        if (entries_.size() >= capacity_)
            return result;
        for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
            if (it->addr != entry.addr || it->cancelled)
                continue;
            AddressEntry *prior = &*it;
            if (entry.op == oram::Op::read) {
                if (prior->op == oram::Op::write || prior->dataReady) {
                    result.accepted = true;
                    result.forwarded = true;
                    result.forwardData = prior->payload;
                    return result;
                }
                entry.piggybacked = true;
                entry.blockedBy = prior->id;
                break;
            }
            if (prior->op == oram::Op::read) {
                if (!prior->dataReady)
                    entry.blockedBy = prior->id;
                break;
            }
            if (!prior->issued) {
                prior->cancelled = true;
                result.cancelledId = prior->id;
                continue;
            }
            entry.blockedBy = prior->id;
            break;
        }
        entries_.push_back(std::move(entry));
        result.accepted = true;
        return result;
    }

    AddressEntry *
    nextIssuable()
    {
        for (auto &e : entries_) {
            if (!e.issued && !e.cancelled && !e.piggybacked &&
                e.blockedBy == 0)
                return &e;
        }
        return nullptr;
    }

    void markIssued(std::uint64_t id) { find(id)->issued = true; }

    std::vector<std::uint64_t>
    complete(std::uint64_t id, const std::vector<std::uint8_t> &data)
    {
        std::vector<std::uint64_t> released;
        AddressEntry *done = find(id);
        if (done == nullptr)
            return released;
        done->dataReady = true;
        if (done->op == oram::Op::read)
            done->payload = data;
        for (auto &e : entries_) {
            if (e.blockedBy != id)
                continue;
            e.blockedBy = 0;
            if (e.piggybacked) {
                e.dataReady = true;
                e.payload = data;
                released.push_back(e.id);
            }
        }
        auto retired = [](const AddressEntry &e) {
            return e.cancelled || e.dataReady;
        };
        entries_.erase(
            std::remove_if(entries_.begin(), entries_.end(),
                           [&](const AddressEntry &e) {
                               if (!retired(e))
                                   return false;
                               for (const auto &other : entries_) {
                                   if (other.blockedBy == e.id)
                                       return false;
                               }
                               return true;
                           }),
            entries_.end());
        return released;
    }

    AddressEntry *
    find(std::uint64_t id)
    {
        for (auto &e : entries_) {
            if (e.id == id)
                return &e;
        }
        return nullptr;
    }

    std::size_t size() const { return entries_.size(); }

  private:
    std::size_t capacity_;
    std::deque<AddressEntry> entries_;
};

/** Both queues hold the same entries, field for field. */
void
expectSameEntries(AddressQueue &q, ReferenceQueue &ref,
                  std::uint64_t max_id)
{
    ASSERT_EQ(q.size(), ref.size());
    for (std::uint64_t id = 1; id <= max_id; ++id) {
        const AddressEntry *a = q.find(id);
        const AddressEntry *b = ref.find(id);
        ASSERT_EQ(a == nullptr, b == nullptr) << "id " << id;
        if (a == nullptr)
            continue;
        EXPECT_EQ(a->addr, b->addr) << "id " << id;
        EXPECT_EQ(a->op, b->op) << "id " << id;
        EXPECT_EQ(a->payload, b->payload) << "id " << id;
        EXPECT_EQ(a->issued, b->issued) << "id " << id;
        EXPECT_EQ(a->dataReady, b->dataReady) << "id " << id;
        EXPECT_EQ(a->cancelled, b->cancelled) << "id " << id;
        EXPECT_EQ(a->blockedBy, b->blockedBy) << "id " << id;
        EXPECT_EQ(a->piggybacked, b->piggybacked) << "id " << id;
    }
}

TEST(AddressQueue, CompleteMatchesRescanningReference)
{
    // The controller's protocol: insert; complete a WbW-cancelled id
    // at once; issue the oldest issuable entry; complete an issued
    // entry, then (recursively) the piggybacked reads it released.
    // Four addresses and a small queue keep hazards frequent.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        AddressQueue q(8);
        ReferenceQueue ref(8);
        std::vector<std::uint64_t> issued;
        std::uint64_t next_id = 1;

        auto respond = [&](auto &self, std::uint64_t id,
                           const std::vector<std::uint8_t> &data) -> void {
            const std::vector<std::uint64_t> released = q.complete(id, data);
            ASSERT_EQ(released, ref.complete(id, data)) << "id " << id;
            expectSameEntries(q, ref, next_id);
            for (std::uint64_t pid : released)
                self(self, pid, data);
        };

        for (int step = 0; step < 2000; ++step) {
            const auto choice = rng.uniformInt(3);
            if (choice == 0) {
                AddressEntry e;
                e.id = next_id++;
                e.addr = rng.uniformInt(4);
                e.op = rng.chance(0.5) ? oram::Op::read : oram::Op::write;
                if (e.op == oram::Op::write)
                    e.payload = {static_cast<std::uint8_t>(e.id)};
                const auto got = q.insert(e);
                const auto want = ref.insert(e);
                ASSERT_EQ(got.accepted, want.accepted);
                ASSERT_EQ(got.forwarded, want.forwarded);
                ASSERT_EQ(got.forwardData, want.forwardData);
                ASSERT_EQ(got.cancelledId, want.cancelledId);
                expectSameEntries(q, ref, next_id);
                if (got.cancelledId != 0)
                    respond(respond, got.cancelledId, {});
            } else if (choice == 1) {
                AddressEntry *a = q.nextIssuable();
                AddressEntry *b = ref.nextIssuable();
                ASSERT_EQ(a == nullptr, b == nullptr);
                if (a == nullptr)
                    continue;
                ASSERT_EQ(a->id, b->id);
                const std::uint64_t id = a->id;
                q.markIssued(id);
                ref.markIssued(id);
                issued.push_back(id);
                expectSameEntries(q, ref, next_id);
            } else if (!issued.empty()) {
                const std::size_t pick = rng.uniformInt(issued.size());
                const std::uint64_t id = issued[pick];
                issued.erase(issued.begin() +
                             static_cast<std::ptrdiff_t>(pick));
                respond(respond, id,
                        {static_cast<std::uint8_t>(id ^ 0x5a)});
            }
            if (HasFatalFailure())
                return;
        }
        // Every hazard rule fired.
        EXPECT_GT(q.piggybacks(), 0u);
        EXPECT_GT(q.cancels(), 0u);
        EXPECT_GT(q.forwards(), 0u);
    }
}

} // anonymous namespace
} // namespace fp::core

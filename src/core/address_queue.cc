#include "core/address_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace fp::core
{

AddressQueue::AddressQueue(std::size_t capacity)
    : capacity_(capacity)
{
    fp_assert(capacity >= 1, "address queue needs capacity >= 1");
}

AddressQueue::InsertResult
AddressQueue::insert(AddressEntry entry)
{
    InsertResult result;
    if (full())
        return result;
    fp_assert(entry.id != 0, "address queue ids must be nonzero");

    // Walk same-address entries youngest-first. An incoming write may
    // cancel an unissued older write (WbW) and must then keep
    // scanning: the hazard against the next-older live entry (e.g. a
    // still-pending read) still applies.
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (it->addr != entry.addr || it->cancelled)
            continue;
        AddressEntry *prior = &*it;

        if (entry.op == oram::Op::read) {
            if (prior->op == oram::Op::write || prior->dataReady) {
                // Write-before-Read forwarding (also covers reading
                // from a completed-but-resident read's data).
                forwards_.inc();
                result.accepted = true;
                result.forwarded = true;
                result.forwardData = prior->payload;
                return result;
            }
            // Read-before-Read: ride on the older read's data.
            entry.piggybacked = true;
            entry.blockedBy = prior->id;
            piggybacks_.inc();
            break;
        }

        if (prior->op == oram::Op::read) {
            // Read-before-Write: hold the write until data ready.
            if (!prior->dataReady)
                entry.blockedBy = prior->id;
            break;
        }
        if (!prior->issued) {
            // Write-before-Write: cancel the older write, then keep
            // scanning for a yet-older hazard.
            prior->cancelled = true;
            cancels_.inc();
            result.cancelledId = prior->id;
            continue;
        }
        // Older write already translating: order behind it.
        entry.blockedBy = prior->id;
        break;
    }

    entries_.push_back(std::move(entry));
    result.accepted = true;
    return result;
}

AddressEntry *
AddressQueue::nextIssuable()
{
    for (auto &e : entries_) {
        if (!e.issued && !e.cancelled && !e.piggybacked &&
            e.blockedBy == 0) {
            return &e;
        }
    }
    return nullptr;
}

std::size_t
AddressQueue::issuableCount() const
{
    std::size_t n = 0;
    for (const auto &e : entries_) {
        if (!e.issued && !e.cancelled && !e.piggybacked &&
            e.blockedBy == 0) {
            ++n;
        }
    }
    return n;
}

void
AddressQueue::markIssued(std::uint64_t id)
{
    AddressEntry *e = find(id);
    fp_assert(e != nullptr, "markIssued: unknown id");
    e->issued = true;
}

std::vector<std::uint64_t>
AddressQueue::complete(std::uint64_t id,
                       const std::vector<std::uint8_t> &data)
{
    std::vector<std::uint64_t> released;
    AddressEntry *done = find(id);
    if (done == nullptr) {
        // Already retired: completions can arrive through both the
        // piggyback release path and the caller's own bookkeeping.
        return released;
    }
    done->dataReady = true;
    if (done->op == oram::Op::read)
        done->payload = data; // so later reads can forward from it

    // One walk releases the dependents of @p id and collects the ids
    // that other entries still wait on.
    blockers_.clear();
    for (auto &e : entries_) {
        if (e.blockedBy != id) {
            if (e.blockedBy != 0)
                blockers_.push_back(e.blockedBy);
            continue;
        }
        e.blockedBy = 0;
        if (e.piggybacked) {
            e.dataReady = true;
            e.payload = data;
            released.push_back(e.id);
        }
    }
    std::sort(blockers_.begin(), blockers_.end());

    // Retire completed entries that nothing still blocks on; an entry
    // with live dependents must stay resident so its id keeps
    // resolving.
    entries_.erase(
        std::remove_if(entries_.begin(), entries_.end(),
                       [this](const AddressEntry &e) {
                           return (e.cancelled || e.dataReady) &&
                                  !std::binary_search(blockers_.begin(),
                                                      blockers_.end(),
                                                      e.id);
                       }),
        entries_.end());
    return released;
}

AddressEntry *
AddressQueue::find(std::uint64_t id)
{
    for (auto &e : entries_) {
        if (e.id == id)
            return &e;
    }
    return nullptr;
}

} // namespace fp::core

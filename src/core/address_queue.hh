/**
 * @file
 * The address queue of the Fork Path controller (paper Section 4).
 *
 * Request scheduling reorders ORAM requests, so same-address hazards
 * must be resolved before requests reach the position map. The paper
 * gives four rules; we add one refinement (piggybacked duplicate
 * reads) needed for functional equivalence under reordering:
 *
 *  - Read-before-Read:   the paper needs no action; we piggyback the
 *    younger read on the older one's data so both complete together
 *    (performance-neutral: one path access instead of two).
 *  - Read-before-Write:  the write is held until the read's data is
 *    ready.
 *  - Write-before-Read:  the read returns immediately with the
 *    write's data (forwarding); it never becomes an ORAM request.
 *  - Write-before-Write: the older write is cancelled if it has not
 *    been issued yet, otherwise the younger write is held behind it.
 */

#ifndef FP_CORE_ADDRESS_QUEUE_HH
#define FP_CORE_ADDRESS_QUEUE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "oram/path_oram.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace fp::core
{

/** A queued LLC request (the PA/R fields of paper Figure 9). */
struct AddressEntry
{
    std::uint64_t id = 0;
    BlockAddr addr = invalidBlockAddr;
    oram::Op op = oram::Op::read;
    std::vector<std::uint8_t> payload; //!< Write data.
    Tick arrival = 0;

    bool issued = false;      //!< Sent to the position map.
    bool dataReady = false;   //!< Completed (the R bit).
    bool cancelled = false;   //!< WbW-cancelled write.
    /** id of the older entry this one waits for (0 = none). */
    std::uint64_t blockedBy = 0;
    /** True for a read piggybacked on an older read's data. */
    bool piggybacked = false;
};

class AddressQueue
{
  public:
    explicit AddressQueue(std::size_t capacity);

    /** Result of inserting an LLC request. */
    struct InsertResult
    {
        bool accepted = false;
        /** WbR forwarding hit: complete immediately with this data. */
        bool forwarded = false;
        std::vector<std::uint8_t> forwardData;
        /** id of an older write cancelled by this insert (WbW). */
        std::uint64_t cancelledId = 0;
    };

    /** Apply the hazard rules and enqueue. */
    InsertResult insert(AddressEntry entry);

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }

    /**
     * Oldest entry that is ready to be translated: not issued, not
     * cancelled, not piggybacked, not blocked. nullptr when none.
     */
    AddressEntry *nextIssuable();

    /** Number of issuable entries (for the controller's realWork). */
    std::size_t issuableCount() const;

    void markIssued(std::uint64_t id);

    /**
     * The ORAM access for @p id finished; releases dependents.
     * @param data Data read (used to satisfy piggybacked reads).
     * @return ids of piggybacked reads completed alongside.
     */
    std::vector<std::uint64_t>
    complete(std::uint64_t id, const std::vector<std::uint8_t> &data);

    /** Lookup by id; nullptr if retired. */
    AddressEntry *find(std::uint64_t id);

    std::uint64_t forwards() const { return forwards_.value(); }
    std::uint64_t cancels() const { return cancels_.value(); }
    std::uint64_t piggybacks() const { return piggybacks_.value(); }

  private:
    std::size_t capacity_;
    std::deque<AddressEntry> entries_;
    /** complete()'s scratch: the ids some entry still waits on. */
    std::vector<std::uint64_t> blockers_;

    fp::Counter forwards_;
    fp::Counter cancels_;
    fp::Counter piggybacks_;
};

} // namespace fp::core

#endif // FP_CORE_ADDRESS_QUEUE_HH

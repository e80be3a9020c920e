#include "dram/address_mapping.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace fp::dram
{

AddressMapping::AddressMapping(const DramOrganization &org)
    : org_(org)
{
    fp_assert(org.channels > 0 && org.banksTotal() > 0 &&
                  org.rowBytes > 0,
              "AddressMapping: bad organization");
}

DramLocation
AddressMapping::decode(Addr addr) const
{
    DramLocation loc;
    loc.column = addr % org_.rowBytes;
    std::uint64_t row_id = addr / org_.rowBytes;
    loc.channel = static_cast<unsigned>(row_id % org_.channels);
    std::uint64_t per_ch = row_id / org_.channels;
    loc.bank = static_cast<unsigned>(per_ch % org_.banksTotal());
    loc.row = per_ch / org_.banksTotal();
    return loc;
}

BucketLayout::BucketLayout(const mem::TreeGeometry &geo,
                           std::uint64_t bucket_bytes,
                           std::uint64_t row_bytes,
                           LayoutPolicy policy)
    : geo_(geo), bucketBytes_(bucket_bytes), rowBytes_(row_bytes),
      policy_(policy)
{
    fp_assert(bucket_bytes > 0, "BucketLayout: zero bucket size");
    if (policy_ == LayoutPolicy::subtree) {
        // Deepest k with a padded 2^k-bucket subtree fitting one row.
        std::uint64_t per_row = row_bytes / bucket_bytes;
        if (per_row < 2)
            fp_fatal("subtree layout needs >= 2 buckets per DRAM row "
                     "(bucket %llu B, row %llu B); shrink the bucket "
                     "(payload bytes / Z) or use the linear layout",
                     static_cast<unsigned long long>(bucket_bytes),
                     static_cast<unsigned long long>(row_bytes));
        subtreeLevels_ = log2Floor(per_row);
        if (subtreeLevels_ > geo_.numLevels())
            subtreeLevels_ = geo_.numLevels();
    }
}

Addr
BucketLayout::physAddr(BucketIndex idx) const
{
    fp_assert(idx < geo_.numBuckets(), "physAddr: bad bucket index");
    if (policy_ == LayoutPolicy::linear)
        return idx * bucketBytes_;

    const unsigned k = subtreeLevels_;
    unsigned level = geo_.levelOf(idx);
    std::uint64_t offset = geo_.offsetInLevel(idx);

    // Super-level (which layer of subtrees) and level inside it.
    unsigned s = level / k;
    unsigned dl = level % k;

    // Index of this bucket's subtree within super-level s = the
    // offset of the subtree root within its tree level.
    std::uint64_t subtree_in_super = offset >> dl;

    // Number of subtrees in super-levels above s: super-level j holds
    // 2^(j*k) subtrees.
    std::uint64_t subtrees_above = 0;
    for (unsigned j = 0; j < s; ++j)
        subtrees_above += std::uint64_t{1} << (j * k);

    // Heap-order slot within the (padded) subtree.
    std::uint64_t local_off = offset & ((std::uint64_t{1} << dl) - 1);
    std::uint64_t local_id =
        ((std::uint64_t{1} << dl) - 1) + local_off;

    // Each subtree is padded to a full DRAM row so no subtree ever
    // straddles a row boundary, even when the row holds a
    // non-power-of-two number of buckets.
    std::uint64_t subtree_idx = subtrees_above + subtree_in_super;
    return subtree_idx * rowBytes_ + local_id * bucketBytes_;
}

} // namespace fp::dram

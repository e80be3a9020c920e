#include "crypto/speck.hh"

namespace fp::crypto
{

namespace
{

constexpr std::uint32_t
ror(std::uint32_t x, int r)
{
    return (x >> r) | (x << (32 - r));
}

constexpr std::uint32_t
rol(std::uint32_t x, int r)
{
    return (x << r) | (x >> (32 - r));
}

// One SPECK round on the (x, y) state with round key k.
inline void
round(std::uint32_t &x, std::uint32_t &y, std::uint32_t k)
{
    x = ror(x, 8);
    x += y;
    x ^= k;
    y = rol(y, 3);
    y ^= x;
}

inline void
invRound(std::uint32_t &x, std::uint32_t &y, std::uint32_t k)
{
    y ^= x;
    y = ror(y, 3);
    x ^= k;
    x -= y;
    x = rol(x, 8);
}

} // anonymous namespace

Speck64::Speck64(const std::array<std::uint32_t, 4> &key)
{
    expandKey(key);
}

Speck64::Speck64(std::uint64_t seed)
{
    // Derive four key words with splitmix64-style mixing so distinct
    // seeds give unrelated keys.
    std::array<std::uint32_t, 4> key{};
    std::uint64_t x = seed;
    for (auto &w : key) {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        w = static_cast<std::uint32_t>(z ^ (z >> 31));
    }
    expandKey(key);
}

void
Speck64::expandKey(const std::array<std::uint32_t, 4> &key)
{
    // Key words: k = key[0], l[0..2] = key[1..3]. The schedule
    // writes l[i + 3] for i up to numRounds - 1, so the array needs
    // numRounds + 3 entries (the last write is never read back).
    std::uint32_t k = key[0];
    std::uint32_t l[numRounds + 3];
    l[0] = key[1];
    l[1] = key[2];
    l[2] = key[3];
    for (int i = 0; i < numRounds; ++i) {
        roundKeys_[static_cast<std::size_t>(i)] = k;
        std::uint32_t next_l = l[i];
        round(next_l, k, static_cast<std::uint32_t>(i));
        // round() updates (x=next_l, y=k): store the expanded word.
        l[i + 3] = next_l;
    }
}

std::uint64_t
Speck64::encryptBlock(std::uint64_t plaintext) const
{
    auto x = static_cast<std::uint32_t>(plaintext >> 32);
    auto y = static_cast<std::uint32_t>(plaintext);
    for (int i = 0; i < numRounds; ++i)
        round(x, y, roundKeys_[static_cast<std::size_t>(i)]);
    return (static_cast<std::uint64_t>(x) << 32) | y;
}

void
Speck64::encryptBlocks(const std::uint64_t *in, std::uint64_t *out,
                       std::size_t n) const
{
    // Plain loops over word arrays: at -O3 the per-lane loops become
    // SSE2 vector code with no intrinsics or -march.
    constexpr std::size_t lanes = 8;
    std::size_t i = 0;
    for (; i + lanes <= n; i += lanes) {
        std::uint32_t x[lanes] = {};
        std::uint32_t y[lanes] = {};
        for (std::size_t j = 0; j < lanes; ++j) {
            x[j] = static_cast<std::uint32_t>(in[i + j] >> 32);
            y[j] = static_cast<std::uint32_t>(in[i + j]);
        }
        for (std::uint32_t k : roundKeys_) {
            for (std::size_t j = 0; j < lanes; ++j)
                round(x[j], y[j], k);
        }
        for (std::size_t j = 0; j < lanes; ++j)
            out[i + j] = (static_cast<std::uint64_t>(x[j]) << 32) | y[j];
    }
    for (; i < n; ++i)
        out[i] = encryptBlock(in[i]);
}

std::uint64_t
Speck64::decryptBlock(std::uint64_t ciphertext) const
{
    auto x = static_cast<std::uint32_t>(ciphertext >> 32);
    auto y = static_cast<std::uint32_t>(ciphertext);
    for (int i = numRounds - 1; i >= 0; --i)
        invRound(x, y, roundKeys_[static_cast<std::size_t>(i)]);
    return (static_cast<std::uint64_t>(x) << 32) | y;
}

} // namespace fp::crypto

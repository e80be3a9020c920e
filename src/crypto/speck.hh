/**
 * @file
 * SPECK-64/128 block cipher (Beaulieu et al., NSA 2013).
 *
 * The paper's ORAM controller encrypts every bucket with a hardware
 * counter-mode AES unit. We stand in a lightweight ARX cipher for the
 * software model: it gives real probabilistic encryption semantics
 * (identical plaintexts encrypt to different ciphertexts under
 * different counters) at a cost low enough that functional tests can
 * encrypt every block. The timing model treats encryption as free,
 * matching the paper's assumption of a pipelined hardware unit.
 *
 * SPECK-64/128: 64-bit block (two 32-bit words), 128-bit key (four
 * 32-bit words), 27 rounds.
 */

#ifndef FP_CRYPTO_SPECK_HH
#define FP_CRYPTO_SPECK_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace fp::crypto
{

class Speck64
{
  public:
    static constexpr int numRounds = 27;

    /** Key schedule from a 128-bit key given as four 32-bit words. */
    explicit Speck64(const std::array<std::uint32_t, 4> &key);

    /** Convenience: derive the four key words from a 64-bit seed. */
    explicit Speck64(std::uint64_t seed);

    /** Encrypt a 64-bit block given as (hi, lo) word pair. */
    std::uint64_t encryptBlock(std::uint64_t plaintext) const;

    /**
     * Encrypt @p n independent blocks: out[i] = encryptBlock(in[i]).
     * Runs 8 blocks at a time in lanes the compiler vectorizes, then a
     * scalar tail. @p in and @p out may be the same array.
     */
    void encryptBlocks(const std::uint64_t *in, std::uint64_t *out,
                       std::size_t n) const;

    /** Decrypt a 64-bit block. */
    std::uint64_t decryptBlock(std::uint64_t ciphertext) const;

  private:
    void expandKey(const std::array<std::uint32_t, 4> &key);

    std::array<std::uint32_t, numRounds> roundKeys_;
};

} // namespace fp::crypto

#endif // FP_CRYPTO_SPECK_HH

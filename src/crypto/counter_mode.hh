/**
 * @file
 * Counter-mode probabilistic encryption over byte buffers, built on
 * SPECK-64/128.
 *
 * Path ORAM requires that any two encrypted blocks be computationally
 * indistinguishable even when their plaintexts are identical (the
 * dummy blocks depend on this). Counter mode achieves this with a
 * per-encryption counter: the keystream is
 *
 *     ks[i] = E_k(nonce || counter || i)
 *
 * and every re-encryption bumps the counter, so the same plaintext at
 * the same tree position encrypts differently on every write-back.
 * The (nonce, counter) pair is stored alongside the ciphertext, which
 * is what real counter-mode secure-processor designs do [Shi et al.,
 * ISCA'05].
 */

#ifndef FP_CRYPTO_COUNTER_MODE_HH
#define FP_CRYPTO_COUNTER_MODE_HH

#include <cstdint>
#include <vector>

#include "crypto/speck.hh"

namespace fp::crypto
{

/** Ciphertext with the metadata needed to decrypt it. */
struct SealedBlock
{
    std::uint64_t nonce = 0;    //!< Typically the physical slot id.
    std::uint64_t counter = 0;  //!< Bumped on every re-encryption.
    std::vector<std::uint8_t> bytes;
};

class CounterModeCipher
{
  public:
    explicit CounterModeCipher(std::uint64_t key_seed);

    /**
     * Encrypt @p plaintext under (@p nonce, fresh counter), in place
     * in the buffer the result then owns. The internal global counter
     * guarantees no (nonce, counter) pair is ever reused by this
     * cipher instance.
     */
    SealedBlock encrypt(std::vector<std::uint8_t> plaintext,
                        std::uint64_t nonce);

    /** Decrypt a sealed block. */
    std::vector<std::uint8_t> decrypt(const SealedBlock &sealed) const;

    /** Number of encryptions performed (for stats/tests). */
    std::uint64_t encryptionCount() const { return nextCounter_; }

  private:
    /** XOR @p data with the keystream for (nonce, counter), made
     *  by one lane-cipher call per 1 KiB of data. */
    void applyKeystream(std::vector<std::uint8_t> &data,
                        std::uint64_t nonce,
                        std::uint64_t counter) const;

    Speck64 cipher_;
    std::uint64_t nextCounter_ = 1;
};

} // namespace fp::crypto

#endif // FP_CRYPTO_COUNTER_MODE_HH

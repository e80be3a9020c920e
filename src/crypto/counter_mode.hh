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
#include <span>
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
     * Encrypt @p data in place under (@p nonce, a fresh counter) and
     * return the counter. The internal global counter guarantees no
     * (nonce, counter) pair is ever reused by this cipher instance.
     */
    std::uint64_t seal(std::span<std::uint8_t> data, std::uint64_t nonce);

    /** Decrypt in place @p data sealed under (@p nonce, @p counter). */
    void unseal(std::span<std::uint8_t> data, std::uint64_t nonce,
                std::uint64_t counter) const;

    /** seal() into the buffer the result then owns. */
    SealedBlock encrypt(std::vector<std::uint8_t> plaintext,
                        std::uint64_t nonce);

    /** unseal() of a copy of a sealed block's bytes. */
    std::vector<std::uint8_t> decrypt(const SealedBlock &sealed) const;

    /** Number of encryptions performed (for stats/tests). */
    std::uint64_t encryptionCount() const { return nextCounter_; }

  private:
    Speck64 cipher_;
    std::uint64_t nextCounter_ = 1;
};

} // namespace fp::crypto

#endif // FP_CRYPTO_COUNTER_MODE_HH

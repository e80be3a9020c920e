#include "crypto/counter_mode.hh"

#include <algorithm>
#include <utility>

namespace fp::crypto
{

CounterModeCipher::CounterModeCipher(std::uint64_t key_seed)
    : cipher_(key_seed)
{
}

std::uint64_t
CounterModeCipher::seal(std::span<std::uint8_t> data, std::uint64_t nonce)
{
    // Counter mode: one keystream XOR both seals and unseals.
    const std::uint64_t counter = nextCounter_++;
    unseal(data, nonce, counter);
    return counter;
}

SealedBlock
CounterModeCipher::encrypt(std::vector<std::uint8_t> plaintext,
                           std::uint64_t nonce)
{
    SealedBlock sealed;
    sealed.nonce = nonce;
    sealed.counter = seal(plaintext, nonce);
    sealed.bytes = std::move(plaintext);
    return sealed;
}

std::vector<std::uint8_t>
CounterModeCipher::decrypt(const SealedBlock &sealed) const
{
    std::vector<std::uint8_t> plain = sealed.bytes;
    unseal(plain, sealed.nonce, sealed.counter);
    return plain;
}

void
CounterModeCipher::unseal(std::span<std::uint8_t> data,
                          std::uint64_t nonce,
                          std::uint64_t counter) const
{
    // XOR with the keystream, made by one lane-cipher call per 1 KiB
    // of data. Keystream word w covers bytes [8w, 8w + 8), byte i of
    // it being ks >> 8i. The cipher input mixes the nonce, the
    // per-encryption counter, and the word index so every byte
    // position gets an independent keystream.
    constexpr std::size_t chunkWords = 128;
    const std::uint64_t base =
        nonce * 0x9e3779b97f4a7c15ULL ^ (counter << 20);
    const std::size_t n = data.size();
    const std::size_t full_words = n / 8;
    const std::size_t words = (n + 7) / 8;
    std::uint64_t ks[chunkWords] = {};
    for (std::size_t first = 0; first < words; first += chunkWords) {
        const std::size_t count = std::min(chunkWords, words - first);
        for (std::size_t w = 0; w < count; ++w)
            ks[w] = base ^ static_cast<std::uint64_t>(first + w);
        cipher_.encryptBlocks(ks, ks, count);
        for (std::size_t w = 0; w < count; ++w) {
            const std::size_t off = 8 * (first + w);
            std::uint8_t *bytes = data.data() + off;
            if (first + w < full_words) {
                for (std::size_t i = 0; i < 8; ++i)
                    bytes[i] ^= static_cast<std::uint8_t>(ks[w] >> (8 * i));
            } else {
                for (std::size_t i = 0; off + i < n; ++i)
                    bytes[i] ^= static_cast<std::uint8_t>(ks[w] >> (8 * i));
            }
        }
    }
}

} // namespace fp::crypto

/**
 * @file
 * Tests of the crypto substrate: SPECK-64/128 block cipher and the
 * counter-mode probabilistic encryption layer.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "crypto/counter_mode.hh"
#include "crypto/speck.hh"

namespace fp::crypto
{
namespace
{

TEST(Speck, KnownAnswer)
{
    // SPECK-64/128 test vector (Beaulieu et al., Appendix C): key
    // words (l2, l1, l0, k0) = 1b1a1918 13121110 0b0a0908 03020100.
    Speck64 cipher(std::array<std::uint32_t, 4>{0x03020100, 0x0b0a0908,
                                                0x13121110, 0x1b1a1918});
    EXPECT_EQ(cipher.encryptBlock(0x3b7265747475432dULL),
              0x8c6fa548454e028bULL);
    EXPECT_EQ(cipher.decryptBlock(0x8c6fa548454e028bULL),
              0x3b7265747475432dULL);
}

TEST(Speck, LanesMatchOneBlockAtATime)
{
    Speck64 cipher(std::uint64_t{0x5eed});
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 40u, 41u}) {
        std::vector<std::uint64_t> in(n);
        for (auto &word : in) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            word = x;
        }
        std::vector<std::uint64_t> out(n);
        cipher.encryptBlocks(in.data(), out.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(out[i], cipher.encryptBlock(in[i]))
                << "n " << n << " block " << i;
        // In place, as the counter-mode keystream uses it.
        cipher.encryptBlocks(in.data(), in.data(), n);
        EXPECT_EQ(in, out) << "n " << n;
    }
}

TEST(Speck, RoundTrip)
{
    Speck64 cipher(std::uint64_t{0xdeadbeef});
    for (std::uint64_t p :
         {0ULL, 1ULL, 0xffffffffffffffffULL, 0x0123456789abcdefULL}) {
        EXPECT_EQ(cipher.decryptBlock(cipher.encryptBlock(p)), p);
    }
}

TEST(Speck, RoundTripMany)
{
    Speck64 cipher(std::uint64_t{7});
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 1000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        EXPECT_EQ(cipher.decryptBlock(cipher.encryptBlock(x)), x);
    }
}

TEST(Speck, DifferentKeysDifferentCiphertexts)
{
    Speck64 a(std::uint64_t{1}), b(std::uint64_t{2});
    int same = 0;
    for (std::uint64_t p = 0; p < 64; ++p)
        same += a.encryptBlock(p) == b.encryptBlock(p);
    EXPECT_EQ(same, 0);
}

TEST(Speck, NotIdentity)
{
    Speck64 cipher(std::uint64_t{3});
    int fixed = 0;
    for (std::uint64_t p = 0; p < 256; ++p)
        fixed += cipher.encryptBlock(p) == p;
    EXPECT_EQ(fixed, 0);
}

TEST(Speck, AvalancheOnPlaintextBitFlip)
{
    Speck64 cipher(std::uint64_t{11});
    std::uint64_t base = cipher.encryptBlock(0x1234);
    std::uint64_t flip = cipher.encryptBlock(0x1235);
    int diff = __builtin_popcountll(base ^ flip);
    // A healthy cipher flips roughly half the 64 output bits.
    EXPECT_GT(diff, 16);
    EXPECT_LT(diff, 48);
}

TEST(CounterMode, RoundTrip)
{
    CounterModeCipher cm(99);
    std::vector<std::uint8_t> plain(64);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i * 7);
    SealedBlock sealed = cm.encrypt(plain, 42);
    EXPECT_EQ(cm.decrypt(sealed), plain);
}

TEST(CounterMode, KnownCiphertext)
{
    // Pinned bytes: a change to the keystream layout (input mixing,
    // word order, byte order within a word, the partial last word)
    // must not go unnoticed. 41 bytes: five whole words and one byte.
    CounterModeCipher cm(0x1234abcd);
    std::vector<std::uint8_t> plain(41);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i * 13 + 5);
    cm.encrypt(plain, 1); // so the pinned block has counter 2
    const SealedBlock sealed = cm.encrypt(plain, 0x77);
    EXPECT_EQ(sealed.counter, 2u);
    const std::vector<std::uint8_t> want = {
        0x67, 0x4f, 0x67, 0x37, 0x16, 0xcd, 0x31, 0xf8, 0xee, 0x8d, 0xa7,
        0x0c, 0x6a, 0x35, 0x03, 0xb8, 0xbc, 0x1c, 0x7c, 0xc8, 0x5b, 0x3d,
        0x8c, 0x99, 0x3b, 0x90, 0x93, 0x07, 0x6c, 0xe2, 0x23, 0x44, 0x79,
        0x95, 0x74, 0xc5, 0x1a, 0xf7, 0xae, 0x28, 0x00};
    EXPECT_EQ(sealed.bytes, want);
    EXPECT_EQ(cm.decrypt(sealed), plain);
}

TEST(CounterMode, EveryKeystreamWordDiffers)
{
    // Long enough for several lane-cipher calls: a word index reused
    // across calls would repeat a keystream word.
    CounterModeCipher cm(31);
    const SealedBlock sealed =
        cm.encrypt(std::vector<std::uint8_t>(8 * 300, 0), 9);
    std::set<std::vector<std::uint8_t>> words;
    for (std::size_t off = 0; off < sealed.bytes.size(); off += 8)
        words.emplace(sealed.bytes.begin() + static_cast<long>(off),
                      sealed.bytes.begin() + static_cast<long>(off + 8));
    EXPECT_EQ(words.size(), 300u);
}

TEST(CounterMode, OddSizes)
{
    CounterModeCipher cm(5);
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 65u, 1025u, 2049u}) {
        std::vector<std::uint8_t> plain(n, 0xAB);
        EXPECT_EQ(cm.decrypt(cm.encrypt(plain, n)), plain);
    }
}

TEST(CounterMode, ProbabilisticEncryption)
{
    // The Path ORAM requirement: the same plaintext written to the
    // same location twice must yield different ciphertexts.
    CounterModeCipher cm(123);
    std::vector<std::uint8_t> plain(64, 0);
    SealedBlock first = cm.encrypt(plain, 7);
    SealedBlock second = cm.encrypt(plain, 7);
    EXPECT_NE(first.bytes, second.bytes);
    EXPECT_NE(first.counter, second.counter);
    EXPECT_EQ(cm.decrypt(first), plain);
    EXPECT_EQ(cm.decrypt(second), plain);
}

TEST(CounterMode, DummyIndistinguishableShape)
{
    // Dummy and data blocks must have equal-size ciphertexts.
    CounterModeCipher cm(1);
    std::vector<std::uint8_t> data(64, 0x5A);
    std::vector<std::uint8_t> dummy(64, 0x00);
    EXPECT_EQ(cm.encrypt(data, 1).bytes.size(),
              cm.encrypt(dummy, 2).bytes.size());
}

TEST(CounterMode, CiphertextsLookRandomish)
{
    CounterModeCipher cm(77);
    std::vector<std::uint8_t> plain(64, 0);
    std::set<std::vector<std::uint8_t>> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(cm.encrypt(plain, 3).bytes);
    EXPECT_EQ(seen.size(), 100u);
}

TEST(CounterMode, CounterAdvances)
{
    CounterModeCipher cm(8);
    std::vector<std::uint8_t> plain(8, 1);
    auto before = cm.encryptionCount();
    cm.encrypt(plain, 0);
    cm.encrypt(plain, 0);
    EXPECT_EQ(cm.encryptionCount(), before + 2);
}

} // anonymous namespace
} // namespace fp::crypto

// Tests for the BCH outer-code substrate: GF(2^m) field axioms, generator
// construction, encode/decode round-trips, correction up to t errors and
// detection beyond, the DVB-S2 parameter sets (N_bch = K_ldpc, Tables 5a and
// 5b) with golden encode pins, and a differential check of the decoder
// against a textbook reference decoder that lives only in this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "bch/bch.hpp"
#include "bch/gf.hpp"
#include "util/prng.hpp"

namespace db = dvbs2::bch;
namespace dc = dvbs2::code;
using dvbs2::util::BitVec;

// ------------------------------------------------------------------ field

class GfParam : public ::testing::TestWithParam<int> {};

TEST_P(GfParam, TablesAreConsistent) {
    const db::GaloisField gf(GetParam());
    EXPECT_EQ(gf.order(), (1u << GetParam()) - 1u);
    // exp/log are inverse bijections.
    for (std::uint32_t i = 0; i < gf.order(); ++i) EXPECT_EQ(gf.log(gf.exp(i)), i);
}

TEST_P(GfParam, MulDivInverse) {
    const db::GaloisField gf(GetParam());
    dvbs2::util::Xoshiro256pp rng(9);
    for (int trial = 0; trial < 200; ++trial) {
        const auto a = static_cast<std::uint32_t>(rng.below(gf.order()) + 1);
        const auto b = static_cast<std::uint32_t>(rng.below(gf.order()) + 1);
        EXPECT_EQ(gf.mul(a, gf.inv(a)), 1u);
        EXPECT_EQ(gf.div(gf.mul(a, b), b), a);
        EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
    }
}

TEST_P(GfParam, ZeroAnnihilates) {
    const db::GaloisField gf(GetParam());
    EXPECT_EQ(gf.mul(0, 5 % (gf.order() + 1)), 0u);
    EXPECT_EQ(gf.mul(1, 1), 1u);
}

TEST_P(GfParam, DistributivitySpotCheck) {
    const db::GaloisField gf(GetParam());
    dvbs2::util::Xoshiro256pp rng(11);
    for (int trial = 0; trial < 100; ++trial) {
        const auto a = static_cast<std::uint32_t>(rng.below(gf.order() + 1));
        const auto b = static_cast<std::uint32_t>(rng.below(gf.order() + 1));
        const auto c = static_cast<std::uint32_t>(rng.below(gf.order() + 1));
        EXPECT_EQ(gf.mul(a, b ^ c), gf.mul(a, b) ^ gf.mul(a, c));
    }
}

TEST_P(GfParam, TablesMatchCarrylessArithmetic) {
    // Shift-and-add product modulo the primitive polynomial, independent of
    // the exp/log tables; covers the doubled exp table behind mul/div/inv.
    const db::GaloisField gf(GetParam());
    const std::uint32_t poly = db::GaloisField::default_primitive_poly(GetParam());
    const auto slow_mul = [&](std::uint32_t a, std::uint32_t b) {
        std::uint32_t r = 0;
        for (; b != 0; b >>= 1) {
            if (b & 1u) r ^= a;
            a <<= 1;
            if (a > gf.order()) a ^= poly;
        }
        return r;
    };
    for (std::uint32_t i = 0; i < 2 * gf.order(); ++i) EXPECT_EQ(gf.exp_unreduced(i), gf.exp(i));
    dvbs2::util::Xoshiro256pp rng(13);
    for (int trial = 0; trial < 300; ++trial) {
        const auto a = static_cast<std::uint32_t>(rng.below(gf.order()) + 1);
        const auto b = static_cast<std::uint32_t>(rng.below(gf.order()) + 1);
        EXPECT_EQ(gf.mul(a, b), slow_mul(a, b));
        EXPECT_EQ(slow_mul(gf.div(a, b), b), a);
        EXPECT_EQ(slow_mul(gf.inv(a), a), 1u);
    }
    EXPECT_EQ(gf.inv(1), 1u);
    EXPECT_EQ(gf.mul(gf.order(), gf.order()), slow_mul(gf.order(), gf.order()));
}

INSTANTIATE_TEST_SUITE_P(Fields, GfParam, ::testing::Values(3, 4, 6, 8, 10, 13, 16));

TEST(Gf, RejectsNonPrimitivePoly) {
    // x^4 + x^3 + x^2 + x + 1 divides x^5 - 1: order 5, not primitive.
    EXPECT_THROW(db::GaloisField(4, 0x1F), std::runtime_error);
}

TEST(Gf, RejectsBadM) {
    EXPECT_THROW(db::GaloisField(1), std::runtime_error);
    EXPECT_THROW(db::GaloisField(17), std::runtime_error);
}

// ------------------------------------------------------------------ codec

namespace {

BitVec random_bits(int n, std::uint64_t seed) {
    dvbs2::util::Xoshiro256pp rng(seed);
    BitVec v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        if (rng() & 1) v.set(static_cast<std::size_t>(i), true);
    return v;
}

}  // namespace

TEST(Bch, ClassicHamming15_11) {
    // BCH(15, 11, t=1) is the Hamming code: 4 parity bits.
    const db::BchCode code(4, 1, 15);
    EXPECT_EQ(code.parity_bits(), 4);
    EXPECT_EQ(code.k(), 11);
}

TEST(Bch, Classic15_7_t2) {
    // BCH(15, 7, t=2): 8 parity bits (textbook).
    const db::BchCode code(4, 2, 15);
    EXPECT_EQ(code.parity_bits(), 8);
    EXPECT_EQ(code.k(), 7);
}

TEST(Bch, EncodedWordsSatisfySyndromes) {
    const db::BchCode code(6, 3, 63);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const BitVec cw = code.encode(random_bits(code.k(), seed));
        EXPECT_TRUE(code.is_codeword(cw)) << seed;
    }
}

TEST(Bch, AllZeroAndAllOneInfo) {
    const db::BchCode code(6, 3, 63);
    EXPECT_TRUE(code.is_codeword(code.encode(BitVec(static_cast<std::size_t>(code.k())))));
    BitVec ones(static_cast<std::size_t>(code.k()));
    for (int i = 0; i < code.k(); ++i) ones.set(static_cast<std::size_t>(i), true);
    EXPECT_TRUE(code.is_codeword(code.encode(ones)));
}

class BchErrorSweep : public ::testing::TestWithParam<int> {};

TEST_P(BchErrorSweep, CorrectsUpToTErrors) {
    const int nerr = GetParam();
    const db::BchCode code(8, 5, 255);  // t = 5
    dvbs2::util::Xoshiro256pp rng(77);
    for (int trial = 0; trial < 10; ++trial) {
        const BitVec cw = code.encode(random_bits(code.k(), static_cast<std::uint64_t>(trial)));
        BitVec rx = cw;
        // nerr distinct random positions.
        std::set<int> pos;
        while (static_cast<int>(pos.size()) < nerr)
            pos.insert(static_cast<int>(rng.below(static_cast<std::uint64_t>(code.n()))));
        for (int p : pos) rx.flip(static_cast<std::size_t>(p));
        const auto res = code.decode(rx);
        ASSERT_TRUE(res.success) << "errors=" << nerr << " trial=" << trial;
        EXPECT_EQ(res.errors_corrected, nerr);
        EXPECT_EQ(res.codeword, cw);
    }
}

INSTANTIATE_TEST_SUITE_P(Errors, BchErrorSweep, ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(Bch, DetectsBeyondT) {
    // t+1 errors must never be silently mis-decoded into the transmitted
    // codeword; success=false (detection) is the expected common case.
    const db::BchCode code(8, 5, 255);
    dvbs2::util::Xoshiro256pp rng(5);
    int detected = 0;
    const int trials = 20;
    for (int trial = 0; trial < trials; ++trial) {
        const BitVec cw = code.encode(random_bits(code.k(), static_cast<std::uint64_t>(trial) + 100));
        BitVec rx = cw;
        std::set<int> pos;
        while (static_cast<int>(pos.size()) < code.t() + 1)
            pos.insert(static_cast<int>(rng.below(static_cast<std::uint64_t>(code.n()))));
        for (int p : pos) rx.flip(static_cast<std::size_t>(p));
        const auto res = code.decode(rx);
        if (!res.success) ++detected;
        if (res.success) {
            EXPECT_NE(res.codeword, cw) << "impossible: corrected t+1 errors";
        }
    }
    EXPECT_GT(detected, trials / 2);  // most t+1 patterns are detected
}

TEST(Bch, ShortenedCodeRoundTrip) {
    // Shortened BCH(100, 100-16, t=2) over GF(2^8).
    const db::BchCode code(8, 2, 100);
    EXPECT_EQ(code.k(), 100 - code.parity_bits());
    const BitVec cw = code.encode(random_bits(code.k(), 3));
    EXPECT_TRUE(code.is_codeword(cw));
    BitVec rx = cw;
    rx.flip(1);
    rx.flip(90);
    const auto res = code.decode(rx);
    ASSERT_TRUE(res.success);
    EXPECT_EQ(res.codeword, cw);
}

TEST(Bch, SystematicPrefix) {
    const db::BchCode code(6, 2, 63);
    const BitVec info = random_bits(code.k(), 8);
    const BitVec cw = code.encode(info);
    for (int i = 0; i < code.k(); ++i)
        EXPECT_EQ(cw.get(static_cast<std::size_t>(i)), info.get(static_cast<std::size_t>(i)));
}

TEST(Bch, RejectsWrongLengths) {
    const db::BchCode code(6, 2, 63);
    EXPECT_THROW(code.encode(BitVec(5)), std::runtime_error);
    EXPECT_THROW(code.decode(BitVec(62)), std::runtime_error);
    EXPECT_THROW(db::BchCode(4, 3, 10), std::runtime_error);  // parity(=10) >= n
    EXPECT_THROW(db::BchCode(4, 1, 16), std::runtime_error);  // n > 2^m - 1
}

TEST(Bch, RejectsTLargerThanTheField) {
    // The coset walk needs 2t-1 < 2^m - 1; beyond that it never closes.
    try {
        db::BchCode(4, 9, 15);
        FAIL() << "BchCode(4, 9, 15) must throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("t=9 too large for GF(2^4): need 2t-1 < 15"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(db::BchCode(4, 8, 15), std::runtime_error);  // 2t-1 = 15 = order
    // The largest legal t: g(x) = (x^15 - 1)/(x + 1), the repetition code.
    const db::BchCode rep(4, 7, 15);
    EXPECT_EQ(rep.parity_bits(), 14);
    EXPECT_EQ(rep.k(), 1);
}

// --------------------------------------------------------------- DVB-S2

TEST(Dvbs2Bch, Table5aParameters) {
    // Spot checks of EN 302 307 Table 5a (long frame).
    const auto p12 = db::dvbs2_bch_params(dvbs2::code::CodeRate::R1_2);
    EXPECT_EQ(p12.t, 12);
    EXPECT_EQ(p12.n_bch, 32400);
    EXPECT_EQ(p12.k_bch, 32208);
    const auto p23 = db::dvbs2_bch_params(dvbs2::code::CodeRate::R2_3);
    EXPECT_EQ(p23.t, 10);
    EXPECT_EQ(p23.k_bch, 43040);
    const auto p910 = db::dvbs2_bch_params(dvbs2::code::CodeRate::R9_10);
    EXPECT_EQ(p910.t, 8);
    EXPECT_EQ(p910.k_bch, 58192);
}

TEST(Dvbs2Bch, Table5bShortParameters) {
    // EN 302 307 Table 5b: GF(2^14), t = 12, K_bch = K_ldpc - 168.
    for (auto rate : dc::rates_for(dc::FrameSize::Short)) {
        const auto p = db::dvbs2_bch_params(rate, dc::FrameSize::Short);
        EXPECT_EQ(p.m, 14);
        EXPECT_EQ(p.t, 12);
        EXPECT_EQ(p.n_bch, dc::standard_params(rate, dc::FrameSize::Short).k);
        EXPECT_EQ(p.k_bch, p.n_bch - 168);
    }
    EXPECT_EQ(db::dvbs2_bch_params(dc::CodeRate::R1_4, dc::FrameSize::Short).k_bch, 3072);
    EXPECT_EQ(db::dvbs2_bch_params(dc::CodeRate::R1_2, dc::FrameSize::Short).k_bch, 7032);
    EXPECT_EQ(db::dvbs2_bch_params(dc::CodeRate::R8_9, dc::FrameSize::Short).k_bch, 14232);
    EXPECT_EQ(db::dvbs2_bch_params(dc::CodeRate::R1_2).m, 16);
    EXPECT_THROW(db::dvbs2_bch_params(dc::CodeRate::R9_10, dc::FrameSize::Short),
                 std::runtime_error);
}

namespace {

/// FNV-1a over the parity bits (positions k..n-1) of a codeword.
std::uint64_t parity_digest(const BitVec& cw, int k) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = static_cast<std::size_t>(k); i < cw.size(); ++i) {
        h ^= cw.get(i) ? 1u : 0u;
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace

TEST(Dvbs2Bch, GoldenEncodePins) {
    struct Pin {
        dc::FrameSize frame;
        dc::CodeRate rate;
        std::uint64_t digest;
    };
    const Pin pins[] = {
#include "golden_bch_pins.inc"
    };
    ASSERT_EQ(std::size(pins), 21u);  // 11 long rates + 10 short rates
    for (const auto& pin : pins) {
        const std::string label = dc::to_string(pin.rate) +
                                  (pin.frame == dc::FrameSize::Long ? " long" : " short");
        const auto p = db::dvbs2_bch_params(pin.rate, pin.frame);
        const db::BchCode code(p.m, p.t, p.n_bch);
        EXPECT_EQ(code.parity_bits(), p.m * p.t) << label;
        EXPECT_EQ(code.k(), p.k_bch) << label;
        const BitVec cw = code.encode(random_bits(code.k(), 0x5EED));
        EXPECT_TRUE(code.is_codeword(cw)) << label;
        EXPECT_EQ(parity_digest(cw, code.k()), pin.digest) << label;
    }
}

TEST(Dvbs2Bch, FullSizeEncodeDecode) {
    // The real outer code of rate 1/2: GF(2^16), t=12, n=32400.
    const auto prm = db::dvbs2_bch_params(dvbs2::code::CodeRate::R1_2);
    const db::BchCode code(16, prm.t, prm.n_bch);
    EXPECT_EQ(code.k(), prm.k_bch);
    const BitVec cw = code.encode(random_bits(code.k(), 21));
    EXPECT_TRUE(code.is_codeword(cw));

    BitVec rx = cw;
    const int positions[] = {0, 777, 16000, 32000, 32399};
    for (int p : positions) rx.flip(static_cast<std::size_t>(p));
    const auto res = code.decode(rx);
    ASSERT_TRUE(res.success);
    EXPECT_EQ(res.errors_corrected, 5);
    EXPECT_EQ(res.codeword, cw);
}

// ------------------------------------------------- parameterized (m, t)

struct BchConfig {
    int m, t, n;
};

class BchParamSweep : public ::testing::TestWithParam<BchConfig> {};

TEST_P(BchParamSweep, CorrectsExactlyTErrors) {
    const auto& c = GetParam();
    const db::BchCode code(c.m, c.t, c.n);
    dvbs2::util::Xoshiro256pp rng(static_cast<std::uint64_t>(c.m * 100 + c.t));
    const BitVec cw = code.encode(random_bits(code.k(), 1));
    BitVec rx = cw;
    std::set<int> pos;
    while (static_cast<int>(pos.size()) < c.t)
        pos.insert(static_cast<int>(rng.below(static_cast<std::uint64_t>(code.n()))));
    for (int p : pos) rx.flip(static_cast<std::size_t>(p));
    const auto res = code.decode(rx);
    ASSERT_TRUE(res.success) << "m=" << c.m << " t=" << c.t;
    EXPECT_EQ(res.errors_corrected, c.t);
    EXPECT_EQ(res.codeword, cw);
}

INSTANTIATE_TEST_SUITE_P(Configs, BchParamSweep,
                         ::testing::Values(BchConfig{5, 2, 31}, BchConfig{6, 4, 63},
                                           BchConfig{7, 3, 127}, BchConfig{8, 8, 255},
                                           BchConfig{10, 4, 1023}, BchConfig{10, 6, 600},
                                           BchConfig{12, 5, 4000}, BchConfig{13, 4, 8191}),
                         [](const auto& info) {
                             return "m" + std::to_string(info.param.m) + "t" +
                                    std::to_string(info.param.t) + "n" +
                                    std::to_string(info.param.n);
                         });

// ------------------------------------------------ differential vs oracle

namespace {

/// Textbook BCH decoder over the same field and code, sharing nothing with
/// the library's decoder but GaloisField arithmetic: bit-serial Horner
/// syndromes over the whole word, Berlekamp–Massey, and a direct Chien
/// search that evaluates sigma by Horner's rule at every position. Like the
/// library, it flips roots in position order and stops after L of them; a
/// locator with fewer roots in range leaves those flips in the returned
/// word with success = false.
db::BchDecodeResult reference_decode(const db::GaloisField& gf, int t, const BitVec& word) {
    const int n = static_cast<int>(word.size());
    db::BchDecodeResult out;
    out.codeword = word;

    std::vector<std::uint32_t> s(static_cast<std::size_t>(2 * t), 0);
    for (int i = 1; i <= 2 * t; ++i) {
        const std::uint32_t ai = gf.exp(static_cast<std::uint64_t>(i));
        std::uint32_t val = 0;
        for (int j = 0; j < n; ++j) {
            val = gf.mul(val, ai);
            if (word.get(static_cast<std::size_t>(j))) val ^= 1u;
        }
        s[static_cast<std::size_t>(i - 1)] = val;
    }
    bool clean = true;
    for (auto v : s) clean = clean && v == 0;
    if (clean) {
        out.success = true;
        return out;
    }

    std::vector<std::uint32_t> sigma = {1}, prev = {1};
    int L = 0, shift = 1;
    std::uint32_t prev_disc = 1;
    for (int step = 0; step < 2 * t; ++step) {
        std::uint32_t disc = s[static_cast<std::size_t>(step)];
        for (int i = 1; i <= L && i < static_cast<int>(sigma.size()); ++i)
            disc ^= gf.mul(sigma[static_cast<std::size_t>(i)],
                           s[static_cast<std::size_t>(step - i)]);
        if (disc == 0) {
            ++shift;
            continue;
        }
        const std::uint32_t factor = gf.div(disc, prev_disc);
        std::vector<std::uint32_t> next = sigma;
        if (next.size() < prev.size() + static_cast<std::size_t>(shift))
            next.resize(prev.size() + static_cast<std::size_t>(shift), 0);
        for (std::size_t i = 0; i < prev.size(); ++i)
            next[i + static_cast<std::size_t>(shift)] ^= gf.mul(factor, prev[i]);
        if (2 * L <= step) {
            prev = sigma;
            prev_disc = disc;
            L = step + 1 - L;
            shift = 1;
        } else {
            ++shift;
        }
        sigma = std::move(next);
    }
    while (!sigma.empty() && sigma.back() == 0) sigma.pop_back();
    const int deg = static_cast<int>(sigma.size()) - 1;
    if (L > t || deg != L) return out;

    int found = 0;
    for (int j = 0; j < n && found < L; ++j) {
        const std::uint64_t e = static_cast<std::uint64_t>(n - 1 - j) % gf.order();
        const std::uint32_t x = gf.exp(gf.order() - e);  // alpha^{-(n-1-j)}
        std::uint32_t val = sigma.back();
        for (int d = deg - 1; d >= 0; --d)
            val = gf.mul(val, x) ^ sigma[static_cast<std::size_t>(d)];
        if (val == 0) {
            out.codeword.flip(static_cast<std::size_t>(j));
            ++found;
        }
    }
    if (found != L) return out;
    out.errors_corrected = found;
    out.success = true;
    return out;
}

}  // namespace

class BchDifferential : public ::testing::TestWithParam<BchConfig> {};

TEST_P(BchDifferential, MatchesTextbookDecoder) {
    // Seeded words with 0..t+2 errors. Error sets lead with bit 0, bit n-1
    // and a bit inside the parity (rotating which comes first per trial),
    // then add distinct random positions.
    const auto& c = GetParam();
    const db::GaloisField gf(c.m);
    const db::BchCode code(c.m, c.t, c.n);
    const int trials = c.n > 4000 ? 2 : 4;
    const int forced[] = {0, c.n - 1, code.k() + code.parity_bits() / 2};
    dvbs2::util::Xoshiro256pp rng(static_cast<std::uint64_t>(c.m * 1000 + c.t) ^ 0xD1FFULL);
    for (int nerr = 0; nerr <= c.t + 2 && nerr <= c.n; ++nerr) {
        for (int trial = 0; trial < trials; ++trial) {
            const BitVec cw = code.encode(random_bits(code.k(), rng()));
            std::vector<int> pos;
            for (int f = 0; f < 3 && static_cast<int>(pos.size()) < nerr; ++f) {
                const int p = forced[(f + trial) % 3];
                if (std::find(pos.begin(), pos.end(), p) == pos.end()) pos.push_back(p);
            }
            while (static_cast<int>(pos.size()) < nerr) {
                const int p = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.n)));
                if (std::find(pos.begin(), pos.end(), p) == pos.end()) pos.push_back(p);
            }
            BitVec rx = cw;
            for (int p : pos) rx.flip(static_cast<std::size_t>(p));

            const auto got = code.decode(rx);
            const auto want = reference_decode(gf, c.t, rx);
            const std::string where = "errors=" + std::to_string(nerr) +
                                      " trial=" + std::to_string(trial);
            EXPECT_EQ(got.codeword, want.codeword) << where;
            EXPECT_EQ(got.success, want.success) << where;
            EXPECT_EQ(got.errors_corrected, want.errors_corrected) << where;
            EXPECT_EQ(code.is_codeword(rx), nerr == 0) << where;
            if (nerr <= c.t) {
                EXPECT_TRUE(got.success) << where;
                EXPECT_EQ(got.codeword, cw) << where;
            }
        }
    }
}

// Parity below one byte (m4t1), parity not a whole number of bytes (m5t2,
// m8t9, m10t6), n not a multiple of 8 or 64 (m4t1, m5t2, m8t9, m10t6,
// m13t4), a multi-word remainder (m8t9: 68 bits, m10t30: five words), and
// the DVB-S2 long 3/5 and short 1/2 outer codes.
INSTANTIATE_TEST_SUITE_P(Configs, BchDifferential,
                         ::testing::Values(BchConfig{4, 1, 15}, BchConfig{5, 2, 31},
                                           BchConfig{8, 9, 250}, BchConfig{10, 6, 1001},
                                           BchConfig{10, 30, 1023}, BchConfig{13, 4, 8191},
                                           BchConfig{16, 12, 38880}, BchConfig{14, 12, 7200}),
                         [](const auto& info) {
                             return "m" + std::to_string(info.param.m) + "t" +
                                    std::to_string(info.param.t) + "n" +
                                    std::to_string(info.param.n);
                         });

// Tests for the generic constellation module: normalization, Gray
// adjacency of 8PSK, APSK ring geometry, max-log demapper correctness, and
// end-to-end LDPC decoding over 16APSK/32APSK.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/constellation.hpp"
#include "comm/modem.hpp"
#include "core/engine.hpp"
#include "enc/encoder.hpp"

namespace dc = dvbs2::code;
namespace dd = dvbs2::core;
namespace dm = dvbs2::comm;
using dvbs2::util::BitVec;

namespace {

double energy(const dm::Constellation& c) {
    double e = 0.0;
    for (std::size_t v = 0; v < c.size(); ++v) {
        const auto& p = c.point(v);
        e += p.i * p.i + p.q * p.q;
    }
    return e / static_cast<double>(c.size());
}

}  // namespace

class AllConstellations : public ::testing::TestWithParam<int> {
protected:
    static dm::Constellation make(int which) {
        switch (which) {
            case 0: return dm::Constellation::psk8();
            case 1: return dm::Constellation::apsk16();
            default: return dm::Constellation::apsk32();
        }
    }
};

TEST_P(AllConstellations, UnitAverageEnergy) {
    const auto c = make(GetParam());
    EXPECT_NEAR(energy(c), 1.0, 1e-12);
}

TEST_P(AllConstellations, DistinctPoints) {
    const auto c = make(GetParam());
    EXPECT_GT(c.min_distance(), 0.05);
}

TEST_P(AllConstellations, NoiselessDemapRecoversBits) {
    const auto c = make(GetParam());
    const int bps = c.bits_per_symbol();
    double llr[8];
    for (std::size_t v = 0; v < c.size(); ++v) {
        const auto& p = c.point(v);
        c.demap_maxlog(p.i, p.q, 0.1, llr);
        for (int b = 0; b < bps; ++b) {
            const bool bit = ((v >> (bps - 1 - b)) & 1u) != 0;
            if (bit)
                EXPECT_LT(llr[b], 0.0) << "value " << v << " bit " << b;
            else
                EXPECT_GT(llr[b], 0.0) << "value " << v << " bit " << b;
        }
    }
}

TEST_P(AllConstellations, TransmitIsDeterministic) {
    const auto c = make(GetParam());
    BitVec bits(static_cast<std::size_t>(c.bits_per_symbol()) * 40);
    for (std::size_t i = 0; i < bits.size(); i += 3) bits.set(i, true);
    dvbs2::util::Xoshiro256pp r1(5), r2(5);
    EXPECT_EQ(dm::transmit_constellation(c, bits, 0.3, r1),
              dm::transmit_constellation(c, bits, 0.3, r2));
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllConstellations, ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                             return std::string(info.param == 0   ? "Psk8"
                                                : info.param == 1 ? "Apsk16"
                                                                  : "Apsk32");
                         });

TEST(Psk8Gray, AdjacentAnglesDifferInOneBit) {
    const auto c = dm::Constellation::psk8();
    // Reconstruct value at each angle slot and check Gray adjacency.
    std::vector<int> value_at_slot(8, -1);
    for (int v = 0; v < 8; ++v) {
        const auto& p = c.point(static_cast<std::size_t>(v));
        const double ang = std::atan2(p.q, p.i);
        int slot = static_cast<int>(std::lround(ang / (2.0 * M_PI / 8.0)));
        slot = ((slot % 8) + 8) % 8;
        value_at_slot[static_cast<std::size_t>(slot)] = v;
    }
    for (int s = 0; s < 8; ++s) {
        const int a = value_at_slot[static_cast<std::size_t>(s)];
        const int b = value_at_slot[static_cast<std::size_t>((s + 1) % 8)];
        EXPECT_EQ(__builtin_popcount(static_cast<unsigned>(a ^ b)), 1)
            << "slot " << s;
    }
}

TEST(Apsk16, RingStructure) {
    const auto c = dm::Constellation::apsk16(3.15);
    // Two distinct radii, 12 outer + 4 inner, ratio = gamma.
    double r_out = 0.0, r_in = 1e300;
    for (std::size_t v = 0; v < 16; ++v) {
        const auto& p = c.point(v);
        const double r = std::hypot(p.i, p.q);
        r_out = std::max(r_out, r);
        r_in = std::min(r_in, r);
    }
    EXPECT_NEAR(r_out / r_in, 3.15, 1e-9);
    int outer = 0;
    for (std::size_t v = 0; v < 16; ++v)
        if (std::hypot(c.point(v).i, c.point(v).q) > (r_out + r_in) / 2) ++outer;
    EXPECT_EQ(outer, 12);
}

TEST(Apsk32, ThreeRings) {
    const auto c = dm::Constellation::apsk32(2.84, 5.27);
    std::set<long long> radii;
    for (std::size_t v = 0; v < 32; ++v)
        radii.insert(std::llround(1e9 * std::hypot(c.point(v).i, c.point(v).q)));
    EXPECT_EQ(radii.size(), 3u);
}

TEST(Apsk, RejectsBadRatios) {
    EXPECT_THROW(dm::Constellation::apsk16(0.9), std::runtime_error);
    EXPECT_THROW(dm::Constellation::apsk32(3.0, 2.0), std::runtime_error);
}

TEST(Apsk16, EndToEndLdpcDecode) {
    // DVB-S2 mode: rate 2/3 LDPC + 16APSK. Toy code n=144 is a multiple
    // of 4. Generous SNR (the synthetic bit map is not the standard's, so
    // only the shape matters).
    const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    ASSERT_EQ(code.n() % 4, 0);
    const auto c = dm::Constellation::apsk16();
    const dvbs2::enc::Encoder enc(code);
    const BitVec info = dvbs2::enc::random_info_bits(code.k(), 3);
    dvbs2::util::Xoshiro256pp rng(8);
    const double esn0_db = 16.0;
    const double sigma = std::sqrt(1.0 / (2.0 * std::pow(10.0, esn0_db / 10.0)));
    const auto llr = dm::transmit_constellation(c, enc.encode(info), sigma, rng);
    const auto dec = dd::make_engine(code, {dd::Arithmetic::Float, {}});
    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
}

TEST(Apsk32, EndToEndLdpcDecode) {
    // 32APSK needs n % 5 == 0: use a toy with p=10 (n = 100).
    const auto params = dc::toy_params(10, 5, 1, 8, 4);
    const dc::Dvbs2Code code(params);
    ASSERT_EQ(code.n() % 5, 0);
    const auto c = dm::Constellation::apsk32();
    const dvbs2::enc::Encoder enc(code);
    const BitVec info = dvbs2::enc::random_info_bits(code.k(), 5);
    dvbs2::util::Xoshiro256pp rng(9);
    const double esn0_db = 21.0;
    const double sigma = std::sqrt(1.0 / (2.0 * std::pow(10.0, esn0_db / 10.0)));
    const auto llr = dm::transmit_constellation(c, enc.encode(info), sigma, rng);
    const auto dec = dd::make_engine(code, {dd::Arithmetic::Float, {}});
    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
}

TEST(ConstellationCtor, RejectsBadSizes) {
    EXPECT_THROW(dm::Constellation("bad", {{1, 0}, {0, 1}, {1, 1}}), std::runtime_error);
    EXPECT_THROW(dm::Constellation("bad", {}), std::runtime_error);
}

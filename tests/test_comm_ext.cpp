// Tests for the comm extensions: 8PSK modem (Gray mapping, max-log LLRs)
// and Gaussian-approximation density evolution.
#include <gtest/gtest.h>

#include <cmath>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/capacity.hpp"
#include "comm/density_evolution.hpp"
#include "comm/modem.hpp"
#include "core/engine.hpp"
#include "enc/encoder.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
using dvbs2::util::BitVec;

// ------------------------------------------------------------------ 8PSK

TEST(Psk8, ThreeBitsPerSymbol) { EXPECT_EQ(dm::bits_per_symbol(dm::Modulation::Psk8), 3); }

TEST(Psk8, SigmaScalesWithSpectralEfficiency) {
    const double s1 = dm::noise_sigma(2.0, 0.5, dm::Modulation::Bpsk);
    const double s3 = dm::noise_sigma(2.0, 0.5, dm::Modulation::Psk8);
    EXPECT_NEAR(s3, s1 / std::sqrt(3.0), 1e-12);
}

TEST(Psk8, NoiselessSignsMatchBits) {
    BitVec bits(96);
    for (std::size_t i = 0; i < 96; i += 5) bits.set(i, true);
    dm::AwgnModem modem(dm::Modulation::Psk8, 3);
    const auto llr = modem.transmit_noiseless(bits, 0.5);
    ASSERT_EQ(llr.size(), 96u);
    for (std::size_t i = 0; i < 96; ++i) {
        if (bits.get(i))
            EXPECT_LT(llr[i], 0.0) << i;
        else
            EXPECT_GT(llr[i], 0.0) << i;
    }
}

TEST(Psk8, RequiresMultipleOfThreeBits) {
    dm::AwgnModem modem(dm::Modulation::Psk8, 1);
    EXPECT_THROW(modem.transmit(BitVec(64), 1.0), std::runtime_error);
}

TEST(Psk8, HighSnrLlrsAreCorrectlySigned) {
    BitVec bits(3000);
    dvbs2::util::Xoshiro256pp rng(8);
    for (std::size_t i = 0; i < bits.size(); ++i)
        if (rng() & 1) bits.set(i, true);
    dm::AwgnModem modem(dm::Modulation::Psk8, 4);
    const auto llr = modem.transmit(bits, 0.05);  // essentially noiseless
    std::size_t sign_errors = 0;
    for (std::size_t i = 0; i < bits.size(); ++i)
        if ((llr[i] < 0) != bits.get(i)) ++sign_errors;
    EXPECT_EQ(sign_errors, 0u);
}

TEST(Psk8, ModerateSnrBitErrorRateIsPlausible) {
    // Hard-decision 8PSK symbol-error theory: Ps ≈ 2Q(√(2Es/N0)·sin(π/8));
    // Gray mapping → BER ≈ Ps/3. Validate within a loose factor.
    BitVec bits(30000);
    dvbs2::util::Xoshiro256pp rng(5);
    for (std::size_t i = 0; i < bits.size(); ++i)
        if (rng() & 1) bits.set(i, true);
    const double sigma = 0.28;
    dm::AwgnModem modem(dm::Modulation::Psk8, 6);
    const auto llr = modem.transmit(bits, sigma);
    std::size_t errors = 0;
    for (std::size_t i = 0; i < bits.size(); ++i)
        if ((llr[i] < 0) != bits.get(i)) ++errors;
    const double ber = static_cast<double>(errors) / static_cast<double>(bits.size());
    const double esn0 = 1.0 / (2.0 * sigma * sigma);
    const double ps = 2.0 * dvbs2::util::q_function(std::sqrt(2.0 * esn0) * std::sin(M_PI / 8.0));
    const double expect = ps / 3.0;
    EXPECT_GT(ber, expect * 0.5);
    EXPECT_LT(ber, expect * 2.0);
}

TEST(Psk8, EndToEndLdpcDecodeAtHighSnr) {
    // DVB-S2 mode: 8PSK + LDPC. The toy code's n is a multiple of 3.
    const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    ASSERT_EQ(code.n() % 3, 0);
    const dvbs2::enc::Encoder enc(code);
    const BitVec info = dvbs2::enc::random_info_bits(code.k(), 2);
    dm::AwgnModem modem(dm::Modulation::Psk8, 9);
    const double sigma = dm::noise_sigma(9.0, code.params().rate(), dm::Modulation::Psk8);
    const auto llr = modem.transmit(enc.encode(info), sigma);
    const auto dec = dvbs2::core::make_engine(code, {dvbs2::core::Arithmetic::Float, {}});
    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
}

// --------------------------------------------------------------- GA-DE

TEST(DensityEvolution, PhiBasics) {
    EXPECT_DOUBLE_EQ(dm::de_phi(0.0), 1.0);
    EXPECT_LT(dm::de_phi(5.0), dm::de_phi(1.0));  // decreasing
    EXPECT_LT(dm::de_phi(50.0), 1e-4);
}

TEST(DensityEvolution, PhiInvRoundTrip) {
    for (double m : {0.1, 0.5, 1.0, 4.0, 9.0, 20.0, 60.0}) {
        EXPECT_NEAR(dm::de_phi_inv(dm::de_phi(m)), m, 0.02 * m + 1e-6) << m;
    }
}

TEST(DensityEvolution, ConvergesAboveThresholdOnly) {
    const auto p = dc::standard_params(dc::CodeRate::R1_2);
    const double good = dm::noise_sigma(2.0, p.rate(), dm::Modulation::Bpsk);
    const double bad = dm::noise_sigma(-0.5, p.rate(), dm::Modulation::Bpsk);
    EXPECT_TRUE(dm::evolve(p, good, 200).converged);
    EXPECT_FALSE(dm::evolve(p, bad, 200).converged);
}

TEST(DensityEvolution, ThresholdBetweenShannonAndSimulated) {
    // GA-DE (asymptotic, many iterations) must land above the BPSK Shannon
    // limit and below/near the finite-length simulated threshold (~0.95 dB
    // at 30 iterations, E8).
    const auto p = dc::standard_params(dc::CodeRate::R1_2);
    const double th = dm::de_threshold_db(p, 1000);
    EXPECT_GT(th, dm::shannon_limit_bpsk_db(p.rate()) - 0.05);
    EXPECT_LT(th, 1.3);
}

TEST(DensityEvolution, FewerIterationsNeedMoreSnr) {
    const auto p = dc::standard_params(dc::CodeRate::R1_2);
    const double th30 = dm::de_threshold_db(p, 30);
    const double th500 = dm::de_threshold_db(p, 500);
    EXPECT_GE(th30, th500 - 1e-6);
}

TEST(DensityEvolution, ThresholdNoiseOrderedByRate) {
    // Higher code rates tolerate less channel noise: the threshold σ* must
    // decrease with rate. (In Eb/N0 the ordering is NOT monotone — the
    // heavy degree-2 fraction of the low-rate IRA profiles costs Eb/N0 —
    // so compare the physical noise level instead.)
    auto sigma_star = [](dc::CodeRate r) {
        const auto p = dc::standard_params(r);
        return dm::noise_sigma(dm::de_threshold_db(p, 300), p.rate(), dm::Modulation::Bpsk);
    };
    const double s14 = sigma_star(dc::CodeRate::R1_4);
    const double s12 = sigma_star(dc::CodeRate::R1_2);
    const double s56 = sigma_star(dc::CodeRate::R5_6);
    EXPECT_GT(s14, s12);
    EXPECT_GT(s12, s56);
}

// ------------------------------------------------------------ interleaver

#include "comm/interleaver.hpp"

TEST(Interleaver, RoundTripBits) {
    dm::BlockInterleaver il(24, 3);
    BitVec in(24);
    for (std::size_t i = 0; i < 24; i += 5) in.set(i, true);
    EXPECT_EQ(il.deinterleave(il.interleave(in)), in);
}

TEST(Interleaver, RoundTripWithTwist) {
    dm::BlockInterleaver il(24, 3, {0, 1, 2});
    BitVec in(24);
    in.set(0, true);
    in.set(23, true);
    in.set(11, true);
    EXPECT_EQ(il.deinterleave(il.interleave(in)), in);
}

TEST(Interleaver, IsAPermutation) {
    dm::BlockInterleaver il(30, 3, {0, 2, 1});
    // Each single set bit must land on a unique output position.
    std::set<std::size_t> outputs;
    for (int i = 0; i < 30; ++i) {
        BitVec in(30);
        in.set(static_cast<std::size_t>(i), true);
        const BitVec out = il.interleave(in);
        EXPECT_EQ(out.count(), 1u);
        for (std::size_t j = 0; j < 30; ++j)
            if (out.get(j)) outputs.insert(j);
    }
    EXPECT_EQ(outputs.size(), 30u);
}

TEST(Interleaver, ColumnWriteRowReadStructure) {
    // 6 bits, 2 columns, 3 rows: input [a b c | d e f] columns → readout
    // rows: a d b e c f.
    dm::BlockInterleaver il(6, 2);
    BitVec in(6);
    in.set(1, true);  // 'b' → row 1, column 0 → output position 2
    const BitVec out = il.interleave(in);
    EXPECT_TRUE(out.get(2));
    EXPECT_EQ(out.count(), 1u);
}

TEST(Interleaver, SoftDeinterleaveMatchesHard) {
    dm::BlockInterleaver il(21600 * 3, 3);  // the 8PSK frame geometry
    std::vector<double> llr(21600 * 3);
    for (std::size_t i = 0; i < llr.size(); ++i) llr[i] = static_cast<double>(i % 97) - 48.0;
    const auto de = il.deinterleave(llr);
    // Spot-check the inverse property via a bit round trip at positions
    // carrying the sign of the soft values.
    BitVec bits(llr.size());
    for (std::size_t i = 0; i < llr.size(); ++i)
        if (llr[i] < 0) bits.set(i, true);
    const BitVec debits = il.deinterleave(bits);
    for (std::size_t i = 0; i < llr.size(); i += 997)
        EXPECT_EQ(de[i] < 0, debits.get(i)) << i;
}

TEST(Interleaver, RejectsBadGeometry) {
    EXPECT_THROW(dm::BlockInterleaver(10, 3), std::runtime_error);
    EXPECT_THROW(dm::BlockInterleaver(24, 3, {0, 1}), std::runtime_error);
    dm::BlockInterleaver il(24, 3);
    EXPECT_THROW(il.interleave(BitVec(23)), std::runtime_error);
}

TEST(Interleaver, EndToEnd8PskWithInterleaving) {
    // TX: encode → interleave → 8PSK; RX: soft deinterleave → decode.
    const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    dm::BlockInterleaver il(code.n(), 3);
    const dvbs2::enc::Encoder enc(code);
    const BitVec info = dvbs2::enc::random_info_bits(code.k(), 12);
    const BitVec tx = il.interleave(enc.encode(info));
    dm::AwgnModem modem(dm::Modulation::Psk8, 21);
    const double sigma = dm::noise_sigma(9.0, code.params().rate(), dm::Modulation::Psk8);
    const auto llr = il.deinterleave(modem.transmit(tx, sigma));
    const auto dec = dvbs2::core::make_engine(code, {dvbs2::core::Arithmetic::Float, {}});
    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
}

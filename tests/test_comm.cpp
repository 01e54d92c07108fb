// Tests for the transmission chain: LLR sign conventions, noise calibration,
// capacity computations against known values, and the BER harness plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/ber.hpp"
#include "comm/capacity.hpp"
#include "comm/modem.hpp"
#include "fake_engine.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
using dvbs2::util::BitVec;

TEST(Modem, BitsPerSymbol) {
    EXPECT_EQ(dm::bits_per_symbol(dm::Modulation::Bpsk), 1);
    EXPECT_EQ(dm::bits_per_symbol(dm::Modulation::Qpsk), 2);
}

TEST(Modem, NoiseSigmaBpskKnownValue) {
    // Rate 1/2 BPSK at Eb/N0 = 1 dB: Es/N0 = 0.5·10^0.1, σ = 1/sqrt(2·Es/N0).
    const double sigma = dm::noise_sigma(1.0, 0.5, dm::Modulation::Bpsk);
    EXPECT_NEAR(sigma, 1.0 / std::sqrt(2.0 * 0.5 * std::pow(10.0, 0.1)), 1e-12);
}

TEST(Modem, QpskSigmaAccountsForTwoBits) {
    const double s_bpsk = dm::noise_sigma(2.0, 0.5, dm::Modulation::Bpsk);
    const double s_qpsk = dm::noise_sigma(2.0, 0.5, dm::Modulation::Qpsk);
    EXPECT_NEAR(s_qpsk, s_bpsk / std::sqrt(2.0), 1e-12);
}

TEST(Modem, NoiselessLlrSignsMatchBits) {
    BitVec bits(64);
    for (std::size_t i = 0; i < 64; i += 2) bits.set(i, true);
    dm::AwgnModem modem(dm::Modulation::Bpsk, 1);
    const auto llr = modem.transmit_noiseless(bits, 0.8);
    for (std::size_t i = 0; i < 64; ++i) {
        if (bits.get(i))
            EXPECT_LT(llr[i], 0.0);
        else
            EXPECT_GT(llr[i], 0.0);
    }
}

TEST(Modem, LlrMeanAndVarianceAreConsistent) {
    // For BPSK AWGN, LLR | bit=0 ~ N(2/σ², 4/σ²): mean = var/2 — the
    // classic consistency condition. Validated empirically.
    const double sigma = 0.9;
    BitVec zeros(200000);
    dm::AwgnModem modem(dm::Modulation::Bpsk, 7);
    const auto llr = modem.transmit(zeros, sigma);
    dvbs2::util::RunningStats st;
    for (double v : llr) st.add(v);
    const double mu = 2.0 / (sigma * sigma);
    EXPECT_NEAR(st.mean(), mu, 0.05 * mu);
    EXPECT_NEAR(st.variance(), 2.0 * mu, 0.05 * 2.0 * mu);
}

TEST(Modem, QpskLlrConsistencyHoldsToo) {
    const double sigma = 0.8;
    BitVec zeros(200000);
    dm::AwgnModem modem(dm::Modulation::Qpsk, 9);
    const auto llr = modem.transmit(zeros, sigma);
    dvbs2::util::RunningStats st;
    for (double v : llr) st.add(v);
    EXPECT_NEAR(st.variance(), 2.0 * st.mean(), 0.06 * 2.0 * st.mean());
}

TEST(Modem, TransmitIsDeterministicInSeed) {
    BitVec bits(128);
    bits.set(5, true);
    dm::AwgnModem a(dm::Modulation::Bpsk, 42), b(dm::Modulation::Bpsk, 42);
    EXPECT_EQ(a.transmit(bits, 1.0), b.transmit(bits, 1.0));
}

TEST(Capacity, BpskCapacityLimits) {
    // Very low noise → capacity ≈ 1 bit; very high noise → ≈ 0.
    EXPECT_NEAR(dm::bi_awgn_capacity(0.1), 1.0, 1e-6);
    EXPECT_NEAR(dm::bi_awgn_capacity(20.0), 0.0, 1e-2);
}

TEST(Capacity, BpskCapacityIsMonotoneInSigma) {
    double prev = 1.1;
    for (double sigma = 0.2; sigma < 3.0; sigma += 0.2) {
        const double c = dm::bi_awgn_capacity(sigma);
        EXPECT_LT(c, prev);
        prev = c;
    }
}

TEST(Capacity, ShannonLimitRateHalfKnownValue) {
    // Textbook values: binary-input AWGN rate-1/2 limit ≈ 0.187 dB;
    // unconstrained ≈ 0 dB.
    EXPECT_NEAR(dm::shannon_limit_bpsk_db(0.5), 0.187, 0.02);
    EXPECT_NEAR(dm::shannon_limit_unconstrained_db(0.5), 0.0, 1e-9);
}

TEST(Capacity, BpskLimitAboveUnconstrained) {
    for (double r : {0.25, 0.4, 0.5, 0.6, 0.75, 0.9}) {
        EXPECT_GT(dm::shannon_limit_bpsk_db(r), dm::shannon_limit_unconstrained_db(r) - 1e-6)
            << "rate " << r;
    }
}

TEST(Capacity, UnconstrainedLimitApproachesMinusOnePointSixDb) {
    // As rate → 0 the unconstrained limit approaches ln2 = −1.59 dB.
    EXPECT_NEAR(dm::shannon_limit_unconstrained_db(0.01), -1.55, 0.06);
}

// ------------------------------------------------------------ BER harness

namespace {

/// A fake decoder that just hardens the channel LLRs (no iterations): BER of
/// uncoded BPSK, which has a closed form Q(sqrt(2·R·Eb/N0·...)).
dm::EngineFactory harden_channel(int k) {
    return dvbs2::test::fn_factory(
        [k](std::span<const double> llr, dvbs2::core::DecodeResult& out) {
            dvbs2::test::hard_decision(llr, k, out);
        });
}

}  // namespace

TEST(BerHarness, UncodedDecisionMatchesQFunction) {
    const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    dm::SimConfig cfg;
    cfg.limits.max_frames = 4000;
    cfg.limits.target_bit_errors = 100000;  // disable early stop
    cfg.limits.target_frame_errors = 100000;
    const double ebn0 = 4.0;
    const auto pt = dm::simulate_point(code, harden_channel(code.k()), ebn0, cfg);
    // Channel-bit error rate of BPSK at Es/N0 = R·Eb/N0.
    const double sigma = dm::noise_sigma(ebn0, code.params().rate(), dm::Modulation::Bpsk);
    const double expect_ber = dvbs2::util::q_function(1.0 / sigma);
    const double measured = pt.ber(static_cast<std::uint64_t>(code.k()));
    EXPECT_NEAR(measured, expect_ber, 0.15 * expect_ber);
}

TEST(BerHarness, EarlyStopRespectsMinimums) {
    const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    dm::SimConfig cfg;
    cfg.limits.max_frames = 500;
    cfg.limits.min_frames = 17;
    cfg.limits.target_bit_errors = 1;
    cfg.limits.target_frame_errors = 1;
    const auto pt = dm::simulate_point(code, harden_channel(code.k()), 0.0, cfg);
    EXPECT_GE(pt.frames, 17u);  // min_frames honored even with errors present
}

TEST(BerHarness, SweepReturnsOnePointPerSnr)
{
    const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    dm::SimConfig cfg;
    cfg.limits.max_frames = 5;
    cfg.limits.min_frames = 1;
    const std::vector<double> snrs = {0.0, 1.0, 2.0};
    const auto pts = dm::simulate_sweep(code, harden_channel(code.k()), snrs, cfg);
    ASSERT_EQ(pts.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(pts[i].ebn0_db, snrs[i]);
}

TEST(BerHarness, PointIsDeterministic) {
    const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    dm::SimConfig cfg;
    cfg.limits.max_frames = 20;
    const auto dec = harden_channel(code.k());
    const auto a = dm::simulate_point(code, dec, 2.0, cfg);
    const auto b = dm::simulate_point(code, dec, 2.0, cfg);
    EXPECT_EQ(a.bit_errors, b.bit_errors);
    EXPECT_EQ(a.frames, b.frames);
}

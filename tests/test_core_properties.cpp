// Property tests for the decoder core: symmetry/invariance laws that any
// correct belief-propagation implementation must satisfy, run across
// schedules and arithmetic back-ends.
#include <gtest/gtest.h>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "core/engine.hpp"
#include "enc/encoder.hpp"
#include "util/prng.hpp"

#include <limits>

namespace dc = dvbs2::code;
namespace dd = dvbs2::core;
namespace dm = dvbs2::comm;
namespace dq = dvbs2::quant;
using dvbs2::util::BitVec;

namespace {

const dc::Dvbs2Code& toy_code() {
    static const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    return code;
}

std::vector<double> random_llrs(int n, std::uint64_t seed, double scale) {
    dvbs2::util::Xoshiro256pp rng(seed);
    std::vector<double> llr(static_cast<std::size_t>(n));
    for (auto& v : llr) v = scale * rng.gaussian();
    return llr;
}

}  // namespace

class SymmetrySchedules : public ::testing::TestWithParam<dd::Schedule> {};

TEST_P(SymmetrySchedules, CodewordShiftInvariance) {
    // BP symmetry: decoding LLRs for codeword c is equivalent to decoding
    // the sign-adjusted LLRs for the all-zero word. Concretely: flipping
    // the sign of every LLR where a valid codeword c has a 1 maps a decode
    // of (llr, received x) to a decode of (llr', received x ⊕ c). We check
    // the decoded word shifts by exactly c.
    dd::DecoderConfig cfg;
    cfg.schedule = GetParam();
    cfg.max_iterations = 25;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});

    const dvbs2::enc::Encoder enc(toy_code());
    const BitVec cw = enc.encode(dvbs2::enc::random_info_bits(toy_code().k(), 7));

    // A decodable noisy all-zero transmission.
    dm::AwgnModem modem(dm::Modulation::Bpsk, 5);
    const double sigma = dm::noise_sigma(6.0, toy_code().params().rate(), dm::Modulation::Bpsk);
    const auto llr0 = modem.transmit(BitVec(static_cast<std::size_t>(toy_code().n())), sigma);

    std::vector<double> llr_c(llr0.size());
    for (std::size_t i = 0; i < llr0.size(); ++i)
        llr_c[i] = cw.get(i) ? -llr0[i] : llr0[i];

    const auto r0 = dec->decode(llr0);
    const auto rc = dec->decode(llr_c);
    ASSERT_TRUE(r0.converged);
    ASSERT_TRUE(rc.converged);
    EXPECT_EQ(rc.codeword, r0.codeword ^ cw);
    EXPECT_EQ(rc.iterations, r0.iterations);
}

TEST_P(SymmetrySchedules, GlobalSignFlipDecodesComplementPattern) {
    // Scaling all LLRs by a positive constant must not change hard
    // decisions of the float decoder (BP is scale-sensitive only through
    // clamping; keep values small enough to stay unclamped).
    dd::DecoderConfig cfg;
    cfg.schedule = GetParam();
    cfg.max_iterations = 10;
    cfg.early_stop = false;
    const auto a = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    const auto b = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    const auto llr = random_llrs(toy_code().n(), 11, 1.5);
    std::vector<double> scaled(llr.size());
    for (std::size_t i = 0; i < llr.size(); ++i) scaled[i] = 1.7 * llr[i];
    const auto ra = a->decode(llr);
    const auto rb = b->decode(scaled);
    // Exact boxplus is NOT scale-invariant in general; but min-sum is.
    dd::DecoderConfig ms = cfg;
    ms.rule = dd::CheckRule::MinSum;
    const auto ams = dd::make_engine(toy_code(), {dd::Arithmetic::Float, ms});
    const auto bms = dd::make_engine(toy_code(), {dd::Arithmetic::Float, ms});
    EXPECT_EQ(ams->decode(llr).codeword, bms->decode(scaled).codeword);
    // For the exact rule we only require agreement of the (strongly
    // determined) converged case.
    if (ra.converged && rb.converged) {
        EXPECT_EQ(ra.codeword, rb.codeword);
    }
}

INSTANTIATE_TEST_SUITE_P(Schedules, SymmetrySchedules,
                         ::testing::Values(dd::Schedule::TwoPhase, dd::Schedule::ZigzagForward,
                                           dd::Schedule::ZigzagSegmented, dd::Schedule::ZigzagMap,
                                           dd::Schedule::Layered),
                         [](const auto& info) {
                             std::string s = dd::to_string(info.param);
                             for (auto& c : s)
                                 if (c == '-') c = '_';
                             return s;
                         });

TEST(DecoderProperties, FixedDecoderIsDeterministic) {
    dd::DecoderConfig cfg;
    const auto a = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
    const auto b = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
    const auto llr = random_llrs(toy_code().n(), 3, 3.0);
    const auto ra = a->decode(llr);
    const auto rb = b->decode(llr);
    EXPECT_EQ(ra.codeword, rb.codeword);
    EXPECT_EQ(ra.iterations, rb.iterations);
}

TEST(DecoderProperties, DecoderIsReusableAcrossFrames) {
    // State must fully reset between decodes: decoding A, then B, then A
    // again gives identical results for A.
    dd::DecoderConfig cfg;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    const auto llr_a = random_llrs(toy_code().n(), 21, 3.0);
    const auto llr_b = random_llrs(toy_code().n(), 22, 3.0);
    const auto first = dec->decode(llr_a);
    dec->decode(llr_b);
    const auto again = dec->decode(llr_a);
    EXPECT_EQ(first.codeword, again.codeword);
    EXPECT_EQ(first.iterations, again.iterations);
}

TEST(DecoderProperties, StrongerChannelNeverHurtsCleanDecoding) {
    // On a noiseless channel, any LLR gain must decode correctly and in at
    // most as many iterations as a weak gain.
    const dvbs2::enc::Encoder enc(toy_code());
    const BitVec info = dvbs2::enc::random_info_bits(toy_code().k(), 5);
    const BitVec cw = enc.encode(info);
    dd::DecoderConfig cfg;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    int prev_iters = 1000;
    for (double sigma_gain : {1.2, 0.9, 0.6}) {
        dm::AwgnModem modem(dm::Modulation::Bpsk, 1);
        const auto llr = modem.transmit_noiseless(cw, sigma_gain);
        const auto res = dec->decode(llr);
        EXPECT_TRUE(res.converged);
        EXPECT_EQ(res.info_bits, info);
        EXPECT_LE(res.iterations, prev_iters);
        prev_iters = res.iterations;
    }
}

TEST(DecoderProperties, AllZeroLlrsDoNotConverge) {
    // Fully erased channel: no information, syndrome of the hardened
    // all-zero word is zero — the decoder "converges" to the zero codeword
    // immediately. This documents the (correct) all-zero fixed point.
    dd::DecoderConfig cfg;
    cfg.max_iterations = 5;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    const std::vector<double> llr(static_cast<std::size_t>(toy_code().n()), 0.0);
    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_TRUE(res.codeword.none());
}

TEST(DecoderProperties, FiveBitNeverBeatsSixBitOnAverage) {
    // Over a batch of frames at moderate noise, 6-bit quantization must
    // produce at least as many successes as 5-bit (coarse sanity for the
    // E7 ordering at toy scale).
    dd::DecoderConfig cfg;
    const auto d6 = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
    const auto d5 = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant5});
    const dvbs2::enc::Encoder enc(toy_code());
    int ok6 = 0, ok5 = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const BitVec info = dvbs2::enc::random_info_bits(toy_code().k(), seed);
        dm::AwgnModem modem(dm::Modulation::Bpsk, seed + 50);
        const double sigma =
            dm::noise_sigma(5.0, toy_code().params().rate(), dm::Modulation::Bpsk);
        const auto llr = modem.transmit(enc.encode(info), sigma);
        if (auto r = d6->decode(llr); r.converged && r.info_bits == info) ++ok6;
        if (auto r = d5->decode(llr); r.converged && r.info_bits == info) ++ok5;
    }
    EXPECT_GE(ok6 + 2, ok5);  // allow tiny statistical slack
}

TEST(DecoderProperties, RunIterationsMatchesDecodePath) {
    // run_and_dump_c2v after k iterations must agree with itself across
    // calls (stateless restart) — the contract the E10 comparisons rely on.
    dd::DecoderConfig cfg;
    cfg.schedule = dd::Schedule::ZigzagSegmented;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
    std::vector<dq::QLLR> q(static_cast<std::size_t>(toy_code().n()));
    dvbs2::util::Xoshiro256pp rng(77);
    for (auto& v : q) v = static_cast<dq::QLLR>(rng.below(63)) - 31;
    const auto a = dec->run_and_dump_c2v(q, 4);
    const auto b = dec->run_and_dump_c2v(q, 4);
    EXPECT_EQ(a, b);
}

TEST(DecoderProperties, RejectsNonFiniteLlrs) {
    dd::DecoderConfig cfg;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    const auto fdec = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
    std::vector<double> llr(static_cast<std::size_t>(toy_code().n()), 1.0);
    llr[5] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(dec->decode(llr), std::runtime_error);
    EXPECT_THROW(fdec->decode(llr), std::runtime_error);
    llr[5] = std::numeric_limits<double>::infinity();
    EXPECT_THROW(dec->decode(llr), std::runtime_error);
}

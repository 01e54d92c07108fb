// Decoder tests: convergence on clean and noisy channels for every schedule
// and rule, float and fixed point; early termination; schedule equivalences;
// regression behaviour on the full-size code.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "core/engine.hpp"
#include "enc/encoder.hpp"

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
namespace dd = dvbs2::core;
namespace dq = dvbs2::quant;
using dvbs2::util::BitVec;

namespace {

const dc::Dvbs2Code& toy_code() {
    static const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    return code;
}

/// Encodes a random word, transmits at `ebn0_db`, returns (info, llr).
std::pair<BitVec, std::vector<double>> make_instance(const dc::Dvbs2Code& code, double ebn0_db,
                                                     std::uint64_t seed) {
    const dvbs2::enc::Encoder enc(code);
    const BitVec info = dvbs2::enc::random_info_bits(code.k(), seed);
    const BitVec cw = enc.encode(info);
    dm::AwgnModem modem(dm::Modulation::Bpsk, seed * 77 + 1);
    const double sigma = dm::noise_sigma(ebn0_db, code.params().rate(), dm::Modulation::Bpsk);
    return {info, modem.transmit(cw, sigma)};
}

}  // namespace

// ------------------------------------------------ all schedules × rules

class ScheduleRuleTest
    : public ::testing::TestWithParam<std::tuple<dd::Schedule, dd::CheckRule>> {};

TEST_P(ScheduleRuleTest, FloatDecodesCleanChannel) {
    const auto [schedule, rule] = GetParam();
    dd::DecoderConfig cfg;
    cfg.schedule = schedule;
    cfg.rule = rule;
    cfg.max_iterations = 20;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});

    const dvbs2::enc::Encoder enc(toy_code());
    const BitVec info = dvbs2::enc::random_info_bits(toy_code().k(), 3);
    const BitVec cw = enc.encode(info);
    dm::AwgnModem modem(dm::Modulation::Bpsk, 1);
    const auto llr = modem.transmit_noiseless(cw, 0.7);

    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
    EXPECT_LE(res.iterations, 3);
}

TEST_P(ScheduleRuleTest, FloatDecodesModerateNoise) {
    const auto [schedule, rule] = GetParam();
    dd::DecoderConfig cfg;
    cfg.schedule = schedule;
    cfg.rule = rule;
    cfg.max_iterations = 50;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});

    int successes = 0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const auto [info, llr] = make_instance(toy_code(), 6.0, seed);
        const auto res = dec->decode(llr);
        if (res.converged && res.info_bits == info) ++successes;
    }
    // A short toy code at 6 dB should decode nearly always.
    EXPECT_GE(successes, 17);
}

TEST_P(ScheduleRuleTest, FixedDecodesCleanChannel) {
    const auto [schedule, rule] = GetParam();
    dd::DecoderConfig cfg;
    cfg.schedule = schedule;
    cfg.rule = rule;
    cfg.max_iterations = 20;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});

    const dvbs2::enc::Encoder enc(toy_code());
    const BitVec info = dvbs2::enc::random_info_bits(toy_code().k(), 4);
    const BitVec cw = enc.encode(info);
    dm::AwgnModem modem(dm::Modulation::Bpsk, 2);
    const auto llr = modem.transmit_noiseless(cw, 0.7);

    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ScheduleRuleTest,
    ::testing::Combine(::testing::Values(dd::Schedule::TwoPhase, dd::Schedule::ZigzagForward,
                                         dd::Schedule::ZigzagSegmented, dd::Schedule::ZigzagMap,
                                         dd::Schedule::Layered),
                       ::testing::Values(dd::CheckRule::Exact, dd::CheckRule::MinSum,
                                         dd::CheckRule::NormalizedMinSum,
                                         dd::CheckRule::OffsetMinSum)),
    [](const auto& info) {
        std::string s = std::string(dd::to_string(std::get<0>(info.param))) + "_" +
                        dd::to_string(std::get<1>(info.param));
        for (auto& c : s)
            if (c == '-') c = '_';
        return s;
    });

// ------------------------------------------------------ behaviour details

TEST(Decoder, EarlyStopReportsFewerIterations) {
    dd::DecoderConfig cfg;
    cfg.max_iterations = 40;
    cfg.early_stop = true;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    const auto [info, llr] = make_instance(toy_code(), 8.0, 1);
    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_LT(res.iterations, 40);
}

TEST(Decoder, NoEarlyStopRunsAllIterations) {
    dd::DecoderConfig cfg;
    cfg.max_iterations = 12;
    cfg.early_stop = false;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    const auto [info, llr] = make_instance(toy_code(), 8.0, 1);
    const auto res = dec->decode(llr);
    EXPECT_EQ(res.iterations, 12);
    EXPECT_TRUE(res.converged);  // final syndrome check still reported
}

TEST(Decoder, ZeroIterationsHardensChannel) {
    dd::DecoderConfig cfg;
    cfg.max_iterations = 0;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    const auto [info, llr] = make_instance(toy_code(), 10.0, 2);
    const auto res = dec->decode(llr);
    EXPECT_EQ(res.iterations, 0);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.info_bits.size(), static_cast<std::size_t>(toy_code().k()));
}

TEST(Decoder, ConvergedWordIsACodeword) {
    dd::DecoderConfig cfg;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        const auto [info, llr] = make_instance(toy_code(), 5.0, seed);
        const auto res = dec->decode(llr);
        if (res.converged) {
            EXPECT_TRUE(toy_code().is_codeword(res.codeword));
        }
    }
}

TEST(Decoder, RejectsWrongLlrLength) {
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, dd::DecoderConfig{}});
    EXPECT_THROW(dec->decode(std::vector<double>(7)), std::runtime_error);
}

TEST(Decoder, ZigzagForwardBeatsTwoPhasePerIteration) {
    // Paper Sec. 2.2: the optimized update converges faster. At a fixed,
    // small iteration budget near threshold the zigzag schedule must decode
    // at least as many frames.
    dd::DecoderConfig zz;
    zz.schedule = dd::Schedule::ZigzagForward;
    zz.max_iterations = 4;
    dd::DecoderConfig tp;
    tp.schedule = dd::Schedule::TwoPhase;
    tp.max_iterations = 4;
    const auto dec_zz = dd::make_engine(toy_code(), {dd::Arithmetic::Float, zz});
    const auto dec_tp = dd::make_engine(toy_code(), {dd::Arithmetic::Float, tp});
    int ok_zz = 0, ok_tp = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const auto [info, llr] = make_instance(toy_code(), 5.0, seed);
        if (auto r = dec_zz->decode(llr); r.converged && r.info_bits == info) ++ok_zz;
        if (auto r = dec_tp->decode(llr); r.converged && r.info_bits == info) ++ok_tp;
    }
    EXPECT_GE(ok_zz, ok_tp);
}

TEST(Decoder, SegmentedMatchesIdealForwardWhenQIsWholeChain) {
    // With parallelism 1 the segment covers... with one FU per chain the
    // segmented schedule has P segments; using a toy code with P=2 keeps two
    // segments. Here we instead verify the two schedules agree exactly when
    // every segment boundary value is already converged: a noiseless channel.
    dd::DecoderConfig a;
    a.schedule = dd::Schedule::ZigzagForward;
    a.max_iterations = 5;
    dd::DecoderConfig b = a;
    b.schedule = dd::Schedule::ZigzagSegmented;
    const auto da = dd::make_engine(toy_code(), {dd::Arithmetic::Float, a});
    const auto db = dd::make_engine(toy_code(), {dd::Arithmetic::Float, b});
    const dvbs2::enc::Encoder enc(toy_code());
    const BitVec info = dvbs2::enc::random_info_bits(toy_code().k(), 11);
    dm::AwgnModem modem(dm::Modulation::Bpsk, 3);
    const auto llr = modem.transmit_noiseless(enc.encode(info), 0.7);
    const auto ra = da->decode(llr);
    const auto rb = db->decode(llr);
    EXPECT_EQ(ra.info_bits, info);
    EXPECT_EQ(rb.info_bits, info);
}

TEST(FixedDecoder, DecodeRawMatchesDecodeOfDequantized) {
    dd::DecoderConfig cfg;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
    const auto [info, llr] = make_instance(toy_code(), 6.0, 5);
    std::vector<dq::QLLR> raw(llr.size());
    for (std::size_t i = 0; i < llr.size(); ++i) raw[i] = dq::quantize(llr[i], dq::kQuant6);
    const auto dec2 = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
    const auto a = dec->decode(llr);
    dd::DecodeResult b;
    dec2->decode_raw_into(raw, b);
    EXPECT_EQ(a.info_bits, b.info_bits);
    EXPECT_EQ(a.iterations, b.iterations);
}

TEST(FixedDecoder, FiveBitStillDecodesCleanChannel) {
    dd::DecoderConfig cfg;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant5});
    const dvbs2::enc::Encoder enc(toy_code());
    const BitVec info = dvbs2::enc::random_info_bits(toy_code().k(), 8);
    dm::AwgnModem modem(dm::Modulation::Bpsk, 4);
    const auto llr = modem.transmit_noiseless(enc.encode(info), 0.8);
    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
}

TEST(FixedDecoder, CnOrderPermutationKeepsDecodingCorrect) {
    // Any per-CN processing order must decode equally well (commutativity
    // the paper exploits for conflict scheduling); messages may differ at
    // saturation but the clean-channel result must be identical.
    dd::DecoderConfig cfg;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
    const int kc = toy_code().check_in_degree();
    std::vector<int> order(static_cast<std::size_t>(toy_code().e_in()));
    for (int c = 0; c < toy_code().m(); ++c)
        for (int t = 0; t < kc; ++t)
            order[static_cast<std::size_t>(c) * kc + static_cast<std::size_t>(t)] =
                kc - 1 - t;  // reversed order
    dec->set_cn_order(order);
    const dvbs2::enc::Encoder enc(toy_code());
    const BitVec info = dvbs2::enc::random_info_bits(toy_code().k(), 8);
    dm::AwgnModem modem(dm::Modulation::Bpsk, 4);
    const auto llr = modem.transmit_noiseless(enc.encode(info), 0.8);
    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
}

// ------------------------------------------------------- full-size smoke

TEST(Decoder, FullSizeRateHalfDecodesAtTwoDb) {
    // R=1/2 long frame at Eb/N0 = 2 dB is well above threshold (~1 dB):
    // a single frame must decode with early stop in < 30 iterations.
    const dc::Dvbs2Code code(dc::standard_params(dc::CodeRate::R1_2));
    dd::DecoderConfig cfg;
    cfg.schedule = dd::Schedule::ZigzagForward;
    cfg.max_iterations = 30;
    const auto dec = dd::make_engine(code, {dd::Arithmetic::Float, cfg});
    const auto [info, llr] = make_instance(code, 2.0, 1);
    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
    EXPECT_LT(res.iterations, 30);
}

TEST(FixedDecoder, FullSizeRateHalfSixBitDecodesAtTwoDb) {
    const dc::Dvbs2Code code(dc::standard_params(dc::CodeRate::R1_2));
    dd::DecoderConfig cfg;
    cfg.schedule = dd::Schedule::ZigzagSegmented;
    cfg.max_iterations = 30;
    const auto dec = dd::make_engine(code, {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
    const auto [info, llr] = make_instance(code, 2.0, 2);
    const auto res = dec->decode(llr);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.info_bits, info);
}

// ------------------------------------------- observer does not change results

// Audit note (tracing-invariance): installing an observer switches
// decode_values onto the branch that computes the syndrome weight and mean
// |posterior| every iteration even when early_stop is false. Those
// computations are read-only over the posterior/message state, and the
// final `converged` flag is derived from the same syndrome evaluation in
// both branches, so tracing must be a pure side channel. These tests pin
// that contract bit-for-bit across every schedule.

class ObserverInvarianceTest
    : public ::testing::TestWithParam<std::tuple<dd::Schedule, bool>> {};

TEST_P(ObserverInvarianceTest, FloatResultIsBitIdenticalWithAndWithoutObserver) {
    const auto [schedule, early_stop] = GetParam();
    dd::DecoderConfig cfg;
    cfg.schedule = schedule;
    cfg.early_stop = early_stop;
    cfg.max_iterations = 15;
    // 2.5 dB on the toy code: noisy enough that several iterations run,
    // clean enough that some frames converge (exercising both outcomes).
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto [info, llr] = make_instance(toy_code(), 2.5, seed);
        const auto plain = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
        const auto base = plain->decode(llr);

        const auto traced = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
        std::vector<dd::IterationTrace> traces;
        traced->set_observer([&traces](const dd::IterationTrace& t) { traces.push_back(t); });
        const auto obs = traced->decode(llr);

        EXPECT_EQ(base.codeword, obs.codeword) << "seed " << seed;
        EXPECT_EQ(base.info_bits, obs.info_bits) << "seed " << seed;
        EXPECT_EQ(base.converged, obs.converged) << "seed " << seed;
        EXPECT_EQ(base.iterations, obs.iterations) << "seed " << seed;
        EXPECT_EQ(static_cast<int>(traces.size()), obs.iterations) << "seed " << seed;
        // Detaching the observer restores the untraced fast path.
        traced->set_observer({});
        const auto detached = traced->decode(llr);
        EXPECT_EQ(detached.codeword, base.codeword) << "seed " << seed;
        EXPECT_EQ(detached.iterations, base.iterations) << "seed " << seed;
    }
}

TEST_P(ObserverInvarianceTest, FixedResultIsBitIdenticalWithAndWithoutObserver) {
    const auto [schedule, early_stop] = GetParam();
    dd::DecoderConfig cfg;
    cfg.schedule = schedule;
    cfg.early_stop = early_stop;
    cfg.max_iterations = 15;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto [info, llr] = make_instance(toy_code(), 2.5, seed);
        const auto plain = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
        const auto base = plain->decode(llr);

        const auto traced = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg, dq::kQuant6});
        std::vector<dd::IterationTrace> traces;
        traced->set_observer([&traces](const dd::IterationTrace& t) { traces.push_back(t); });
        const auto obs = traced->decode(llr);

        EXPECT_EQ(base.codeword, obs.codeword) << "seed " << seed;
        EXPECT_EQ(base.info_bits, obs.info_bits) << "seed " << seed;
        EXPECT_EQ(base.converged, obs.converged) << "seed " << seed;
        EXPECT_EQ(base.iterations, obs.iterations) << "seed " << seed;
        EXPECT_EQ(static_cast<int>(traces.size()), obs.iterations) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchedulesAndStop, ObserverInvarianceTest,
    ::testing::Combine(::testing::Values(dd::Schedule::TwoPhase, dd::Schedule::ZigzagForward,
                                         dd::Schedule::ZigzagSegmented, dd::Schedule::ZigzagMap,
                                         dd::Schedule::Layered),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<dd::Schedule, bool>>& info) {
        // to_string yields names like "two-phase"; keep alphanumerics only.
        std::string name;
        for (const char c : std::string(dd::to_string(std::get<0>(info.param))))
            if (std::isalnum(static_cast<unsigned char>(c))) name += c;
        return name + (std::get<1>(info.param) ? "_EarlyStop" : "_FixedIters");
    });

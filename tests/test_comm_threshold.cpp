// Tests for the threshold-finding utility and the undetected-error
// accounting of the BER harness (the metrics E7/E8 are built on).
#include <gtest/gtest.h>

#include <optional>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/ber.hpp"
#include "comm/modem.hpp"
#include "core/engine.hpp"
#include "fake_engine.hpp"

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
namespace dd = dvbs2::core;
namespace dt = dvbs2::test;

namespace {

const dc::Dvbs2Code& toy_code() {
    static const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    return code;
}

/// Float BP engines with `cfg`, one per worker.
dm::EngineFactory bp_factory(const dd::DecoderConfig& cfg) {
    return dm::engine_factory(toy_code(), dd::EngineSpec{dd::Arithmetic::Float, cfg});
}

}  // namespace

TEST(Threshold, FindsAPointWhereBerDropsBelowTarget) {
    dd::DecoderConfig cfg;
    cfg.max_iterations = 30;
    dm::SimConfig sim;
    sim.limits.max_frames = 200;
    sim.limits.min_frames = 50;
    sim.limits.target_bit_errors = 50;
    sim.limits.target_frame_errors = 10;
    const std::optional<double> th =
        dm::find_threshold_db(toy_code(), bp_factory(cfg), 1e-3, 2.0, 1.0, sim, 12.0);
    // A toy (144,60) code decodes reliably somewhere in 4..10 dB.
    ASSERT_TRUE(th.has_value());
    EXPECT_GT(*th, 2.0);
    EXPECT_LT(*th, 12.0);
    // Verify the found point really meets the target.
    const auto pt = dm::simulate_point(toy_code(), bp_factory(cfg), *th, sim);
    EXPECT_LT(pt.ber(static_cast<std::uint64_t>(toy_code().k())), 1e-3);
}

namespace {

/// A decoder that always fails, so no scan point ever meets a BER target.
dm::EngineFactory broken_decoder() {
    return dt::fn_factory([](std::span<const double>, dd::DecodeResult& out) {
        out.info_bits = dvbs2::util::BitVec(static_cast<std::size_t>(toy_code().k()));
        for (int i = 0; i < toy_code().k(); ++i)
            out.info_bits.set(static_cast<std::size_t>(i), true);  // all wrong half the time
        out.converged = false;
        out.iterations = 0;
    });
}

}  // namespace

TEST(Threshold, NotFoundIsDistinguishableFromThresholdAtMax) {
    // Regression: the pre-fix scan returned max_db when the target was never
    // reached, indistinguishable from a genuine threshold at exactly max_db.
    dm::SimConfig sim;
    sim.limits.max_frames = 3;
    sim.limits.min_frames = 1;
    sim.threads = 1;
    const std::optional<double> th =
        dm::find_threshold_db(toy_code(), broken_decoder(), 1e-6, 0.0, 2.0, sim, 6.0);
    EXPECT_FALSE(th.has_value());
}

TEST(Threshold, ParallelNotFoundIsDistinguishable) {
    dm::SimConfig sim;
    sim.limits.max_frames = 3;
    sim.limits.min_frames = 1;
    sim.threads = 2;
    const std::optional<double> th =
        dm::find_threshold_db(toy_code(), broken_decoder(), 1e-6, 0.0, 2.0, sim, 6.0);
    EXPECT_FALSE(th.has_value());
}

TEST(Threshold, ScanPointsDoNotAccumulateDrift) {
    // Regression: with `snr += step` accumulation, 0.1-dB steps drift by
    // several ULPs over a long scan, so the point grid (and with it every
    // per-point RNG stream, which hashes the Eb/N0 bit pattern) silently
    // depended on the scan's start. Index stepping pins point i to exactly
    // start + i*step.
    std::vector<double> seen;
    dm::SimConfig sim;
    sim.limits.max_frames = 1;
    sim.limits.min_frames = 1;
    sim.progress = [&seen](const dm::SimProgress& p) {
        if (p.finished) seen.push_back(p.ebn0_db);
    };
    const auto th = dm::find_threshold_db(toy_code(), broken_decoder(), 1e-9, 0.0, 0.1, sim, 2.0);
    EXPECT_FALSE(th.has_value());
    ASSERT_EQ(seen.size(), 21u);  // 0.0, 0.1, ..., 2.0 inclusive
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_DOUBLE_EQ(seen[i], 0.0 + static_cast<double>(i) * 0.1) << "point " << i;
}

TEST(Threshold, RejectsNonPositiveStep) {
    dm::SimConfig sim;
    EXPECT_THROW(dm::find_threshold_db(toy_code(), bp_factory({}), 1e-3, 0.0, 0.0, sim, 5.0),
                 std::runtime_error);
}

TEST(UndetectedErrors, ConvergedWrongWordIsCounted) {
    // A malicious decoder that always claims convergence with flipped bits:
    // every frame is an undetected error.
    const dm::EngineFactory liar =
        dt::fn_factory([](std::span<const double> llr, dd::DecodeResult& out) {
            dt::hard_decision(llr, toy_code().k(), out, /*invert=*/true);
            out.converged = true;
            out.iterations = 1;
        });
    dm::SimConfig sim;
    sim.limits.max_frames = 5;
    sim.limits.min_frames = 5;
    sim.limits.target_bit_errors = ~0ULL;
    sim.limits.target_frame_errors = ~0ULL;
    const auto pt = dm::simulate_point(toy_code(), liar, 8.0, sim);
    EXPECT_EQ(pt.frame_errors, 5u);
    EXPECT_EQ(pt.undetected_frame_errors, 5u);
}

TEST(UndetectedErrors, HonestDecoderReportsZeroAtHighSnr) {
    dm::SimConfig sim;
    sim.limits.max_frames = 20;
    sim.limits.min_frames = 20;
    sim.limits.target_bit_errors = ~0ULL;
    sim.limits.target_frame_errors = ~0ULL;
    const auto pt = dm::simulate_point(toy_code(), bp_factory({}), 9.0, sim);
    EXPECT_EQ(pt.undetected_frame_errors, 0u);
}

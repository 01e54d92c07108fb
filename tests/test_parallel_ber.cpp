// Tests of the frame-parallel Monte-Carlo harness (comm/ber.hpp): the
// thread-count-invariance property the EXPERIMENTS.md numbers rely on
// (one worker — the serial run — matches any number of workers),
// batch-wise early-stop semantics, sweep permutation invariance, and the
// SimProgress observability hook. Labeled `tsan`, `asan` and `ubsan` in
// tests/CMakeLists.txt so the whole file also runs under the sanitizer tiers
// (-DDVBS2_SANITIZE=thread|address|undefined).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/ber.hpp"
#include "core/engine.hpp"
#include "fake_engine.hpp"

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
namespace dd = dvbs2::core;

namespace {

const dc::Dvbs2Code& toy_code() {
    static const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    return code;
}

/// One independent float BP engine per worker (engines own message memories
/// and must not be shared across threads).
dm::EngineFactory bp_factory(int max_iterations = 20) {
    dd::EngineSpec spec;
    spec.arith = dd::Arithmetic::Float;
    spec.config.max_iterations = max_iterations;
    return dm::engine_factory(toy_code(), spec);
}

/// Stateless channel-hardening "decoder" (errors on every noisy frame, so
/// early stopping engages quickly).
dm::EngineFactory harden_factory() {
    return dvbs2::test::fn_factory([](std::span<const double> llr, dd::DecodeResult& out) {
        dvbs2::test::hard_decision(llr, toy_code().k(), out);
        out.iterations = 1;
    });
}

void expect_same(const dm::BerPoint& a, const dm::BerPoint& b, const char* what) {
    EXPECT_DOUBLE_EQ(a.ebn0_db, b.ebn0_db) << what;
    EXPECT_EQ(a.frames, b.frames) << what;
    EXPECT_EQ(a.bit_errors, b.bit_errors) << what;
    EXPECT_EQ(a.frame_errors, b.frame_errors) << what;
    EXPECT_EQ(a.undetected_frame_errors, b.undetected_frame_errors) << what;
    EXPECT_DOUBLE_EQ(a.avg_iterations, b.avg_iterations) << what;
}

}  // namespace

TEST(ParallelBer, ThreadCountInvariance) {
    // The headline property: identical tallies for 1, 2 and 8 workers, with
    // early stopping active (noisy point, low targets) so the batch-prefix
    // stop rule is exercised, not just the max_frames cap.
    dm::SimConfig cfg;
    cfg.seed = 2026;
    cfg.limits.max_frames = 160;
    cfg.limits.min_frames = 16;
    cfg.limits.target_bit_errors = 40;
    cfg.limits.target_frame_errors = 6;
    const double ebn0 = 2.0;  // noisy enough that the toy code still fails

    cfg.threads = 1;
    const auto t1 = dm::simulate_point(toy_code(), bp_factory(), ebn0, cfg);
    cfg.threads = 2;
    const auto t2 = dm::simulate_point(toy_code(), bp_factory(), ebn0, cfg);
    cfg.threads = 8;
    const auto t8 = dm::simulate_point(toy_code(), bp_factory(), ebn0, cfg);

    ASSERT_GT(t1.frames, 0u);
    ASSERT_GT(t1.frame_errors, 0u);  // early stop actually engaged
    expect_same(t1, t2, "1 vs 2 threads");
    expect_same(t1, t8, "1 vs 8 threads");
}

TEST(ParallelBer, MatchesSerialSimulatePoint) {
    // A serial run (one worker, decoding inline on the calling thread) and an
    // 8-worker run are the same deterministic function of (seed, ebn0,
    // limits).
    dm::SimConfig cfg;
    cfg.seed = 77;
    cfg.limits.max_frames = 96;
    cfg.limits.min_frames = 8;
    cfg.limits.target_bit_errors = 30;
    cfg.limits.target_frame_errors = 4;

    cfg.threads = 1;
    const auto serial = dm::simulate_point(toy_code(), bp_factory(), 2.5, cfg);

    cfg.threads = 8;
    const auto par = dm::simulate_point(toy_code(), bp_factory(), 2.5, cfg);
    expect_same(serial, par, "serial vs 8 threads");
}

TEST(ParallelBer, EarlyStopRoundsUpToBatchBoundary) {
    // With errors on every frame and targets of 1, the stopping prefix is
    // exactly one batch, whatever the thread count.
    dm::SimConfig cfg;
    cfg.seed = 5;
    cfg.limits.max_frames = 400;
    cfg.limits.min_frames = 1;
    cfg.limits.target_bit_errors = 1;
    cfg.limits.target_frame_errors = 1;
    cfg.batch_frames = 8;
    for (unsigned threads : {1u, 4u}) {
        cfg.threads = threads;
        const auto pt = dm::simulate_point(toy_code(), harden_factory(), 0.0, cfg);
        EXPECT_EQ(pt.frames, 8u) << threads << " threads";
    }
    cfg.batch_frames = 4;
    cfg.threads = 4;
    EXPECT_EQ(dm::simulate_point(toy_code(), harden_factory(), 0.0, cfg).frames, 4u);
}

TEST(ParallelBer, LastBatchTruncatesAtMaxFrames) {
    dm::SimConfig cfg;
    cfg.seed = 5;
    cfg.limits.max_frames = 21;  // not a multiple of the batch size
    cfg.limits.min_frames = 21;
    cfg.limits.target_bit_errors = ~0ULL;  // never stop early
    cfg.limits.target_frame_errors = ~0ULL;
    cfg.batch_frames = 8;
    for (unsigned threads : {1u, 3u}) {
        cfg.threads = threads;
        const auto pt = dm::simulate_point(toy_code(), harden_factory(), 4.0, cfg);
        EXPECT_EQ(pt.frames, 21u) << threads << " threads";
    }
}

TEST(ParallelBer, SweepPermutationPermutesResults) {
    // Point streams key on the Eb/N0 value, not the sweep position, so
    // permuting the sweep vector must permute the BerPoints identically.
    dm::SimConfig cfg;
    cfg.seed = 99;
    cfg.limits.max_frames = 24;
    cfg.limits.min_frames = 8;
    cfg.threads = 2;
    const std::vector<double> fwd = {1.0, 3.0, 5.0};
    const std::vector<double> rev = {5.0, 1.0, 3.0};
    const auto a = dm::simulate_sweep(toy_code(), harden_factory(), fwd, cfg);
    const auto b = dm::simulate_sweep(toy_code(), harden_factory(), rev, cfg);
    ASSERT_EQ(a.size(), 3u);
    ASSERT_EQ(b.size(), 3u);
    expect_same(a[0], b[1], "1.0 dB point");
    expect_same(a[1], b[2], "3.0 dB point");
    expect_same(a[2], b[0], "5.0 dB point");

    // And the serial sweep agrees with the parallel one.
    dm::SimConfig scfg = cfg;
    scfg.threads = 1;
    const auto serial = dm::simulate_sweep(toy_code(), harden_factory(), fwd, scfg);
    for (std::size_t i = 0; i < 3; ++i) expect_same(serial[i], a[i], "serial vs parallel sweep");
}

TEST(ParallelBer, PointStreamSeedsSeparateClosePoints) {
    const std::uint64_t s = 12345;
    EXPECT_NE(dm::point_stream_seed(s, 1.0), dm::point_stream_seed(s, 1.0 + 1e-9));
    EXPECT_NE(dm::point_stream_seed(s, 0.0), dm::point_stream_seed(s, 1e-300));
    EXPECT_EQ(dm::point_stream_seed(s, 0.0), dm::point_stream_seed(s, -0.0));
    EXPECT_NE(dm::point_stream_seed(s, 2.0), dm::point_stream_seed(s + 1, 2.0));
}

TEST(ParallelBer, FrameSeedsAreRoleAndFrameDistinct) {
    const std::uint64_t ps = dm::point_stream_seed(7, 3.5);
    EXPECT_NE(dm::frame_data_seed(ps, 0), dm::frame_noise_seed(ps, 0));
    EXPECT_NE(dm::frame_data_seed(ps, 0), dm::frame_data_seed(ps, 1));
    EXPECT_NE(dm::frame_noise_seed(ps, 5), dm::frame_noise_seed(ps, 6));
}

TEST(ParallelBer, ProgressReportsMonotoneFramesAndFinalTotals) {
    dm::SimConfig cfg;
    cfg.seed = 11;
    cfg.limits.max_frames = 64;
    cfg.limits.min_frames = 64;
    cfg.limits.target_bit_errors = ~0ULL;
    cfg.limits.target_frame_errors = ~0ULL;
    cfg.threads = 4;
    cfg.batch_frames = 8;

    std::mutex mu;
    std::uint64_t last_frames = 0;
    bool saw_finished = false;
    dm::SimProgress final_event;
    cfg.progress = [&](const dm::SimProgress& p) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_GE(p.frames, last_frames);  // frontier only moves forward
        last_frames = p.frames;
        EXPECT_EQ(p.frames_cap, 64u);
        EXPECT_EQ(p.threads, 4u);
        if (p.finished) {
            saw_finished = true;
            final_event = p;
        }
    };
    const auto pt = dm::simulate_point(toy_code(), harden_factory(), 3.0, cfg);
    ASSERT_TRUE(saw_finished);
    EXPECT_EQ(final_event.frames, pt.frames);
    EXPECT_EQ(final_event.bit_errors, pt.bit_errors);
    EXPECT_EQ(final_event.frame_errors, pt.frame_errors);
    EXPECT_GE(final_event.worker_utilization, 0.0);
    EXPECT_LE(final_event.worker_utilization, 1.5);  // clock jitter headroom
}

TEST(ParallelBer, ThresholdParallelMatchesSerial) {
    dm::SimConfig cfg;
    cfg.seed = 3;
    cfg.limits.max_frames = 64;
    cfg.limits.min_frames = 16;
    cfg.limits.target_bit_errors = 30;
    cfg.limits.target_frame_errors = 4;

    cfg.threads = 1;
    const std::optional<double> serial =
        dm::find_threshold_db(toy_code(), bp_factory(), 1e-3, 2.0, 1.0, cfg, 12.0);

    cfg.threads = 4;
    const std::optional<double> par =
        dm::find_threshold_db(toy_code(), bp_factory(), 1e-3, 2.0, 1.0, cfg, 12.0);
    ASSERT_TRUE(serial.has_value());
    ASSERT_TRUE(par.has_value());
    EXPECT_DOUBLE_EQ(*serial, *par);
}

TEST(ParallelBer, FactoryExceptionPropagates) {
    dm::SimConfig cfg;
    cfg.limits.max_frames = 16;
    cfg.threads = 2;
    const dm::EngineFactory broken = [](unsigned) -> std::unique_ptr<dd::Engine> {
        throw std::runtime_error("no decoder for you");
    };
    EXPECT_THROW(dm::simulate_point(toy_code(), broken, 1.0, cfg), std::runtime_error);
}

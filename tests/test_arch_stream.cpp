// Tests for the frame-stream timing model (Eq. 7 I/O overlap), the energy
// model, and the decoder iteration-trace observer.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/energy.hpp"
#include "arch/mapping.hpp"
#include "arch/stream.hpp"
#include "code/params.hpp"
#include "comm/modem.hpp"
#include "core/engine.hpp"
#include "enc/encoder.hpp"

namespace da = dvbs2::arch;
namespace dc = dvbs2::code;
namespace dd = dvbs2::core;
using dvbs2::util::BitVec;

namespace {

const dc::Dvbs2Code& toy_code() {
    static const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    return code;
}

}  // namespace

// ----------------------------------------------------------------- stream

TEST(Stream, SingleFrameLatencyIsInputDecodeOutput) {
    const da::HardwareMapping map(toy_code());
    da::StreamConfig cfg;
    const auto rep = da::simulate_stream(map, cfg, 1);
    ASSERT_EQ(rep.frames.size(), 1u);
    const auto& f = rep.frames[0];
    EXPECT_EQ(f.input_start, 0);
    EXPECT_GT(f.input_done, 0);
    EXPECT_EQ(f.decode_start, f.input_done);  // nothing else blocks
    EXPECT_GT(f.decode_done, f.decode_start);
    EXPECT_GT(f.output_done, f.decode_done);
    EXPECT_EQ(rep.total_cycles, f.output_done);
}

TEST(Stream, FramesAreOrderedAndOverlap) {
    const da::HardwareMapping map(toy_code());
    da::StreamConfig cfg;
    const auto rep = da::simulate_stream(map, cfg, 6);
    for (std::size_t n = 1; n < rep.frames.size(); ++n) {
        const auto& prev = rep.frames[n - 1];
        const auto& cur = rep.frames[n];
        EXPECT_GE(cur.decode_start, prev.decode_done);  // one core
        // Eq. 7 overlap: frame n's input happens while frame n−1 decodes.
        EXPECT_LT(cur.input_start, prev.decode_done);
    }
}

TEST(Stream, SteadyThroughputMatchesDecodeBoundedPipeline) {
    // When decode time >> I/O time, the steady rate is K / decode_cycles.
    const da::HardwareMapping map(toy_code());
    da::StreamConfig cfg;
    cfg.iterations = 30;
    const auto rep = da::simulate_stream(map, cfg, 8);
    const auto iter = da::simulate_iteration(map, cfg.memory);
    const double expect = static_cast<double>(toy_code().k()) * cfg.clock_hz /
                          (30.0 * iter.cycles_per_iteration());
    EXPECT_NEAR(rep.steady_info_bps, expect, 0.01 * expect);
    EXPECT_EQ(rep.core_idle_cycles, 0);  // input always ready in time
}

TEST(Stream, IoBoundWhenInputIsSlow) {
    // With one iteration and a one-value-per-cycle input port, the core
    // outruns the input and must idle between frames.
    const da::HardwareMapping map(toy_code());
    da::StreamConfig cfg;
    cfg.iterations = 1;
    cfg.io_parallelism = 1;
    const auto rep = da::simulate_stream(map, cfg, 6);
    EXPECT_GT(rep.core_idle_cycles, 0);
}

TEST(Stream, FullSizeRateHalfMatchesEq8) {
    // Steady-state throughput of the stream must be slightly *above* the
    // one-shot Eq. 8 figure (which pays the I/O serially).
    const dc::Dvbs2Code code(dc::standard_params(dc::CodeRate::R1_2));
    const da::HardwareMapping map(code);
    da::StreamConfig cfg;
    const auto rep = da::simulate_stream(map, cfg, 6);
    EXPECT_GT(rep.steady_info_bps, 255e6);
    EXPECT_LT(rep.steady_info_bps, 400e6);
}

TEST(Stream, RejectsBadConfig) {
    const da::HardwareMapping map(toy_code());
    da::StreamConfig cfg;
    cfg.iterations = 0;
    EXPECT_THROW(da::simulate_stream(map, cfg, 2), std::runtime_error);
    EXPECT_THROW(da::simulate_stream(map, da::StreamConfig{}, 0), std::runtime_error);
    da::StreamConfig bad_clock;
    bad_clock.clock_hz = 0.0;
    EXPECT_THROW(da::simulate_stream(map, bad_clock, 2), std::runtime_error);
    bad_clock.clock_hz = -270e6;
    EXPECT_THROW(da::simulate_stream(map, bad_clock, 2), std::runtime_error);
}

TEST(Stream, SingleFrameSteadyRateFallsBackToWholeRunRate) {
    // With one frame there is no decode-done span to divide by; the report
    // must fall back to K / total_time instead of dividing by zero.
    const da::HardwareMapping map(toy_code());
    da::StreamConfig cfg;
    const auto rep = da::simulate_stream(map, cfg, 1);
    ASSERT_GT(rep.total_cycles, 0);
    const double expect = static_cast<double>(toy_code().k()) /
                          (static_cast<double>(rep.total_cycles) / cfg.clock_hz);
    EXPECT_DOUBLE_EQ(rep.steady_info_bps, expect);
    EXPECT_TRUE(std::isfinite(rep.steady_info_bps));
    EXPECT_GT(rep.steady_info_bps, 0.0);
}

TEST(Stream, TwoFrameSteadyRateUsesDecodeDoneSpan) {
    // The smallest frame count with a steady state: the rate is one frame's
    // K over the decode-done span between the two frames.
    const da::HardwareMapping map(toy_code());
    da::StreamConfig cfg;
    const auto rep = da::simulate_stream(map, cfg, 2);
    ASSERT_EQ(rep.frames.size(), 2u);
    const long long span = rep.frames[1].decode_done - rep.frames[0].decode_done;
    ASSERT_GT(span, 0);
    const double expect = static_cast<double>(toy_code().k()) /
                          (static_cast<double>(span) / cfg.clock_hz);
    EXPECT_DOUBLE_EQ(rep.steady_info_bps, expect);
}

TEST(Stream, DecodeShorterThanIoStaysFiniteAndConsistent) {
    // One cheap iteration against a wide-open input port: decoding is much
    // shorter than I/O, the pipeline is I/O-bound, and every derived figure
    // must stay finite and ordered (this is the regime where a zero or
    // negative span would slip through without the fallback).
    const da::HardwareMapping map(toy_code());
    da::StreamConfig cfg;
    cfg.iterations = 1;
    cfg.io_parallelism = 1;  // io_cycles = N >> decode_cycles
    const auto rep = da::simulate_stream(map, cfg, 4);
    EXPECT_TRUE(std::isfinite(rep.steady_info_bps));
    EXPECT_GT(rep.steady_info_bps, 0.0);
    EXPECT_GT(rep.core_idle_cycles, 0);  // core waits on input
    for (std::size_t n = 1; n < rep.frames.size(); ++n)
        EXPECT_GE(rep.frames[n].decode_done, rep.frames[n - 1].decode_done);
}

// ----------------------------------------------------------------- energy

TEST(Energy, SplitsArePositiveAndSumUp) {
    const da::HardwareMapping map(toy_code());
    const auto rep = da::energy_model(map, dvbs2::quant::kQuant6, 30);
    EXPECT_GT(rep.memory_nj, 0.0);
    EXPECT_GT(rep.logic_nj, 0.0);
    EXPECT_GT(rep.network_nj, 0.0);
    EXPECT_GT(rep.leakage_nj, 0.0);
    EXPECT_NEAR(rep.total_nj(),
                rep.memory_nj + rep.logic_nj + rep.network_nj + rep.leakage_nj, 1e-12);
    EXPECT_NEAR(rep.nj_per_info_bit, rep.total_nj() / toy_code().k(), 1e-12);
}

TEST(Energy, ScalesLinearlyWithIterations) {
    const da::HardwareMapping map(toy_code());
    const auto e10 = da::energy_model(map, dvbs2::quant::kQuant6, 10);
    const auto e30 = da::energy_model(map, dvbs2::quant::kQuant6, 30);
    EXPECT_NEAR(e30.memory_nj, 3.0 * e10.memory_nj, 1e-9);
    EXPECT_NEAR(e30.logic_nj, 3.0 * e10.logic_nj, 1e-9);
}

TEST(Energy, NarrowerMessagesSaveMemoryEnergy) {
    const da::HardwareMapping map(toy_code());
    const auto e6 = da::energy_model(map, dvbs2::quant::kQuant6, 30);
    const auto e5 = da::energy_model(map, dvbs2::quant::kQuant5, 30);
    EXPECT_LT(e5.memory_nj, e6.memory_nj);
}

TEST(Energy, MemoryDominatesOnFullSizeCode) {
    // The paper's area story (RAM-heavy design) shows up in energy too.
    const dc::Dvbs2Code code(dc::standard_params(dc::CodeRate::R1_2));
    const da::HardwareMapping map(code);
    const auto rep = da::energy_model(map, dvbs2::quant::kQuant6, 30);
    EXPECT_GT(rep.memory_nj, rep.network_nj);
    EXPECT_GT(rep.memory_nj + rep.logic_nj, 0.8 * rep.total_nj());
}

// ------------------------------------------------------------------ trace

TEST(Trace, ObserverSeesMonotoneConvergence) {
    dvbs2::core::DecoderConfig cfg;
    cfg.max_iterations = 20;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    std::vector<dvbs2::core::IterationTrace> traces;
    dec->set_observer([&](const dvbs2::core::IterationTrace& t) { traces.push_back(t); });

    const dvbs2::enc::Encoder enc(toy_code());
    const BitVec info = dvbs2::enc::random_info_bits(toy_code().k(), 3);
    dvbs2::comm::AwgnModem modem(dvbs2::comm::Modulation::Bpsk, 1);
    const double sigma =
        dvbs2::comm::noise_sigma(6.0, toy_code().params().rate(), dvbs2::comm::Modulation::Bpsk);
    const auto llr = modem.transmit(enc.encode(info), sigma);
    const auto res = dec->decode(llr);

    ASSERT_EQ(static_cast<int>(traces.size()), res.iterations);
    for (std::size_t i = 0; i < traces.size(); ++i)
        EXPECT_EQ(traces[i].iteration, static_cast<int>(i) + 1);
    if (res.converged) {
        EXPECT_EQ(traces.back().unsatisfied_checks, 0);
        // Posterior magnitudes grow as the decoder converges.
        EXPECT_GT(traces.back().mean_abs_posterior, traces.front().mean_abs_posterior);
    }
}

TEST(Trace, FixedDecoderObserverWorksToo) {
    dvbs2::core::DecoderConfig cfg;
    cfg.max_iterations = 10;
    cfg.early_stop = false;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Fixed, cfg});
    int calls = 0;
    dec->set_observer([&](const dvbs2::core::IterationTrace&) { ++calls; });
    const dvbs2::enc::Encoder enc(toy_code());
    dvbs2::comm::AwgnModem modem(dvbs2::comm::Modulation::Bpsk, 2);
    const auto llr =
        modem.transmit_noiseless(enc.encode(dvbs2::enc::random_info_bits(toy_code().k(), 4)), 0.8);
    dec->decode(llr);
    EXPECT_EQ(calls, 10);
}

TEST(Trace, DisablingObserverStopsCalls) {
    dvbs2::core::DecoderConfig cfg;
    cfg.max_iterations = 5;
    const auto dec = dd::make_engine(toy_code(), {dd::Arithmetic::Float, cfg});
    int calls = 0;
    dec->set_observer([&](const dvbs2::core::IterationTrace&) { ++calls; });
    dec->set_observer({});
    const dvbs2::enc::Encoder enc(toy_code());
    dvbs2::comm::AwgnModem modem(dvbs2::comm::Modulation::Bpsk, 2);
    const auto llr =
        modem.transmit_noiseless(enc.encode(dvbs2::enc::random_info_bits(toy_code().k(), 4)), 0.8);
    dec->decode(llr);
    EXPECT_EQ(calls, 0);
}

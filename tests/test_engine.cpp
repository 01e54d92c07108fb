// Unified engine-layer suite (core/engine.hpp):
//
//   * factory — make_engine builds the three engines (float-scalar,
//     fixed-scalar, fixed-simd) from the spec's (arithmetic, backend) pair;
//   * central validation — every illegal (arithmetic, backend, schedule,
//     rule-parameter, quantizer) combination is rejected with a
//     diagnostic naming the offending option, through make_engine AND the
//     Monte-Carlo harness's comm::engine_factory (before any point runs);
//   * reuse ≡ fresh — a long-lived engine's workspace reuse never changes a
//     result vs a freshly built engine;
//   * cross-backend equivalence matrix — fixed-scalar vs the SIMD engine's
//     one-frame path (group-parallel or scalar chain, by schedule) and its
//     frame-per-lane batches, on the toy code for every schedule, on a
//     short and a long code for every entry point, and on all eleven
//     standard rates;
//   * Monte-Carlo tally equality — the harness's decode_batch path
//     reproduces a per-frame decode_into reference's tallies bit for bit at
//     any thread count;
//   * span-mismatch diagnostics — decode_into/decode_batch reject wrong-size
//     spans naming both actual sizes and the expected relation, identically
//     on the scalar and SIMD backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "comm/ber.hpp"
#include "core/engine.hpp"
#include "core/simd/batch_decoder.hpp"
#include "core/simd/simd_decoder.hpp"
#include "enc/encoder.hpp"
#include "fake_engine.hpp"
#include "quant/fixed.hpp"

namespace dc = dvbs2::code;
namespace dm = dvbs2::comm;
namespace dd = dvbs2::core;
namespace dq = dvbs2::quant;
using dvbs2::util::BitVec;

namespace {

const dc::Dvbs2Code& toy_code() {
    // p = 12: one full AVX2 block of 8 lanes plus a 4-lane tail per group.
    static const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    return code;
}

std::uint64_t splitmix64(std::uint64_t& s) {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Deterministic raw channel values spanning the quantizer rails.
std::vector<dq::QLLR> random_channel(const dc::Dvbs2Code& code, const dq::QuantSpec& spec,
                                     std::uint64_t seed) {
    std::vector<dq::QLLR> ch(static_cast<std::size_t>(code.n()));
    const std::uint64_t span = static_cast<std::uint64_t>(2 * spec.max_raw() + 1);
    for (auto& v : ch)
        v = static_cast<dq::QLLR>(static_cast<std::int64_t>(splitmix64(seed) % span) -
                                  spec.max_raw());
    return ch;
}

/// Noisy BPSK instance for decode-level comparisons.
std::vector<double> noisy_llrs(const dc::Dvbs2Code& code, double ebn0_db, std::uint64_t seed) {
    const dvbs2::enc::Encoder enc(code);
    const BitVec info = dvbs2::enc::random_info_bits(code.k(), seed);
    const BitVec cw = enc.encode(info);
    dm::AwgnModem modem(dm::Modulation::Bpsk, seed * 77 + 1);
    const double sigma = dm::noise_sigma(ebn0_db, code.params().rate(), dm::Modulation::Bpsk);
    return modem.transmit(cw, sigma);
}

void expect_same_result(const dd::DecodeResult& a, const dd::DecodeResult& b,
                        const std::string& context) {
    EXPECT_EQ(a.converged, b.converged) << context;
    EXPECT_EQ(a.iterations, b.iterations) << context;
    EXPECT_EQ(BitVec::hamming_distance(a.codeword, b.codeword), 0u) << context;
    EXPECT_EQ(BitVec::hamming_distance(a.info_bits, b.info_bits), 0u) << context;
}

/// EXPECT_THROW plus a substring check on the diagnostic, so the "names the
/// offending option" contract of validate_engine_spec is pinned, not just
/// the throw itself.
template <class Fn>
void expect_throws_mentioning(Fn&& fn, const std::vector<std::string>& needles,
                              const std::string& context) {
    try {
        fn();
        FAIL() << context << ": expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        for (const auto& needle : needles)
            EXPECT_NE(what.find(needle), std::string::npos)
                << context << ": diagnostic \"" << what << "\" does not mention \"" << needle
                << "\"";
    }
}

constexpr dd::Schedule kAllSchedules[] = {dd::Schedule::TwoPhase, dd::Schedule::ZigzagForward,
                                          dd::Schedule::ZigzagSegmented, dd::Schedule::ZigzagMap,
                                          dd::Schedule::Layered};

dd::EngineSpec spec_of(dd::Arithmetic arith, dd::DecoderBackend backend, dd::Schedule schedule,
                       int iters = 10) {
    dd::EngineSpec spec;
    spec.arith = arith;
    spec.config.backend = backend;
    spec.config.schedule = schedule;
    spec.config.max_iterations = iters;
    spec.quant = dq::kQuant6;
    return spec;
}

}  // namespace

// ---------------------------------------------------------------- registry

TEST(EngineRegistry, BuiltinsAreRegistered) {
    // make_engine builds exactly one engine per legal (arithmetic, backend)
    // pair; (float, simd) is rejected by validation (see
    // EngineValidation.FloatRejectsSimdBackend).
    const struct {
        dd::Arithmetic arith;
        dd::DecoderBackend backend;
        const char* name_prefix;
    } builtins[] = {
        {dd::Arithmetic::Float, dd::DecoderBackend::Scalar, "float-scalar"},
        {dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, "fixed-scalar"},
        {dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, "fixed-simd"},
    };
    for (const auto& b : builtins) {
        const auto eng =
            dd::make_engine(toy_code(), spec_of(b.arith, b.backend, dd::Schedule::TwoPhase));
        ASSERT_NE(eng, nullptr) << b.name_prefix;
        EXPECT_EQ(eng->arithmetic(), b.arith) << b.name_prefix;
        EXPECT_EQ(eng->config().backend, b.backend) << b.name_prefix;
        EXPECT_EQ(eng->backend_name().rfind(b.name_prefix, 0), 0u) << eng->backend_name();
    }
}

TEST(EngineRegistry, MakeEngineReportsSpec) {
    const struct {
        dd::EngineSpec spec;
        bool has_quant;
    } cases[] = {
        {spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar, dd::Schedule::ZigzagForward),
         false},
        {spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, dd::Schedule::Layered), true},
        {spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, dd::Schedule::ZigzagSegmented),
         true},
    };
    for (const auto& c : cases) {
        const auto eng = dd::make_engine(toy_code(), c.spec);
        EXPECT_EQ(eng->arithmetic(), c.spec.arith);
        EXPECT_EQ(eng->config().schedule, c.spec.config.schedule);
        EXPECT_EQ(eng->config().max_iterations, c.spec.config.max_iterations);
        EXPECT_FALSE(eng->backend_name().empty());
        if (c.has_quant) {
            ASSERT_NE(eng->quant_spec(), nullptr);
            EXPECT_EQ(*eng->quant_spec(), dq::kQuant6);
        } else {
            EXPECT_EQ(eng->quant_spec(), nullptr);
        }
        EXPECT_GE(eng->preferred_batch(), 1);
    }
}

// ------------------------------------------------------------- validation

TEST(EngineValidation, FloatRejectsSimdBackend) {
    expect_throws_mentioning(
        [] {
            dd::validate_engine_spec(spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Simd,
                                             dd::Schedule::TwoPhase));
        },
        {"fixed", "simd"}, "float+simd");
}

TEST(EngineValidation, RuleParametersCheckedForMatchingRuleOnly) {
    auto spec = spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar,
                        dd::Schedule::ZigzagForward);
    spec.config.rule = dd::CheckRule::NormalizedMinSum;
    spec.config.normalization = 0.0;
    expect_throws_mentioning([&] { dd::validate_engine_spec(spec); }, {"normalization"},
                             "normalization=0");
    spec.config.normalization = 1.5;
    expect_throws_mentioning([&] { dd::validate_engine_spec(spec); }, {"normalization"},
                             "normalization=1.5");

    spec.config.rule = dd::CheckRule::OffsetMinSum;
    spec.config.offset = -0.25;
    expect_throws_mentioning([&] { dd::validate_engine_spec(spec); }, {"offset"}, "offset<0");

    // An out-of-range parameter of a rule NOT in use is ignored.
    spec.config.rule = dd::CheckRule::Exact;
    spec.config.normalization = 7.0;
    spec.config.offset = -3.0;
    EXPECT_NO_THROW(dd::validate_engine_spec(spec));

    spec.config.max_iterations = -1;
    expect_throws_mentioning([&] { dd::validate_engine_spec(spec); }, {"max_iterations"},
                             "negative iteration cap");
}

TEST(EngineValidation, FixedEnginesRejectMalformedQuantSpec) {
    auto spec = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar,
                        dd::Schedule::ZigzagForward);
    spec.quant = dq::QuantSpec{1, 0};
    expect_throws_mentioning([&] { dd::validate_engine_spec(spec); }, {"total_bits"},
                             "1-bit quantizer");
    // The same malformed quantizer is fine for float arithmetic (unused).
    spec.arith = dd::Arithmetic::Float;
    EXPECT_NO_THROW(dd::validate_engine_spec(spec));
}

TEST(EngineValidation, EngineFactoryValidatesUpFront) {
    // comm::engine_factory validates when it is built, so an illegal spec
    // fails before any Monte-Carlo point runs, with make_engine's diagnostic.
    dd::EngineSpec spec;
    spec.arith = dd::Arithmetic::Float;
    spec.config.backend = dd::DecoderBackend::Simd;
    expect_throws_mentioning([&] { (void)dm::engine_factory(toy_code(), spec); }, {"fixed"},
                             "engine_factory float+simd");
    spec.arith = dd::Arithmetic::Fixed;
    spec.config.schedule = dd::Schedule::Layered;
    spec.config.rule = dd::CheckRule::NormalizedMinSum;
    spec.config.normalization = 1.5;
    expect_throws_mentioning([&] { (void)dm::engine_factory(toy_code(), spec); },
                             {"normalization"}, "engine_factory bad normalization");
}

// ----------------------------------------------------- reuse and batching

namespace {

void check_reuse_equals_fresh(const dd::EngineSpec& spec, const std::string& context) {
    const auto& code = toy_code();
    const auto reused = dd::make_engine(code, spec);
    dd::DecodeResult out;
    std::vector<dd::DecodeResult> pair(2);  // a two-frame batch (frame-per-lane on SIMD)
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto llr = noisy_llrs(code, 1.0 + 0.3 * static_cast<double>(seed % 3), seed);
        reused->decode_into(llr, out);
        const auto fresh = dd::make_engine(code, spec)->decode(llr);
        expect_same_result(out, fresh, context + ", seed " + std::to_string(seed));
        std::vector<double> twice(llr);
        twice.insert(twice.end(), llr.begin(), llr.end());
        reused->decode_batch(twice, pair);
        expect_same_result(pair[1], fresh, context + ", batch, seed " + std::to_string(seed));
    }
}

}  // namespace

TEST(EngineReuse, ReusedWorkspaceMatchesFreshEngine) {
    check_reuse_equals_fresh(
        spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar, dd::Schedule::ZigzagForward),
        "float-scalar");
    check_reuse_equals_fresh(
        spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, dd::Schedule::Layered),
        "fixed-scalar");
    check_reuse_equals_fresh(spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                     dd::Schedule::ZigzagSegmented),
                             "fixed-simd group");
    check_reuse_equals_fresh(spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                     dd::Schedule::ZigzagForward),
                             "fixed-simd serial chain");
}

namespace {

void check_batch_equals_single(const dd::EngineSpec& spec, int batch,
                               const std::string& context) {
    const auto& code = toy_code();
    const auto n = static_cast<std::size_t>(code.n());
    const auto eng = dd::make_engine(code, spec);

    std::vector<double> flat;
    std::vector<std::vector<double>> frames;
    for (int f = 0; f < batch; ++f) {
        frames.push_back(noisy_llrs(code, 0.8 + 0.4 * (f % 4), 100 + static_cast<std::uint64_t>(f)));
        flat.insert(flat.end(), frames.back().begin(), frames.back().end());
    }

    std::vector<dd::DecodeResult> batched(static_cast<std::size_t>(batch));
    eng->decode_batch(flat, batched);

    const auto single = dd::make_engine(code, spec);
    dd::DecodeResult ref;
    for (int f = 0; f < batch; ++f) {
        single->decode_into(frames[static_cast<std::size_t>(f)], ref);
        expect_same_result(batched[static_cast<std::size_t>(f)], ref,
                           context + ", frame " + std::to_string(f));
    }
    (void)n;
}

}  // namespace

TEST(EngineBatch, BatchEqualsPerFrameDecode) {
    // Float engine: base-class loop.
    check_batch_equals_single(
        spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar, dd::Schedule::ZigzagForward),
        3, "float-scalar");
    // SIMD frame-per-lane batches against the one-frame path (the scalar
    // chain on zigzag-forward, group-parallel on segmented):
    // preferred_batch()+3 frames forces full blocks plus a partial tail.
    const auto simd_spec = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                   dd::Schedule::ZigzagForward);
    const int lanes = dd::make_engine(toy_code(), simd_spec)->preferred_batch();
    ASSERT_GE(lanes, 1);
    check_batch_equals_single(simd_spec, lanes + 3, "fixed-simd zigzag-forward");
    check_batch_equals_single(spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                                      dd::Schedule::ZigzagSegmented),
                              lanes + 1, "fixed-simd segmented");
}

// --------------------------------------------- cross-backend equivalence

TEST(EngineEquivalence, AllSchedulesFramePerLaneMatchesScalar) {
    // A three-frame batch runs frame-per-lane on every schedule.
    const auto& code = toy_code();
    for (const auto schedule : kAllSchedules) {
        const auto scalar = dd::make_engine(
            code, spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, schedule));
        const auto lanes_eng = dd::make_engine(
            code, spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, schedule));
        std::vector<double> block;
        for (std::uint64_t seed = 11; seed <= 13; ++seed) {
            const auto llr = noisy_llrs(code, 1.2, seed);
            block.insert(block.end(), llr.begin(), llr.end());
        }
        std::vector<dd::DecodeResult> got(3);
        lanes_eng->decode_batch(block, got);
        const std::size_t n = block.size() / got.size();
        dd::DecodeResult a;
        for (std::size_t f = 0; f < got.size(); ++f) {
            scalar->decode_into(std::span<const double>(block).subspan(f * n, n), a);
            expect_same_result(a, got[f], std::string("frame-per-lane vs scalar, schedule ") +
                                              dd::to_string(schedule));
        }
    }
}

TEST(EngineEquivalence, GroupParallelMatchesScalar) {
    const auto& code = toy_code();
    for (const auto schedule : {dd::Schedule::TwoPhase, dd::Schedule::ZigzagSegmented}) {
        const auto scalar = dd::make_engine(
            code, spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, schedule));
        const auto group = dd::make_engine(
            code, spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd, schedule));
        dd::DecodeResult a, b;
        for (std::uint64_t seed = 21; seed <= 23; ++seed) {
            const auto llr = noisy_llrs(code, 1.2, seed);
            scalar->decode_into(llr, a);
            group->decode_into(llr, b);
            expect_same_result(a, b, std::string("group-parallel vs scalar, schedule ") +
                                         dd::to_string(schedule));
        }
    }
}

namespace {

void expect_same_stats(const dd::ConvergenceStats& a, const dd::ConvergenceStats& b,
                       const std::string& context) {
    EXPECT_EQ(a.histogram, b.histogram) << context;
    EXPECT_EQ(a.frames, b.frames) << context;
    EXPECT_EQ(a.converged_frames, b.converged_frames) << context;
    EXPECT_EQ(a.iteration_sum, b.iteration_sum) << context;
}

/// Every SIMD engine entry point against the fixed scalar engine on one
/// code and schedule: decode_into, decode_raw_into and a one-frame
/// decode_batch (the one-frame path), then a 2·lanes+1 frame batch (the
/// frame-per-lane stream with lane compaction), with the engines'
/// convergence telemetry compared after the whole sequence.
void check_entry_points_match_scalar(const dc::Dvbs2Code& code, dd::Schedule schedule,
                                     int iters, const std::string& context) {
    const auto scalar_spec =
        spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, schedule, iters);
    auto simd_spec = scalar_spec;
    simd_spec.config.backend = dd::DecoderBackend::Simd;
    const auto scalar = dd::make_engine(code, scalar_spec);
    const auto simd = dd::make_engine(code, simd_spec);
    const std::string ctx = context + " " + dd::to_string(schedule);

    const auto frames = static_cast<std::size_t>(2 * dd::SimdBatchFixedDecoder::lanes() + 1);
    const auto n = static_cast<std::size_t>(code.n());
    std::vector<double> block;
    for (std::size_t f = 0; f < frames; ++f) {
        const auto llr = noisy_llrs(code, (f % 2) ? 3.0 : 1.0, 500 + f);
        block.insert(block.end(), llr.begin(), llr.end());
    }
    const std::span<const double> first = std::span<const double>(block).subspan(0, n);

    dd::DecodeResult a, b;
    scalar->decode_into(first, a);
    simd->decode_into(first, b);
    expect_same_result(a, b, ctx + ", decode_into");

    const auto qllr = random_channel(code, dq::kQuant6, 77);
    scalar->decode_raw_into(qllr, a);
    simd->decode_raw_into(qllr, b);
    expect_same_result(a, b, ctx + ", decode_raw_into");

    std::vector<dd::DecodeResult> one(1);
    scalar->decode_into(std::span<const double>(block).subspan(n, n), a);
    simd->decode_batch(std::span<const double>(block).subspan(n, n), one);
    expect_same_result(a, one[0], ctx + ", one-frame decode_batch");

    std::vector<dd::DecodeResult> got(frames);
    simd->decode_batch(block, got);
    for (std::size_t f = 0; f < frames; ++f) {
        scalar->decode_into(std::span<const double>(block).subspan(f * n, n), a);
        expect_same_result(a, got[f], ctx + ", batch frame " + std::to_string(f));
    }
    expect_same_stats(simd->convergence_snapshot(), scalar->convergence_snapshot(),
                      ctx + ", convergence_snapshot");
}

}  // namespace

TEST(EngineEquivalence, OneFrameCallsMatchScalarOnEverySchedule) {
    const dc::Dvbs2Code short_code(
        dc::standard_params(dc::CodeRate::R1_2, dc::FrameSize::Short));
    const dc::Dvbs2Code long_code(dc::standard_params(dc::CodeRate::R3_4));
    for (const auto schedule : kAllSchedules) {
        check_entry_points_match_scalar(short_code, schedule, 10, "short 1/2");
        check_entry_points_match_scalar(long_code, schedule, 3, "long 3/4");
    }
}

TEST(EngineEquivalence, RawDecodeMatchesAcrossFixedBackends) {
    const auto& code = toy_code();
    const auto spec = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar,
                              dd::Schedule::ZigzagSegmented);
    const auto scalar = dd::make_engine(code, spec);
    auto simd_spec = spec;
    simd_spec.config.backend = dd::DecoderBackend::Simd;
    const auto simd = dd::make_engine(code, simd_spec);

    dd::DecodeResult a, b;
    for (std::uint64_t seed = 31; seed <= 34; ++seed) {
        const auto qllr = random_channel(code, dq::kQuant6, seed);
        scalar->decode_raw_into(qllr, a);
        simd->decode_raw_into(qllr, b);
        expect_same_result(a, b, "decode_raw_into, seed " + std::to_string(seed));
    }
}

TEST(EngineEquivalence, CrossBackendMatrixAllRates) {
    // One noisy frame per standard long-frame rate at a low iteration cap:
    // fixed-scalar, SIMD group-parallel (one-frame decode_into) and SIMD
    // frame-per-lane (a two-frame batch of the same frame) must agree bit
    // for bit; the float engine must agree with its own batched path.
    for (const auto rate : dc::all_rates()) {
        const dc::Dvbs2Code code(dc::standard_params(rate));
        const auto llr = noisy_llrs(code, 2.0, 7 + static_cast<std::uint64_t>(rate));

        const auto base = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar,
                                  dd::Schedule::ZigzagSegmented, 4);
        const auto scalar = dd::make_engine(code, base);
        auto simd_spec = base;
        simd_spec.config.backend = dd::DecoderBackend::Simd;
        const auto simd = dd::make_engine(code, simd_spec);

        dd::DecodeResult a, b;
        scalar->decode_into(llr, a);
        simd->decode_into(llr, b);
        std::vector<double> twice(llr);
        twice.insert(twice.end(), llr.begin(), llr.end());
        std::vector<dd::DecodeResult> lanes(2);
        simd->decode_batch(twice, lanes);
        const std::string ctx = std::string("rate ") + dc::to_string(rate);
        expect_same_result(a, b, ctx + ", group vs scalar");
        expect_same_result(a, lanes[0], ctx + ", frame-per-lane[0] vs scalar");
        expect_same_result(a, lanes[1], ctx + ", frame-per-lane[1] vs scalar");

        auto float_spec = base;
        float_spec.arith = dd::Arithmetic::Float;
        const auto fp = dd::make_engine(code, float_spec);
        dd::DecodeResult fa;
        fp->decode_into(llr, fa);
        std::vector<dd::DecodeResult> fb(2);
        fp->decode_batch(twice, fb);
        expect_same_result(fa, fb[0], ctx + ", float batch[0]");
        expect_same_result(fa, fb[1], ctx + ", float batch[1]");
    }
}

TEST(EngineEquivalence, RunAndDumpC2vMatchesAcrossBackends) {
    // The SIMD engine dumps its one-frame path's state on every schedule.
    const auto& code = toy_code();
    const auto qllr = random_channel(code, dq::kQuant6, 99);
    for (const auto schedule : kAllSchedules) {
        const auto scalar_spec =
            spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, schedule);
        auto simd_spec = scalar_spec;
        simd_spec.config.backend = dd::DecoderBackend::Simd;
        EXPECT_EQ(dd::make_engine(code, simd_spec)->run_and_dump_c2v(qllr, 3),
                  dd::make_engine(code, scalar_spec)->run_and_dump_c2v(qllr, 3))
            << dd::to_string(schedule);
    }

    auto float_spec = spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar,
                              dd::Schedule::ZigzagSegmented);
    float_spec.arith = dd::Arithmetic::Float;
    EXPECT_THROW((void)dd::make_engine(code, float_spec)->run_and_dump_c2v(qllr, 3),
                 std::runtime_error);
}

// ----------------------------------------------------- observers and hooks

TEST(EngineObserver, ObserverDoesNotChangeResults) {
    const auto& code = toy_code();
    for (const auto& spec :
         {spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar, dd::Schedule::ZigzagForward),
          spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar, dd::Schedule::Layered),
          spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                  dd::Schedule::ZigzagSegmented)}) {
        const auto llr = noisy_llrs(code, 1.0, 5);
        const auto plain = dd::make_engine(code, spec)->decode(llr);
        const auto traced_eng = dd::make_engine(code, spec);
        int traces = 0;
        traced_eng->set_observer([&](const dd::IterationTrace& t) {
            EXPECT_EQ(t.iteration, traces + 1);
            ++traces;
        });
        const auto traced = traced_eng->decode(llr);
        expect_same_result(plain, traced, std::string("observer, ") + traced_eng->backend_name());
        EXPECT_EQ(traces, traced.iterations);
    }
}

TEST(EngineObserver, SimdTracesMatchScalarOnEverySchedule) {
    // The SIMD engine traces on every schedule: decode_into and a batch
    // (which falls back to the one-frame path while an observer is set) must
    // deliver exactly the fixed scalar engine's traces, frame by frame.
    const auto& code = toy_code();
    std::vector<double> block;
    for (std::uint64_t seed = 41; seed <= 43; ++seed) {
        const auto llr = noisy_llrs(code, 1.5, seed);
        block.insert(block.end(), llr.begin(), llr.end());
    }
    const std::size_t n = static_cast<std::size_t>(code.n());
    for (const auto schedule : kAllSchedules) {
        const auto run = [&](dd::DecoderBackend backend) {
            const auto eng =
                dd::make_engine(code, spec_of(dd::Arithmetic::Fixed, backend, schedule));
            std::vector<dd::IterationTrace> traces;
            eng->set_observer([&](const dd::IterationTrace& t) { traces.push_back(t); });
            dd::DecodeResult one;
            eng->decode_into(std::span<const double>(block).subspan(0, n), one);
            std::vector<dd::DecodeResult> batch(3);
            eng->decode_batch(block, batch);
            return traces;
        };
        const auto want = run(dd::DecoderBackend::Scalar);
        const auto got = run(dd::DecoderBackend::Simd);
        const std::string ctx = dd::to_string(schedule);
        ASSERT_FALSE(want.empty()) << ctx;
        ASSERT_EQ(got.size(), want.size()) << ctx;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].iteration, want[i].iteration) << ctx << " trace " << i;
            EXPECT_EQ(got[i].unsatisfied_checks, want[i].unsatisfied_checks)
                << ctx << " trace " << i;
            EXPECT_DOUBLE_EQ(got[i].mean_abs_posterior, want[i].mean_abs_posterior)
                << ctx << " trace " << i;
        }
    }
}

TEST(EngineHooks, UnsupportedHooksThrow) {
    const auto& code = toy_code();
    const auto fp = dd::make_engine(
        code, spec_of(dd::Arithmetic::Float, dd::DecoderBackend::Scalar,
                      dd::Schedule::ZigzagForward));
    dd::DecodeResult out;
    const auto qllr = random_channel(code, dq::kQuant6, 1);
    EXPECT_THROW(fp->decode_raw_into(qllr, out), std::runtime_error);

    const auto simd = dd::make_engine(
        code, spec_of(dd::Arithmetic::Fixed, dd::DecoderBackend::Simd,
                      dd::Schedule::ZigzagSegmented));
    EXPECT_THROW(simd->set_cn_order({0, 1, 2}), std::runtime_error);
}

// ------------------------------------------------- Monte-Carlo equivalence

TEST(EngineMonteCarlo, EngineTalliesMatchPerFrameReference) {
    const dc::Dvbs2Code code(dc::standard_params(dc::CodeRate::R1_2, dc::FrameSize::Short));
    dd::DecoderConfig dcfg;
    dcfg.schedule = dd::Schedule::ZigzagSegmented;
    dcfg.max_iterations = 8;
    dm::SimConfig sim;
    sim.seed = 11;
    sim.threads = 1;
    sim.limits.max_frames = 12;
    sim.limits.min_frames = 12;
    sim.limits.target_bit_errors = ~0ULL;
    sim.limits.target_frame_errors = ~0ULL;
    const double ebn0 = 1.0;

    dd::EngineSpec spec;
    spec.arith = dd::Arithmetic::Fixed;
    spec.config = dcfg;
    spec.quant = dq::kQuant6;

    // Reference: every frame decoded on its own by decode_into of a
    // fixed-scalar engine, behind a one-frame-per-call test engine.
    const dm::EngineFactory per_frame = [&](unsigned) {
        std::shared_ptr<dd::Engine> inner = dd::make_engine(code, spec);
        return std::make_unique<dvbs2::test::FnEngine>(
            [inner](std::span<const double> llr, dd::DecodeResult& out) {
                inner->decode_into(llr, out);
            });
    };
    const auto ref = dm::simulate_point(code, per_frame, ebn0, sim);
    ASSERT_EQ(ref.frames, 12u);

    const auto check = [&](unsigned threads, const std::string& context) {
        dm::SimConfig cfg = sim;
        cfg.threads = threads;
        const auto pt = dm::simulate_point(code, dm::engine_factory(code, spec), ebn0, cfg);
        EXPECT_EQ(pt.frames, ref.frames) << context;
        EXPECT_EQ(pt.bit_errors, ref.bit_errors) << context;
        EXPECT_EQ(pt.frame_errors, ref.frame_errors) << context;
        EXPECT_EQ(pt.undetected_frame_errors, ref.undetected_frame_errors) << context;
        EXPECT_EQ(pt.avg_iterations, ref.avg_iterations) << context;
        EXPECT_EQ(pt.convergence.histogram, ref.convergence.histogram) << context;
    };
    check(1, "fixed-scalar x1");
    check(3, "fixed-scalar x3");
    spec.config.backend = dd::DecoderBackend::Simd;
    check(2, "fixed-simd x2");
}

TEST(EngineMonteCarlo, SweepEngineMatchesPointCalls) {
    const auto& code = toy_code();
    dd::EngineSpec spec;
    spec.arith = dd::Arithmetic::Fixed;
    spec.config.backend = dd::DecoderBackend::Simd;
    spec.config.max_iterations = 10;
    dm::SimConfig sim;
    sim.seed = 4;
    sim.threads = 2;
    sim.limits.max_frames = 10;
    sim.limits.min_frames = 10;
    const std::vector<double> points = {0.5, 1.5};
    const auto factory = dm::engine_factory(code, spec);
    const auto sweep = dm::simulate_sweep(code, factory, points, sim);
    ASSERT_EQ(sweep.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto pt = dm::simulate_point(code, factory, points[i], sim);
        EXPECT_EQ(sweep[i].frames, pt.frames);
        EXPECT_EQ(sweep[i].bit_errors, pt.bit_errors);
        EXPECT_EQ(sweep[i].frame_errors, pt.frame_errors);
        EXPECT_EQ(sweep[i].avg_iterations, pt.avg_iterations);
    }
}

// ------------------------------------------- early-stop agreement property

// Property: for every engine and schedule and any channel, when an
// early-stopping decode reports convergence, the full-budget decode of the
// same frame yields the same hard-decision codeword. (Once the syndrome is
// satisfied every variable's sign is fixed by a valid codeword; further
// iterations only sharpen magnitudes.) Every (arithmetic, backend) x
// schedule pair is legal, so a spec that stops building fails the test.
TEST(EngineProperties, EarlyStopConvergedMatchesFullBudgetCodeword) {
    const auto& code = toy_code();
    const double snrs[] = {1.0, 2.5, 4.0};
    const struct {
        dd::Arithmetic arith;
        dd::DecoderBackend backend;
    } engines[] = {
        {dd::Arithmetic::Float, dd::DecoderBackend::Scalar},
        {dd::Arithmetic::Fixed, dd::DecoderBackend::Scalar},
        {dd::Arithmetic::Fixed, dd::DecoderBackend::Simd},
    };
    for (const auto& key : engines) {
        for (const dd::Schedule schedule :
             {dd::Schedule::TwoPhase, dd::Schedule::ZigzagForward, dd::Schedule::ZigzagSegmented,
              dd::Schedule::ZigzagMap, dd::Schedule::Layered}) {
            auto es_spec = spec_of(key.arith, key.backend, schedule);
            es_spec.config.early_stop = true;
            auto full_spec = es_spec;
            full_spec.config.early_stop = false;
            const auto es = dd::make_engine(code, es_spec);
            const auto full = dd::make_engine(code, full_spec);
            const std::string which =
                std::string(dd::to_string(key.arith)) + "+" + dd::to_string(key.backend) + "+" +
                dd::to_string(schedule);
            int converged_seen = 0;
            dd::DecodeResult a, b;
            for (std::uint64_t s = 0; s < 6; ++s) {
                const auto llr = noisy_llrs(code, snrs[s % 3], 7000 + s);
                es->decode_into(llr, a);
                full->decode_into(llr, b);
                if (!a.converged) continue;
                ++converged_seen;
                EXPECT_EQ(BitVec::hamming_distance(a.codeword, b.codeword), 0u)
                    << which << " seed " << 7000 + s;
                EXPECT_EQ(BitVec::hamming_distance(a.info_bits, b.info_bits), 0u)
                    << which << " seed " << 7000 + s;
                // The early stop can only save iterations, never add them.
                EXPECT_LE(a.iterations, b.iterations) << which;
            }
            // The property must not pass vacuously: at these SNRs the toy
            // code converges for at least the easy frames on every engine.
            EXPECT_GE(converged_seen, 2) << which;
        }
    }
}

// --------------------- span-mismatch diagnostics (all backends) ----------

namespace {

/// Runs `f`, expecting a std::runtime_error; returns its message.
std::string batch_error(const std::function<void()>& f) {
    try {
        f();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

std::vector<dd::EngineSpec> validating_specs() {
    dd::EngineSpec scalar;  // fixed scalar
    dd::EngineSpec simd;
    simd.config.backend = dd::DecoderBackend::Simd;
    dd::EngineSpec flt;
    flt.arith = dd::Arithmetic::Float;
    return {scalar, simd, flt};
}

}  // namespace

TEST(EngineBatchValidation, EveryBackendDeclaresFrameLength) {
    const auto& code = toy_code();
    for (const auto& spec : validating_specs()) {
        const auto eng = dd::make_engine(code, spec);
        EXPECT_EQ(eng->frame_length(), static_cast<std::size_t>(code.n()))
            << eng->backend_name();
    }
}

TEST(EngineBatchValidation, MismatchNamesBothSizesAndExpectedRelation) {
    // Regression: a mismatched decode_batch call used to fail deep inside a
    // backend (or silently decode garbage lanes on the SIMD path) without
    // naming the sizes involved. The public entry point must reject it with
    // a diagnostic carrying llrs.size(), out.size(), N and the product —
    // identically for the scalar AND SIMD engines.
    const auto& code = toy_code();
    const auto n = static_cast<std::size_t>(code.n());
    for (const auto& spec : validating_specs()) {
        const auto eng = dd::make_engine(code, spec);
        const std::string name = eng->backend_name();
        std::vector<double> llrs(2 * n - 1, 0.5);  // one value short of 2 frames
        std::vector<dd::DecodeResult> out(2);
        const std::string msg = batch_error([&] {
            eng->decode_batch(llrs, out);
        });
        ASSERT_FALSE(msg.empty()) << name << ": mismatched batch did not throw";
        EXPECT_NE(msg.find("decode_batch"), std::string::npos) << name << ": " << msg;
        EXPECT_NE(msg.find("llrs.size()=" + std::to_string(2 * n - 1)), std::string::npos)
            << name << ": " << msg;
        EXPECT_NE(msg.find("out.size()=2"), std::string::npos) << name << ": " << msg;
        EXPECT_NE(msg.find("N=" + std::to_string(n)), std::string::npos) << name << ": " << msg;
        EXPECT_NE(msg.find("= " + std::to_string(2 * n)), std::string::npos)
            << name << ": expected product missing: " << msg;
    }
}

TEST(EngineBatchValidation, ZeroResultSlotsNamesBothSizes) {
    const auto& code = toy_code();
    const auto n = static_cast<std::size_t>(code.n());
    for (const auto& spec : validating_specs()) {
        const auto eng = dd::make_engine(code, spec);
        std::vector<double> llrs(n, 0.5);
        const std::string msg = batch_error([&] {
            eng->decode_batch(llrs, std::span<dd::DecodeResult>{});
        });
        ASSERT_FALSE(msg.empty()) << eng->backend_name();
        EXPECT_NE(msg.find("out.size()=0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("llrs.size()=" + std::to_string(n)), std::string::npos) << msg;
    }
}

TEST(EngineBatchValidation, SingleFrameSpanMismatchNamesN) {
    const auto& code = toy_code();
    const auto n = static_cast<std::size_t>(code.n());
    for (const auto& spec : validating_specs()) {
        const auto eng = dd::make_engine(code, spec);
        std::vector<double> llr(n + 3, 0.5);
        dd::DecodeResult out;
        const std::string msg = batch_error([&] { eng->decode_into(llr, out); });
        ASSERT_FALSE(msg.empty()) << eng->backend_name();
        EXPECT_NE(msg.find("decode_into"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(n + 3)), std::string::npos) << msg;
        EXPECT_NE(msg.find("N=" + std::to_string(n)), std::string::npos) << msg;
    }
}

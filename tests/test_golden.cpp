// Golden regression tests: the synthetic code tables are part of this
// library's reproducibility contract — experiments cite "the rate-R code
// with seed S". These tests pin an FNV-1a fingerprint of every standard
// table so that any change to the generator (intentional or not) is caught
// and forces a conscious fingerprint update alongside a re-run of
// EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "code/params.hpp"
#include "code/tables.hpp"
#include "code/tanner.hpp"
#include "comm/ber.hpp"
#include "core/engine.hpp"

namespace dc = dvbs2::code;

namespace {

std::uint64_t fingerprint(const dc::IraTables& tables) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    };
    mix(tables.rows.size());
    for (const auto& row : tables.rows) {
        mix(row.size());
        for (auto x : row) mix(x);
    }
    return h;
}

}  // namespace

TEST(Golden, FingerprintIsStableAcrossCalls) {
    const auto p = dc::standard_params(dc::CodeRate::R1_2);
    EXPECT_EQ(fingerprint(dc::generate_tables(p)), fingerprint(dc::generate_tables(p)));
}

TEST(Golden, FingerprintDependsOnSeed) {
    auto p = dc::standard_params(dc::CodeRate::R1_2);
    const auto f1 = fingerprint(dc::generate_tables(p));
    p.seed ^= 1;
    EXPECT_NE(fingerprint(dc::generate_tables(p)), f1);
}

TEST(Golden, AllStandardLongFrameTablesArePinned) {
    // Pinned values: regenerate with
    //   for each rate: print fingerprint(generate_tables(standard_params(r)))
    // and update both this table and EXPERIMENTS.md when the generator
    // changes on purpose.
    struct Pin {
        dc::CodeRate rate;
        std::uint64_t fp;
    };
    const Pin pins[] = {
#include "golden_pins.inc"
    };
    for (const auto& pin : pins) {
        const auto p = dc::standard_params(pin.rate);
        EXPECT_EQ(fingerprint(dc::generate_tables(p)), pin.fp) << dc::to_string(pin.rate);
    }
}

// ---------------------------------------------------------------- BER pins
//
// Serial simulate_point counts for a fixed (seed, toy rate, Eb/N0) tuple.
// These pin the *entire* Monte-Carlo chain — point/frame stream derivation
// (counter-based, see comm/ber.hpp), data generation, AWGN sampling, the BP
// decoder and the batch-wise early stop — so any refactor of the RNG scheme
// or the engine that silently changes deterministic results is caught here,
// exactly like the table fingerprints above. The thread-count-invariance
// tests (test_parallel_ber.cpp) extend this guarantee to every thread count.
TEST(Golden, SerialBerCountsArePinned) {
    namespace dm = dvbs2::comm;
    const dc::Dvbs2Code code(dc::toy_params(12, 7, 2, 6, 3));
    dvbs2::core::EngineSpec spec;
    spec.arith = dvbs2::core::Arithmetic::Float;
    spec.config.max_iterations = 20;

    dm::SimConfig cfg;
    cfg.threads = 1;
    cfg.seed = 2024;
    cfg.limits.max_frames = 96;
    cfg.limits.min_frames = 16;
    cfg.limits.target_bit_errors = 40;
    cfg.limits.target_frame_errors = 6;

    struct BerPin {
        double ebn0_db;
        std::uint64_t frames, bit_errors, frame_errors, undetected, iter_sum;
    };
    const BerPin pins[] = {
#include "golden_ber_pins.inc"
    };
    for (const auto& pin : pins) {
        const auto pt = dm::simulate_point(code, dm::engine_factory(code, spec), pin.ebn0_db, cfg);
        const auto iter_sum =
            static_cast<std::uint64_t>(std::llround(pt.avg_iterations * pt.frames));
        EXPECT_EQ(pt.frames, pin.frames) << pin.ebn0_db << " dB";
        EXPECT_EQ(pt.bit_errors, pin.bit_errors) << pin.ebn0_db << " dB";
        EXPECT_EQ(pt.frame_errors, pin.frame_errors) << pin.ebn0_db << " dB";
        EXPECT_EQ(pt.undetected_frame_errors, pin.undetected) << pin.ebn0_db << " dB";
        EXPECT_EQ(iter_sum, pin.iter_sum) << pin.ebn0_db << " dB";
        if (HasFailure()) {
            // Paste-ready line for golden_ber_pins.inc after an intended change.
            ADD_FAILURE() << "actual pin: {" << pin.ebn0_db << ", " << pt.frames << "u, "
                          << pt.bit_errors << "u, " << pt.frame_errors << "u, "
                          << pt.undetected_frame_errors << "u, " << iter_sum << "u},";
        }
    }
}

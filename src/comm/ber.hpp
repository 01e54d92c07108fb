// Monte-Carlo BER/FER measurement harness.
//
// Runs the full chain encode → modulate → AWGN → decode for a sweep of
// Eb/N0 points, with early stopping once enough error events are observed.
// There is one decode path: every worker owns a core::Engine (built by an
// EngineFactory, usually engine_factory(code, spec)) and decodes its frames
// through Engine::decode_batch in blocks of Engine::preferred_batch()
// frames, so the SIMD frame-per-lane engine sees whole batches. All decode
// workspaces are worker-owned and reused: the steady-state decode path
// performs no heap allocation.
//
// Determinism contract: every random quantity is a pure function of logical
// coordinates, never of evaluation order, so tallies are bit-identical for
// every thread count, including 1. Three mechanisms make that hold:
//
//   1. Counter-based RNG streams. Point p of a sweep draws from streams
//      seeded by point_stream_seed(cfg.seed, ebn0_db) — a function of the
//      Eb/N0 *value*, so permuting the sweep vector permutes the results.
//      Frame f of a point draws its data bits and its noise from two streams
//      seeded by frame_data_seed / frame_noise_seed(point_seed, f).
//   2. Batch-claimed scheduling. Frames are grouped into batches of
//      cfg.batch_frames consecutive frame indices; workers claim batches
//      from an atomic cursor. Which worker gets which batch varies run to
//      run, but the *content* of a batch does not.
//   3. Deterministic reduction. A single frontier merges per-batch tallies
//      in batch-index order and evaluates the SimLimits early-stop predicate
//      on batch prefixes only. The result is the tally over the shortest
//      stopping prefix (or all frames up to max_frames); batches a worker
//      had already started beyond it are discarded.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "code/tanner.hpp"
#include "comm/modem.hpp"
#include "core/engine.hpp"
#include "core/types.hpp"
#include "util/bitvec.hpp"

namespace dvbs2::comm {

/// Stopping/size limits for one Eb/N0 point.
struct SimLimits {
    std::uint64_t max_frames = 200;    ///< hard cap on simulated frames
    std::uint64_t min_frames = 8;      ///< always simulate at least this many
    std::uint64_t target_bit_errors = 200;   ///< stop early once reached
    std::uint64_t target_frame_errors = 20;  ///< stop early once reached
};

/// Result of one Eb/N0 point.
struct BerPoint {
    double ebn0_db = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t bit_errors = 0;
    std::uint64_t frame_errors = 0;
    /// Frames where the decoder *claimed* convergence but delivered wrong
    /// information bits (it converged to a different codeword). These are
    /// the dangerous events an outer BCH code must catch; with girth-6 IRA
    /// codes at N = 64800 they are rare.
    std::uint64_t undetected_frame_errors = 0;
    double avg_iterations = 0.0;
    /// Iteration-count histogram and convergence counts over the measured
    /// frames (the same frames the error counts cover). Deterministic for
    /// any thread count — the per-frame iteration counts are pure functions
    /// of frame indices and the batch-prefix stop rule, like every other
    /// field. convergence.mean_iterations() == avg_iterations.
    core::ConvergenceStats convergence;

    double ber(std::uint64_t info_bits_per_frame) const {
        const auto total = frames * info_bits_per_frame;
        return total ? static_cast<double>(bit_errors) / static_cast<double>(total) : 0.0;
    }
    double fer() const {
        return frames ? static_cast<double>(frame_errors) / static_cast<double>(frames) : 0.0;
    }
};

/// Progress snapshot of one Eb/N0 point, emitted at batch-merge boundaries
/// and once more (with `finished = true`) after the point completes. The
/// callback runs under the harness's reduction lock: keep it cheap and do
/// not re-enter the harness from it.
struct SimProgress {
    double ebn0_db = 0.0;
    std::uint64_t frames = 0;      ///< frames merged into the result so far
    std::uint64_t frames_cap = 0;  ///< cfg.limits.max_frames
    std::uint64_t bit_errors = 0;
    std::uint64_t frame_errors = 0;
    double elapsed_s = 0.0;
    double frames_per_s = 0.0;
    unsigned threads = 1;
    /// Σ worker busy time / (threads · wall time); only meaningful on the
    /// final (finished) event. 1.0 = every worker was busy the whole run.
    double worker_utilization = 0.0;
    bool finished = false;
};
using ProgressFn = std::function<void(const SimProgress&)>;

/// Simulation configuration shared by all points of a sweep.
struct SimConfig {
    Modulation modulation = Modulation::Bpsk;
    std::uint64_t seed = 1;
    bool random_data = true;  ///< false → all-zero codeword (decoder-symmetric)
    SimLimits limits;
    /// Worker threads: 0 = auto (DVBS2_THREADS env var, else
    /// hardware_concurrency). Tallies are identical for every value (see
    /// the header comment).
    unsigned threads = 0;
    /// Frames per scheduling batch; early stopping is decided on batch
    /// prefixes, so this is part of the deterministic result, not a tuning
    /// knob to change freely once results are pinned.
    std::uint64_t batch_frames = 8;
    ProgressFn progress;  ///< optional observability hook (may be empty)
};

/// Seed of the independent RNG stream of one (sweep-seed, Eb/N0) point.
/// Hashes the IEEE-754 bit pattern of `ebn0_db` (with −0.0 normalized to
/// +0.0), so any two distinct Eb/N0 values get distinct streams — no
/// quantization collisions — and the stream does not depend on the point's
/// position in the sweep vector.
std::uint64_t point_stream_seed(std::uint64_t seed, double ebn0_db);

/// Per-frame stream seeds (counter-based: pure functions of their inputs).
std::uint64_t frame_data_seed(std::uint64_t point_seed, std::uint64_t frame);
std::uint64_t frame_noise_seed(std::uint64_t point_seed, std::uint64_t frame);

/// Builds the engine used by one worker. Called once per worker (index in
/// [0, threads)) and point before any frame is simulated; each engine is
/// only ever driven from its own worker. Decoding must be a deterministic
/// function of the LLRs.
using EngineFactory = std::function<std::unique_ptr<core::Engine>(unsigned worker)>;

/// The factory of engines built from `spec` by core::make_engine. Runs
/// core::validate_engine_spec up front, so an illegal spec fails here, before
/// any point runs. `code` must outlive the factory.
EngineFactory engine_factory(const code::Dvbs2Code& code, const core::EngineSpec& spec);

/// Simulates one Eb/N0 point on `cfg.threads` workers (0 = auto).
BerPoint simulate_point(const code::Dvbs2Code& code, const EngineFactory& factory,
                        double ebn0_db, const SimConfig& cfg);

/// Sweep over `ebn0_db` with one shared worker pool. Points run one after
/// another with all workers on the current point, so results match
/// point-by-point calls exactly (streams are per point).
std::vector<BerPoint> simulate_sweep(const code::Dvbs2Code& code, const EngineFactory& factory,
                                     const std::vector<double>& ebn0_db, const SimConfig& cfg);

/// Finds the smallest Eb/N0 (dB, within `step_db`) at which the measured BER
/// drops below `target_ber`, scanning upward from `start_db`. Scan points are
/// start_db + i·step_db (index-stepped, no floating-point accumulation
/// drift); the last point tested is the largest one ≤ max_db. Returns
/// std::nullopt when no scanned point meets the target — distinguishable
/// from a threshold exactly at max_db. Used for threshold/gap measurements
/// (E4, E7, E8).
std::optional<double> find_threshold_db(const code::Dvbs2Code& code,
                                        const EngineFactory& factory, double target_ber,
                                        double start_db, double step_db, const SimConfig& cfg,
                                        double max_db = 12.0);

}  // namespace dvbs2::comm

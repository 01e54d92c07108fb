#include "comm/ber.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <mutex>
#include <vector>

#include "enc/encoder.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace dvbs2::comm {

namespace {

// Role lanes of the counter-based stream scheme (see util::derive_stream).
// The values are arbitrary but frozen: they are part of the reproducibility
// contract pinned by the golden BER tests.
constexpr std::uint64_t kLanePoint = 0;
constexpr std::uint64_t kLaneData = 1;
constexpr std::uint64_t kLaneNoise = 2;

}  // namespace

std::uint64_t point_stream_seed(std::uint64_t seed, double ebn0_db) {
    // Collapse -0.0 onto +0.0 so equal Eb/N0 values share a stream.
    const double norm = ebn0_db == 0.0 ? 0.0 : ebn0_db;
    return util::derive_stream(seed, std::bit_cast<std::uint64_t>(norm), kLanePoint);
}

std::uint64_t frame_data_seed(std::uint64_t point_seed, std::uint64_t frame) {
    return util::derive_stream(point_seed, frame, kLaneData);
}

std::uint64_t frame_noise_seed(std::uint64_t point_seed, std::uint64_t frame) {
    return util::derive_stream(point_seed, frame, kLaneNoise);
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact per-batch counts; merged in batch-index order by the frontier.
struct Tally {
    std::uint64_t frames = 0;
    std::uint64_t bit_errors = 0;
    std::uint64_t frame_errors = 0;
    std::uint64_t undetected = 0;
    std::uint64_t iter_sum = 0;
    core::ConvergenceStats conv;

    void merge(const Tally& o) {
        frames += o.frames;
        bit_errors += o.bit_errors;
        frame_errors += o.frame_errors;
        undetected += o.undetected;
        iter_sum += o.iter_sum;
        conv.merge(o.conv);
    }
};

bool stop_satisfied(const Tally& t, const SimLimits& lim) {
    return t.frames >= lim.min_frames && t.bit_errors >= lim.target_bit_errors &&
           t.frame_errors >= lim.target_frame_errors;
}

/// Folds one decoded frame into the tally.
void tally_frame(Tally& t, const util::BitVec& tx_info, const core::DecodeResult& r, int k) {
    DVBS2_REQUIRE(r.info_bits.size() == static_cast<std::size_t>(k),
                  "decoder returned wrong info length");
    const std::size_t errs = util::BitVec::hamming_distance(r.info_bits, tx_info);
    t.bit_errors += errs;
    if (errs != 0) {
        ++t.frame_errors;
        if (r.converged) ++t.undetected;
    }
    t.iter_sum += static_cast<std::uint64_t>(r.iterations > 0 ? r.iterations : 0);
    t.conv.record(r.iterations, r.converged);
    ++t.frames;
}

/// Draws frame f's information bits from its counter-derived stream.
void draw_info(util::BitVec& info, const SimConfig& cfg, std::uint64_t point_seed,
               std::uint64_t f, int k) {
    util::Xoshiro256pp data_rng(frame_data_seed(point_seed, f));
    info.clear();
    if (cfg.random_data) {
        for (int v = 0; v < k; ++v)
            if (data_rng() & 1u) info.set(static_cast<std::size_t>(v), true);
    }
}

/// One worker's decode state: its engine, an encoder, and one block of
/// preferred_batch() frames' LLRs, transmitted info words and reused
/// DecodeResults. Built once per worker and point; the decode call itself
/// allocates nothing in steady state.
struct WorkerState {
    WorkerState(const code::Dvbs2Code& code, std::unique_ptr<core::Engine> e)
        : engine(std::move(e)), encoder(code) {
        DVBS2_REQUIRE(engine != nullptr, "engine factory returned no engine");
        const auto block = static_cast<std::size_t>(std::max(engine->preferred_batch(), 1));
        llrs.resize(block * static_cast<std::size_t>(code.params().n));
        results.resize(block);
        infos.assign(block, util::BitVec(static_cast<std::size_t>(code.params().k)));
    }

    std::unique_ptr<core::Engine> engine;
    enc::Encoder encoder;
    std::vector<double> llrs;            // frame-major block, B * N
    std::vector<core::DecodeResult> results;
    std::vector<util::BitVec> infos;     // transmitted info words of the block
};

/// Simulates frames [lo, hi) of one point through Engine::decode_batch in
/// blocks of the engine's preferred batch size. Every frame owns its RNG
/// streams, so the tally is a pure function of (point_seed, frame index) —
/// the core of the thread-count-invariance guarantee.
Tally run_frames(const code::Dvbs2Code& code, WorkerState& w, const SimConfig& cfg,
                 double sigma, std::uint64_t point_seed, std::uint64_t lo, std::uint64_t hi) {
    const auto& cp = code.params();
    const auto n = static_cast<std::size_t>(cp.n);
    const auto cap = static_cast<std::uint64_t>(w.results.size());
    Tally t;
    for (std::uint64_t f0 = lo; f0 < hi; f0 += cap) {
        const auto cnt = static_cast<std::size_t>(std::min(cap, hi - f0));
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::uint64_t f = f0 + static_cast<std::uint64_t>(i);
            draw_info(w.infos[i], cfg, point_seed, f, cp.k);
            AwgnModem modem(cfg.modulation, frame_noise_seed(point_seed, f));
            const util::BitVec cw = w.encoder.encode(w.infos[i]);
            const std::vector<double> llr = modem.transmit(cw, sigma);
            std::copy(llr.begin(), llr.end(), w.llrs.begin() + static_cast<std::ptrdiff_t>(i * n));
        }
        w.engine->decode_batch(std::span<const double>(w.llrs.data(), cnt * n),
                               std::span<core::DecodeResult>(w.results.data(), cnt));
        for (std::size_t i = 0; i < cnt; ++i) tally_frame(t, w.infos[i], w.results[i], cp.k);
    }
    return t;
}

/// Reduction state shared by the workers of one point; all fields are
/// guarded by `mu` except the two atomics.
struct Reduction {
    explicit Reduction(std::uint64_t num_batches)
        : tallies(num_batches), done(num_batches, 0), stop_at(num_batches) {}

    std::vector<Tally> tallies;
    std::vector<char> done;
    std::atomic<std::uint64_t> next_batch{0};
    std::atomic<std::uint64_t> stop_at;  ///< first batch index NOT in the result
    std::mutex mu;
    std::uint64_t frontier = 0;  ///< next batch index to merge into `prefix`
    Tally prefix;
    bool stopped = false;
};

/// simulate_point on `pool` when non-null (sweeps and scans spawn their
/// threads once, not per point); otherwise on a pool of its own when more
/// than one worker is requested.
BerPoint run_point(const code::Dvbs2Code& code, const EngineFactory& factory, double ebn0_db,
                   const SimConfig& cfg, util::ThreadPool* pool) {
    const double sigma = noise_sigma(ebn0_db, code.params().rate(), cfg.modulation);
    const std::uint64_t point_seed = point_stream_seed(cfg.seed, ebn0_db);
    const unsigned threads = util::resolve_thread_count(cfg.threads);
    const std::uint64_t batch = cfg.batch_frames > 0 ? cfg.batch_frames : 1;
    const std::uint64_t max_frames = cfg.limits.max_frames;
    const std::uint64_t num_batches = (max_frames + batch - 1) / batch;

    Reduction red(num_batches);
    std::vector<double> busy_s(threads, 0.0);
    const Clock::time_point start = Clock::now();

    auto worker = [&](unsigned w) {
        WorkerState state(code, factory(w));
        for (;;) {
            const std::uint64_t b = red.next_batch.fetch_add(1, std::memory_order_relaxed);
            if (b >= num_batches || b >= red.stop_at.load(std::memory_order_acquire)) break;
            const std::uint64_t lo = b * batch;
            const std::uint64_t hi = std::min(lo + batch, max_frames);

            const Clock::time_point t0 = Clock::now();
            const Tally t = run_frames(code, state, cfg, sigma, point_seed, lo, hi);
            busy_s[w] += seconds_since(t0);

            bool stop_now;
            {
                std::lock_guard<std::mutex> lock(red.mu);
                red.tallies[b] = t;
                red.done[b] = 1;
                // Advance the frontier over the contiguous done prefix; the
                // stop decision only ever looks at batch prefixes, so it is
                // the same for every scheduling of batches onto workers.
                while (!red.stopped && red.frontier < num_batches && red.done[red.frontier]) {
                    red.prefix.merge(red.tallies[red.frontier]);
                    ++red.frontier;
                    if (stop_satisfied(red.prefix, cfg.limits)) {
                        red.stopped = true;
                        red.stop_at.store(red.frontier, std::memory_order_release);
                    }
                }
                if (cfg.progress) {
                    SimProgress p;
                    p.ebn0_db = ebn0_db;
                    p.frames = red.prefix.frames;
                    p.frames_cap = max_frames;
                    p.bit_errors = red.prefix.bit_errors;
                    p.frame_errors = red.prefix.frame_errors;
                    p.elapsed_s = seconds_since(start);
                    p.frames_per_s = p.elapsed_s > 0.0 ? static_cast<double>(p.frames) / p.elapsed_s
                                                       : 0.0;
                    p.threads = threads;
                    cfg.progress(p);
                }
                stop_now = red.stopped;
            }
            if (stop_now) break;
        }
    };

    if (threads == 1) {
        worker(0);
    } else if (pool != nullptr) {
        pool->run_workers(threads, worker);
    } else {
        util::ThreadPool local(threads);
        local.run_workers(threads, worker);
    }

    BerPoint pt;
    pt.ebn0_db = ebn0_db;
    pt.frames = red.prefix.frames;
    pt.bit_errors = red.prefix.bit_errors;
    pt.frame_errors = red.prefix.frame_errors;
    pt.undetected_frame_errors = red.prefix.undetected;
    pt.avg_iterations = pt.frames ? static_cast<double>(red.prefix.iter_sum) /
                                        static_cast<double>(pt.frames)
                                  : 0.0;
    pt.convergence = red.prefix.conv;

    if (cfg.progress) {
        SimProgress p;
        p.ebn0_db = ebn0_db;
        p.frames = pt.frames;
        p.frames_cap = max_frames;
        p.bit_errors = pt.bit_errors;
        p.frame_errors = pt.frame_errors;
        p.elapsed_s = seconds_since(start);
        p.frames_per_s = p.elapsed_s > 0.0 ? static_cast<double>(pt.frames) / p.elapsed_s : 0.0;
        p.threads = threads;
        double busy = 0.0;
        for (double b : busy_s) busy += b;
        p.worker_utilization =
            p.elapsed_s > 0.0 ? busy / (static_cast<double>(threads) * p.elapsed_s) : 0.0;
        p.finished = true;
        cfg.progress(p);
    }
    return pt;
}

/// The pool a sweep or scan shares across its points: `cfg.threads`
/// workers, or none when one worker runs inline.
std::unique_ptr<util::ThreadPool> make_pool(const SimConfig& cfg) {
    const unsigned threads = util::resolve_thread_count(cfg.threads);
    return threads > 1 ? std::make_unique<util::ThreadPool>(threads) : nullptr;
}

}  // namespace

EngineFactory engine_factory(const code::Dvbs2Code& code, const core::EngineSpec& spec) {
    core::validate_engine_spec(spec);  // fail fast, before any point runs
    return [&code, spec](unsigned /*worker*/) { return core::make_engine(code, spec); };
}

BerPoint simulate_point(const code::Dvbs2Code& code, const EngineFactory& factory,
                        double ebn0_db, const SimConfig& cfg) {
    return run_point(code, factory, ebn0_db, cfg, nullptr);
}

std::vector<BerPoint> simulate_sweep(const code::Dvbs2Code& code, const EngineFactory& factory,
                                     const std::vector<double>& ebn0_db, const SimConfig& cfg) {
    std::vector<BerPoint> points;
    points.reserve(ebn0_db.size());
    const std::unique_ptr<util::ThreadPool> pool = make_pool(cfg);
    for (double snr : ebn0_db)
        points.push_back(run_point(code, factory, snr, cfg, pool.get()));
    return points;
}

std::optional<double> find_threshold_db(const code::Dvbs2Code& code,
                                        const EngineFactory& factory, double target_ber,
                                        double start_db, double step_db, const SimConfig& cfg,
                                        double max_db) {
    DVBS2_REQUIRE(step_db > 0.0, "step must be positive");
    const auto k_bits = static_cast<std::uint64_t>(code.params().k);
    const std::unique_ptr<util::ThreadPool> pool = make_pool(cfg);
    // Index-based stepping: snr = start + i·step is computed fresh per point,
    // so long scans do not accumulate floating-point drift.
    for (std::uint64_t i = 0;; ++i) {
        const double snr = start_db + static_cast<double>(i) * step_db;
        if (snr > max_db + 1e-9) break;
        const BerPoint pt = run_point(code, factory, snr, cfg, pool.get());
        if (pt.ber(k_bits) < target_ber) return snr;
    }
    return std::nullopt;  // target BER never reached within the scan range
}

}  // namespace dvbs2::comm

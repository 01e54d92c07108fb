// Workload definitions and the seeded input generator of the receive-chain
// benchmark.
//
// A workload is a set of decode classes (code rate, frame size, modulation,
// engine spec, Eb/N0), a traffic shape (closed or open loop, stream count,
// arrival rate) and a per-class pool of pre-built received frames. The pool
// holds channel symbols only: payload → BCH encode → LDPC encode → map →
// AWGN happens here, before any timing starts, so the timed chain begins at
// the demapper. Noise comes from the benchmark's own RNG, so the inputs do
// not change when the library's generators do.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bch/bch.hpp"
#include "code/params.hpp"
#include "code/tanner.hpp"
#include "comm/constellation.hpp"
#include "core/engine.hpp"
#include "util/bitvec.hpp"

namespace perfbench {

using namespace dvbs2;

enum class Mod { Qpsk, Psk8 };

/// One decode class of a workload.
struct ClassDef {
    code::CodeRate rate;
    code::FrameSize frame;
    Mod mod;
    core::EngineSpec spec;
    double ebn0_db;
};

/// Traffic shape and sizes of one workload.
struct WorkloadDef {
    std::string name;
    std::vector<ClassDef> classes;
    bool open_loop = false;
    double rate_fps = 0.0;       ///< open loop: mean Poisson arrival rate
    double limit_ms = 0.0;       ///< open loop: fixed per-frame latency limit
    int streams = 4;             ///< streams over all classes
    int pool_per_class = 64;     ///< distinct pre-built frames per class
    std::size_t queue_capacity = 64;  ///< open loop (closed loops size it per worker)
    /// Closed-loop frame rates (all workers, one worker) on the reference
    /// host; they size the fixed frame counts of the closed-loop phases so a
    /// phase takes about its share of --seconds there.
    double fps_nproc = 0.0, fps_1w = 0.0;
    /// Closed loop: the one-frame response time on the reference host; it
    /// sizes the frame count of the latency phase the same way.
    double latency_ms_ref = 0.0;
};

/// The named workloads (bulk-long-8psk, stream-short-mixed, edge-long-qpsk,
/// and selftest-short for selftest.py); throws on an unknown name.
WorkloadDef make_workload(const std::string& name);

/// One received frame: interleaved I/Q symbols plus the transmitted
/// payload and BCH codeword the chain must recover.
struct Frame {
    std::vector<float> iq;
    util::BitVec bch_codeword;  ///< payload (first k_bch bits) + BCH parity
};

/// A class with the objects its chain needs: LDPC code, BCH code,
/// constellation and noise level.
struct ClassRt {
    ClassDef def;
    std::unique_ptr<code::Dvbs2Code> code;
    std::unique_ptr<bch::BchCode> bch;
    std::unique_ptr<comm::Constellation> constellation;
    double sigma = 0.0;
    int preferred_batch = 1;  ///< Engine::preferred_batch() of the class
    std::string backend;      ///< Engine::backend_name() of the class
    std::vector<Frame> pool;

    int n() const { return code->n(); }
    int k_bch() const { return bch->k(); }
};

/// Builds the LDPC and BCH codes of every class; `code_s` and `bch_s`
/// receive the wall time of each part.
std::vector<ClassRt> build_classes(const WorkloadDef& wl, double& code_s, double& bch_s);

/// Fills every class pool deterministically from `seed` (uses `threads`
/// generator threads; the result does not depend on that count).
void generate_pools(std::vector<ClassRt>& classes, int pool_per_class, std::uint64_t seed,
                    unsigned threads);

/// One frame of the submission plan.
struct Arrival {
    std::uint32_t stream = 0;
    std::uint32_t cls = 0;
    std::uint32_t pool = 0;
    double t_sched = 0.0;  ///< open loop: seconds after the phase start
};

/// The seeded frame sequence of one phase: which stream and pool frame each
/// submission carries, and when it is due (open loop). Streams are assigned
/// to classes round-robin; each class walks its pool cyclically.
struct Plan {
    std::vector<Arrival> arrivals;
    std::vector<std::uint32_t> stream_class;             ///< class of each stream
    std::vector<std::vector<std::uint32_t>> by_stream;   ///< stream → arrival indices
    std::size_t cover = 0;  ///< arrivals up to here include every pool frame
};

/// `count` arrivals. Classes come in shuffled rounds (every run of
/// `classes.size()` consecutive arrivals from the start holds each class
/// once), so any phase's class mix, and with it its work and payload bits,
/// is the same for every seed; within its class an arrival goes to a
/// uniformly drawn stream. Open-loop plans draw exponential inter-arrival
/// gaps at `wl.rate_fps`. Throws if `count` arrivals do not cover every
/// pool frame.
Plan make_plan(const WorkloadDef& wl, const std::vector<ClassRt>& classes, std::size_t count,
               std::uint64_t seed);

/// Small deterministic RNG owned by the benchmark (SplitMix64 + polar
/// Box-Muller), independent of the library's generators.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    double uniform();  ///< [0, 1)
    double gaussian();

private:
    std::uint64_t s_;
    bool have_ = false;
    double cached_ = 0.0;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b);

}  // namespace perfbench

// The timed phases of the receive-chain benchmark.
//
// Service phase: one producer thread walks a Plan, demaps each frame
// (comm::Constellation::demap_maxlog), quantizes it (quant::quantize) and
// submits it to a DecodeService (service → core::Engine::decode_batch);
// the result callback BCH-decodes the hard decision (bch::BchCode::decode)
// and checks the payload, the per-stream order and the codeword digest.
// Closed loop: Admission::Block, submit as fast as the queue admits, or
// keep at most a fixed window of frames in the service. Open loop:
// Admission::Reject, submit at each arrival's scheduled time, and time the
// frame from that scheduled time.
//
// Direct phase: the same layers called in one thread without the service,
// batch by batch, so the traced run can give each layer's self time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/metrics.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Per pool frame, the LDPC codeword digest and payload outcome of its
/// first delivery; every later delivery (any phase, any worker count, the
/// direct chain) must match it.
class Reference {
public:
    void init(const std::vector<ClassRt>& classes);
    /// Records the first delivery of a pool frame, or counts a mismatch
    /// against it.
    void check(std::size_t cls, std::size_t pool, std::uint64_t digest, bool payload_ok);
    std::uint64_t mismatches() const { return mismatches_.load(); }
    /// Share of pool frames whose payload was not recovered (over frames
    /// seen at least once) and how many were seen.
    double payload_fer(std::uint64_t* seen = nullptr) const;
    /// Combined digest of every pool frame's codeword digest, in pool order.
    std::uint64_t digest() const;

private:
    struct Slots {
        std::unique_ptr<std::atomic<std::uint64_t>[]> digest;
        std::unique_ptr<std::atomic<std::uint8_t>[]> payload;  // 0 unset, 1 ok, 2 bad
        std::size_t size = 0;
    };
    std::vector<Slots> slots_;
    std::atomic<std::uint64_t> mismatches_{0};
};

/// Everything the phases share.
struct Context {
    WorkloadDef wl;
    std::vector<ClassRt> classes;
    Reference ref;
    Tracer tracer;
    /// Deliberate corruption for the self-test: "payload" flips a decoded
    /// payload bit in the first service phase, "digest" alters one codeword
    /// digest in the one-worker phase. Empty = none.
    std::string corrupt;
};

struct PhaseOptions {
    unsigned workers = 1;
    bool open_loop = false;
    double seconds = 1.0;      ///< open loop: length of the arrival schedule
    std::size_t frames = 0;    ///< closed loop: frames to submit
    /// Closed loop: most frames in the service at once (accepted, callback
    /// not finished); 0 = as many as the queue admits.
    std::size_t window = 0;
    bool traced = false;
    bool corrupt_payload = false;
    bool corrupt_digest = false;
};

struct PhaseResult {
    std::uint64_t attempted = 0;  ///< submit() calls
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;   ///< rejected or closed
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;       ///< accepted but never delivered
    std::uint64_t duplicates = 0;
    std::uint64_t order_violations = 0;
    std::uint64_t silent_errors = 0;  ///< BCH reported success on a wrong payload
    std::uint64_t payload_bits_ok = 0;
    std::uint64_t limit_misses = 0;   ///< open loop: over the limit, rejected or lost
    /// Most frames in the service at once (accepted, callback not finished):
    /// queued, in a lane block, or held for in-order delivery.
    std::uint64_t peak_outstanding = 0;
    double elapsed_s = 0.0;           ///< first send → last delivery
    std::vector<double> latency_ms;   ///< per delivered frame
    std::vector<double> lateness_ms;  ///< open loop: producer start − scheduled time
    service::ServiceMetrics metrics;  ///< of this phase's service

    double goodput_mbps() const {
        return elapsed_s > 0 ? static_cast<double>(payload_bits_ok) / elapsed_s / 1e6 : 0.0;
    }
    std::uint64_t failed() const { return rejected + lost + duplicates + order_violations +
                                          metrics.decode_failures; }
};

/// Runs one service phase on a fresh DecodeService (built and warmed before
/// timing).
PhaseResult run_service_phase(Context& ctx, const Plan& plan, const PhaseOptions& opt);

struct DirectResult {
    std::uint64_t frames = 0;
    std::uint64_t iterations = 0;
    std::uint64_t converged = 0;
    std::uint64_t bch_clean = 0, bch_corrected = 0, bch_failed = 0;
    double bch_clean_s = 0.0, bch_correct_s = 0.0;  ///< BCH time on each path
    std::uint64_t silent_errors = 0;
};

/// Runs the single-thread chain for `seconds` (at least one batch per
/// class), recording spans chain → {demap, quantize, decode, bch} when the
/// tracer is enabled.
DirectResult run_direct_phase(Context& ctx, const Plan& plan, double seconds);

}  // namespace perfbench

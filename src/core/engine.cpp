// Unified decoder-engine layer: central validation, the three engine
// implementations (float-scalar, fixed-scalar, fixed-simd), the make_engine
// factory that picks one, and the to_string names of the core enums.
#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "analysis/ir/analyses.hpp"
#include "code/params.hpp"
#include "core/arith.hpp"
#include "core/mp_decoder.hpp"
#include "core/simd/batch_decoder.hpp"
#include "core/simd/simd_decoder.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace dvbs2::core {

const char* to_string(Schedule s) {
    switch (s) {
        case Schedule::TwoPhase: return "two-phase";
        case Schedule::ZigzagForward: return "zigzag-forward";
        case Schedule::ZigzagSegmented: return "zigzag-segmented";
        case Schedule::ZigzagMap: return "zigzag-map";
        case Schedule::Layered: return "layered";
    }
    return "?";
}

const char* to_string(CheckRule r) {
    switch (r) {
        case CheckRule::Exact: return "exact";
        case CheckRule::MinSum: return "min-sum";
        case CheckRule::NormalizedMinSum: return "normalized-min-sum";
        case CheckRule::OffsetMinSum: return "offset-min-sum";
    }
    return "?";
}

const char* to_string(DecoderBackend b) {
    switch (b) {
        case DecoderBackend::Scalar: return "scalar";
        case DecoderBackend::Simd: return "simd";
    }
    return "?";
}

const char* to_string(Arithmetic a) {
    switch (a) {
        case Arithmetic::Float: return "float";
        case Arithmetic::Fixed: return "fixed";
    }
    return "?";
}

// ------------------------------------------------------------- validation

namespace {

/// Family-envelope trace dimensions for range certification: the scaled
/// model dims every IR analysis runs at (P=4, q=3), carrying the WORST-CASE
/// degrees over all shipped long-frame rates — the largest check in-degree
/// and an information node of the largest deg_hi — so one certificate per
/// (schedule, datapath numbers) covers every standard code. The abstract
/// bounds grow only with per-firing fan-in (vn sums), never with m or N,
/// so the envelope dominates the full-size codes.
const analysis::ir::TraceDims& range_envelope_dims() {
    static const analysis::ir::TraceDims dims = [] {
        int max_kc = 2;
        int max_deg = 3;
        for (code::CodeRate r : code::all_rates()) {
            const code::CodeParams p = code::standard_params(r);
            max_kc = std::max(max_kc, p.check_deg - 2);
            max_deg = std::max(max_deg, p.deg_hi);
        }
        analysis::ir::TraceDims d;
        d.check_in_degree = max_kc;
        const long long e = d.e_in();
        // variable 0 takes deg_hi edges; every other edge is its own
        // degree-1 node (degree only sharpens the vn-accumulate peak)
        d.edge_variable.assign(static_cast<std::size_t>(e), 0);
        std::int32_t next = 1;
        for (long long ed = std::min<long long>(max_deg, e); ed < e; ++ed)
            d.edge_variable[static_cast<std::size_t>(ed)] = next++;
        d.num_info_nodes = next;
        return d;
    }();
    return dims;
}

/// Translates the spec's quantizer and knobs into the IR layer's numeric
/// datapath description (raw units of the quantizer step).
analysis::ir::AbsintSpec absint_spec_of(const EngineSpec& spec) {
    const DecoderConfig& c = spec.config;
    analysis::ir::AbsintSpec a;
    a.rule = c.rule;
    a.max_raw = spec.quant.max_raw();
    a.channel_clamp = a.max_raw;  // the channel is quantized at the word bound
    a.corr_peak = c.rule == CheckRule::Exact
                      ? std::llround(std::nearbyint(std::log1p(1.0) / spec.quant.step()))
                      : 0;
    a.wide_capacity = std::numeric_limits<std::int32_t>::max();
    a.norm_num = std::llround(c.normalization * 16.0);
    a.offset_raw = c.rule == CheckRule::OffsetMinSum
                       ? std::llround(c.offset / spec.quant.step())
                       : 0;
    return a;
}

}  // namespace

analysis::ir::RangeCertificate engine_range_certificate(const EngineSpec& spec) {
    const analysis::ir::AbsintSpec a = absint_spec_of(spec);
    using Key = std::tuple<int, int, long long, long long, long long, long long, long long>;
    const Key key{static_cast<int>(a.rule),
                  static_cast<int>(spec.config.schedule),
                  a.max_raw,
                  a.channel_clamp,
                  a.corr_peak,
                  a.norm_num,
                  a.offset_raw};
    static std::mutex mu;
    static std::map<Key, analysis::ir::RangeCertificate>& cache =
        *new std::map<Key, analysis::ir::RangeCertificate>();
    {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = cache.find(key);
        if (it != cache.end()) return it->second;
    }
    const analysis::ir::Trace trace =
        analysis::ir::build_schedule_trace(spec.config.schedule, range_envelope_dims());
    analysis::ir::RangeCertificate cert = analysis::ir::certify_ranges(trace, a);
    // the certificate is only trusted checked: an interpreter bug must fail
    // construction loudly, never silently admit an overflowing datapath
    const analysis::ir::RangeCheck chk = analysis::ir::check_range_certificate(trace, a, cert);
    DVBS2_REQUIRE(chk.ok, "range certificate failed its independent check: " +
                              (chk.rejection ? chk.rejection->reason : std::string("?")));
    const std::lock_guard<std::mutex> lock(mu);
    return cache.emplace(key, std::move(cert)).first->second;
}

void validate_engine_spec(const EngineSpec& spec) {
    const DecoderConfig& c = spec.config;
    DVBS2_REQUIRE(c.max_iterations >= 0, "max_iterations must be non-negative, got " +
                                             std::to_string(c.max_iterations));
    if (c.rule == CheckRule::NormalizedMinSum)
        DVBS2_REQUIRE(c.normalization > 0.0 && c.normalization <= 1.0,
                      "normalization must be in (0, 1] for rule=normalized-min-sum, got " +
                          std::to_string(c.normalization));
    if (c.rule == CheckRule::OffsetMinSum)
        DVBS2_REQUIRE(c.offset >= 0.0, "offset must be non-negative for rule=offset-min-sum, "
                                       "got " + std::to_string(c.offset));
    if (spec.arith == Arithmetic::Float) {
        DVBS2_REQUIRE(c.backend != DecoderBackend::Simd,
                      "backend=simd models the fixed-point datapath only; "
                      "use fixed arithmetic (Arithmetic::Fixed) for DecoderBackend::Simd");
    } else {
        quant::validate_spec(spec.quant);
    }
    if (c.backend == DecoderBackend::Simd) {
        // Legality is derived, not hardcoded: the dataflow IR classifies each
        // schedule by tracing its def/use dependences (analysis/ir). Batches
        // always run frame-per-lane, which needs every storage space to be
        // frame-local; single frames pick their own mapping (see SimdEngine).
        DVBS2_REQUIRE(analysis::ir::classify_schedule(c.schedule).frame_per_lane_legal,
                      std::string("backend=simd cannot run schedule=") + to_string(c.schedule) +
                          ": the schedule shares state across frames");
    }
    if (spec.arith == Arithmetic::Fixed) {
        // Per-event range certification over the dataflow IR (absint.hpp):
        // the family-envelope certificate must prove every stored word and
        // wide accumulator fits the spec's quantizer, or the spec is
        // rejected naming the first overflowing event. Every legal
        // <= 16-bit quantizer fits (the worst vn sum stays far inside the
        // 32-bit accumulators); this is the safety net for wider datapaths.
        const analysis::ir::RangeCertificate cert = engine_range_certificate(spec);
        if (!cert.ok) {
            const analysis::ir::Trace trace =
                analysis::ir::build_schedule_trace(c.schedule, range_envelope_dims());
            std::string what =
                std::string("quantization overflows the min-sum datapath: ") + cert.offender_stage;
            if (cert.first_offender >= 0)
                what += ", first at " +
                        analysis::ir::describe_event(
                            trace.events[static_cast<std::size_t>(cert.first_offender)]);
            DVBS2_REQUIRE(false, what);
        }
    }
}

// ---------------------------------------------------------- Engine (base)

Engine::~Engine() = default;

void Engine::record(const DecodeResult& r) {
    // stats_mu_ serializes the recording against convergence_snapshot()
    // pollers on other threads; decode_* itself stays single-writer. The
    // lock is per frame (not per iteration) and uncontended in every
    // single-threaded use, so it costs nothing measurable on the hot path.
    const std::lock_guard<std::mutex> lock(stats_mu_);
    // Lazily sized on the first recorded frame: config() is virtual, so the
    // base constructor cannot call it. reserve_iterations presizes the
    // histogram to 0..max_iterations, making steady-state record() calls
    // allocation-free (pinned by tests/test_alloc.cpp).
    if (stats_.histogram.empty()) stats_.reserve_iterations(config().max_iterations);
    stats_.record(r.iterations, r.converged);
}

ConvergenceStats Engine::convergence_snapshot() const {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

namespace {

/// One diagnostic shape for every frame-length mismatch: names the actual
/// span size, the engine's N and (for batches) the expected relation.
void require_frame_span(std::size_t actual, std::size_t n, const char* entry) {
    DVBS2_REQUIRE(actual == n, std::string(entry) + ": channel span has " +
                                   std::to_string(actual) +
                                   " values but this engine decodes frames of N=" +
                                   std::to_string(n) + " (expected span size == N)");
}

}  // namespace

void Engine::decode_into(std::span<const double> llr, DecodeResult& out) {
    if (const std::size_t n = frame_length(); n > 0) require_frame_span(llr.size(), n, "decode_into");
    do_decode_into(llr, out);
    record(out);
}

void Engine::decode_raw_into(std::span<const quant::QLLR> qllr, DecodeResult& out) {
    if (const std::size_t n = frame_length(); n > 0)
        require_frame_span(qllr.size(), n, "decode_raw_into");
    do_decode_raw_into(qllr, out);
    record(out);
}

void Engine::decode_batch(std::span<const double> llrs, std::span<DecodeResult> out) {
    // Validate both spans against each other (and against N when the
    // backend declares one) before any backend code runs, so scalar and
    // SIMD engines reject a mismatched call with the same diagnostic: the
    // error names both actual sizes and the relation they must satisfy.
    const std::size_t frames = out.size();
    DVBS2_REQUIRE(frames > 0, "decode_batch: out.size()=0 result slots for llrs.size()=" +
                                  std::to_string(llrs.size()) +
                                  " LLR values (expected llrs.size() == out.size() * N with "
                                  "out.size() >= 1)");
    if (const std::size_t n = frame_length(); n > 0) {
        DVBS2_REQUIRE(llrs.size() == frames * n,
                      "decode_batch: llrs.size()=" + std::to_string(llrs.size()) +
                          " does not match out.size()=" + std::to_string(frames) +
                          " frames of N=" + std::to_string(n) +
                          " (expected llrs.size() == out.size() * N = " +
                          std::to_string(frames * n) + ")");
    } else {
        DVBS2_REQUIRE(llrs.size() % frames == 0,
                      "decode_batch: llrs.size()=" + std::to_string(llrs.size()) +
                          " is not a multiple of out.size()=" + std::to_string(frames) +
                          " frames (expected llrs.size() == out.size() * frame length)");
    }
    do_decode_batch(llrs, out);
    for (const DecodeResult& r : out) record(r);
}

void Engine::do_decode_raw_into(std::span<const quant::QLLR> /*qllr*/, DecodeResult& /*out*/) {
    throw std::runtime_error(std::string("decode_raw_into requires a fixed-point engine "
                                         "(this engine's arithmetic is ") +
                             to_string(arithmetic()) + ")");
}

void Engine::do_decode_batch(std::span<const double> llrs, std::span<DecodeResult> out) {
    // Spans were validated by the public decode_batch wrapper.
    const std::size_t b = out.size();
    const std::size_t n = llrs.size() / b;
    for (std::size_t f = 0; f < b; ++f) do_decode_into(llrs.subspan(f * n, n), out[f]);
}

DecodeResult Engine::decode(std::span<const double> llr) {
    DecodeResult result;
    decode_into(llr, result);
    return result;
}

const quant::QuantSpec* Engine::quant_spec() const noexcept { return nullptr; }

int Engine::preferred_batch() const noexcept { return 1; }

std::size_t Engine::frame_length() const noexcept { return 0; }

void Engine::set_cn_order(std::vector<int> /*order*/) {
    throw std::runtime_error("per-check-node input orders require a scalar engine "
                             "(DecoderBackend::Scalar); the SIMD engines process the "
                             "canonical slot order");
}

std::vector<quant::QLLR> Engine::run_and_dump_c2v(std::span<const quant::QLLR> /*qllr*/,
                                                  int /*iters*/) {
    throw std::runtime_error(std::string("run_and_dump_c2v requires a fixed-point engine "
                                         "(this engine's arithmetic is ") +
                             to_string(arithmetic()) + ")");
}

// --------------------------------------------------- engine implementations

namespace {

/// Engine-owned staging reused across calls: `staging` holds one converted
/// frame. Message memories live inside the wrapped decoders and persist the
/// same way; together they are the reason steady-state decode calls
/// allocate nothing. (The SIMD engine no longer stages whole batch blocks:
/// decode_stream pulls frames one at a time through a quantizing source
/// callback as lanes free up.)
template <class T>
struct DecodeWorkspace {
    std::vector<T> staging;
};

class FloatEngine final : public Engine {
public:
    FloatEngine(const code::Dvbs2Code& code, const EngineSpec& spec)
        : spec_(spec),
          mp_(code, spec.config,
              FloatArith(spec.config.rule, spec.config.normalization, spec.config.offset)) {
        ws_.staging.resize(static_cast<std::size_t>(code.n()));
    }

    void set_observer(std::function<void(const IterationTrace&)> observer) override {
        mp_.set_observer(std::move(observer));
    }

    const DecoderConfig& config() const noexcept override { return spec_.config; }
    Arithmetic arithmetic() const noexcept override { return Arithmetic::Float; }
    std::string backend_name() const override { return "float-scalar"; }
    std::size_t frame_length() const noexcept override { return ws_.staging.size(); }

    void set_cn_order(std::vector<int> order) override { mp_.set_cn_order(std::move(order)); }

protected:
    void do_decode_into(std::span<const double> llr, DecodeResult& out) override {
        DVBS2_REQUIRE(llr.size() == ws_.staging.size(), "channel length mismatch");
        for (std::size_t i = 0; i < llr.size(); ++i) {
            DVBS2_REQUIRE(std::isfinite(llr[i]),
                          "non-finite channel LLR at index " + std::to_string(i));
            ws_.staging[i] = util::clamp_llr(llr[i]);
        }
        mp_.decode_into(ws_.staging, out);
    }

private:
    EngineSpec spec_;
    MpDecoder<FloatArith> mp_;
    DecodeWorkspace<double> ws_;
};

/// The scalar fixed-point datapath: MpDecoder<FixedArith> plus the
/// correction LUT its exact rule points into. The arithmetic holds a
/// pointer to `table`, so the pair is pinned in place (not copyable).
struct FixedScalarDecoder {
    FixedScalarDecoder(const code::Dvbs2Code& code, const EngineSpec& spec)
        : table(spec.quant),
          mp(code, spec.config,
             FixedArith(spec.config.rule, spec.quant,
                        spec.config.rule == CheckRule::Exact ? &table : nullptr,
                        spec.config.normalization, spec.config.offset)) {}
    FixedScalarDecoder(const FixedScalarDecoder&) = delete;
    FixedScalarDecoder& operator=(const FixedScalarDecoder&) = delete;

    quant::BoxplusTable table;
    MpDecoder<FixedArith> mp;
};

class FixedScalarEngine final : public Engine {
public:
    FixedScalarEngine(const code::Dvbs2Code& code, const EngineSpec& spec)
        : spec_(spec), dec_(code, spec) {
        ws_.staging.resize(static_cast<std::size_t>(code.n()));
    }

    void set_observer(std::function<void(const IterationTrace&)> observer) override {
        dec_.mp.set_observer(std::move(observer));
    }

    const DecoderConfig& config() const noexcept override { return spec_.config; }
    Arithmetic arithmetic() const noexcept override { return Arithmetic::Fixed; }
    const quant::QuantSpec* quant_spec() const noexcept override { return &spec_.quant; }
    std::string backend_name() const override { return "fixed-scalar"; }
    std::size_t frame_length() const noexcept override { return ws_.staging.size(); }

    void set_cn_order(std::vector<int> order) override { dec_.mp.set_cn_order(std::move(order)); }

    std::vector<quant::QLLR> run_and_dump_c2v(std::span<const quant::QLLR> qllr,
                                              int iters) override {
        dec_.mp.run_iterations(qllr, iters);
        return dec_.mp.c2v_messages();
    }

protected:
    void do_decode_into(std::span<const double> llr, DecodeResult& out) override {
        DVBS2_REQUIRE(llr.size() == ws_.staging.size(), "channel length mismatch");
        for (std::size_t i = 0; i < llr.size(); ++i) {
            DVBS2_REQUIRE(std::isfinite(llr[i]),
                          "non-finite channel LLR at index " + std::to_string(i));
            ws_.staging[i] = quant::quantize(llr[i], spec_.quant);
        }
        dec_.mp.decode_into(ws_.staging, out);
    }

    void do_decode_raw_into(std::span<const quant::QLLR> qllr, DecodeResult& out) override {
        dec_.mp.decode_into(qllr, out);
    }

private:
    EngineSpec spec_;
    FixedScalarDecoder dec_;
    DecodeWorkspace<quant::QLLR> ws_;
};

/// Fixed-point SIMD engine. The lane mapping follows the call's frame
/// count, so the same work always takes the same path:
///  * one frame (decode_into, decode_raw_into, a one-slot decode_batch,
///    run_and_dump_c2v, and every frame while an observer is installed)
///    runs on the single-frame decoder — group-parallel (lane = functional
///    unit, Eq. 2) where classify_schedule proves the schedule natively
///    lockstep-legal, the scalar fixed-point decoder on the serial-chain
///    schedules, whose check phase has no lane parallelism;
///  * two or more frames run frame-per-lane (lane = frame) through
///    decode_stream, with per-lane early termination and lane compaction.
///    The frame-per-lane block (W frames of message memory) is built on the
///    first such call, so an engine that only ever decodes single frames
///    never pays for it.
class SimdEngine final : public Engine {
public:
    SimdEngine(const code::Dvbs2Code& code, const EngineSpec& spec)
        : code_(&code), spec_(spec) {
        if (analysis::ir::classify_schedule(spec.config.schedule).group_parallel_legal)
            group_ = std::make_unique<SimdFixedDecoder>(code, spec.config, spec.quant);
        else
            chain_ = std::make_unique<FixedScalarDecoder>(code, spec);
        ws_.staging.resize(static_cast<std::size_t>(code.n()));
    }

    void set_observer(std::function<void(const IterationTrace&)> observer) override {
        has_observer_ = static_cast<bool>(observer);
        if (group_)
            group_->set_observer(std::move(observer));
        else
            chain_->mp.set_observer(std::move(observer));
    }

    const DecoderConfig& config() const noexcept override { return spec_.config; }
    Arithmetic arithmetic() const noexcept override { return Arithmetic::Fixed; }
    const quant::QuantSpec* quant_spec() const noexcept override { return &spec_.quant; }
    std::string backend_name() const override {
        return std::string("fixed-simd(") + simd_backend_name() + ")";
    }
    std::size_t frame_length() const noexcept override { return ws_.staging.size(); }
    int preferred_batch() const noexcept override {
        // Several lane blocks per call, not one: lane compaction only has
        // frames to splice into retired lanes when the batch outnumbers the
        // lanes, so a deeper preferred batch is what converts per-lane early
        // termination into throughput (see decode_stream).
        return 4 * SimdBatchFixedDecoder::lanes();
    }

    std::vector<quant::QLLR> run_and_dump_c2v(std::span<const quant::QLLR> qllr,
                                              int iters) override {
        if (group_) {
            group_->run_iterations(qllr, iters);
            return group_->c2v_messages();
        }
        chain_->mp.run_iterations(qllr, iters);
        return chain_->mp.c2v_messages();
    }

protected:
    void do_decode_into(std::span<const double> llr, DecodeResult& out) override {
        DVBS2_REQUIRE(llr.size() == ws_.staging.size(), "channel length mismatch");
        quantize_range(llr, ws_.staging.data());
        decode_raw_single(ws_.staging, out);
    }

    void do_decode_raw_into(std::span<const quant::QLLR> qllr, DecodeResult& out) override {
        DVBS2_REQUIRE(qllr.size() == ws_.staging.size(), "channel length mismatch");
        decode_raw_single(qllr, out);
    }

    void do_decode_batch(std::span<const double> llrs, std::span<DecodeResult> out) override {
        // Spans were validated by the public decode_batch wrapper (this
        // engine declares frame_length(), so llrs.size() == b * n here).
        const std::size_t b = out.size();
        const std::size_t n = ws_.staging.size();
        if (b == 1 || has_observer_) {
            // One frame, or tracing: decode frame by frame on the
            // single-frame path, so observers see one frame's iterations at
            // a time, in order.
            for (std::size_t f = 0; f < b; ++f) do_decode_into(llrs.subspan(f * n, n), out[f]);
            return;
        }
        // One decode_stream over the whole batch: frames are quantized on
        // demand as lanes claim them, and retired lanes are refilled from
        // the pending frames (lane compaction), so a mixed-convergence batch
        // never leaves lanes idle while frames wait.
        if (!batch_)
            batch_ = std::make_unique<SimdBatchFixedDecoder>(*code_, spec_.config, spec_.quant);
        StreamCtx ctx{this, llrs.data(), n};
        batch_->decode_stream(b, &SimdEngine::quantize_frame, &ctx, out.data());
    }

private:
    /// decode_stream frame source: quantizes frame `f` out of the caller's
    /// LLR block on demand (captureless, so it converts to the plain
    /// function pointer the allocation-free stream API takes).
    struct StreamCtx {
        SimdEngine* self;
        const double* llrs;
        std::size_t n;
    };
    static void quantize_frame(void* c, std::size_t f, quant::QLLR* dst) {
        auto* s = static_cast<StreamCtx*>(c);
        s->self->quantize_range(std::span<const double>(s->llrs + f * s->n, s->n), dst);
    }

    void quantize_range(std::span<const double> llr, quant::QLLR* dst) {
        for (std::size_t i = 0; i < llr.size(); ++i) {
            DVBS2_REQUIRE(std::isfinite(llr[i]),
                          "non-finite channel LLR at index " + std::to_string(i));
            dst[i] = quant::quantize(llr[i], spec_.quant);
        }
    }

    void decode_raw_single(std::span<const quant::QLLR> qllr, DecodeResult& out) {
        if (group_)
            group_->decode_into(qllr, out);
        else
            chain_->mp.decode_into(qllr, out);
    }

    const code::Dvbs2Code* code_;
    EngineSpec spec_;
    std::unique_ptr<SimdBatchFixedDecoder> batch_; // lane = frame (two or more frames)
    std::unique_ptr<SimdFixedDecoder> group_;      // lane = functional unit (one frame)
    std::unique_ptr<FixedScalarDecoder> chain_;    // one frame, serial-chain schedules
    DecodeWorkspace<quant::QLLR> ws_;
    bool has_observer_ = false;
};

}  // namespace

std::unique_ptr<Engine> make_engine(const code::Dvbs2Code& code, const EngineSpec& spec) {
    validate_engine_spec(spec);
    // validate_engine_spec rejects (Float, Simd), so the pair picks one of
    // the three engines.
    if (spec.arith == Arithmetic::Float) return std::make_unique<FloatEngine>(code, spec);
    if (spec.config.backend == DecoderBackend::Simd)
        return std::make_unique<SimdEngine>(code, spec);
    return std::make_unique<FixedScalarEngine>(code, spec);
}

}  // namespace dvbs2::core

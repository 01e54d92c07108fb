#include "analysis/lint_range.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/mp_decoder.hpp"  // kMaxCheckDegree, the datapath buffer bound
#include "util/math.hpp"

namespace dvbs2::analysis {

namespace {

constexpr long long kWideCapacity = std::numeric_limits<std::int32_t>::max();

/// Magnitude of the correction LUT at index 0 — its maximum, since
/// log1p(exp(-x)) is decreasing. Mirrors BoxplusTable's construction.
long long corr_peak(const quant::QuantSpec& spec) {
    return static_cast<long long>(
        std::nearbyint(std::log1p(1.0) / spec.step()));
}

}  // namespace

RangeAnalysis analyze_fixed_point_range(const code::CodeParams& cp,
                                        const core::DecoderConfig& cfg,
                                        const quant::QuantSpec& spec) {
    RangeAnalysis out;
    Report& rep = out.report;
    const std::string qloc = "quantizer " + std::to_string(spec.total_bits) + "." +
                             std::to_string(spec.frac_bits);

    // --- quantizer legality (everything below divides by step or shifts by
    // total_bits, so these are hard gates) ---
    if (spec.total_bits < 2 || spec.total_bits > 31) {
        rep.add("range.quantizer-degenerate", Severity::Error, qloc,
                "total width must be in [2, 31] (sign + magnitude inside a 32-bit lane)",
                "the paper's design points are 6 and 5 bits");
        return out;
    }
    if (spec.frac_bits < 0 || spec.frac_bits >= spec.total_bits) {
        rep.add("range.quantizer-degenerate", Severity::Error, qloc,
                "fractional bits must be in [0, total_bits)",
                "kQuant6 uses 2 fractional bits");
        return out;
    }
    if (cfg.rule == core::CheckRule::Exact && spec.total_bits > 16)
        rep.add("range.quantizer-degenerate", Severity::Error, qloc,
                "the correction-LUT boxplus supports at most 16-bit messages "
                "(table of 2^(w+1) entries)",
                "use a min-sum rule for wider messages");
    if (spec.max_value() < 1.0)
        rep.add("range.quantizer-degenerate", Severity::Warning, qloc,
                "largest representable LLR is below 1.0 — every moderately confident "
                "channel value saturates immediately",
                "reserve more integer bits");
    if (spec.max_value() > util::kLlrClamp)
        rep.add("range.clamp-mismatch", Severity::Warning, qloc,
                "representable range exceeds the float reference clamp of ±30: the "
                "fixed-point decoder can hold beliefs the reference cannot",
                "keep max_value() <= 30 for bit-exactness studies against the float model");

    if (cp.check_deg > core::kMaxCheckDegree)
        rep.add("range.check-degree-cap", Severity::Error, "params " + cp.name,
                "check degree " + std::to_string(cp.check_deg) +
                    " exceeds the datapath buffer bound " +
                    std::to_string(core::kMaxCheckDegree),
                "raise core::kMaxCheckDegree with the hardware FU depth");

    // --- worst-case interval propagation ---
    // Every exchanged message and channel value is saturated to R = max_raw,
    // so R is the interval bound entering each stage; stages then grow it by
    // the stage's arithmetic before the next saturation point.
    const long long R = spec.max_raw();
    int deg_max = cp.deg_hi > cp.deg_lo ? cp.deg_hi : cp.deg_lo;
    if (deg_max < 2) deg_max = 2;

    const auto stage = [&](std::string name, long long worst, long long cap) {
        out.stages.push_back({std::move(name), worst, cap});
    };
    stage("channel-quantize", R, R);
    // Eq. 4: total = ch + sum of deg c2v messages in the wide accumulator.
    stage("vn-accumulate", (static_cast<long long>(deg_max) + 1) * R, kWideCapacity);
    // Extrinsic extraction subtracts one message from the total.
    stage("vn-extrinsic", (static_cast<long long>(deg_max) + 2) * R, kWideCapacity);
    // Zigzag chain input ch_p + d_{j-1} (and the two-phase parity update).
    stage("zigzag-chain-add", 2 * R, kWideCapacity);
    // Posterior of a parity bit: ch + down + up.
    stage("parity-posterior", 3 * R, kWideCapacity);
    if (cfg.schedule == core::Schedule::Layered) {
        // Layered totals carry ch + deg messages; gathering subtracts one.
        stage("layered-posterior", (static_cast<long long>(deg_max) + 1) * R, kWideCapacity);
        stage("layered-gather", (static_cast<long long>(deg_max) + 2) * R, kWideCapacity);
    }
    // Check-node pairwise combine before its saturation: min(|a|,|b|) plus
    // the correction terms for the exact rule, plain min for min-sum.
    const bool exact = cfg.rule == core::CheckRule::Exact;
    stage("cn-combine", exact ? R + corr_peak(spec) : R, kWideCapacity);

    const long long norm_num = std::lround(cfg.normalization * 16.0);
    if (cfg.rule == core::CheckRule::NormalizedMinSum) {
        // finalize: (v*norm_num + 8) >> 4, saturated afterwards.
        stage("finalize-normalize", R * (norm_num < 0 ? -norm_num : norm_num) + 8,
              kWideCapacity);
        if (norm_num <= 0)
            rep.add("range.norm-degenerate", Severity::Error, "normalization",
                    "factor " + std::to_string(cfg.normalization) +
                        " quantizes to norm_num=" + std::to_string(norm_num) +
                        ": every check message becomes 0 (or flips sign)",
                    "use a factor in [1/16, 1], e.g. the paper-typical 0.75");
        else if (norm_num > 16)
            rep.add("range.norm-degenerate", Severity::Warning, "normalization",
                    "factor > 1 amplifies messages into permanent saturation",
                    "normalized min-sum uses factors <= 1");
    }
    if (cfg.rule == core::CheckRule::OffsetMinSum) {
        const quant::QLLR off = quant::quantize(cfg.offset, spec);
        // finalize: |v| - off, NOT saturated on the way out — a negative
        // offset grows magnitudes beyond the message range.
        stage("finalize-offset", R - static_cast<long long>(off), R);
        if (off >= spec.max_raw())
            rep.add("range.offset-saturation", Severity::Error, "offset",
                    "offset " + std::to_string(cfg.offset) + " quantizes to " +
                        std::to_string(off) + " >= max_raw=" + std::to_string(spec.max_raw()) +
                        ": every check message is zeroed, the decoder cannot correct",
                    "choose an offset well below the representable maximum " +
                        std::to_string(spec.max_value()));
    }

    for (const RangeStage& s : out.stages) {
        if (!s.fits())
            rep.add("range.accumulator-overflow", Severity::Error, "stage " + s.stage,
                    "worst-case magnitude " + std::to_string(s.worst_magnitude) +
                        " exceeds the stage capacity " + std::to_string(s.capacity),
                    "narrow the message quantizer or lower the maximum node degree");
    }
    return out;
}

Report lint_fixed_point(const code::CodeParams& params, const core::DecoderConfig& cfg,
                        const quant::QuantSpec& spec) {
    return analyze_fixed_point_range(params, cfg, spec).report;
}

}  // namespace dvbs2::analysis

// Rule family `range.*`: worst-case fixed-point range analysis of the
// MIN-SUM decoder datapath (paper Sec. 2.1, the 5/6-bit message
// quantization), kept as the hand-maintained cross-check tier behind the
// per-event IR certifier (lint_range_ir.hpp, rule family `range.ir.*`).
//
// The analyzer propagates worst-case magnitude intervals through every
// datapath stage the min-sum decoder executes — channel quantization, the
// wide variable-node accumulation of Eq. 4, the zigzag chain adds, the
// layered posterior totals, the check-node combine and the finalize step of
// the selected check rule — and proves that no stage can exceed its
// hardware register capacity for ANY input, and that no rule parameter
// silently saturates the datapath to zero ("saturation ambiguity": a
// decoder that only ever emits 0 still halts, but corrects nothing).
// Configurations whose static worst case exceeds the representable range
// are rejected.
//
// Rules:
//   range.quantizer-degenerate  width/fraction outside the supported space
//   range.accumulator-overflow  a stage's worst case exceeds its capacity
//   range.offset-saturation     offset-min-sum offset zeroes every message
//   range.norm-degenerate       normalization factor quantizes to 0 (or
//                               amplifies, as a warning)
//   range.check-degree-cap      check degree exceeds the datapath buffers
//   range.clamp-mismatch        (warning) quantizer range exceeds the ±30
//                               reference clamp, fixed/float divergence
#pragma once

#include <string>
#include <vector>

#include "analysis/diag.hpp"
#include "code/params.hpp"
#include "core/types.hpp"
#include "quant/fixed.hpp"

namespace dvbs2::analysis {

/// One propagated datapath stage: the proven worst-case raw magnitude and
/// the capacity of the register/accumulator that holds it.
struct RangeStage {
    std::string stage;            ///< datapath point, e.g. "vn-accumulate"
    long long worst_magnitude = 0;
    long long capacity = 0;
    bool fits() const noexcept { return worst_magnitude <= capacity; }
};

/// Full result: the stage table (for reporting/inspection) plus diagnostics.
struct RangeAnalysis {
    std::vector<RangeStage> stages;
    Report report;
};

/// Propagates worst-case intervals for `params` decoded under `cfg` with
/// messages quantized by `spec`. Pure static computation; never throws.
RangeAnalysis analyze_fixed_point_range(const code::CodeParams& params,
                                        const core::DecoderConfig& cfg,
                                        const quant::QuantSpec& spec);

/// Report-only convenience.
Report lint_fixed_point(const code::CodeParams& params, const core::DecoderConfig& cfg,
                        const quant::QuantSpec& spec);

}  // namespace dvbs2::analysis

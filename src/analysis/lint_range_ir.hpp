// Rule family `range.ir.*`: per-event fixed-point range certification over
// the schedule dataflow IR (analysis/ir/absint.hpp).
//
// Where the legacy `range.*` family checks a hand-maintained min-sum stage
// table, this family compiles the configured schedule to its Def/Use/Sink
// event trace, runs the interval-domain abstract interpreter over it with
// the datapath's transfer functions, and reports the machine-checked
// RangeCertificate: per-storage-space and per-stage proven bounds, verified
// independently by check_range_certificate before any verdict is derived.
// The trace dims carry the linted code's worst-case degrees (its check
// in-degree and one information node of its deg_hi), so the certificate
// covers the concrete code; the quantizer and decoder knobs translate to
// the AbsintSpec exactly as core::engine_range_certificate translates them,
// keeping lint verdicts and engine-construction verdicts aligned.
//
// Rules:
//   range.ir.certificate   (note) checker-accepted certificate: the proven
//                          per-space peaks, fixpoint rounds, widenings
//   range.ir.overflow      (error) a proven bound exceeds its capacity; the
//                          message quotes the first offending trace event
//   range.ir.checker       (error) the independent checker rejected the
//                          interpreter's certificate (analyzer defect —
//                          surfaced loudly, never silently trusted)
//   range.ir.quantizer     (note) quantizer outside the certifiable space;
//                          see range.quantizer-degenerate for the error
//   range.ir.legacy        (note/error) cross-check against the legacy
//                          min-sum stage table: note when subsumed, error
//                          on a verdict divergence
#pragma once

#include <iosfwd>
#include <optional>

#include "analysis/diag.hpp"
#include "analysis/ir/absint.hpp"
#include "code/params.hpp"
#include "core/types.hpp"
#include "quant/fixed.hpp"

namespace dvbs2::analysis {

/// Full result: the certificate (when one was produced), the checker
/// verdict, and the derived diagnostics.
struct RangeIrAnalysis {
    std::optional<ir::RangeCertificate> certificate;
    bool checker_ok = false;
    Report report;
};

/// The AbsintSpec this family (and core::engine_range_certificate) derives
/// from a decoder config and quantizer — exposed so tests can pin the two
/// paths against each other.
ir::AbsintSpec absint_spec_for(const core::DecoderConfig& cfg, const quant::QuantSpec& spec);

/// The scaled-model trace dims carrying `params`' worst-case degrees.
ir::TraceDims range_trace_dims(const code::CodeParams& params);

/// Certifies `params` decoded under `cfg` with messages quantized by
/// `spec`. Pure static computation; never throws on overflow (the
/// certificate names the offender), only on malformed inputs the
/// quantizer gate did not cover.
RangeIrAnalysis analyze_range_ir(const code::CodeParams& params, const core::DecoderConfig& cfg,
                                 const quant::QuantSpec& spec);

/// Report-only convenience.
Report lint_range_ir(const code::CodeParams& params, const core::DecoderConfig& cfg,
                     const quant::QuantSpec& spec);

/// Renders one analysis as a JSON object (schedule, quantizer,
/// verdicts, space bounds, stage table, offender) — the payload behind
/// `dvbs2_lint --range-cert-json`.
void render_certificate_json(std::ostream& os, const std::string& target,
                             const core::DecoderConfig& cfg, const quant::QuantSpec& spec,
                             const RangeIrAnalysis& analysis);

}  // namespace dvbs2::analysis

// Cycle-driven behavioural model of the synthesizable IP core (paper
// Sec. 4, Fig. 4/5).
//
// This is the structural twin of the VHDL design: P functional units, the
// P-lane-wide IN message RAM addressed through the address/shuffle ROM, the
// cyclic shuffle network (read direction: rotate by s; write-back: rotate
// by −s, "shuffled back to their original position"), the parity-message
// RAM holding only the backward zigzag messages, per-FU forward registers
// with the segment-boundary hand-off between neighbouring FUs, and the
// channel RAMs.
//
// Functional correctness: bit-exact with the fixed-scalar engine
// (core::make_engine, Arithmetic::Fixed, Schedule::ZigzagSegmented) after
// set_cn_order(mapping.extract_cn_order())
// because both compute through core::compute_extrinsics over the same input
// sequences with the same saturating integer arithmetic (experiment E10).
//
// Timing: cycle counts come from the conflict simulator over the same
// mapping (reads, write-back bank conflicts, buffer drain).
#pragma once

#include <memory>
#include <vector>

#include "arch/conflict.hpp"
#include "arch/mapping.hpp"
#include "code/tanner.hpp"
#include "core/types.hpp"
#include "quant/fixed.hpp"

namespace dvbs2::arch {

/// Configuration of the RTL model. The schedule is inherently the segmented
/// zigzag (that *is* the hardware); DecoderConfig::schedule is ignored.
struct RtlConfig {
    core::DecoderConfig decoder;        ///< rule, iterations, early stop
    quant::QuantSpec spec = quant::kQuant6;
    MemoryConfig memory;                ///< banks/latency for cycle accounting
};

/// The decoder IP model.
class RtlDecoder {
public:
    /// `code` and `mapping` must outlive the decoder; `mapping` must belong
    /// to `code`.
    RtlDecoder(const code::Dvbs2Code& code, const HardwareMapping& mapping,
               const RtlConfig& cfg);
    ~RtlDecoder();
    RtlDecoder(RtlDecoder&&) noexcept;
    RtlDecoder& operator=(RtlDecoder&&) noexcept;

    /// Full decode from quantized channel values (size N).
    core::DecodeResult decode_raw(const std::vector<quant::QLLR>& ch);

    /// Decode from float LLRs (quantized internally, like the input stage).
    core::DecodeResult decode(const std::vector<double>& llr);

    /// Runs exactly `iters` iterations without early stop (for message-level
    /// equivalence checks).
    void run_iterations(const std::vector<quant::QLLR>& ch, int iters);

    /// RAM state translated to the canonical check-major edge order of the
    /// algorithmic decoder (valid after a check phase: CN→VN messages).
    std::vector<quant::QLLR> dump_c2v_canonical() const;

    /// Memory-conflict/cycle statistics of one iteration on this mapping.
    IterationStats iteration_stats() const;

    /// Total decode cycles for `iterations` iterations including the I/O
    /// share (C/P_IO with io_parallelism values per cycle).
    long long total_cycles(int iterations, int io_parallelism = 10) const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace dvbs2::arch

// Test-local core::Engine whose decode is a plain function, so harness tests
// can inject decoders with known behaviour (a bare channel hard decision, a
// "liar" that claims convergence on wrong words, a decoder that never
// succeeds) through the Monte-Carlo harness's one seam, comm::EngineFactory.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "comm/ber.hpp"
#include "core/engine.hpp"
#include "util/bitvec.hpp"

namespace dvbs2::test {

class FnEngine final : public core::Engine {
public:
    using Fn = std::function<void(std::span<const double> llr, core::DecodeResult& out)>;

    explicit FnEngine(Fn fn) : fn_(std::move(fn)) {}

    void set_observer(std::function<void(const core::IterationTrace&)> /*observer*/) override {}
    const core::DecoderConfig& config() const noexcept override { return cfg_; }
    core::Arithmetic arithmetic() const noexcept override { return core::Arithmetic::Float; }
    std::string backend_name() const override { return "test-fn"; }

protected:
    void do_decode_into(std::span<const double> llr, core::DecodeResult& out) override {
        fn_(llr, out);
    }

private:
    Fn fn_;
    core::DecoderConfig cfg_;
};

/// One FnEngine per worker, all running `fn` (which must be safe to call
/// from several workers at once).
inline comm::EngineFactory fn_factory(FnEngine::Fn fn) {
    return [fn = std::move(fn)](unsigned) { return std::make_unique<FnEngine>(fn); };
}

/// Sets `out` to the channel hard decision of the first `k` (information)
/// positions: bit 1 where the LLR is negative, or non-negative if `invert`.
/// No iterations, no convergence claim.
inline void hard_decision(std::span<const double> llr, int k, core::DecodeResult& out,
                          bool invert = false) {
    out.info_bits = util::BitVec(static_cast<std::size_t>(k));
    for (int v = 0; v < k; ++v)
        if ((llr[static_cast<std::size_t>(v)] < 0) != invert)
            out.info_bits.set(static_cast<std::size_t>(v), true);
    out.converged = false;
    out.iterations = 0;
}

}  // namespace dvbs2::test

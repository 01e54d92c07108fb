// Galois-field arithmetic GF(2^m) for the BCH outer code.
//
// The DVB-S2 FEC frame is BCH ⊕ LDPC: the standard protects each LDPC
// information block with a t-error-correcting binary BCH code over
// GF(2^16). This module provides exp/log-table arithmetic for 2 ≤ m ≤ 16
// with verified-primitive default polynomials. The exp table is stored twice
// over (2·(2^m − 1) entries), so a sum or difference of two logs indexes it
// directly and mul/div/inv need no modulo reduction.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace dvbs2::bch {

/// GF(2^m) with exp/log tables. Elements are integers in [0, 2^m);
/// 0 is the additive zero, alpha = 2 (the polynomial "x") is primitive.
class GaloisField {
public:
    /// Constructs GF(2^m) from `prim_poly` (bit i = coefficient of x^i,
    /// including the leading x^m term). Pass 0 to use the built-in
    /// primitive polynomial for m. Throws if the polynomial is not
    /// primitive (verified during table construction).
    explicit GaloisField(int m, std::uint32_t prim_poly = 0);

    int m() const noexcept { return m_; }
    /// Field size minus one: the multiplicative order 2^m − 1.
    std::uint32_t order() const noexcept { return order_; }

    /// alpha^i for any non-negative i (reduced mod order).
    std::uint32_t exp(std::uint64_t i) const noexcept { return exp_[i % order_]; }

    /// alpha^i for 0 ≤ i < 2·order(): one lookup in the doubled table, no
    /// reduction. For hot loops that keep their exponents in range.
    std::uint32_t exp_unreduced(std::uint32_t i) const noexcept {
        DVBS2_ASSERT(i < 2 * order_);
        return exp_[i];
    }

    /// Discrete log base alpha; x must be non-zero.
    std::uint32_t log(std::uint32_t x) const noexcept {
        DVBS2_ASSERT(x != 0 && x <= order_);
        return log_[x];
    }

    std::uint32_t mul(std::uint32_t a, std::uint32_t b) const noexcept {
        if (a == 0 || b == 0) return 0;
        return exp_[log_[a] + log_[b]];
    }

    /// Multiplicative inverse; x must be non-zero.
    std::uint32_t inv(std::uint32_t x) const noexcept {
        DVBS2_ASSERT(x != 0);
        return exp_[order_ - log_[x]];
    }

    std::uint32_t div(std::uint32_t a, std::uint32_t b) const noexcept {
        DVBS2_ASSERT(b != 0);
        if (a == 0) return 0;
        return exp_[log_[a] + order_ - log_[b]];
    }

    /// Default primitive polynomial for GF(2^m), 2 ≤ m ≤ 16.
    static std::uint32_t default_primitive_poly(int m);

private:
    int m_;
    std::uint32_t order_;
    // Elements and logs fit 16 bits for m ≤ 16.
    std::vector<std::uint16_t> exp_;  // size 2·order_: exp_[i] = alpha^(i mod order_)
    std::vector<std::uint16_t> log_;  // size order_+1 (log_[0] unused)
};

}  // namespace dvbs2::bch

// Binary BCH codec — the outer code of the DVB-S2 FEC frame.
//
// DVB-S2 concatenates a t-error-correcting BCH code (long frames: t ∈ {8,
// 10, 12} over GF(2^16); short frames: t = 12 over GF(2^14)) with the LDPC
// inner code: BCHFEC output length equals K_ldpc.
// The DATE'05 paper covers only the LDPC decoder; this module completes the
// FEC chain so the repository is usable as a full DVB-S2 FEC stack (see
// examples/fec_chain.cpp).
//
// Generic construction: g(x) = lcm of the minimal polynomials of
// α, α³, …, α^(2t−1). Encoding, the codeword test and decoding share one
// table-driven LFSR division, R(x) = x^P·w(x) mod g(x) taken a byte at a
// time. A word is a codeword iff R = 0; otherwise the 2t syndromes follow
// from the ≤ P-bit remainder, then Berlekamp–Massey and a log-domain Chien
// search (binary code: error magnitudes are all 1). Shortening is implicit:
// any k ≤ k_max is encoded as if the leading information bits were zero.
#pragma once

#include <memory>
#include <optional>

#include "bch/gf.hpp"
#include "code/params.hpp"
#include "util/bitvec.hpp"

namespace dvbs2::bch {

/// Outcome of a BCH decode.
struct BchDecodeResult {
    util::BitVec codeword;     ///< corrected codeword (same length as input)
    int errors_corrected = 0;  ///< number of bit flips applied
    bool success = false;      ///< false → more than t errors detected
};

/// A t-error-correcting binary BCH code over GF(2^m), shortened to length
/// `n` (information length n − parity_bits()).
class BchCode {
public:
    /// Builds the code. Requires 2t − 1 < 2^m − 1. `n` ≤ 2^m − 1 is the
    /// (shortened) codeword length; it must leave at least one information
    /// bit after the m·t-ish parity.
    BchCode(int m, int t, int n);
    ~BchCode();
    BchCode(BchCode&&) noexcept;
    BchCode& operator=(BchCode&&) noexcept;

    int n() const noexcept;            ///< codeword length
    int k() const noexcept;            ///< information length
    int t() const noexcept;            ///< correctable errors
    int parity_bits() const noexcept;  ///< deg g(x)

    /// Systematic encode: information bits first, then parity.
    util::BitVec encode(const util::BitVec& info) const;

    /// True iff g(x) divides the word (all syndromes vanish).
    bool is_codeword(const util::BitVec& word) const;

    /// Decodes (corrects up to t bit errors in place of a copy).
    BchDecodeResult decode(const util::BitVec& word) const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// The DVB-S2 outer-code parameters for an LDPC rate and frame size:
/// N_bch = K_ldpc, with m, t and K_bch per EN 302 307 Table 5a (long) or
/// Table 5b (short).
struct Dvbs2BchParams {
    int m = 0;      ///< field GF(2^m): 16 long, 14 short
    int t = 0;
    int n_bch = 0;  ///< = K_ldpc
    int k_bch = 0;  ///< = N_bch − m·t
};

/// Throws for a rate the frame size does not define (9/10 short).
Dvbs2BchParams dvbs2_bch_params(code::CodeRate rate,
                                code::FrameSize frame = code::FrameSize::Long);

}  // namespace dvbs2::bch

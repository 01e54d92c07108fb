#include "bch/bch.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace dvbs2::bch {

namespace {

/// Dense binary polynomial, one bit per coefficient, in 64-bit words.
using BitPoly = std::vector<std::uint64_t>;

void set_bit(BitPoly& p, int i) { p[static_cast<std::size_t>(i >> 6)] |= std::uint64_t{1} << (i & 63); }

}  // namespace

// Every hot path runs on one remainder, R(x) = x^P·w(x) mod g(x) with
// P = deg g, kept in reflected form: bit b of the state is the coefficient
// of x^(P-1-b). That order matches the word's transmission order, so input
// words of the BitVec are XORed straight into the state and consumed a byte
// at a time through a 256-entry table: state = (state >> 8) ^ T[state & 0xFF].
// Bits of the state at or above P hold input not yet consumed, which is what
// makes the byte step exact for any P, including P < 8.
struct BchCode::Impl {
    Impl(int m_in, int t_in, int n_in) : gf(m_in), t(t_in), n(n_in) {
        DVBS2_REQUIRE(t >= 1, "t must be at least 1");
        DVBS2_REQUIRE(2 * static_cast<std::int64_t>(t) - 1 < gf.order(),
                      "t=" + std::to_string(t) + " too large for GF(2^" + std::to_string(m_in) +
                          "): need 2t-1 < " + std::to_string(gf.order()));
        DVBS2_REQUIRE(n <= static_cast<int>(gf.order()), "n exceeds 2^m - 1");

        // Generator polynomial: product of the minimal polynomials of
        // alpha^i for i = 1, 3, ..., 2t-1 (one per cyclotomic coset).
        std::vector<char> in_coset(gf.order() + 1, 0);
        // Coefficients of g over GF(2^m) during construction (they are all
        // 0/1 at the end because each factor is a complete coset product).
        std::vector<std::uint32_t> g = {1};
        for (int i = 1; i <= 2 * t - 1; i += 2) {
            if (in_coset[static_cast<std::size_t>(i)]) continue;
            // Walk the coset {i·2^j mod order}.
            std::uint64_t e = static_cast<std::uint64_t>(i);
            do {
                in_coset[static_cast<std::size_t>(e)] = 1;
                // Multiply g by (x + alpha^e).
                const std::uint32_t root = gf.exp(e);
                g.push_back(0);
                for (std::size_t d = g.size() - 1; d > 0; --d)
                    g[d] = g[d - 1] ^ gf.mul(g[d], root);
                g[0] = gf.mul(g[0], root);
                e = (e * 2) % gf.order();
            } while (e != static_cast<std::uint64_t>(i));
        }
        for (std::uint32_t c : g)
            DVBS2_REQUIRE(c <= 1, "generator polynomial has a non-binary coefficient");
        parity = static_cast<int>(g.size()) - 1;
        DVBS2_REQUIRE(n > parity, "codeword too short for the parity bits");

        words = (parity + 63) / 64;
        feedback.assign(static_cast<std::size_t>(words), 0);
        for (int d = 0; d < parity; ++d)  // g without the leading term, reflected
            if (g[static_cast<std::size_t>(d)]) set_bit(feedback, parity - 1 - d);

        // T[u]: eight clocks from the zero state with input byte u.
        table.assign(256 * static_cast<std::size_t>(words), 0);
        for (std::uint32_t u = 0; u < 256; ++u) {
            std::uint64_t* row = &table[u * static_cast<std::size_t>(words)];
            row[0] = u;
            for (int b = 0; b < 8; ++b) clock(row);
        }
    }

    /// One LFSR clock: consumes the input bit at state bit 0.
    void clock(std::uint64_t* s) const noexcept {
        const bool fb = s[0] & 1u;
        for (int w = 0; w + 1 < words; ++w) s[w] = (s[w] >> 1) | (s[w + 1] << 63);
        s[words - 1] >>= 1;
        if (fb)
            for (int w = 0; w < words; ++w) s[w] ^= feedback[static_cast<std::size_t>(w)];
    }

    /// Eight clocks at once through the table.
    void clock_byte(std::uint64_t* s) const noexcept {
        const std::uint64_t* row = &table[(s[0] & 0xFF) * static_cast<std::size_t>(words)];
        for (int w = 0; w + 1 < words; ++w) s[w] = ((s[w] >> 8) | (s[w + 1] << 56)) ^ row[w];
        s[words - 1] = (s[words - 1] >> 8) ^ row[words - 1];
    }

    /// Reflected remainder x^P·w(x) mod g(x) of the word `bits`, bit 0 being
    /// the highest-degree coefficient of w. Zero iff g divides w.
    BitPoly remainder(const util::BitVec& bits) const {
        BitPoly s(static_cast<std::size_t>(words), 0);
        const std::size_t full = bits.size() / 64;
        for (std::size_t i = 0; i < full; ++i) {
            s[0] ^= bits.word(i);
            for (int b = 0; b < 8; ++b) clock_byte(s.data());
        }
        if (const int tail = static_cast<int>(bits.size() % 64); tail != 0) {
            s[0] ^= bits.word(full);  // bits past size() are zero
            for (int b = 0; b < tail / 8; ++b) clock_byte(s.data());
            for (int b = 0; b < tail % 8; ++b) clock(s.data());
        }
        return s;
    }

    /// Syndromes S_1..S_2t from the remainder: g(alpha^i) = 0 gives
    /// R(alpha^i) = alpha^(iP)·w(alpha^i), so state bit b contributes
    /// alpha^(-i(b+1)) to S_i. Costs O(popcount(R)·2t), not O(n·2t).
    std::vector<std::uint32_t> syndromes(const BitPoly& rem) const {
        const std::uint32_t order = gf.order();
        std::vector<std::uint32_t> s(static_cast<std::size_t>(2 * t), 0);
        for (int w = 0; w < words; ++w)
            for (std::uint64_t set = rem[static_cast<std::size_t>(w)]; set != 0; set &= set - 1) {
                const int b = 64 * w + std::countr_zero(set);
                // b + 1 <= P < n <= order, so the step is in [1, order).
                const std::uint32_t step = order - static_cast<std::uint32_t>(b + 1);
                std::uint32_t e = 0;
                for (auto& si : s) {
                    e += step;
                    if (e >= order) e -= order;
                    si ^= gf.exp_unreduced(e);
                }
            }
        return s;
    }

    GaloisField gf;
    int t;
    int n;
    int parity = 0;
    int words = 1;     // state words, ceil(P / 64)
    BitPoly feedback;  // g(x) without x^P, reflected: bit b ↔ x^(P-1-b)
    BitPoly table;     // 256 rows of `words` words
};

BchCode::BchCode(int m, int t, int n) : impl_(std::make_unique<Impl>(m, t, n)) {}
BchCode::~BchCode() = default;
BchCode::BchCode(BchCode&&) noexcept = default;
BchCode& BchCode::operator=(BchCode&&) noexcept = default;

int BchCode::n() const noexcept { return impl_->n; }
int BchCode::k() const noexcept { return impl_->n - impl_->parity; }
int BchCode::t() const noexcept { return impl_->t; }
int BchCode::parity_bits() const noexcept { return impl_->parity; }

util::BitVec BchCode::encode(const util::BitVec& info) const {
    DVBS2_REQUIRE(info.size() == static_cast<std::size_t>(k()), "info length mismatch");
    util::BitVec cw(static_cast<std::size_t>(n()));
    const auto set_ones = [&cw](std::uint64_t word, std::size_t at) {
        for (; word != 0; word &= word - 1)
            cw.set(at + static_cast<std::size_t>(std::countr_zero(word)), true);
    };
    for (std::size_t w = 0; w * 64 < info.size(); ++w) set_ones(info.word(w), 64 * w);
    // Parity bits follow, highest-degree remainder coefficient first: the
    // reflected remainder's bit order.
    const auto rem = impl_->remainder(info);
    for (std::size_t w = 0; w < rem.size(); ++w) set_ones(rem[w], info.size() + 64 * w);
    return cw;
}

bool BchCode::is_codeword(const util::BitVec& word) const {
    DVBS2_REQUIRE(word.size() == static_cast<std::size_t>(n()), "length mismatch");
    const auto rem = impl_->remainder(word);
    return std::all_of(rem.begin(), rem.end(), [](std::uint64_t w) { return w == 0; });
}

BchDecodeResult BchCode::decode(const util::BitVec& word) const {
    DVBS2_REQUIRE(word.size() == static_cast<std::size_t>(n()), "length mismatch");
    const auto& gf = impl_->gf;
    const int t = impl_->t;

    BchDecodeResult out;
    out.codeword = word;

    const auto rem = impl_->remainder(word);
    if (std::all_of(rem.begin(), rem.end(), [](std::uint64_t w) { return w == 0; })) {
        out.success = true;
        return out;
    }
    const auto s = impl_->syndromes(rem);

    // Berlekamp–Massey: find the shortest LFSR (error locator sigma) that
    // generates the syndrome sequence.
    std::vector<std::uint32_t> sigma = {1}, prev = {1};
    int L = 0, shift = 1;
    std::uint32_t prev_disc = 1;
    for (int step = 0; step < 2 * t; ++step) {
        std::uint32_t disc = s[static_cast<std::size_t>(step)];
        for (int i = 1; i <= L && i < static_cast<int>(sigma.size()); ++i)
            disc ^= gf.mul(sigma[static_cast<std::size_t>(i)], s[static_cast<std::size_t>(step - i)]);
        if (disc == 0) {
            ++shift;
            continue;
        }
        const std::uint32_t factor = gf.div(disc, prev_disc);
        std::vector<std::uint32_t> next = sigma;
        if (next.size() < prev.size() + static_cast<std::size_t>(shift))
            next.resize(prev.size() + static_cast<std::size_t>(shift), 0);
        for (std::size_t i = 0; i < prev.size(); ++i)
            next[i + static_cast<std::size_t>(shift)] ^= gf.mul(factor, prev[i]);
        if (2 * L <= step) {
            prev = sigma;
            prev_disc = disc;
            L = step + 1 - L;
            shift = 1;
        } else {
            ++shift;
        }
        sigma = std::move(next);
    }
    while (!sigma.empty() && sigma.back() == 0) sigma.pop_back();
    const int deg = static_cast<int>(sigma.size()) - 1;
    if (L > t || deg != L) return out;  // uncorrectable

    // Chien search: position j (coefficient of x^(n-1-j)) is in error iff
    // sigma(alpha^{-(n-1-j)}) = 0. In the log domain, term d at position j is
    // alpha^(log sigma_d - d(n-1-j)), so its exponent grows by d (< order)
    // per position and one conditional subtract keeps it reduced.
    const std::uint32_t order = gf.order();
    std::vector<std::uint32_t> term_exp, term_step;
    for (int d = 1; d <= deg; ++d) {
        if (sigma[static_cast<std::size_t>(d)] == 0) continue;
        const std::uint64_t back =
            static_cast<std::uint64_t>(d) * static_cast<std::uint64_t>(impl_->n - 1) % order;
        term_exp.push_back(static_cast<std::uint32_t>(
            (gf.log(sigma[static_cast<std::size_t>(d)]) + order - back) % order));
        term_step.push_back(static_cast<std::uint32_t>(d));
    }
    int found = 0;
    for (int j = 0; j < impl_->n && found < L; ++j) {
        std::uint32_t val = sigma[0];
        for (std::size_t i = 0; i < term_exp.size(); ++i) {
            val ^= gf.exp_unreduced(term_exp[i]);
            term_exp[i] += term_step[i];
            if (term_exp[i] >= order) term_exp[i] -= order;
        }
        if (val == 0) {
            out.codeword.flip(static_cast<std::size_t>(j));
            ++found;
        }
    }
    if (found != L) return out;  // roots outside the shortened range
    out.errors_corrected = found;
    out.success = true;
    return out;
}

Dvbs2BchParams dvbs2_bch_params(code::CodeRate rate, code::FrameSize frame) {
    // N_bch = K_ldpc. Table 5b (short frames): GF(2^14), t = 12 for every
    // rate. Table 5a (long frames): GF(2^16), t per rate.
    const auto p = code::standard_params(rate, frame);
    if (frame == code::FrameSize::Short) return {14, 12, p.k, p.k - 14 * 12};
    int t = 12;
    if (rate == code::CodeRate::R2_3 || rate == code::CodeRate::R5_6) t = 10;
    if (rate == code::CodeRate::R8_9 || rate == code::CodeRate::R9_10) t = 8;
    return {16, t, p.k, p.k - 16 * t};
}

}  // namespace dvbs2::bch
